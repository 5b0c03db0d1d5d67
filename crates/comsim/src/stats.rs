//! Per-rank communication accounting.
//!
//! The paper's Sec. IV-B argues for *deduplicated* block transfers: each
//! DBCSR block travels at most once between any pair of ranks during
//! submatrix-method initialization. These counters make that property
//! measurable; the planned savings themselves are asserted by
//! `claim_transfers_are_deduplicated` in `tests/paper_claims.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe transfer counters for one communicator.
#[derive(Debug)]
pub struct CommStats {
    bytes_sent: Vec<AtomicU64>,
    msgs_sent: Vec<AtomicU64>,
}

impl CommStats {
    /// Fresh zeroed counters for `size` ranks.
    pub fn new(size: usize) -> Arc<Self> {
        Arc::new(CommStats {
            bytes_sent: (0..size).map(|_| AtomicU64::new(0)).collect(),
            msgs_sent: (0..size).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Record a message of `bytes` sent by `rank`. Self-sends are counted
    /// too; callers that want MPI-comparable numbers should avoid
    /// self-sends or subtract them.
    pub fn record_send(&self, rank: usize, bytes: usize) {
        self.bytes_sent[rank].fetch_add(bytes as u64, Ordering::Relaxed);
        self.msgs_sent[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Bytes sent by one rank.
    pub fn bytes_sent_by(&self, rank: usize) -> u64 {
        self.bytes_sent[rank].load(Ordering::Relaxed)
    }

    /// Messages sent by one rank.
    pub fn msgs_sent_by(&self, rank: usize) -> u64 {
        self.msgs_sent[rank].load(Ordering::Relaxed)
    }

    /// Total bytes sent across all ranks.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Total messages sent across all ranks.
    pub fn total_msgs(&self) -> u64 {
        self.msgs_sent
            .iter()
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Number of ranks tracked.
    pub fn size(&self) -> usize {
        self.bytes_sent.len()
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        for a in &self.bytes_sent {
            a.store(0, Ordering::Relaxed);
        }
        for a in &self.msgs_sent {
            a.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let s = CommStats::new(3);
        s.record_send(0, 100);
        s.record_send(0, 50);
        s.record_send(2, 10);
        assert_eq!(s.bytes_sent_by(0), 150);
        assert_eq!(s.msgs_sent_by(0), 2);
        assert_eq!(s.bytes_sent_by(1), 0);
        assert_eq!(s.total_bytes(), 160);
        assert_eq!(s.total_msgs(), 3);
        assert_eq!(s.size(), 3);
    }

    #[test]
    fn reset_zeroes() {
        let s = CommStats::new(2);
        s.record_send(1, 9);
        s.reset();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.total_msgs(), 0);
    }

    #[test]
    fn concurrent_recording() {
        let s = CommStats::new(4);
        std::thread::scope(|scope| {
            for r in 0..4 {
                let s = &s;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        s.record_send(r, 8);
                    }
                });
            }
        });
        assert_eq!(s.total_bytes(), 4 * 1000 * 8);
        assert_eq!(s.total_msgs(), 4000);
    }
}
