//! The communicator contract and its single-rank implementation.
//!
//! [`Comm`] layers its collectives the way an MPI implementation does: an
//! implementation supplies a raw tagged send/receive pair and a
//! collective-tag sequence, and the barrier, the reduction, the gathers,
//! the all-to-all and [`Comm::split`] are provided methods written once
//! over them (reduce-to-root then fan-out for the reduction and the
//! barrier, direct exchanges for the gathers and the all-to-all). One copy
//! is part of the equivalence story: the serial/distributed bitwise
//! contract depends on every communicator combining values in the same
//! order.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use crate::fault::CommError;
use crate::subcomm::{split_known, SubComm};

/// Tag bit reserved for collective traffic. User tags must keep this bit
/// clear; `sm-dbcsr`'s wire module funnels all tagged block traffic
/// through a checked constructor that enforces this.
pub const COLLECTIVE_BIT: u64 = 1 << 63;

/// Message payload. Keeping this a closed enum (instead of generics) lets
/// heterogeneous traffic — dense block data, block-ID lists — share one
/// mailbox and one byte-accounting path.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Dense floating-point data (matrix blocks, reduction operands).
    F64(Vec<f64>),
    /// Single-precision dense data — the reduced-precision value wire
    /// format of `sm_dbcsr::wire` (half the bytes of `F64`).
    F32(Vec<f32>),
    /// Index/ID lists (block IDs, counts, permutations).
    U64(Vec<u64>),
}

impl Payload {
    /// Wire size in bytes (what an MPI implementation would move).
    pub fn byte_len(&self) -> usize {
        match self {
            Payload::F64(v) => v.len() * 8,
            Payload::F32(v) => v.len() * 4,
            Payload::U64(v) => v.len() * 8,
        }
    }

    /// Unwrap an `F64` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different variant — a protocol error.
    pub fn into_f64(self) -> Vec<f64> {
        match self {
            Payload::F64(v) => v,
            other => panic!("expected F64 payload, got {other:?}"),
        }
    }

    /// Unwrap a `U64` payload.
    ///
    /// # Panics
    /// Panics if the payload has a different variant — a protocol error.
    pub fn into_u64(self) -> Vec<u64> {
        match self {
            Payload::U64(v) => v,
            other => panic!("expected U64 payload, got {other:?}"),
        }
    }
}

/// Reduction operators for [`Comm::allreduce_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Combine two scalars.
    #[inline]
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// MPI-like communicator. All collectives are blocking and must be entered
/// by every rank of the communicator, in the same order (as in MPI).
///
/// An implementation supplies [`send_raw`](Comm::send_raw),
/// [`recv_raw`](Comm::recv_raw) and
/// [`next_collective_tag`](Comm::next_collective_tag); every collective is
/// a provided method over those three. A dead member fails a collective
/// like any receive: the blocking receive on it panics instead of hanging.
pub trait Comm {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Post `payload` to `dst` under a tag of this communicator's whole
    /// tag space, reserved bits included: the transport of the user sends,
    /// the collectives and the subgroups carved from this communicator.
    /// Sending to self is allowed and delivered through the local mailbox.
    fn send_raw(&self, dst: usize, tag: u64, payload: Payload);

    /// Blocking receive of the oldest message from `src` under raw `tag`.
    /// Messages between the same (src, dst, tag) triple preserve order.
    fn recv_raw(&self, src: usize, tag: u64) -> Payload;

    /// Take the next tag of this rank's collective sequence. Every rank
    /// enters the collectives in the same order, so the `n`-th tag is the
    /// same on every rank and successive collectives never cross-match.
    fn next_collective_tag(&self) -> u64;

    /// Post a message to `dst` with a user `tag`. Sending to self is
    /// allowed and delivered through the local mailbox.
    fn send(&self, dst: usize, tag: u64, payload: Payload) {
        self.send_raw(dst, tag, payload);
    }

    /// Blocking receive of the message from `src` carrying user `tag`.
    /// Messages between the same (src, dst, tag) triple preserve order.
    fn recv(&self, src: usize, tag: u64) -> Payload {
        self.recv_raw(src, tag)
    }

    /// Deadline-based receive: blocks at most `timeout`, then returns
    /// [`CommError::Timeout`]; a peer known to have failed yields
    /// [`CommError::RankFailed`] without waiting. This is the primitive
    /// that guarantees a dead peer can never hang a group. The default
    /// forwards to the blocking [`recv`](Comm::recv): fault-tolerant
    /// protocols post their deadline receives on the world communicator,
    /// never on a subgroup.
    fn recv_deadline(&self, src: usize, tag: u64, timeout: Duration) -> Result<Payload, CommError> {
        let _ = timeout;
        Ok(self.recv(src, tag))
    }

    /// Synchronize all ranks: gather-to-root plus release fan-out.
    fn barrier(&self) {
        let (up, down) = (self.next_collective_tag(), self.next_collective_tag());
        if self.rank() == 0 {
            for src in 1..self.size() {
                self.recv_raw(src, up);
            }
            for dst in 1..self.size() {
                self.send_raw(dst, down, Payload::U64(Vec::new()));
            }
        } else {
            self.send_raw(0, up, Payload::U64(Vec::new()));
            self.recv_raw(0, down);
        }
    }

    /// In-place elementwise reduction across ranks; every rank ends up
    /// with the combined vector. Rank 0 combines contributions in
    /// ascending source order, which fixes the floating-point summation
    /// order on every communicator.
    fn allreduce_f64(&self, op: ReduceOp, x: &mut [f64]) {
        let (up, down) = (self.next_collective_tag(), self.next_collective_tag());
        if self.rank() == 0 {
            for src in 1..self.size() {
                let contrib = self.recv_raw(src, up).into_f64();
                assert_eq!(contrib.len(), x.len(), "allreduce length mismatch");
                for (xi, ci) in x.iter_mut().zip(contrib) {
                    *xi = op.combine(*xi, ci);
                }
            }
            for dst in 1..self.size() {
                self.send_raw(dst, down, Payload::F64(x.to_vec()));
            }
        } else {
            self.send_raw(0, up, Payload::F64(x.to_vec()));
            x.copy_from_slice(&self.recv_raw(0, down).into_f64());
        }
    }

    /// Gather each rank's (variable-length) vector on every rank, indexed
    /// by source rank.
    fn allgather_u64(&self, local: &[u64]) -> Vec<Vec<u64>> {
        allgather(self, local, Payload::U64, Payload::into_u64)
    }

    /// Gather each rank's (variable-length) f64 vector on every rank.
    fn allgather_f64(&self, local: &[f64]) -> Vec<Vec<f64>> {
        allgather(self, local, Payload::F64, Payload::into_f64)
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns the
    /// payload received from each source rank (the self-slot passes
    /// through locally; empty vectors allowed).
    fn alltoallv(&self, sends: Vec<Payload>) -> Vec<Payload> {
        assert_eq!(
            sends.len(),
            self.size(),
            "alltoallv needs one payload per rank"
        );
        let tag = self.next_collective_tag();
        let me = self.rank();
        let mut out: Vec<Option<Payload>> = (0..sends.len()).map(|_| None).collect();
        for (dst, payload) in sends.into_iter().enumerate() {
            if dst == me {
                out[dst] = Some(payload);
            } else {
                self.send_raw(dst, tag, payload);
            }
        }
        (0..out.len())
            .map(|src| out[src].take().unwrap_or_else(|| self.recv_raw(src, tag)))
            .collect()
    }

    /// Collectively partition this communicator into subgroups by `color`
    /// (MPI_Comm_split): every rank must call this; ranks sharing a color
    /// form one [`SubComm`], ordered by `(key, rank)`. It is one allgather
    /// of `(color, key)` plus [`split_known`] over the members found; see
    /// [`crate::subcomm`] for the tag-namespace contract. There is no
    /// `MPI_UNDEFINED`: callers that want idle ranks give them a private
    /// color and leave the subgroup unused.
    fn split(&self, color: u64, key: u64) -> SubComm<'_, Self>
    where
        Self: Sized,
    {
        let all = self.allgather_u64(&[color, key]);
        let mut members: Vec<(u64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, ck)| ck[0] == color)
            .map(|(r, ck)| (ck[1], r))
            .collect();
        members.sort();
        split_known(self, color, members.into_iter().map(|(_, r)| r).collect())
    }
}

/// Every rank sends `local` to every other rank under one collective tag,
/// then receives theirs in ascending source order.
fn allgather<C: Comm + ?Sized, V: Clone>(
    c: &C,
    local: &[V],
    wrap: impl Fn(Vec<V>) -> Payload,
    open: impl Fn(Payload) -> Vec<V>,
) -> Vec<Vec<V>> {
    let tag = c.next_collective_tag();
    let me = c.rank();
    for dst in (0..c.size()).filter(|&d| d != me) {
        c.send_raw(dst, tag, wrap(local.to_vec()));
    }
    (0..c.size())
        .map(|src| {
            if src == me {
                local.to_vec()
            } else {
                open(c.recv_raw(src, tag))
            }
        })
        .collect()
}

/// Trivial single-rank communicator: every message is a self-delivery
/// through a mailbox, and every collective is the identity.
#[derive(Default)]
pub struct SerialComm {
    mailbox: parking_lot::Mutex<HashMap<u64, VecDeque<Payload>>>,
}

impl SerialComm {
    /// Create a fresh single-rank communicator.
    pub fn new() -> Self {
        Self::default()
    }

    fn pop(&self, src: usize, tag: u64) -> Option<Payload> {
        assert_eq!(src, 0, "SerialComm only has rank 0");
        self.mailbox
            .lock()
            .get_mut(&tag)
            .and_then(|q| q.pop_front())
    }
}

impl Comm for SerialComm {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn send_raw(&self, dst: usize, tag: u64, payload: Payload) {
        assert_eq!(dst, 0, "SerialComm only has rank 0");
        self.mailbox
            .lock()
            .entry(tag)
            .or_default()
            .push_back(payload);
    }

    fn recv_raw(&self, src: usize, tag: u64) -> Payload {
        self.pop(src, tag)
            .expect("SerialComm::recv with empty mailbox would deadlock")
    }

    /// A single rank's collectives send nothing, so one tag serves them all.
    fn next_collective_tag(&self) -> u64 {
        COLLECTIVE_BIT
    }

    /// A single rank has nobody to wait on: if the mailbox is empty now it
    /// stays empty, so an empty mailbox is an immediate [`CommError::Timeout`]
    /// rather than the deadlock panic of the blocking [`recv`](Comm::recv).
    fn recv_deadline(
        &self,
        src: usize,
        tag: u64,
        _timeout: Duration,
    ) -> Result<Payload, CommError> {
        self.pop(src, tag).ok_or(CommError::Timeout { src, tag })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_byte_len() {
        assert_eq!(Payload::F64(vec![0.0; 3]).byte_len(), 24);
        assert_eq!(Payload::F32(vec![0.0; 3]).byte_len(), 12);
        assert_eq!(Payload::U64(vec![0; 2]).byte_len(), 16);
    }

    #[test]
    fn payload_unwrap() {
        assert_eq!(Payload::F64(vec![1.0]).into_f64(), vec![1.0]);
        assert_eq!(Payload::U64(vec![2]).into_u64(), vec![2]);
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn payload_wrong_unwrap_panics() {
        Payload::U64(vec![1]).into_f64();
    }

    #[test]
    fn reduce_ops() {
        assert_eq!(ReduceOp::Sum.combine(1.0, 2.0), 3.0);
        assert_eq!(ReduceOp::Max.combine(1.0, 2.0), 2.0);
        assert_eq!(ReduceOp::Min.combine(1.0, 2.0), 1.0);
    }

    #[test]
    fn serial_comm_self_messaging() {
        let c = SerialComm::new();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        c.send(0, 7, Payload::F64(vec![1.0, 2.0]));
        c.send(0, 7, Payload::F64(vec![3.0]));
        assert_eq!(c.recv(0, 7).into_f64(), vec![1.0, 2.0]);
        assert_eq!(c.recv(0, 7).into_f64(), vec![3.0]);
    }

    #[test]
    fn serial_recv_deadline_times_out_instead_of_deadlocking() {
        let c = SerialComm::new();
        assert_eq!(
            c.recv_deadline(0, 7, Duration::from_millis(1)),
            Err(CommError::Timeout { src: 0, tag: 7 })
        );
        c.send(0, 7, Payload::U64(vec![9]));
        assert_eq!(
            c.recv_deadline(0, 7, Duration::from_millis(1))
                .unwrap()
                .into_u64(),
            vec![9]
        );
    }

    #[test]
    fn serial_collectives() {
        let c = SerialComm::new();
        c.barrier();
        let mut x = vec![1.0, 2.0];
        c.allreduce_f64(ReduceOp::Sum, &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
        assert_eq!(c.allgather_u64(&[5, 6]), vec![vec![5, 6]]);
        let recv = c.alltoallv(vec![Payload::U64(vec![9])]);
        assert_eq!(recv[0].clone().into_u64(), vec![9]);
    }
}
