//! Deterministic fault injection for the simulated communicators.
//!
//! A [`FaultPlan`] is a *seeded, immutable script* of abnormal conditions —
//! rank-fails-at-epoch-N, slow ranks, poisoned job attempts — that the communicators ([`ThreadComm`](crate::thread::ThreadComm)
//! via [`run_ranks_with_faults`](crate::thread::run_ranks_with_faults)) and
//! the scheduler consult through **pure queries**. Because the plan is pure
//! data, every layer that reads it reaches the same conclusions without any
//! cross-rank agreement protocol, and a run under a given plan is exactly
//! reproducible: rerunning the same seed yields identical retry, quarantine,
//! and injection counters. That is what lets the `fault_equivalence` suite
//! assert bitwise-identical results for every non-quarantined job.
//!
//! Abnormal *outcomes* surface as typed [`CommError`]s from the one
//! fallible primitive, [`Comm::recv_deadline`](crate::comm::Comm::recv_deadline),
//! instead of panics; a deadline-based receive guarantees a dead peer can
//! never hang a group. Shared runtime state — which ranks have actually
//! failed, how many injections fired — lives in a [`FaultState`] so
//! surviving ranks can detect a death *deterministically* (a failing rank
//! poisons its channels and raises its flag; the timeout is only the
//! backstop of last resort).
//!
//! ## What never fails
//!
//! Rank 0 is the coordinator: it collects results, commits the fault
//! consensus, and reports to the caller. Plans must not fail rank 0 — the
//! same assumption MPI applications make about the rank that holds the
//! session — and [`FaultPlan::random`] never generates such a plan.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Typed communication failure, returned by a deadline receive instead of
/// a panic. Programmer errors (wrong payload variant,
/// tag-namespace trespass) still panic; `CommError` is reserved for
/// conditions a robust caller is expected to handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// The peer rank has failed (poisoned its channels or was committed
    /// failed by consensus); no further messages from it can arrive.
    RankFailed {
        /// World rank of the dead peer.
        rank: usize,
    },
    /// No matching message arrived before the deadline.
    Timeout {
        /// Source rank the receive was posted against.
        src: usize,
        /// Tag the receive was posted against.
        tag: u64,
    },
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::RankFailed { rank } => write!(f, "rank {rank} failed"),
            CommError::Timeout { src, tag } => {
                write!(f, "timed out waiting for src {src} tag {tag:#x}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// Seeded, immutable fault script. Build with the `with_*`/`fail_*`
/// methods or [`FaultPlan::random`]; query from any rank — all queries are
/// pure functions of the plan, so no coordination is needed to agree on
/// what the plan says.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    /// rank → epoch at whose boundary the rank dies (before consensus).
    rank_fail_epoch: BTreeMap<usize, usize>,
    /// (job, attempt) pairs whose execution is detected as corrupt and
    /// discarded (attempts are 1-based).
    poisoned: BTreeSet<(usize, usize)>,
    /// rank → per-send stall in microseconds (wall-clock only; results
    /// are unaffected — this models a straggler, not corruption).
    slow: BTreeMap<usize, u64>,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the seed this plan was derived from (reporting only).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Rank `rank` dies at the boundary of epoch `epoch`, before taking
    /// part in that epoch's fault consensus. Rank 0 must never fail (it is
    /// the coordinator); schedulers assert this on installation.
    pub fn fail_rank(mut self, rank: usize, epoch: usize) -> Self {
        self.rank_fail_epoch.insert(rank, epoch);
        self
    }

    /// Attempt `attempt` (1-based) of job `job` is detected as corrupt and
    /// discarded; the job re-enters the deferred queue (or is quarantined
    /// once its retry budget is exhausted).
    pub fn poison_job(mut self, job: usize, attempt: usize) -> Self {
        self.poisoned.insert((job, attempt));
        self
    }

    /// Every send from `rank` stalls `micros` microseconds (wall-clock
    /// straggler; deterministic in results).
    pub fn slow_rank(mut self, rank: usize, micros: u64) -> Self {
        self.slow.insert(rank, micros);
        self
    }

    /// Seeded random plan, safe for the scheduler's recovery contract:
    /// rank failures at epoch boundaries (never rank 0), poisoned job
    /// attempts, and a wall-clock straggler.
    pub fn random(seed: u64, world: usize, n_jobs: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new().with_seed(seed);
        if world >= 2 {
            let max_failures = (world - 1).min(2);
            let n_failures = (rng.next() % (max_failures as u64 + 1)) as usize;
            let mut failing = BTreeSet::new();
            while failing.len() < n_failures {
                failing.insert(1 + (rng.next() % (world as u64 - 1)) as usize);
            }
            for rank in failing {
                plan = plan.fail_rank(rank, (rng.next() % 4) as usize);
            }
        }
        if n_jobs > 0 {
            let n_poison = (rng.next() % (n_jobs as u64 / 3 + 2)) as usize;
            for _ in 0..n_poison {
                let job = (rng.next() % n_jobs as u64) as usize;
                let attempt = 1 + (rng.next() % 2) as usize;
                plan = plan.poison_job(job, attempt);
            }
        }
        if rng.next().is_multiple_of(2) {
            plan = plan.slow_rank((rng.next() % world as u64) as usize, 20);
        }
        plan
    }

    /// The seed recorded at construction (0 for hand-built plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.rank_fail_epoch.is_empty() && self.poisoned.is_empty() && self.slow.is_empty()
    }

    /// Epoch at whose boundary `rank` dies, if the plan fails it.
    pub fn fails_at(&self, rank: usize) -> Option<usize> {
        self.rank_fail_epoch.get(&rank).copied()
    }

    /// Number of poisoned (job, attempt) pairs in the plan.
    pub fn poisoned_attempts(&self) -> usize {
        self.poisoned.len()
    }

    /// Whether attempt `attempt` (1-based) of `job` is poisoned.
    pub fn is_poisoned(&self, job: usize, attempt: usize) -> bool {
        self.poisoned.contains(&(job, attempt))
    }

    /// Per-send stall for `rank`, if the plan slows it.
    pub fn slow_stall(&self, rank: usize) -> Option<Duration> {
        self.slow.get(&rank).map(|&us| Duration::from_micros(us))
    }
}

/// Shared runtime fault state for one communicator world: which ranks have
/// actually failed (raised deterministically by the failing rank itself as
/// it poisons its channels) plus counters for every injection that fired.
#[derive(Debug)]
pub struct FaultState {
    failed: Vec<AtomicBool>,
    rank_failures: AtomicU64,
    stalls: AtomicU64,
}

impl FaultState {
    /// Fresh state for a `size`-rank world with no failures.
    pub fn new(size: usize) -> Self {
        FaultState {
            failed: (0..size).map(|_| AtomicBool::new(false)).collect(),
            rank_failures: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        }
    }

    /// Raise `rank`'s failed flag (idempotent; counted once).
    pub fn mark_failed(&self, rank: usize) {
        if !self.failed[rank].swap(true, Ordering::SeqCst) {
            self.rank_failures.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Whether `rank` has failed.
    pub fn is_failed(&self, rank: usize) -> bool {
        self.failed[rank].load(Ordering::SeqCst)
    }

    pub(crate) fn count_stall(&self) {
        self.stalls.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the injection counters.
    pub fn snapshot(&self) -> InjectionStats {
        InjectionStats {
            rank_failures: self.rank_failures.load(Ordering::SeqCst),
            slow_stalls: self.stalls.load(Ordering::Relaxed),
        }
    }
}

/// Counters of injections that actually fired during a run. Deterministic
/// for a given (plan, protocol) pair — reruns of the same seed reproduce
/// them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Distinct ranks that raised their failed flag.
    pub rank_failures: u64,
    /// Sends stalled by slow-rank rules.
    pub slow_stalls: u64,
}

/// SplitMix64 — the same tiny deterministic generator the tag salt uses.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries_are_pure_and_match_builders() {
        let plan = FaultPlan::new()
            .fail_rank(2, 1)
            .poison_job(4, 1)
            .slow_rank(1, 10);
        assert_eq!(plan.fails_at(2), Some(1));
        assert_eq!(plan.fails_at(0), None);
        assert!(plan.is_poisoned(4, 1));
        assert!(!plan.is_poisoned(4, 2));
        assert_eq!(plan.slow_stall(1), Some(Duration::from_micros(10)));
        assert_eq!(plan.slow_stall(0), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn random_plans_are_reproducible_and_spare_rank_zero() {
        for seed in 0..64u64 {
            let a = FaultPlan::random(seed, 6, 12);
            let b = FaultPlan::random(seed, 6, 12);
            assert_eq!(a, b, "same seed must yield the identical plan");
            assert_eq!(a.fails_at(0), None, "rank 0 is the coordinator");
            assert!((1..6).filter(|&r| a.fails_at(r).is_some()).count() <= 2);
        }
        // Different seeds eventually differ.
        assert_ne!(FaultPlan::random(1, 6, 12), FaultPlan::random(2, 6, 12));
    }

    #[test]
    fn fault_state_flags_and_counters() {
        let st = FaultState::new(4);
        assert!(!st.is_failed(3));
        st.mark_failed(3);
        st.mark_failed(3); // idempotent
        assert!(st.is_failed(3));
        assert!((0..3).all(|r| !st.is_failed(r)));
        st.count_stall();
        let snap = st.snapshot();
        assert_eq!(snap.rank_failures, 1);
        assert_eq!(snap.slow_stalls, 1);
    }

    #[test]
    fn comm_error_displays() {
        assert_eq!(
            CommError::RankFailed { rank: 3 }.to_string(),
            "rank 3 failed"
        );
        assert!(CommError::Timeout { src: 1, tag: 0x10 }
            .to_string()
            .contains("0x10"));
    }
}
