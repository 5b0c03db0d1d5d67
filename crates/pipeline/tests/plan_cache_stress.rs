//! Stress suite for the bounded LRU plan cache, one entry per pattern:
//! capacities 1–2 against more distinct patterns than the capacity, under
//! serialized and racing groups and under epoch regrouping. Pins that the
//! eviction counters in `EngineStats` are **exact** where the access
//! sequence is deterministic (serialized one-rank groups: every symbolic
//! build inserts exactly one entry and each insert evicts precisely down
//! to capacity, so `evictions = builds − cached_plans`; a serialized
//! 4-rank group builds on every rank but inserts one entry), stays a
//! sound inequality when ranks race on one pattern (a rank that finds the
//! entry another inserted evicts nothing), and that no schedule deadlocks
//! or livelocks — every run sits under a wall-clock watchdog, and the
//! epoch planner itself is iteration-bounded by construction (≤ one epoch
//! per job).

use sm_comsim::SerialComm;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EngineOptions, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler, StealPolicy,
    SubmatrixEngine,
};

/// Deterministic banded symmetric matrix; `nb` controls the pattern (and
/// thus the fingerprint), `seed` only the values.
fn banded(nb: usize, bs: usize, seed: u64) -> DbcsrMatrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let bi = (i / bs) as isize;
        let bj = (j / bs) as isize;
        if (bi - bj).abs() > 1 {
            0.0
        } else if i == j {
            (if i % 2 == 0 { 1.0 } else { -1.0 }) + ((seed % 11) as f64) * 0.013
        } else {
            0.05 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

/// `n` jobs with `n` pairwise-distinct sparsity patterns (nb = 3, 4, …).
fn distinct_pattern_jobs(n: usize, seed: u64) -> Vec<MatrixJob> {
    (0..n)
        .map(|i| {
            MatrixJob::density(
                format!("pat-{i}"),
                banded(3 + i, 2, seed.wrapping_add(i as u64)),
                0.0,
            )
        })
        .collect()
}

fn engine_with_capacity(capacity: usize) -> std::sync::Arc<SubmatrixEngine> {
    std::sync::Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        plan_cache_capacity: Some(capacity),
        ..EngineOptions::default()
    }))
}

fn assert_bitwise_equal(a: &[JobResult], b: &[JobResult]) {
    let comm = SerialComm::new();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!(
            x.result
                .to_dense(&comm)
                .allclose(&y.result.to_dense(&comm), 0.0),
            "job '{}' deviates under cache thrash",
            x.name
        );
    }
}

mod common;
use common::with_watchdog;

#[test]
fn serialized_groups_have_exact_eviction_counters() {
    // One group at a time (max_groups = 1), six distinct patterns through a
    // capacity-2 cache: the access sequence is deterministic up to
    // within-group thread order, which cannot change the counts. World 1
    // runs one-rank groups: each job builds once and inserts once, so
    // evictions = builds − capacity, exactly. World 4 runs one 4-rank
    // group: every rank lacks each new pattern, so builds = 4·J, but the
    // group inserts one entry, so evictions = J − capacity.
    for world in [1, 4] {
        let (stats, cached, outcome, serial) = with_watchdog(240, move || {
            let jobs = distinct_pattern_jobs(6, 3);
            let serial = JobQueue::new(engine_with_capacity(64)).run(jobs.clone());
            let engine = engine_with_capacity(2);
            let budget = RankBudget {
                max_group_size: None,
                max_groups: Some(1),
            };
            let sched = Scheduler::new(engine.clone(), budget);
            let outcome = sched.run(world, jobs);
            (engine.stats(), engine.cached_plans(), outcome, serial)
        });
        let jobs = outcome.results.len();
        assert_eq!(
            stats.symbolic_builds,
            world * jobs,
            "every rank misses every job"
        );
        assert_eq!((stats.cache_hits, stats.view_derivations), (0, 0));
        assert_eq!(cached, 2, "cache holds exactly its capacity");
        assert_eq!(
            stats.evictions,
            stats.symbolic_builds / world - cached,
            "eviction counter must be exact under a serialized schedule"
        );
        assert_eq!(stats.executions, world * jobs);
        assert_bitwise_equal(&outcome.results, &serial);
    }
}

#[test]
fn capacity_one_exact_evictions_across_single_rank_groups() {
    // Distinct patterns on four racing single-rank groups (one epoch, no
    // stealing to fold spare ranks into a group): keys never collide, so
    // every build inserts its own entry and the identity `evictions =
    // builds − cached_plans` holds under ANY interleaving of the groups —
    // the LRU only ever trims to capacity, one eviction per insert.
    let (stats, cached, outcome, serial) = with_watchdog(240, || {
        let jobs = distinct_pattern_jobs(8, 9);
        let serial = JobQueue::new(engine_with_capacity(64)).run(jobs.clone());
        let engine = engine_with_capacity(1);
        let budget = RankBudget {
            max_group_size: Some(1),
            max_groups: None,
        };
        let sched = Scheduler::new(engine.clone(), budget).with_policy(StealPolicy::Disabled);
        let outcome = sched.run(4, jobs);
        (engine.stats(), engine.cached_plans(), outcome, serial)
    });
    assert_eq!(cached, 1);
    assert_eq!(
        stats.evictions,
        stats.symbolic_builds - cached,
        "distinct keys cannot collide: evictions are exactly builds − retained"
    );
    // Every job is planned once, by the one rank of its group.
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    assert_eq!(stats.cache_hits + stats.symbolic_builds, expected);
    assert_eq!(stats.symbolic_builds, outcome.results.len());
    assert_eq!((stats.cache_hits, stats.view_derivations), (0, 0));
    assert_bitwise_equal(&outcome.results, &serial);
}

#[test]
fn recurring_fingerprints_across_epochs_stay_correct_and_bounded() {
    // One recurring small pattern (17 jobs share a fingerprint) plus one
    // large straggler, capacity 2, stealing on: later epochs re-deal the
    // tail onto multi-rank groups, so the same pattern serves several
    // (rank, size) views while concurrent groups race hit/miss. Counters
    // here are racy by design (ranks racing on one new pattern all build,
    // one inserts), so the pins are the sound bounds plus correctness:
    // never more evictions than builds-minus-retained, the cache never
    // overflows, consensus accounting holds, results bitwise.
    let (stats, cached, outcome, serial) = with_watchdog(240, || {
        let mut jobs = vec![MatrixJob::density("large", banded(10, 2, 1), 0.0)];
        for i in 0..17u64 {
            jobs.push(MatrixJob::density(
                format!("small-{i}"),
                banded(4, 2, i),
                0.0,
            ));
        }
        let serial = JobQueue::new(engine_with_capacity(64)).run(jobs.clone());
        let engine = engine_with_capacity(2);
        let sched = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = sched.run(6, jobs);
        (engine.stats(), engine.cached_plans(), outcome, serial)
    });
    assert!(cached <= 2, "bounded cache overflowed: {cached}");
    assert!(
        stats.evictions <= stats.symbolic_builds - cached,
        "more evictions than inserts can account for: {stats:?}"
    );
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    assert_eq!(stats.cache_hits + stats.symbolic_builds, expected);
    assert_eq!(stats.executions, expected);
    assert_bitwise_equal(&outcome.results, &serial);
}

#[test]
fn capacity_zero_disables_caching_under_stealing() {
    // `Some(0)` = no caching at all: every plan call is a consensus miss,
    // nothing is retained, nothing is evicted — even across epochs.
    let (stats, cached, outcome, serial) = with_watchdog(240, || {
        let jobs = distinct_pattern_jobs(7, 1);
        let serial = JobQueue::new(engine_with_capacity(64)).run(jobs.clone());
        let engine = engine_with_capacity(0);
        let sched = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = sched.run(4, jobs);
        (engine.stats(), engine.cached_plans(), outcome, serial)
    });
    assert_eq!(cached, 0);
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.evictions, 0);
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    assert_eq!(stats.symbolic_builds, expected);
    assert_bitwise_equal(&outcome.results, &serial);
}
