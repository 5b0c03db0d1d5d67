//! Stress suite for the plan cache, one entry per pattern, under racing
//! groups and epoch regrouping: one recurring pattern serves several
//! `(rank, size)` views while concurrent groups race hit/miss. Pins that
//! the cache holds exactly one entry per distinct pattern however the
//! groups race, that the consensus identity `hits + builds = decisions`
//! holds, that results stay bitwise equal to the serial queue, and that
//! no schedule deadlocks or livelocks — every run sits under a wall-clock
//! watchdog, and the epoch planner itself is iteration-bounded by
//! construction (≤ one epoch per job).

use sm_comsim::SerialComm;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EngineOptions, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler, SubmatrixEngine,
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

fn fresh_engine() -> std::sync::Arc<SubmatrixEngine> {
    std::sync::Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
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
            "job '{}' deviates under cache races",
            x.name
        );
    }
}

mod common;
use common::with_watchdog;

#[test]
fn recurring_fingerprints_across_epochs_stay_correct_and_bounded() {
    // One recurring small pattern (17 jobs share a fingerprint) plus one
    // large straggler, stealing on: later epochs re-deal the tail onto
    // multi-rank groups, so the same pattern serves several (rank, size)
    // views while concurrent groups race hit/miss. The hit/build split is
    // racy by design (ranks racing on one new pattern all build, one
    // inserts), so the pins are the sound ones: the cache holds the two
    // patterns once each, consensus accounting holds, results bitwise.
    let (stats, cached, outcome, serial) = with_watchdog(240, || {
        let mut jobs = vec![MatrixJob::density("large", banded(10, 2, 1), 0.0)];
        for i in 0..17u64 {
            jobs.push(MatrixJob::density(
                format!("small-{i}"),
                banded(4, 2, i),
                0.0,
            ));
        }
        let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
        let engine = fresh_engine();
        let sched = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = sched.run(6, jobs);
        (engine.stats(), engine.cached_plans(), outcome, serial)
    });
    assert_eq!(cached, 2, "one entry per distinct pattern: {cached}");
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    assert_eq!(stats.cache_hits + stats.symbolic_builds, expected);
    assert_eq!(stats.executions, expected);
    assert_bitwise_equal(&outcome.results, &serial);
}
