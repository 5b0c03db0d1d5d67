//! Equivalence/property suite for the fault-injection and epoch-level
//! recovery layer. The headline contract: for **any** deterministic
//! [`FaultPlan`] the scheduler admits, every non-quarantined job of a
//! grand-canonical batch is **bitwise-identical** to the fault-free
//! serial [`JobQueue`] — rank deaths at epoch boundaries, poisoned
//! attempts, retries with backoff, stragglers and message delays change
//! *where and when* a job runs, never *what it computes*. Alongside it:
//!
//! * an epoch-boundary rank failure never hangs the batch (watchdogged)
//!   and strictly shrinks the next epoch's survivor world, which never
//!   grows back;
//! * retry/quarantine counters are exact functions of the seed —
//!   rerunning the same plan reproduces [`FaultStats`] field for field;
//! * the plan-cache consensus accounting identity survives recovery:
//!   `cache hits + symbolic builds = Σ over executed (non-poisoned)
//!   attempts of group size`, on survivor groups of any shape.

use proptest::prelude::*;

use sm_comsim::{FaultPlan, SerialComm};
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EngineOptions, EpochSchedule, FaultStats, JobQueue, JobResult, MatrixJob, RankBudget,
    Scheduler, SchedulerOutcome, SubmatrixEngine,
};

mod common;
use common::with_watchdog;

/// Deterministic banded symmetric matrix with a spectral gap at 0.
fn banded(nb: usize, bs: usize, half: usize, seed: u64) -> DbcsrMatrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let bi = (i / bs) as isize;
        let bj = (j / bs) as isize;
        if (bi - bj).unsigned_abs() > half {
            0.0
        } else if i == j {
            let base = if i % 2 == 0 { 1.0 } else { -1.0 };
            base + ((seed % 13) as f64) * 0.011
        } else {
            let w = 0.6 + ((i * 29 + j * 13 + seed as usize) % 7) as f64 / 7.0;
            0.05 * w / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

/// A mixed-size grand-canonical batch (results are bitwise
/// group-size-independent, the precondition of the headline contract).
fn mixed_batch(seed: u64, n_small: usize) -> Vec<MatrixJob> {
    let mut jobs = vec![MatrixJob::density("large", banded(8, 2, 1, seed), 0.0)];
    for i in 0..n_small as u64 {
        jobs.push(MatrixJob::density(
            format!("small-{i}"),
            banded(4, 2, 1, seed.wrapping_add(i)),
            0.0,
        ));
    }
    jobs
}

fn fresh_engine() -> std::sync::Arc<SubmatrixEngine> {
    std::sync::Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }))
}

/// Every **non-quarantined** job bitwise-identical to its serial twin; a
/// quarantined job must carry the empty placeholder shape instead.
fn assert_recovered_bitwise(scheduled: &[JobResult], serial: &[JobResult], what: &str) {
    let comm = SerialComm::new();
    assert_eq!(scheduled.len(), serial.len());
    for (s, q) in scheduled.iter().zip(serial) {
        assert_eq!(s.name, q.name, "submission order broken ({what})");
        if s.quarantined {
            assert_eq!(s.result.store().len(), 0, "quarantined job carries data");
            assert_eq!(s.seconds, 0.0);
            assert_eq!(s.group_size, 0);
            continue;
        }
        assert!(
            s.result
                .to_dense(&comm)
                .allclose(&q.result.to_dense(&comm), 0.0),
            "job '{}' deviates bitwise ({what})",
            s.name
        );
        assert_eq!(s.report.mu, q.report.mu, "job '{}' µ deviates", s.name);
    }
}

/// Survivor worlds are monotonically shrinking, shrink **strictly** at
/// every epoch that commits failures, and always retain rank 0.
fn assert_world_shrinks_monotonically(rec: &EpochSchedule) {
    let mut prev: Vec<usize> = (0..rec.world_size).collect();
    for (e, ep) in rec.epochs.iter().enumerate() {
        assert!(ep.survivors.contains(&0), "rank 0 left the world");
        assert!(
            ep.survivors.iter().all(|r| prev.contains(r)),
            "epoch {e} resurrected a dead rank"
        );
        if ep.newly_failed.is_empty() {
            assert_eq!(ep.survivors.len(), prev.len());
        } else {
            assert_eq!(ep.survivors.len() + ep.newly_failed.len(), prev.len());
        }
        prev = ep.survivors.clone();
    }
    assert_eq!(prev.len(), rec.fault_stats.final_world_size);
}

/// The consensus accounting identity under recovery: every rank of every
/// group entered the hit/miss consensus exactly once per **executed**
/// attempt (poisoned attempts are skipped whole-group and do no
/// planning), so `hits + builds = executions = Σ group size`.
fn assert_consensus_accounting(outcome: &SchedulerOutcome, engine: &SubmatrixEngine) {
    let rec = &outcome.schedule;
    let expected: usize = rec
        .epochs
        .iter()
        .flat_map(|ep| ep.groups.iter())
        .map(|g| g.jobs.iter().filter(|a| !a.poisoned).count() * g.ranks.len())
        .sum();
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.symbolic_builds,
        expected,
        "plan-cache consensus accounting off under faults: {stats:?}"
    );
    assert_eq!(stats.executions, expected);
}

/// Steal and epoch telemetry mean the same thing with and without faults:
/// every executed job reports the epoch and the stolen ranks the schedule
/// records for it, and both stat blocks count the epochs that ran.
fn assert_telemetry_matches_schedule(outcome: &SchedulerOutcome) {
    let schedule = &outcome.schedule;
    for (j, r) in outcome.results.iter().enumerate() {
        assert_eq!(r.epoch, schedule.job_epoch[j], "job {j} epoch");
        assert_eq!(r.stolen_ranks, schedule.job_stolen_ranks[j], "job {j}");
    }
    assert_eq!(outcome.steal_stats.epochs, schedule.epochs.len());
    assert_eq!(
        outcome.steal_stats.epochs,
        outcome.fault_stats.recovery_epochs
    );
    assert_eq!(
        outcome.steal_stats.stolen_ranks,
        outcome
            .results
            .iter()
            .map(|r| r.stolen_ranks)
            .sum::<usize>()
    );
}

#[test]
fn empty_fault_plan_is_the_fault_free_run() {
    // A fault-free batch is the batch under the empty plan: same results,
    // same schedule, and message for message the same traffic — no
    // consensus, no heartbeat. Every job has its own pattern, so no group
    // can hit a plan another group is racing to build and the message
    // count is a function of the schedule alone.
    let jobs: Vec<MatrixJob> = (0..8u64)
        .map(|i| MatrixJob::density(format!("job-{i}"), banded(3 + i as usize, 2, 1, 9 + i), 0.0))
        .collect();
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
    for world in [2usize, 4, 6] {
        let run = |plan: Option<FaultPlan>| {
            let jobs = jobs.clone();
            with_watchdog(240, move || {
                let sched = Scheduler::new(fresh_engine(), RankBudget::default());
                match plan {
                    Some(p) => sched.with_fault_plan(p).run(world, jobs),
                    None => sched.run(world, jobs),
                }
            })
        };
        let (bare, empty) = (run(None), run(Some(FaultPlan::new())));
        assert_recovered_bitwise(&empty.results, &serial, "empty plan");
        assert_recovered_bitwise(&bare.results, &serial, "no plan");
        assert_eq!(
            format!("{:?}", bare.schedule),
            format!("{:?}", empty.schedule)
        );
        let (a, b) = (&bare.world_stats, &empty.world_stats);
        assert_eq!(a.total_msgs(), b.total_msgs(), "world {world}");
        assert_eq!(a.total_bytes(), b.total_bytes(), "world {world}");
        assert_eq!(
            empty.fault_stats,
            FaultStats {
                recovery_epochs: empty.schedule.epochs.len(),
                final_world_size: world,
                ..FaultStats::default()
            }
        );
        assert_telemetry_matches_schedule(&empty);
    }
}

#[test]
fn epoch_boundary_rank_failure_recovers_bitwise_and_shrinks_world() {
    let jobs = mixed_batch(7, 9);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
    let outcome = with_watchdog(240, move || {
        let plan = FaultPlan::new().fail_rank(3, 1);
        Scheduler::new(fresh_engine(), RankBudget::default())
            .with_fault_plan(plan)
            .run(4, jobs)
    });

    assert_eq!(outcome.fault_stats.rank_failures, 1);
    assert_eq!(outcome.fault_stats.final_world_size, 3);
    assert_eq!(outcome.fault_stats.quarantined_jobs, 0);
    let rec = &outcome.schedule;
    assert_world_shrinks_monotonically(rec);
    // The failure epoch exists and everything after it runs without the
    // dead rank.
    assert!(rec.epochs.len() >= 2);
    assert_eq!(rec.epochs[1].newly_failed, vec![3]);
    for ep in &rec.epochs[1..] {
        assert!(!ep.groups.iter().any(|g| g.ranks.contains(&3)));
    }
    assert_recovered_bitwise(&outcome.results, &serial, "rank death at epoch 1");
    assert_telemetry_matches_schedule(&outcome);
    assert!(outcome.results.iter().all(|r| r.attempts == 1));
    // A rank hands its results back through its return value, which the
    // dying rank makes after it has left: the epoch-0 jobs it rooted come
    // back whole all the same.
    let rooted_by_dead: Vec<usize> = (0..serial.len())
        .filter(|&j| rec.job_epoch[j] == 0 && rec.root_of_job(j) == 3)
        .collect();
    assert!(
        !rooted_by_dead.is_empty(),
        "rank 3 must root an epoch-0 job"
    );
    for j in rooted_by_dead {
        assert_eq!(
            outcome.results[j].result, serial[j].result,
            "job {j}, rooted by the rank that died"
        );
    }
}

#[test]
fn poisoned_attempt_retries_with_backoff_and_matches_serial() {
    let jobs = mixed_batch(3, 6);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
    let outcome = with_watchdog(240, move || {
        let plan = FaultPlan::new().poison_job(2, 1);
        Scheduler::new(fresh_engine(), RankBudget::default())
            .with_fault_plan(plan)
            .run(4, jobs)
    });

    assert_eq!(outcome.fault_stats.poisoned_attempts, 1);
    assert_eq!(outcome.fault_stats.retries, 1);
    assert_eq!(outcome.fault_stats.quarantined_jobs, 0);
    assert_eq!(outcome.results[2].attempts, 2, "retry consumed attempt 2");
    assert!(!outcome.results[2].quarantined);
    assert_recovered_bitwise(&outcome.results, &serial, "one poisoned attempt");
    assert_telemetry_matches_schedule(&outcome);
}

#[test]
fn quarantine_fires_exactly_at_budget_exhaustion() {
    let jobs = mixed_batch(5, 6);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
    let outcome = with_watchdog(240, move || {
        let plan = FaultPlan::new()
            .poison_job(4, 1)
            .poison_job(4, 2)
            .poison_job(4, 3);
        Scheduler::new(fresh_engine(), RankBudget::default())
            .with_fault_plan(plan)
            .run(4, jobs)
    });

    assert_eq!(outcome.fault_stats.quarantined_jobs, 1);
    assert_eq!(outcome.fault_stats.poisoned_attempts, 3);
    assert_eq!(
        outcome.fault_stats.retries, 2,
        "the budget-exhausting attempt does not requeue"
    );
    assert!(outcome.results[4].quarantined);
    assert_eq!(outcome.results[4].attempts, 3);
    assert!(!outcome.results[4].report.plan_cached);
    // Everyone else is untouched by the quarantine.
    assert_recovered_bitwise(&outcome.results, &serial, "quarantined job");
}

#[test]
fn chaos_matrix_is_bitwise_recovering_and_reproducible() {
    // The CI chaos matrix: 3 seeds × worlds {2, 4, 6}, each seeded plan
    // run twice — once against the serial baseline for the bitwise
    // contract, once more to pin counter reproducibility.
    let jobs = mixed_batch(13, 7);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
    for seed in [1u64, 2, 3] {
        for world in [2usize, 4, 6] {
            let plan = FaultPlan::random(seed, world, jobs.len());
            let run = |jobs: Vec<MatrixJob>| -> (SchedulerOutcome, FaultStats) {
                let plan = plan.clone();
                with_watchdog(240, move || {
                    let engine = fresh_engine();
                    let sched =
                        Scheduler::new(engine.clone(), RankBudget::default()).with_fault_plan(plan);
                    let outcome = sched.run(world, jobs);
                    assert_consensus_accounting(&outcome, &engine);
                    let stats = outcome.fault_stats;
                    (outcome, stats)
                })
            };
            let (outcome, stats) = run(jobs.clone());
            let what = format!("chaos seed {seed} world {world}");
            assert_recovered_bitwise(&outcome.results, &serial, &what);
            assert_world_shrinks_monotonically(&outcome.schedule);

            let (_, stats2) = run(jobs.clone());
            assert_eq!(stats, stats2, "{what}: counters not reproducible");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline contract under proptest-random fault plans at worlds
    /// 2–6: whatever the seeded plan injects, every non-quarantined job
    /// is bitwise-identical to the fault-free serial queue, the world
    /// only ever shrinks, and attempts never exceed the retry budget.
    #[test]
    fn random_fault_plans_preserve_bitwise_equivalence(seed in 0u64..1_000_000, world in 2usize..7) {
        let jobs = mixed_batch(seed % 17, 5);
        let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
        let plan = FaultPlan::random(seed, world, jobs.len());
        let n_jobs = jobs.len();
        let outcome = with_watchdog(240, move || {
            Scheduler::new(fresh_engine(), RankBudget::default())
                .with_fault_plan(plan)
                .run(world, jobs)
        });
        assert_recovered_bitwise(&outcome.results, &serial, &format!("proptest seed {seed}"));
        let rec = &outcome.schedule;
        assert_world_shrinks_monotonically(rec);
        for j in 0..n_jobs {
            prop_assert!(outcome.results[j].attempts >= 1);
            prop_assert!(outcome.results[j].attempts <= rec.retry_budget);
            prop_assert_eq!(outcome.results[j].quarantined, rec.quarantined[j]);
            prop_assert_eq!(outcome.results[j].attempts, rec.job_attempts[j]);
            prop_assert_eq!(outcome.results[j].epoch, rec.job_epoch[j]);
        }
    }
}
