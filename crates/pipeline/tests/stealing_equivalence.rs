//! Equivalence/property suite for epoch-based work stealing: any steal
//! schedule the epoch planner produces must leave grand-canonical results
//! **bitwise-identical** to the serial [`JobQueue`], a constructed
//! straggler batch must actually steal (and recover idle rank time in the
//! deterministic cost model), and no epoch may ever observe divergent
//! plan-cache consensus — pinned here through the exact accounting
//! identity `cache hits + symbolic builds = Σ_jobs group size` (every
//! rank of every group decides hit/miss exactly once per job; a divergent
//! consensus either deadlocks the group or breaks the identity).

use proptest::prelude::*;

use sm_comsim::SerialComm;
use sm_core::engine::NumericOptions;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EngineOptions, JobOutput, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler,
    SchedulerOutcome, StealPolicy, SubmatrixEngine,
};

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

/// The acceptance construction: one large job plus many small jobs of one
/// recurring pattern. Under LPT on 6 ranks the large job pins a 3-unit
/// steal horizon while three groups queue ~4 units, so a tail of smalls
/// defers to epoch 1 and runs on re-dealt (stolen) multi-rank groups.
fn straggler_batch(seed: u64) -> Vec<MatrixJob> {
    let mut jobs = vec![MatrixJob::density("large", banded(10, 2, 1, seed), 0.0)];
    for i in 0..18u64 {
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

fn assert_bitwise_equal(scheduled: &[JobResult], serial: &[JobResult], what: &str) {
    let comm = SerialComm::new();
    assert_eq!(scheduled.len(), serial.len());
    for (s, q) in scheduled.iter().zip(serial) {
        assert_eq!(s.name, q.name, "submission order broken ({what})");
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

/// Every rank of every executing group decides the plan-cache hit/miss
/// consensus exactly once per job, so the engine's counters must satisfy
/// `hits + builds = executions = Σ_jobs group size` — the observable form
/// of "no epoch saw divergent consensus" (divergence deadlocks the group
/// or double-counts a decision).
fn assert_consensus_accounting(outcome: &SchedulerOutcome, engine: &SubmatrixEngine) {
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.symbolic_builds,
        expected,
        "plan-cache consensus accounting off: {stats:?}, expected {expected} decisions"
    );
    assert_eq!(stats.executions, expected);
}

// The watchdog lives in the shared test-support module: the epoch
// planner itself is bounded by construction (at most one epoch per job),
// but a buggy schedule must fail loudly rather than hang the harness.
mod common;
use common::with_watchdog;

#[test]
fn straggler_batch_steals_and_matches_queue_bitwise() {
    let jobs = straggler_batch(11);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());

    let engine = fresh_engine();
    let sched = Scheduler::new(engine.clone(), RankBudget::default());
    let outcome = sched.run(6, jobs);

    // The batch actually steals: ≥ 2 epochs, at least one job re-dealt
    // onto foreign ranks, and the deterministic cost model shows the
    // re-deal flattening the worst rank's idle time versus the static
    // schedule.
    let stats = &outcome.steal_stats;
    assert!(
        stats.epochs >= 2,
        "straggler batch stayed single-epoch: {stats:?}"
    );
    assert!(stats.stolen_jobs >= 1, "no job was stolen: {stats:?}");
    assert!(stats.stolen_ranks >= stats.stolen_jobs);
    assert!(
        stats.est_max_rank_idle_epochs < stats.est_max_rank_idle_static,
        "stealing must lower the max-rank idle estimate: {stats:?}"
    );
    assert!(stats.est_idle_cost_recovered() > 0.0, "{stats:?}");

    // Per-job steal attribution is consistent: stolen jobs ran in a later
    // epoch, on the group the schedule says, and the schedule's own
    // planned counters match what the results report.
    let reported_stolen: usize = outcome.results.iter().map(|r| r.stolen_ranks).sum();
    assert_eq!(reported_stolen, stats.stolen_ranks);
    for (j, r) in outcome.results.iter().enumerate() {
        assert_eq!(r.epoch, outcome.schedule.job_epoch[j]);
        assert_eq!(r.stolen_ranks, outcome.schedule.job_stolen_ranks[j]);
        assert_eq!(r.group_size, outcome.schedule.ranks_of_job(j).len());
        if r.was_stolen() {
            assert!(r.epoch >= 1, "epoch-0 groups are the static groups");
        }
    }

    // The heart of the PR: any steal schedule is bitwise-invisible in the
    // results.
    assert_bitwise_equal(&outcome.results, &serial, "stealing vs serial queue");
    assert_consensus_accounting(&outcome, &engine);
}

#[test]
fn disabled_policy_is_static_and_agrees_bitwise() {
    let jobs = straggler_batch(23);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());

    let engine = fresh_engine();
    let sched =
        Scheduler::new(engine.clone(), RankBudget::default()).with_policy(StealPolicy::Disabled);
    let outcome = sched.run(6, jobs);

    assert_eq!(outcome.steal_stats.epochs, 1);
    assert_eq!(outcome.steal_stats.stolen_jobs, 0);
    assert_eq!(outcome.steal_stats.est_idle_cost_recovered(), 0.0);
    for r in &outcome.results {
        assert_eq!(r.epoch, 0);
        assert!(!r.was_stolen());
    }
    assert_bitwise_equal(&outcome.results, &serial, "static policy vs serial queue");
    assert_consensus_accounting(&outcome, &engine);
}

#[test]
fn stealing_and_static_schedules_agree_bitwise_at_many_world_sizes() {
    // The same straggler batch across world sizes, stealing on vs off:
    // the schedule may differ arbitrarily, the bits may not.
    let jobs = straggler_batch(5);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
    for world in [1usize, 2, 4, 6, 9] {
        for policy in [StealPolicy::EpochRebalance, StealPolicy::Disabled] {
            let engine = fresh_engine();
            let sched = Scheduler::new(engine.clone(), RankBudget::default()).with_policy(policy);
            let outcome = sched.run(world, jobs.clone());
            assert_bitwise_equal(
                &outcome.results,
                &serial,
                &format!("world {world}, policy {policy:?}"),
            );
            assert_consensus_accounting(&outcome, &engine);
        }
    }
}

#[test]
fn no_epoch_observes_divergent_consensus_under_bounded_cache() {
    // Concurrent groups race on two recurring patterns under a
    // multi-epoch steal schedule whose later epochs run multi-rank groups:
    // one group's insert lands between two ranks' probes of another. A
    // divergent hit/miss consensus would deadlock a group inside the
    // collective pattern gather (caught by the watchdog) or break the
    // accounting identity; neither may happen, the results stay bitwise
    // equal, and the cache's one bound holds: one entry per pattern.
    let (outcome, engine_stats, cached, serial) = with_watchdog(240, || {
        let jobs = straggler_batch(7);
        let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
        let engine = fresh_engine();
        let sched = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = sched.run(6, jobs);
        (outcome, engine.stats(), engine.cached_plans(), serial)
    });
    assert!(outcome.steal_stats.epochs >= 2);
    assert_bitwise_equal(&outcome.results, &serial, "racing groups with stealing");
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    assert_eq!(
        engine_stats.cache_hits + engine_stats.symbolic_builds,
        expected
    );
    assert_eq!(cached, 2, "one entry per distinct pattern: {cached} plans");
}

#[test]
fn tracing_is_non_perturbing_and_span_trees_are_deterministic() {
    // The observability acceptance gate: running the exact straggler
    // batch with every span and event live must (a) leave the results
    // bitwise-identical to the serial queue and (b) produce the same
    // logical span tree on every rerun at a fixed world size — the tree
    // is built from logical clocks and perfmodel costs only, so wall-time
    // jitter and thread interleaving cannot show up in it.
    let jobs = straggler_batch(11);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());

    let run_traced = |label: &'static str| {
        let session = sm_trace::TraceSession::start(label);
        let engine = fresh_engine();
        let sched = Scheduler::new(engine.clone(), RankBudget::default()).with_trace_label(label);
        let outcome = sched.run(6, jobs.clone());
        assert_bitwise_equal(&outcome.results, &serial, label);
        assert_consensus_accounting(&outcome, &engine);
        session.span_tree_under(&format!("batch:{label}"))
    };

    let first = run_traced("steal-trace-a");
    // Hierarchy spot-checks: the tree nests epoch/group/job/phase and
    // carries the scheduler narration plus the engine's per-phase events.
    assert!(first.contains("epoch:0/"), "missing epoch level:\n{first}");
    assert!(
        first.contains("epoch:1/"),
        "straggler batch must reach epoch 1"
    );
    assert!(first.contains("/group:"), "missing group level:\n{first}");
    assert!(first.contains("/job:"), "missing job level:\n{first}");
    assert!(
        first.contains("/phase:solve"),
        "missing engine phases:\n{first}"
    );
    assert!(
        first.contains("plan.decision"),
        "missing plan consensus events"
    );
    assert!(
        first.contains("job.done"),
        "missing per-job completion events"
    );
    assert!(first.contains("sched.steal"), "missing steal narration");

    let second = run_traced("steal-trace-b");
    let relabeled = |tree: &str, label: &str| tree.replace(&format!("batch:{label}"), "batch:#");
    assert_eq!(
        relabeled(&first, "steal-trace-a"),
        relabeled(&second, "steal-trace-b"),
        "span tree must be deterministic across reruns"
    );
}

#[test]
fn epochs_cost_a_fault_free_batch_no_world_traffic() {
    // Twelve equal-cost jobs under a one-rank cap: every epoch commits
    // one job per rank (a second would overflow the horizon) and always
    // has at least `world` jobs left, so the cap never folds. One-rank
    // groups move no subgroup traffic, and results leave a rank through
    // its return value, so the world counts no message at all. Nothing is
    // paid per epoch either: groups form from the schedule's member
    // lists, not from a world collective.
    let budget = RankBudget {
        max_group_size: Some(1),
        max_groups: None,
    };
    for world in [2usize, 3, 4] {
        let jobs: Vec<MatrixJob> = (0..12u64)
            .map(|i| MatrixJob::density(format!("small-{i}"), banded(4, 2, 1, 5 + i), 0.0))
            .collect();
        let outcome = with_watchdog(180, move || {
            Scheduler::new(fresh_engine(), budget).run(world, jobs)
        });
        let schedule = &outcome.schedule;
        assert_eq!(schedule.epochs.len(), 12 / world);
        let mut groups = schedule.epochs.iter().flat_map(|ep| &ep.groups);
        assert!(groups.all(|g| g.ranks.len() == 1));
        assert_eq!(outcome.world_stats.total_msgs(), 0, "world {world}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random sparsity patterns, world sizes and skewed job-cost mixes:
    /// whatever epoch/steal schedule falls out, grand-canonical batches
    /// are bitwise-identical to the serial queue and the consensus
    /// accounting holds.
    #[test]
    fn random_skewed_batches_match_serial_queue_bitwise(
        nb_large in 6usize..10,
        n_small in 5usize..9,
        bs in 1usize..3,
        half in 1usize..3,
        seed in 0u64..1000,
        world in 2usize..7,
    ) {
        let mut jobs = vec![MatrixJob {
            name: "large".into(),
            matrix: banded(nb_large, bs, half, seed),
            mu0: 0.02,
            numeric: NumericOptions::default(),
            output: JobOutput::Sign,
        }];
        for i in 0..n_small as u64 {
            jobs.push(MatrixJob::density(
                format!("small-{i}"),
                banded(3 + (i as usize % 3), bs, 1, seed.wrapping_add(i)),
                0.0,
            ));
        }
        let serial = JobQueue::new(fresh_engine()).run(jobs.clone());
        let engine = fresh_engine();
        let sched = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = sched.run(world, jobs);

        // Schedule sanity: every job runs exactly once, in its recorded
        // epoch, and the per-job steal attribution matches the plan.
        let comm = SerialComm::new();
        for (j, (s, q)) in outcome.results.iter().zip(&serial).enumerate() {
            prop_assert_eq!(&s.name, &q.name);
            prop_assert!(
                s.result.to_dense(&comm).allclose(&q.result.to_dense(&comm), 0.0),
                "job '{}' deviates at world {} (epochs {})",
                s.name, world, outcome.steal_stats.epochs
            );
            prop_assert_eq!(s.epoch, outcome.schedule.job_epoch[j]);
            prop_assert_eq!(s.stolen_ranks, outcome.schedule.job_stolen_ranks[j]);
        }
        let scheduled: usize = outcome
            .schedule
            .epochs
            .iter()
            .flat_map(|e| e.groups.iter())
            .map(|g| g.jobs.len())
            .sum();
        prop_assert_eq!(scheduled, outcome.results.len());
        let expected: usize = (0..outcome.results.len())
            .map(|j| outcome.schedule.ranks_of_job(j).len())
            .sum();
        let stats = engine.stats();
        prop_assert_eq!(stats.cache_hits + stats.symbolic_builds, expected);
    }
}
