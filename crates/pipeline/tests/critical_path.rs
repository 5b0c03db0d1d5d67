//! Critical-path analyzer acceptance suite (ISSUE 7): the cost-unit
//! critical path of a traced straggler batch is **bit-identical across
//! traced reruns** (it is a pure function of the schedule narration —
//! the two-clock rule), it names the straggler job, the steal schedule
//! shortens it versus the no-stealing baseline, and the scheduler
//! provably never reads `CALIB_perfmodel.json` (schedules and results
//! stay bitwise-identical with a garbage calibration artifact on disk).

use sm_comsim::SerialComm;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EngineOptions, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler, StealPolicy,
    SubmatrixEngine,
};
use sm_trace::analyze::{critical_path, idle_attribution, CriticalPath};
use sm_trace::TraceSession;

/// Deterministic banded symmetric matrix with a spectral gap at 0 (same
/// construction as the stealing_equivalence suite).
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

/// One large job ("large", submission index 0) plus 18 smalls: under LPT
/// on 6 ranks the large job pins the steal horizon and a tail of smalls
/// defers to epoch 1 on re-dealt multi-rank groups.
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

/// Trace one scheduled run of the straggler batch and return the
/// deterministic critical-path analysis plus the job results.
fn traced_run(label: &str, policy: StealPolicy, seed: u64) -> (CriticalPath, Vec<JobResult>) {
    let session = TraceSession::start(label);
    let sched = Scheduler::new(fresh_engine(), RankBudget::default())
        .with_policy(policy)
        .with_trace_label(label);
    let outcome = sched.run(6, straggler_batch(seed));
    let doc = session.to_doc();
    let cp = critical_path(&doc, Some(label)).expect("critical path from traced run");
    (cp, outcome.results)
}

#[test]
fn cost_unit_critical_path_is_identical_across_traced_reruns_and_names_straggler() {
    let (cp_a, _) = traced_run("cp-a", StealPolicy::EpochRebalance, 11);
    let (cp_b, _) = traced_run("cp-b", StealPolicy::EpochRebalance, 11);

    // The deterministic rendering is bit-identical across reruns up to
    // the batch label (cost units only; wall annotations excluded).
    let normalize = |cp: &CriticalPath, label: &str| cp.render().replace(label, "L");
    assert_eq!(
        normalize(&cp_a, "cp-a"),
        normalize(&cp_b, "cp-b"),
        "cost-unit critical path must be a pure function of the schedule"
    );
    assert_eq!(cp_a.total_units, cp_b.total_units);

    // The large job (submission index 0) bounds the batch: it is the
    // largest single step on the path.
    assert_eq!(cp_a.straggler_job, Some(0), "straggler is the 'large' job");
    assert!(cp_a.total_units > 0.0);
    assert!(cp_a.render().contains("straggler: job 0"));

    // The wall totals of the two runs are annotations — almost surely
    // different — while every cost figure matched exactly above.
    assert!(cp_a.epochs.len() >= 2, "straggler batch spans ≥ 2 epochs");
}

#[test]
fn steal_schedule_shortens_the_critical_path() {
    let (cp_steal, res_steal) = traced_run("cp-steal", StealPolicy::EpochRebalance, 11);
    let (cp_base, res_base) = traced_run("cp-base", StealPolicy::Disabled, 11);

    // Same numerics either way (the schedule only moves work around)...
    let comm = SerialComm::new();
    for (s, b) in res_steal.iter().zip(&res_base) {
        assert!(
            s.result
                .to_dense(&comm)
                .allclose(&b.result.to_dense(&comm), 0.0),
            "policy changed numerics for '{}'",
            s.name
        );
    }
    // ...but the steal schedule's cost-unit critical path is strictly
    // shorter: deferred smalls re-run on multi-rank groups instead of
    // serializing behind the static queues.
    assert!(
        cp_steal.total_units < cp_base.total_units,
        "stealing must shorten the cost-unit critical path: {} vs {}",
        cp_steal.total_units,
        cp_base.total_units
    );
}

#[test]
fn idle_attribution_is_deterministic_and_covers_the_world() {
    let (_, _) = traced_run("cp-warm", StealPolicy::EpochRebalance, 7);
    let session = TraceSession::start("cp-idle");
    let sched = Scheduler::new(fresh_engine(), RankBudget::default())
        .with_policy(StealPolicy::EpochRebalance)
        .with_trace_label("cp-idle");
    sched.run(6, straggler_batch(7));
    let doc = session.to_doc();
    let idle = idle_attribution(&doc, Some("cp-idle")).expect("idle attribution");
    assert_eq!(idle.est_idle_units.len(), 6, "one entry per world rank");
    assert!(idle.est_makespan_units > 0.0);
    // The straggler construction leaves at least one rank with estimated
    // idle time and at least one (the large job's) with none... relative
    // to the makespan, idle is bounded by it.
    for &u in &idle.est_idle_units {
        assert!(u >= 0.0 && u <= idle.est_makespan_units);
    }
    // Measured per-rank annotations exist for the whole world (rank.idle
    // events from rank 0 of the traced run).
    assert_eq!(idle.measured_busy_wall_s.len(), 6);
    // The cost-based makespan equals the critical-path total: both walk
    // the same epoch bounds.
    let cp = critical_path(&doc, Some("cp-idle")).unwrap();
    assert!((cp.total_units - idle.est_makespan_units).abs() < 1e-9);
}

#[test]
fn scheduler_never_reads_calibration_artifacts() {
    // Plant a garbage CALIB_perfmodel.json where a (hypothetically)
    // calibration-consuming scheduler would look for it. Invariant 3 —
    // schedules are pure functions of the static perfmodel estimates —
    // means the artifact must change nothing: the traced schedule
    // narration and the results stay bitwise-identical to a run without
    // the file.
    let calib_dir = std::path::Path::new("results");
    std::fs::create_dir_all(calib_dir).unwrap();
    let calib = calib_dir.join("CALIB_perfmodel.json");

    std::fs::remove_file(&calib).ok();
    let (cp_clean, res_clean) = traced_run("cp-nocalib", StealPolicy::EpochRebalance, 23);

    std::fs::write(
        &calib,
        r#"{"bench":"perfmodel","schema_version":1,"git_commit":"x","generated_at":"now",
           "data":{"report_only":true,"phases":[
             {"phase":"solve","seconds_per_unit":1e9,"r_squared":1.0,
              "samples":1,"total_cost":1.0,"total_seconds":1e9}]}}"#,
    )
    .unwrap();
    let (cp_poisoned, res_poisoned) = traced_run("cp-calib", StealPolicy::EpochRebalance, 23);
    std::fs::remove_file(&calib).ok();

    let normalize = |cp: &CriticalPath, label: &str| cp.render().replace(label, "L");
    assert_eq!(
        normalize(&cp_clean, "cp-nocalib"),
        normalize(&cp_poisoned, "cp-calib"),
        "a calibration artifact on disk changed the schedule — invariant 3 broken"
    );
    let comm = SerialComm::new();
    for (a, b) in res_clean.iter().zip(&res_poisoned) {
        assert!(
            a.result
                .to_dense(&comm)
                .allclose(&b.result.to_dense(&comm), 0.0),
            "calibration artifact perturbed job '{}'",
            a.name
        );
    }
}

#[test]
fn traced_scheduler_matches_serial_queue_with_analysis_live() {
    // The analyzer only observes: a traced, analyzed run still matches
    // the serial queue bitwise.
    let serial = JobQueue::new(fresh_engine()).run(straggler_batch(5));
    let (cp, results) = traced_run("cp-serial-check", StealPolicy::EpochRebalance, 5);
    assert!(cp.total_units > 0.0);
    let comm = SerialComm::new();
    assert_eq!(results.len(), serial.len());
    for (s, q) in results.iter().zip(&serial) {
        assert!(
            s.result
                .to_dense(&comm)
                .allclose(&q.result.to_dense(&comm), 0.0),
            "scheduled job '{}' deviates from serial queue",
            s.name
        );
    }
}
