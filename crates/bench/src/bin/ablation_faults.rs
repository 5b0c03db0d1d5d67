//! Ablation: deterministic fault injection and epoch-level recovery.
//!
//! A mixed straggler batch runs through the `Scheduler` under scripted
//! `FaultPlan`s — a deterministic rank-death/quarantine scenario plus a
//! seeded chaos sweep (3 seeds × worlds {2, 4, 6}, the CI matrix). The
//! binary asserts the recovery PR's acceptance contract in-place: every
//! **non-quarantined** job stays bitwise-identical to the fault-free
//! serial `JobQueue` under any admitted plan, an epoch-boundary rank
//! failure strictly shrinks the surviving world (and never hangs — the
//! runs are wall-clock bounded by the comm layer's deadline receives),
//! and rerunning a seed reproduces the retry/quarantine counters field
//! for field. It then reports the fault telemetry — rank failures,
//! poisoned attempts, retries, quarantines, recovery epochs, surviving
//! world and recovered-rank utilization — and writes
//! `results/BENCH_faults.json`.
//!
//! Wall-clock columns are host-dependent as always; the counters and the
//! utilization are exact functions of (seed, world, batch) and are what
//! the bench gate keys on.

use std::time::Instant;

use sm_bench::output::{bench_table, fixed, print_table, sci, write_bench_json, write_csv, Json};
use sm_comsim::{FaultPlan, SerialComm};
use sm_core::engine::EngineOptions;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EpochSchedule, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler, SubmatrixEngine,
};

/// Deterministic banded symmetric matrix with a spectral gap at 0.
fn banded(nb: usize, bs: usize, seed: u64) -> DbcsrMatrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let bi = (i / bs) as isize;
        let bj = (j / bs) as isize;
        if (bi - bj).abs() > 1 {
            0.0
        } else if i == j {
            (if i % 2 == 0 { 1.0 } else { -1.0 }) + ((seed % 13) as f64) * 0.011
        } else {
            0.05 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

/// One large job + 12 smalls: enough spread that the recovery planner
/// exercises multi-epoch schedules at every world size in the sweep.
fn fault_batch() -> Vec<MatrixJob> {
    let mut jobs = vec![MatrixJob::density("large", banded(10, 2, 1), 0.0)];
    for i in 0..12u64 {
        jobs.push(MatrixJob::density(
            format!("small-{i}"),
            banded(4, 2, i),
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

/// Every non-quarantined job bitwise-identical to its serial twin.
fn recovered_bitwise(a: &[JobResult], serial: &[JobResult]) -> bool {
    let comm = SerialComm::new();
    a.len() == serial.len()
        && a.iter().zip(serial).all(|(x, y)| {
            x.quarantined
                || x.result
                    .to_dense(&comm)
                    .allclose(&y.result.to_dense(&comm), 0.0)
        })
}

/// Recovered-rank utilization: the fraction of (survivor × epoch) slots
/// that executed at least one non-poisoned attempt — a pure function of
/// the schedule, measuring how well the re-split keeps the
/// shrunken world busy (wait epochs and idle leftover ranks count
/// against it).
fn survivor_utilization(rec: &EpochSchedule) -> f64 {
    let (mut busy, mut slots) = (0usize, 0usize);
    for ep in &rec.epochs {
        slots += ep.survivors.len();
        busy += ep
            .groups
            .iter()
            .filter(|g| g.jobs.iter().any(|a| !a.poisoned))
            .map(|g| g.ranks.len())
            .sum::<usize>();
    }
    if slots == 0 {
        1.0
    } else {
        busy as f64 / slots as f64
    }
}

fn main() {
    let jobs = fault_batch();
    let n_jobs = jobs.len();
    println!(
        "fault batch: {n_jobs} jobs (1 large + {} small)",
        n_jobs - 1
    );

    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let header = [
        "world",
        "scenario",
        "rank_failures",
        "poisoned",
        "retries",
        "quarantined",
        "recovery_epochs",
        "final_world",
        "survivor_util",
        "total_s",
    ];

    // Scenario 1 (deterministic): a rank death at the epoch-1 boundary
    // plus a job poisoned past its budget — the full recovery contract
    // in one run.
    let det_plan = FaultPlan::new()
        .fail_rank(3, 1)
        .poison_job(2, 1)
        .poison_job(2, 2)
        .poison_job(2, 3);
    let scenarios: Vec<(usize, String, FaultPlan)> =
        std::iter::once((4usize, "det-death+quarantine".to_string(), det_plan))
            .chain([1u64, 2, 3].into_iter().flat_map(|seed| {
                [2usize, 4, 6].into_iter().map(move |world| {
                    (
                        world,
                        format!("chaos-seed-{seed}"),
                        FaultPlan::random(seed, world, 13),
                    )
                })
            }))
            .collect();

    for (world, scenario, plan) in scenarios {
        let run = || {
            let sched =
                Scheduler::new(fresh_engine(), RankBudget::default()).with_fault_plan(plan.clone());
            let t = Instant::now();
            let outcome = sched.run(world, jobs.clone());
            (outcome, t.elapsed().as_secs_f64())
        };
        let (outcome, seconds) = run();
        let f = outcome.fault_stats;
        let rec = &outcome.schedule;

        // The acceptance contract, asserted in-binary.
        assert!(
            recovered_bitwise(&outcome.results, &serial),
            "world {world} {scenario}: non-quarantined results deviate from the serial queue"
        );
        assert_eq!(
            f.final_world_size,
            world - f.rank_failures,
            "world {world} {scenario}: survivor count off"
        );
        for ep in &rec.epochs {
            assert!(
                ep.survivors.len() + ep.newly_failed.len() <= world,
                "resurrected rank in {scenario}"
            );
        }
        // Counters are exactly reproducible per plan.
        let (again, _) = run();
        assert_eq!(
            f, again.fault_stats,
            "world {world} {scenario}: counters not reproducible"
        );

        if scenario == "det-death+quarantine" {
            assert_eq!(f.rank_failures, 1);
            assert_eq!(f.quarantined_jobs, 1);
            assert!(outcome.results[2].quarantined);
        }

        let util = survivor_utilization(rec);
        eprintln!(
            "world {world} {scenario}: {} failures, {} poisoned, {} retries, \
             {} quarantined, {} epochs, util {util:.3}, {seconds:.4} s",
            f.rank_failures, f.poisoned_attempts, f.retries, f.quarantined_jobs, f.recovery_epochs,
        );
        rows.push(vec![
            world.to_string(),
            scenario.clone(),
            f.rank_failures.to_string(),
            f.poisoned_attempts.to_string(),
            f.retries.to_string(),
            f.quarantined_jobs.to_string(),
            f.recovery_epochs.to_string(),
            f.final_world_size.to_string(),
            fixed(util, 3),
            sci(seconds),
        ]);
        series.push(Json::obj([
            ("world", Json::Num(world as f64)),
            ("scenario", Json::Str(scenario)),
            ("rank_failures", Json::Num(f.rank_failures as f64)),
            ("poisoned_attempts", Json::Num(f.poisoned_attempts as f64)),
            ("retries", Json::Num(f.retries as f64)),
            ("quarantined_jobs", Json::Num(f.quarantined_jobs as f64)),
            ("recovery_epochs", Json::Num(f.recovery_epochs as f64)),
            ("final_world_size", Json::Num(f.final_world_size as f64)),
            ("slow_stalls", Json::Num(f.slow_stalls as f64)),
            ("survivor_utilization", Json::Num(util)),
            ("total_s", Json::Num(seconds)),
        ]));
    }

    println!("\nAblation — deterministic fault injection and epoch-level recovery");
    print_table(&header, &rows);
    write_csv("ablation_faults.csv", &header, &rows);
    // The acceptance artifact: the fault sweep under its stable name.
    write_bench_json(
        "faults",
        Json::obj([
            (
                "workload",
                Json::Str("fault batch: 1 large + 12 small".into()),
            ),
            ("jobs", Json::Num(n_jobs as f64)),
            ("series", Json::Arr(series)),
            ("table", bench_table(&header, &rows)),
        ]),
    );
}
