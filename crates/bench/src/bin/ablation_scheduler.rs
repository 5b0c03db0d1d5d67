//! Ablation: serial `JobQueue` vs distributed `Scheduler` over per-job
//! subcommunicator groups.
//!
//! A mixed batch (sign + density jobs, different systems and sizes) runs
//! once through the serial queue and then through the scheduler at world
//! sizes 1, 2, 4 and 8. The scheduler result must match the queue bitwise
//! (grand-canonical jobs), which this binary asserts before reporting
//! wall-times, per-job group sizes, subgroup traffic, and the shared
//! plan-cache counters. Emits the standard CSV + JSON outputs.
//!
//! The interesting signal on a laptop-class host is not raw speedup
//! (thread ranks share cores) but the schedule itself: how the rank
//! budget follows estimated job cost, and how much traffic each group
//! moves — the quantities that decide placement on a real cluster.

use std::time::Instant;

use sm_bench::output::{
    bench_table, fixed, paper_scale, print_table, sci, write_bench_json, write_csv, write_json,
    Json,
};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::engine::{EngineOptions, NumericOptions};
use sm_dbcsr::ops;
use sm_pipeline::{
    JobOutput, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler, SubmatrixEngine,
};

/// The mixed batch: two water systems at different filter strengths, sign
/// and density outputs, plus one recurring pattern with shifted values.
fn batch() -> Vec<MatrixJob> {
    let nrep = if paper_scale() { 2 } else { 1 };
    let water = WaterBox::cubic(nrep, SEED);
    let basis = accuracy_basis();
    let (sys_a, mut kt_a) = build_orthogonalized(&water, &basis, 1e-11, 1e-9);
    kt_a.store_mut().filter(3e-2);
    let water_b = WaterBox::cubic(1, SEED + 5);
    let (sys_b, mut kt_b) = build_orthogonalized(&water_b, &basis, 1e-11, 1e-9);
    kt_b.store_mut().filter(8e-2);
    let mut kt_a2 = kt_a.clone();
    ops::shift_diag(&mut kt_a2, 1e-4);
    vec![
        MatrixJob::density("A/density", kt_a.clone(), sys_a.mu),
        MatrixJob {
            name: "A/sign".into(),
            matrix: kt_a2,
            mu0: sys_a.mu,
            numeric: NumericOptions::default(),
            output: JobOutput::Sign,
        },
        MatrixJob::density("B/density", kt_b.clone(), sys_b.mu),
        MatrixJob {
            name: "B/sign".into(),
            matrix: kt_b,
            mu0: sys_b.mu,
            numeric: NumericOptions::default(),
            output: JobOutput::Sign,
        },
    ]
}

fn checksum(results: &[JobResult]) -> f64 {
    let comm = SerialComm::new();
    results.iter().map(|r| ops::trace(&r.result, &comm)).sum()
}

fn bitwise_equal(a: &[JobResult], b: &[JobResult]) -> bool {
    let comm = SerialComm::new();
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.result
                .to_dense(&comm)
                .allclose(&y.result.to_dense(&comm), 0.0)
        })
}

fn fresh_engine() -> std::sync::Arc<SubmatrixEngine> {
    std::sync::Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }))
}

fn main() {
    let jobs = batch();
    let n_jobs = jobs.len();
    let job_sizes: Vec<usize> = jobs.iter().map(|j| j.matrix.n()).collect();
    println!("{} jobs, matrix sizes {:?}", n_jobs, job_sizes);

    // Serial reference (and its timing).
    let queue = JobQueue::new(fresh_engine());
    let t = Instant::now();
    let serial = queue.run(batch());
    let serial_seconds = t.elapsed().as_secs_f64();
    let serial_checksum = checksum(&serial);

    let mut rows = Vec::new();
    let mut series = Vec::new();
    let header = [
        "world",
        "groups",
        "total_s",
        "vs_serial",
        "group_sizes",
        "subgroup_bytes",
        "world_bytes",
        "plans_built",
        "cache_hits",
    ];
    for world in [1usize, 2, 4, 8] {
        let sched = Scheduler::new(fresh_engine(), RankBudget::default());
        let t = Instant::now();
        let outcome = sched.run(world, batch());
        let seconds = t.elapsed().as_secs_f64();

        assert!(
            bitwise_equal(&outcome.results, &serial),
            "scheduler at world {world} deviates from the serial queue"
        );
        assert!((checksum(&outcome.results) - serial_checksum).abs() < 1e-12);
        let plan = &outcome.schedule.static_plan;

        let group_sizes: Vec<String> = plan
            .groups
            .iter()
            .map(|g| g.ranks.len().to_string())
            .collect();
        let subgroup_bytes: u64 = outcome.results.iter().map(|r| r.comm_bytes).sum();
        let stats = sched.engine().stats();
        eprintln!(
            "world {world}: {} groups {:?}, {seconds:.4} s, \
             {subgroup_bytes} subgroup bytes, {} plans built",
            plan.groups.len(),
            group_sizes,
            stats.symbolic_builds,
        );
        rows.push(vec![
            world.to_string(),
            plan.groups.len().to_string(),
            sci(seconds),
            fixed(serial_seconds / seconds, 3),
            group_sizes.join("+"),
            subgroup_bytes.to_string(),
            outcome.world_stats.total_bytes().to_string(),
            stats.symbolic_builds.to_string(),
            stats.cache_hits.to_string(),
        ]);
        series.push(Json::obj([
            ("world", Json::Num(world as f64)),
            ("groups", Json::Num(plan.groups.len() as f64)),
            ("total_s", Json::Num(seconds)),
            ("speedup_vs_serial", Json::Num(serial_seconds / seconds)),
            (
                "group_sizes",
                Json::Arr(
                    plan.groups
                        .iter()
                        .map(|g| Json::Num(g.ranks.len() as f64))
                        .collect(),
                ),
            ),
            (
                "job_cost_estimates",
                Json::Arr(plan.job_costs.iter().map(|&c| Json::Num(c)).collect()),
            ),
            ("subgroup_bytes", Json::Num(subgroup_bytes as f64)),
            (
                "world_bytes",
                Json::Num(outcome.world_stats.total_bytes() as f64),
            ),
            ("plans_built", Json::Num(stats.symbolic_builds as f64)),
            ("cache_hits", Json::Num(stats.cache_hits as f64)),
        ]));
    }

    println!("\nAblation — serial JobQueue vs scheduled subcommunicator groups");
    print_table(&header, &rows);
    write_csv("ablation_scheduler.csv", &header, &rows);
    write_json(
        "ablation_scheduler.json",
        &Json::obj([
            ("bench", Json::Str("ablation_scheduler".into())),
            ("jobs", Json::Num(n_jobs as f64)),
            (
                "matrix_sizes",
                Json::Arr(job_sizes.iter().map(|&n| Json::Num(n as f64)).collect()),
            ),
            ("serial_total_s", Json::Num(serial_seconds)),
            ("serial_checksum", Json::Num(serial_checksum)),
            ("series", Json::Arr(series.clone())),
        ]),
    );
    // The acceptance artifact under its stable short name, like the other
    // contract benches (precision/stealing/scf_service) — CI checks for
    // results/BENCH_scheduler.json by this name.
    write_bench_json(
        "scheduler",
        Json::obj([
            ("jobs", Json::Num(n_jobs as f64)),
            ("serial_total_s", Json::Num(serial_seconds)),
            ("serial_checksum", Json::Num(serial_checksum)),
            ("series", Json::Arr(series)),
            ("table", bench_table(&header, &rows)),
        ]),
    );
}
