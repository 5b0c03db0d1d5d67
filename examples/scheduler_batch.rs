//! A mixed job batch through the distributed scheduler.
//!
//! Builds two water systems, queues sign and density jobs of different
//! sizes, and runs the batch on an 8-rank world: the scheduler estimates
//! each job's submatrix work, carves the world into per-job
//! subcommunicator groups sized proportionally to that estimate, runs
//! every job's plan/execute collectively on its group over one shared
//! engine, and gathers results (with per-job comm/compute telemetry) back
//! to rank 0. The same batch through the serial `JobQueue` must agree
//! bitwise — which this example checks.
//!
//! Run with: `cargo run --release --example scheduler_batch`

use cp2k_submatrix::prelude::*;

fn water_system(nrep: usize, seed: u64, range_scale: f64) -> (DbcsrMatrix, f64) {
    let water = WaterBox::cubic(nrep, seed);
    let basis = BasisSet::szv().with_range_scale(range_scale);
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let ns = NewtonSchulzOptions {
        eps_filter: 1e-12,
        max_iter: 200,
    };
    let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &ns, &comm);
    (kt, sys.mu)
}

fn main() {
    let (kt_a, mu_a) = water_system(1, 42, 1.0);
    let (mut kt_b, mu_b) = water_system(1, 7, 0.7);
    kt_b.store_mut().filter(1e-2);
    let mut kt_a_shifted = kt_a.clone();
    sm_dbcsr::ops::shift_diag(&mut kt_a_shifted, 1e-3);

    let jobs = vec![
        MatrixJob::density("water-A/density", kt_a.clone(), mu_a),
        MatrixJob {
            name: "water-A/sign".into(),
            matrix: kt_a_shifted,
            mu0: mu_a,
            numeric: NumericOptions::default(),
            output: JobOutput::Sign,
        },
        MatrixJob::density("water-B/density", kt_b.clone(), mu_b),
        MatrixJob {
            name: "water-B/sign".into(),
            matrix: kt_b,
            mu0: mu_b,
            numeric: NumericOptions::default(),
            output: JobOutput::Sign,
        },
    ];

    // Serial reference on one process.
    let serial = JobQueue::default().run(jobs.clone());

    // The same batch on an 8-rank world carved into per-job groups.
    let world = 8;
    let scheduler = Scheduler::default();
    let outcome = scheduler.run(world, jobs);

    println!("schedule over {world} ranks:");
    for (g, group) in outcome.schedule.static_plan.groups.iter().enumerate() {
        let names: Vec<&str> = group
            .jobs
            .iter()
            .map(|&j| outcome.results[j].name.as_str())
            .collect();
        println!(
            "  group {g}: ranks {:>2}..{:<2} est.cost {:>10.3e}  jobs {:?}",
            group.ranks.start, group.ranks.end, group.est_cost, names
        );
    }

    println!(
        "\n{:<18} {:>6} {:>10} {:>12} {:>8} {:>7}",
        "job", "ranks", "wall [s]", "comm [B]", "msgs", "cached"
    );
    let comm = SerialComm::new();
    for (res, ref_res) in outcome.results.iter().zip(&serial) {
        assert!(
            res.result
                .to_dense(&comm)
                .allclose(&ref_res.result.to_dense(&comm), 0.0),
            "scheduler deviates from the serial queue on '{}'",
            res.name
        );
        println!(
            "{:<18} {:>6} {:>10.5} {:>12} {:>8} {:>7}",
            res.name,
            res.group_size,
            res.seconds,
            res.comm_bytes,
            res.comm_msgs,
            res.plan_cached(),
        );
    }
    println!(
        "\nall {} scheduled results bitwise-identical to the serial JobQueue",
        serial.len()
    );
    let stats = scheduler.engine().stats();
    println!(
        "shared engine: {} plans built, {} cache hits",
        stats.symbolic_builds, stats.cache_hits
    );
    let steals = outcome.steal_stats;
    println!(
        "epoch plan: {} epoch(s), {} stolen job(s) on {} re-dealt rank(s), \
         est. idle recovered {:.3e} cost units",
        steals.epochs,
        steals.stolen_jobs,
        steals.stolen_ranks,
        steals.est_idle_cost_recovered(),
    );
}
