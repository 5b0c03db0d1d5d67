//! Batched multi-system SCF service: many chemical systems, one
//! scheduler, one plan cache.
//!
//! Run with: `cargo run --release --example scf_service_batch`
//!
//! This is the capstone of the pipeline walkthroughs (`quickstart` →
//! `scf_loop` → `scheduler_batch` → here): a production-shaped service
//! that self-consistently solves a *batch* of independent chemical
//! systems concurrently on one simulated rank world.
//!
//! The walkthrough proceeds in three steps:
//!
//! 1. **Build the batch.** Each [`ScfJobSpec`] is an independent system —
//!    here three periodic water boxes with different random seeds — with
//!    its own convergence budget and ensemble.
//! 2. **Run the batch.** `Scheduler::run(world, specs)` estimates each
//!    system's *per-iteration* submatrix cost from its sparsity pattern,
//!    multiplies by the iteration budget, carves the world into per-job
//!    subcommunicator groups (LPT + proportional ranks), and drives every
//!    system's full `ScfDriver` loop collectively on its group — with
//!    epoch-based work stealing re-dealing drained ranks onto straggler
//!    systems, and every plan going through the one shared engine cache.
//! 3. **Resubmit, as an MD trajectory would.** The same systems come back
//!    next MD step with perturbed values but identical sparsity patterns;
//!    the schedule is a pure function of those patterns, so every group
//!    shape repeats and the second batch does **zero** symbolic work —
//!    the service-level form of the paper's plan-reuse argument.
//! 4. **Kill and restart.** The engine spills its plan cache to a
//!    versioned manifest (`SubmatrixEngine::export_plans`), the process
//!    "dies", and a fresh engine in a resident [`StreamingScfService`]
//!    imports the manifest and replays the batch through an admission
//!    window — the warm daemon replans **nothing** (`symbolic_builds ==
//!    0`): plan reuse survives process death. Inspect the spill with
//!    `smdoctor cache <manifest>`.
//!
//! Every job returns its final density plus per-iteration SCF telemetry
//! (iterations, convergence, energy, electron count, per-iteration wire
//! bytes) and its scheduler placement (group size, epoch, stolen ranks).

use std::sync::Arc;

use cp2k_submatrix::prelude::*;
use sm_pipeline::{
    Priority, RankBudget, ScfJobSpec, ScfOutcomeExt, Scheduler, SchedulerOutcome, ServiceConfig,
    StreamingScfService,
};

/// Orthogonalized Kohn–Sham matrix + chemical data of one water system.
fn system(seed: u64) -> (sm_dbcsr::DbcsrMatrix, f64, f64) {
    let water = WaterBox::cubic(1, seed);
    let basis = BasisSet::szv();
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let ns = NewtonSchulzOptions {
        eps_filter: 1e-12,
        max_iter: 200,
    };
    let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &ns, &comm);
    let n_elec = 8.0 * water.n_molecules() as f64;
    (kt, sys.mu, n_elec)
}

fn print_results(outcome: &SchedulerOutcome) {
    println!(
        "{:>12} {:>6} {:>6} {:>7} {:>5} {:>5} {:>16} {:>11} {:>9}",
        "system", "ranks", "epoch", "stolen", "iter", "conv", "energy", "electrons", "kB wire"
    );
    for r in &outcome.results {
        let scf = r.scf.as_ref().expect("SCF jobs carry SCF telemetry");
        println!(
            "{:>12} {:>6} {:>6} {:>7} {:>5} {:>5} {:>16.8} {:>11.4} {:>9.1}",
            r.name,
            r.group_size,
            r.epoch,
            r.stolen_ranks,
            scf.iterations,
            if scf.converged { "yes" } else { "no" },
            scf.final_energy,
            scf.final_electrons,
            r.value_bytes() as f64 / 1024.0,
        );
    }
}

fn main() {
    // Step 1: the batch — three independent water systems, canonical
    // ensemble (the driver adjusts µ to hold the electron count).
    let mut specs = Vec::new();
    for (name, seed) in [("water-42", 42u64), ("water-7", 7), ("water-1234", 1234)] {
        let (kt, mu, ne) = system(seed);
        // ScfJobSpec carries the full ScfOptions; `scf.engine` is ignored —
        // the service's shared engine (built below) governs the symbolic
        // phase for every job.
        specs.push(ScfJobSpec::new(name, kt, mu, ne));
    }
    println!("batch: {} SCF systems, canonical ensemble", specs.len());

    // Step 2: run on a 6-rank world over one shared engine.
    let engine = Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }));
    let service = Scheduler::new(engine.clone(), RankBudget::default());
    let world = 6;
    let outcome = service.run(world, specs.clone());

    println!("\nMD step 1 (cold cache):");
    print_results(&outcome);
    let stats1 = engine.stats();
    println!(
        "plan cache: {} symbolic builds, {} hits across {} SCF iterations",
        stats1.symbolic_builds,
        stats1.cache_hits,
        outcome.results.total_iterations()
    );
    assert_eq!(outcome.results.converged_jobs(), outcome.results.len());

    // Step 3: the MD-step resubmission — same patterns, perturbed values.
    // The epoch schedule is a pure function of the (unchanged) pattern
    // costs, so every job lands on the same-shaped group and every
    // (fingerprint, rank, size) plan key is warm: zero symbolic work.
    for spec in &mut specs {
        sm_dbcsr::ops::scale(&mut spec.kt0, 1.0 + 1e-3);
    }
    let outcome2 = service.run(world, specs.clone());
    println!("\nMD step 2 (same patterns, new values):");
    print_results(&outcome2);
    let stats2 = engine.stats();
    println!(
        "plan cache: {} new symbolic builds, {} total hits",
        stats2.symbolic_builds - stats1.symbolic_builds,
        stats2.cache_hits
    );
    assert_eq!(
        stats2.symbolic_builds, stats1.symbolic_builds,
        "resubmitted batch must plan zero times"
    );
    for r in &outcome2.results {
        assert!(
            r.report.plan_cached,
            "job '{}' re-planned on resubmission",
            r.name
        );
        assert!(r.scf.as_ref().unwrap().converged);
    }
    println!("\nresubmitted batch planned zero times, all systems converged: ok");

    // Step 4: kill and restart. Spill the plan cache to a manifest, stand
    // up a fresh engine (a new process in miniature) inside the resident
    // streaming service, import, and replay the batch through an
    // admission window — warm from the first SCF iteration.
    let manifest = std::env::temp_dir().join("scf_service_batch.smplans");
    let exported = engine
        .export_plans(&manifest)
        .expect("export plan manifest");
    println!(
        "\nspilled {exported} plan(s) to {} — restarting on a fresh engine",
        manifest.display()
    );

    let engine2 = Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }));
    let imported = engine2
        .import_plans(&manifest)
        .expect("import plan manifest");
    assert_eq!(imported, exported, "every spilled plan must restore");
    let mut daemon = StreamingScfService::new(
        Scheduler::new(Arc::clone(&engine2), RankBudget::default()).with_trace_label("md-restart"),
        ServiceConfig {
            world_size: world,
            ..ServiceConfig::default()
        },
    );
    for (spec, priority) in specs
        .into_iter()
        .zip([Priority::High, Priority::Normal, Priority::Low])
    {
        daemon.submit(spec, priority).expect("admission");
    }
    let window = daemon.close_window().expect("restart window");
    println!("\nrestarted daemon, window 0 (imported plans):");
    print_results(&window.outcome);
    let warm = engine2.stats();
    println!(
        "plan cache after restart: {} symbolic builds, {} hits",
        warm.symbolic_builds, warm.cache_hits
    );
    assert_eq!(
        warm.symbolic_builds, 0,
        "restarted service must replan nothing"
    );
    for r in &window.outcome.results {
        assert!(
            r.report.plan_cached,
            "job '{}' re-planned after the restart",
            r.name
        );
        assert!(r.scf.as_ref().unwrap().converged);
    }
    println!("\nwarm restart planned zero times across process death: ok");
}
