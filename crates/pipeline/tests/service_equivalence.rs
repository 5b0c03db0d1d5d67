//! Equivalence suite for the resident streaming service, extending
//! `scf_service_equivalence` to the streamed shape: however jobs arrive —
//! interleaved priorities, multiple admission windows, a restart in the
//! middle — each closed window must produce results **bitwise-identical**
//! to a serial `ScfDriver` loop over the same admitted set in the same
//! canonical order, and the plan-manifest round-trip must make a warm
//! restart replan nothing (`builds == 0` on resubmission), with the
//! consensus accounting identity `hits + builds = executions` intact
//! across export/import.

use std::sync::Arc;

use sm_chem::{ScfEnsemble, ScfResult};
use sm_comsim::SerialComm;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    serial_scf_loop, EngineOptions, Priority, RankBudget, ScfJobSpec, Scheduler, ServiceConfig,
    ServiceError, StreamingScfService, SubmatrixEngine, WindowOutcome,
};

/// Deterministic banded symmetric matrix with a spectral gap at 0 (the
/// `scf_service_equivalence` construction).
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

fn gc_spec(name: &str, nb: usize, seed: u64, max_iter: usize) -> ScfJobSpec {
    let kt0 = banded(nb, 2, seed);
    let n_electrons = kt0.n() as f64;
    let mut spec = ScfJobSpec::new(name, kt0, 0.0, n_electrons);
    spec.scf.max_iter = max_iter;
    spec.scf.tol = 1e-9;
    spec.scf.ensemble = ScfEnsemble::GrandCanonical;
    spec
}

fn fresh_engine(capacity: Option<usize>) -> Arc<SubmatrixEngine> {
    Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        plan_cache_capacity: capacity,
        ..EngineOptions::default()
    }))
}

fn fresh_service(engine: Arc<SubmatrixEngine>, world: usize) -> StreamingScfService {
    StreamingScfService::new(
        Scheduler::new(engine, RankBudget::default()).with_trace_label("svc-eq"),
        ServiceConfig {
            world_size: world,
            queue_capacity: 32,
        },
    )
}

/// Rebuild the specs a window admitted, in the window's canonical order,
/// from the (name → spec) workload table.
fn admitted_specs(w: &WindowOutcome, table: &[ScfJobSpec]) -> Vec<ScfJobSpec> {
    w.admitted
        .iter()
        .map(|name| {
            table
                .iter()
                .find(|s| &s.name == name)
                .expect("admitted job came from the workload")
                .clone()
        })
        .collect()
}

/// Bitwise density + iteration/convergence agreement against the serial
/// reference (energies to reduction accuracy).
fn assert_window_matches_serial(w: &WindowOutcome, serial: &[ScfResult], what: &str) {
    let comm = SerialComm::new();
    assert_eq!(w.outcome.results.len(), serial.len());
    for (r, s) in w.outcome.results.iter().zip(serial) {
        assert!(
            r.result
                .to_dense(&comm)
                .allclose(&s.density.to_dense(&comm), 0.0),
            "job '{}' density deviates bitwise ({what})",
            r.name
        );
        let scf = r.scf.as_ref().expect("SCF telemetry present");
        assert_eq!(
            scf.iterations,
            s.iterations.len(),
            "job '{}' ({what})",
            r.name
        );
        assert_eq!(scf.converged, s.converged, "job '{}' ({what})", r.name);
    }
}

mod common;
use common::with_watchdog;

#[test]
fn streamed_windows_are_bitwise_serial_per_window() {
    // Three admission windows with interleaved mixed priorities, all at
    // world 4: each window's results must be bitwise-identical to a
    // serial loop over that window's admitted set (in canonical order) —
    // arrival timing must not matter, only window membership.
    with_watchdog(300, || {
        let workload: Vec<ScfJobSpec> = vec![
            gc_spec("w0-a", 6, 1, 5),
            gc_spec("w0-b", 4, 2, 5),
            gc_spec("w0-c", 5, 3, 5),
            gc_spec("w1-a", 4, 4, 5),
            gc_spec("w1-b", 8, 5, 5),
            gc_spec("w1-c", 4, 6, 5),
            gc_spec("w1-d", 5, 7, 5),
            gc_spec("w2-a", 6, 1, 5), // resubmission of w0-a's pattern
        ];
        let spec_of = |name: &str| {
            workload
                .iter()
                .find(|s| s.name == name)
                .expect("workload spec")
                .clone()
        };

        let engine = fresh_engine(None);
        let mut svc = fresh_service(engine, 4);

        // Window 0: mixed priorities, submitted out of canonical order.
        svc.submit(spec_of("w0-a"), Priority::Low).unwrap();
        svc.submit(spec_of("w0-b"), Priority::High).unwrap();
        svc.submit(spec_of("w0-c"), Priority::Normal).unwrap();
        let w0 = svc.close_window().expect("window 0");
        assert_eq!(w0.admitted, vec!["w0-b", "w0-c", "w0-a"]);

        // Window 1: four jobs, two priority classes, FIFO within each.
        svc.submit(spec_of("w1-a"), Priority::Normal).unwrap();
        svc.submit(spec_of("w1-b"), Priority::Normal).unwrap();
        svc.submit(spec_of("w1-c"), Priority::High).unwrap();
        svc.submit(spec_of("w1-d"), Priority::Normal).unwrap();
        let w1 = svc.close_window().expect("window 1");
        assert_eq!(w1.admitted, vec!["w1-c", "w1-a", "w1-b", "w1-d"]);

        // Window 2: a single resubmitted pattern.
        svc.submit(spec_of("w2-a"), Priority::Normal).unwrap();
        let w2 = svc.close_window().expect("window 2");

        for (w, what) in [(&w0, "window 0"), (&w1, "window 1"), (&w2, "window 2")] {
            let specs = admitted_specs(w, &workload);
            let serial = serial_scf_loop(&fresh_engine(None), &specs);
            assert_window_matches_serial(w, &serial, what);
        }

        // Consensus accounting across the whole stream: every rank of
        // every group decides hit/miss once per SCF iteration, across all
        // windows, on the one shared engine.
        let expected: usize = [&w0, &w1, &w2]
            .iter()
            .flat_map(|w| {
                w.outcome.results.iter().enumerate().map(|(j, r)| {
                    let iters = r.scf.as_ref().map_or(1, |s| s.iterations);
                    w.outcome.schedule.ranks_of_job(j).len() * iters
                })
            })
            .sum();
        let stats = svc.engine().stats();
        assert_eq!(
            stats.cache_hits + stats.symbolic_builds,
            expected,
            "consensus accounting off across windows: {stats:?}"
        );
        assert_eq!(stats.executions, expected);
        assert_eq!(svc.stats().windows, 3);
        assert_eq!(svc.stats().jobs_run, 8);
    });
}

#[test]
fn manifest_roundtrip_replans_nothing_on_restart() {
    // Kill-and-restart: run a window, spill the plan cache, stand up a
    // fresh engine (a new process in miniature), import, resubmit the
    // same systems — the restarted service must report zero symbolic
    // builds, and `hits + builds = executions` must hold on both sides.
    with_watchdog(300, || {
        let specs = vec![
            gc_spec("r-a", 6, 1, 4),
            gc_spec("r-b", 4, 2, 4),
            gc_spec("r-c", 5, 3, 4),
        ];
        let dir = std::env::temp_dir().join("sm_service_equivalence");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let manifest = dir.join("restart.smplans");

        let engine = fresh_engine(None);
        let mut svc = fresh_service(Arc::clone(&engine), 4);
        for s in &specs {
            svc.submit(s.clone(), Priority::Normal).unwrap();
        }
        let before = svc.close_window().expect("cold window");
        let cold = engine.stats();
        assert!(cold.symbolic_builds > 0, "cold window must build plans");
        let exported = engine.export_plans(&manifest).expect("export");
        assert_eq!(exported, engine.cached_plans());

        // "Restart": fresh engine, import, resubmit the same window.
        let engine2 = fresh_engine(None);
        let imported = engine2.import_plans(&manifest).expect("import");
        assert_eq!(imported, exported);
        let mut svc2 = fresh_service(Arc::clone(&engine2), 4);
        for s in &specs {
            svc2.submit(s.clone(), Priority::Normal).unwrap();
        }
        let after = svc2.close_window().expect("warm window");
        let warm = engine2.stats();
        assert_eq!(warm.symbolic_builds, 0, "warm restart must replan nothing");
        assert_eq!(
            warm.cache_hits, warm.executions,
            "every warm planning decision is a hit"
        );
        assert_eq!(
            cold.cache_hits + cold.symbolic_builds,
            warm.cache_hits,
            "same admitted set ⇒ same number of planning decisions"
        );

        // And the restart is invisible in the numbers.
        let comm = SerialComm::new();
        for (b, a) in before.outcome.results.iter().zip(&after.outcome.results) {
            assert_eq!(b.name, a.name);
            assert!(
                b.result
                    .to_dense(&comm)
                    .allclose(&a.result.to_dense(&comm), 0.0),
                "job '{}' density changed across the restart",
                b.name
            );
        }
    });
}

#[test]
fn backpressure_and_rejection_do_not_disturb_the_window() {
    // A refused submission (queue full) must leave the admitted set — and
    // therefore the window's results — exactly as if it never happened.
    with_watchdog(300, || {
        let engine = fresh_engine(None);
        let mut svc = StreamingScfService::new(
            Scheduler::new(engine, RankBudget::default()).with_trace_label("svc-bp"),
            ServiceConfig {
                world_size: 4,
                queue_capacity: 2,
            },
        );
        svc.submit(gc_spec("keep-1", 4, 1, 4), Priority::Normal)
            .unwrap();
        svc.submit(gc_spec("keep-2", 5, 2, 4), Priority::Normal)
            .unwrap();
        assert!(matches!(
            svc.submit(gc_spec("shed", 6, 3, 4), Priority::High),
            Err(ServiceError::Backpressure { capacity: 2 })
        ));
        let w = svc.close_window().expect("window");
        assert_eq!(w.admitted, vec!["keep-1", "keep-2"]);

        let specs = vec![gc_spec("keep-1", 4, 1, 4), gc_spec("keep-2", 5, 2, 4)];
        let serial = serial_scf_loop(&fresh_engine(None), &specs);
        assert_window_matches_serial(&w, &serial, "backpressured window");
        assert_eq!(svc.stats().backpressure_rejects, 1);
    });
}
