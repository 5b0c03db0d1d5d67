//! Equivalence suite for the batched multi-system SCF service, mirroring
//! `stealing_equivalence`: whatever epoch/steal schedule the service runs
//! a batch under, SCF jobs of either ensemble must produce densities
//! **bitwise-identical** to a plain serial loop of `ScfDriver` runs — at
//! any world size — with identical iteration counts and convergence
//! flags, and the plan-cache hit/miss consensus must stay per-group
//! per-epoch. For iterative jobs the consensus accounting identity
//! generalizes to
//!
//! ```text
//! cache hits + symbolic builds = executions = Σ_jobs group_size × iterations
//! ```
//!
//! (every rank of every group decides hit/miss exactly once per SCF
//! iteration).

use std::sync::Arc;

use sm_chem::{ScfEnsemble, ScfResult};
use sm_comsim::SerialComm;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    serial_scf_loop, BatchJob, EngineOptions, JobQueue, MatrixJob, RankBudget, ScfJobSpec,
    ScfOutcomeExt, Scheduler, SchedulerOutcome, StealPolicy, SubmatrixEngine,
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

/// A grand-canonical SCF spec at half filling of the gapped model: fixed
/// µ = 0, the engine's bit-reproducible numeric path.
fn gc_spec(name: &str, nb: usize, seed: u64, max_iter: usize) -> ScfJobSpec {
    let kt0 = banded(nb, 2, seed);
    let n_electrons = kt0.n() as f64;
    let mut spec = ScfJobSpec::new(name, kt0, 0.0, n_electrons);
    spec.scf.max_iter = max_iter;
    spec.scf.tol = 1e-9;
    spec.scf.ensemble = ScfEnsemble::GrandCanonical;
    spec
}

/// The straggler construction of `stealing_equivalence`, lifted to SCF
/// jobs: one large system plus many smalls of a recurring pattern, all
/// with the same iteration budget — so the *relative* cost structure (and
/// with it the multi-epoch steal schedule at world 6) is identical to the
/// one-shot case, while every job is now a whole SCF loop.
fn straggler_specs(max_iter: usize) -> Vec<ScfJobSpec> {
    let mut specs = vec![gc_spec("large", 10, 1, max_iter)];
    for i in 0..18u64 {
        specs.push(gc_spec(&format!("small-{i}"), 4, i, max_iter));
    }
    specs
}

fn fresh_engine(capacity: Option<usize>) -> Arc<SubmatrixEngine> {
    Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        plan_cache_capacity: capacity,
        ..EngineOptions::default()
    }))
}

/// Grand-canonical service results must be bitwise-identical to the
/// serial driver loop: same densities (bit for bit), same iteration
/// counts, same convergence flags; energies agree to reduction accuracy
/// (multi-rank groups sum trace contributions in a different order).
fn assert_matches_serial(outcome: &SchedulerOutcome, serial: &[ScfResult], what: &str) {
    let comm = SerialComm::new();
    assert_eq!(outcome.results.len(), serial.len());
    for (r, s) in outcome.results.iter().zip(serial) {
        assert!(
            r.result
                .to_dense(&comm)
                .allclose(&s.density.to_dense(&comm), 0.0),
            "job '{}' density deviates bitwise ({what})",
            r.name
        );
        let scf = r.scf.as_ref().expect("SCF job telemetry present");
        assert_eq!(
            scf.iterations,
            s.iterations.len(),
            "job '{}' iteration count deviates ({what})",
            r.name
        );
        assert_eq!(scf.converged, s.converged, "job '{}' ({what})", r.name);
        let e_serial = s.iterations.last().unwrap().energy;
        assert!(
            (scf.final_energy - e_serial).abs() <= 1e-10 * (1.0 + e_serial.abs()),
            "job '{}' final energy deviates past reduction accuracy: {} vs {e_serial} ({what})",
            r.name,
            scf.final_energy
        );
        // Grand canonical: µ is pinned to the seed on both paths.
        assert_eq!(r.report.mu, 0.0);
    }
}

/// The iterative form of the consensus accounting identity.
fn assert_consensus_accounting(outcome: &SchedulerOutcome, engine: &SubmatrixEngine) {
    let expected: usize = outcome
        .results
        .iter()
        .enumerate()
        .map(|(j, r)| {
            let iters = r.scf.as_ref().map_or(1, |s| s.iterations);
            outcome.schedule.ranks_of_job(j).len() * iters
        })
        .sum();
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.symbolic_builds,
        expected,
        "plan-cache consensus accounting off: {stats:?}, expected {expected} decisions"
    );
    assert_eq!(stats.executions, expected);
}

// Wall-clock watchdog from the shared test-support module (a divergent
// consensus deadlocks inside a collective; fail loudly instead of
// hanging the harness).
mod common;
use common::with_watchdog;

#[test]
fn grand_canonical_batch_is_bitwise_serial_at_multiple_world_sizes() {
    // The acceptance criterion: a grand-canonical multi-system batch
    // through the Scheduler is bitwise-identical to serially looping
    // ScfDriver, at ≥ 2 world sizes, with consensus accounting intact.
    let specs = straggler_specs(5);
    let serial = serial_scf_loop(&fresh_engine(None), &specs);
    for world in [2usize, 4, 6] {
        let engine = fresh_engine(None);
        let service = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = service.run(world, specs.clone());
        assert_matches_serial(&outcome, &serial, &format!("world {world}"));
        assert_consensus_accounting(&outcome, &engine);
    }
}

#[test]
fn scf_straggler_batch_steals_and_stays_bitwise() {
    // The same relative cost skew that makes the one-shot straggler batch
    // steal at world 6 must make the SCF batch steal too (costs scale
    // uniformly with the shared iteration budget) — and stealing must
    // stay invisible in the results.
    let specs = straggler_specs(5);
    let serial = serial_scf_loop(&fresh_engine(None), &specs);
    let engine = fresh_engine(None);
    let service = Scheduler::new(engine.clone(), RankBudget::default());
    let outcome = service.run(6, specs);
    let stats = &outcome.steal_stats;
    assert!(
        stats.epochs >= 2,
        "SCF batch stayed single-epoch: {stats:?}"
    );
    assert!(stats.stolen_jobs >= 1, "no SCF job was stolen: {stats:?}");
    assert!(
        stats.est_max_rank_idle_epochs < stats.est_max_rank_idle_static,
        "stealing must lower the max-rank idle estimate: {stats:?}"
    );
    for (j, r) in outcome.results.iter().enumerate() {
        assert_eq!(r.epoch, outcome.schedule.job_epoch[j]);
        assert_eq!(r.stolen_ranks, outcome.schedule.job_stolen_ranks[j]);
        assert_eq!(r.group_size, outcome.schedule.ranks_of_job(j).len());
    }
    assert_matches_serial(&outcome, &serial, "stealing vs serial driver loop");
    assert_consensus_accounting(&outcome, &engine);
}

#[test]
fn disabled_policy_matches_serial_too() {
    let specs = straggler_specs(4);
    let serial = serial_scf_loop(&fresh_engine(None), &specs);
    let engine = fresh_engine(None);
    let service =
        Scheduler::new(engine.clone(), RankBudget::default()).with_policy(StealPolicy::Disabled);
    let outcome = service.run(6, specs);
    assert_eq!(outcome.steal_stats.epochs, 1);
    assert_eq!(outcome.steal_stats.stolen_jobs, 0);
    assert_matches_serial(&outcome, &serial, "static policy vs serial driver loop");
    assert_consensus_accounting(&outcome, &engine);
}

#[test]
fn consensus_survives_bounded_cache_under_scf_regrouping() {
    // Hostile cache pressure: capacity 1 while several SCF loops (each
    // re-entering the consensus every iteration) run concurrently under a
    // multi-epoch steal schedule. A divergent hit/miss consensus would
    // deadlock a group inside the collective pattern gather (caught by
    // the watchdog) or break the accounting identity.
    let (outcome, stats, cached, serial) = with_watchdog(300, || {
        let specs = straggler_specs(3);
        let serial = serial_scf_loop(&fresh_engine(None), &specs);
        let engine = fresh_engine(Some(1));
        let service = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = service.run(6, specs);
        (outcome, engine.stats(), engine.cached_plans(), serial)
    });
    assert!(outcome.steal_stats.epochs >= 2);
    assert_matches_serial(&outcome, &serial, "capacity-1 cache");
    let expected: usize = outcome
        .results
        .iter()
        .enumerate()
        .map(|(j, r)| {
            outcome.schedule.ranks_of_job(j).len() * r.scf.as_ref().map_or(1, |s| s.iterations)
        })
        .sum();
    assert_eq!(stats.cache_hits + stats.symbolic_builds, expected);
    assert!(cached <= 1, "bounded cache overflowed: {cached} plans");
}

#[test]
fn traced_scf_batches_stay_bitwise_with_deterministic_span_trees() {
    // The observability gate for the service path: the full SCF straggler
    // batch with tracing live must stay bitwise-identical to the serial
    // driver loop, and the logical span tree — which nests SCF iteration
    // spans between job and engine-phase spans — must be identical across
    // reruns at a fixed world size.
    let specs = straggler_specs(5);
    let serial = serial_scf_loop(&fresh_engine(None), &specs);

    let run_traced = |label: &'static str| {
        let session = sm_trace::TraceSession::start(label);
        let engine = fresh_engine(None);
        let service = Scheduler::new(engine.clone(), RankBudget::default()).with_trace_label(label);
        let outcome = service.run(6, specs.clone());
        assert_matches_serial(&outcome, &serial, label);
        assert_consensus_accounting(&outcome, &engine);
        session.span_tree_under(&format!("batch:{label}"))
    };

    let first = run_traced("svc-trace-a");
    assert!(
        first.contains("/iter:0/"),
        "missing SCF iteration level:\n{first}"
    );
    assert!(
        first.contains("/iter:0/phase:solve"),
        "phases must nest under iterations"
    );
    assert!(
        first.contains("scf.iteration"),
        "missing per-iteration events"
    );
    assert!(
        first.contains("plan.decision"),
        "missing plan consensus events"
    );

    let second = run_traced("svc-trace-b");
    let relabeled = |tree: &str, label: &str| tree.replace(&format!("batch:{label}"), "batch:#");
    assert_eq!(
        relabeled(&first, "svc-trace-a"),
        relabeled(&second, "svc-trace-b"),
        "service span tree must be deterministic across reruns"
    );
}

#[test]
fn canonical_specs_are_bitwise_serial() {
    // Every rank of a group bisects µ over the one gathered spectrum, so
    // canonical specs meet the serial loop bit for bit on any group.
    let mut specs = Vec::new();
    for (i, nb) in [5usize, 4, 4].iter().enumerate() {
        let kt0 = banded(*nb, 2, i as u64);
        let n_electrons = kt0.n() as f64;
        let mut spec = ScfJobSpec::new(format!("canonical-{i}"), kt0, 0.0, n_electrons);
        spec.scf.max_iter = 4;
        // Canonical is the driver default (ScfEnsemble::Canonical); the
        // µ-bisection target is built from the spec's n_electrons and the
        // mu_tol/mu_max_iter knobs.
        assert_eq!(spec.scf.ensemble, ScfEnsemble::Canonical);
        specs.push(spec);
    }
    let serial = serial_scf_loop(&fresh_engine(None), &specs);
    let comm = SerialComm::new();
    for world in 2..=6 {
        let engine = fresh_engine(None);
        let service = Scheduler::new(engine.clone(), RankBudget::default());
        let outcome = service.run(world, specs.clone());
        for (r, s) in outcome.results.iter().zip(&serial) {
            assert!(
                r.result
                    .to_dense(&comm)
                    .allclose(&s.density.to_dense(&comm), 0.0),
                "job '{}' canonical density deviates at world {world}",
                r.name
            );
            assert_eq!(
                r.report.mu.to_bits(),
                s.iterations.last().unwrap().mu.to_bits(),
                "job '{}' canonical µ deviates at world {world}",
                r.name
            );
            let scf = r.scf.as_ref().unwrap();
            assert_eq!(scf.iterations, s.iterations.len());
            assert_eq!(scf.converged, s.converged);
        }
        assert_consensus_accounting(&outcome, &engine);
    }
}

#[test]
fn mixed_matrix_and_scf_batch_shares_one_schedule() {
    // The generalized job abstraction end to end: one batch mixing
    // one-shot matrix jobs with iterative SCF jobs. Matrix results must
    // match the serial JobQueue bitwise, SCF results the serial driver
    // loop — out of the same scheduler run, same engine, same cache.
    let comm = SerialComm::new();
    let specs = vec![gc_spec("scf-a", 6, 2, 4), gc_spec("scf-b", 4, 7, 4)];
    let mjobs = vec![
        MatrixJob::density("mat-a", banded(8, 2, 3), 0.0),
        MatrixJob::density("mat-b", banded(4, 2, 9), 0.1),
    ];

    let serial_scf = serial_scf_loop(&fresh_engine(None), &specs);
    let serial_mat = JobQueue::new(fresh_engine(None)).run(mjobs.clone());

    let engine = fresh_engine(None);
    let sched = Scheduler::new(engine.clone(), RankBudget::default());
    let batch: Vec<BatchJob> = vec![
        BatchJob::Scf(specs[0].clone()),
        BatchJob::Matrix(mjobs[0].clone()),
        BatchJob::Scf(specs[1].clone()),
        BatchJob::Matrix(mjobs[1].clone()),
    ];
    let outcome = sched.run(4, batch);

    // Submission order preserved across kinds.
    let names: Vec<&str> = outcome.results.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["scf-a", "mat-a", "scf-b", "mat-b"]);
    // SCF jobs: bitwise vs the serial driver loop; telemetry present.
    for (ri, si) in [(0usize, 0usize), (2, 1)] {
        let r = &outcome.results[ri];
        assert!(r
            .result
            .to_dense(&comm)
            .allclose(&serial_scf[si].density.to_dense(&comm), 0.0));
        assert!(r.scf.is_some());
    }
    // Matrix jobs: bitwise vs the serial queue; no SCF telemetry.
    for (ri, si) in [(1usize, 0usize), (3, 1)] {
        let r = &outcome.results[ri];
        assert!(r
            .result
            .to_dense(&comm)
            .allclose(&serial_mat[si].result.to_dense(&comm), 0.0));
        assert!(r.scf.is_none());
    }
    assert_eq!(outcome.results.converged_jobs(), 0); // tol 1e-9, 4 iters
    assert_eq!(
        outcome.results.total_iterations(),
        outcome.results[0].scf.as_ref().unwrap().iterations
            + outcome.results[2].scf.as_ref().unwrap().iterations
    );
    assert_consensus_accounting(&outcome, &engine);
}
