//! Sparse-backend conformance suite: the scenario matrix pinning the
//! sparse-CSR submatrix solve path against the dense reference across
//! every execution mode the pipeline offers.
//!
//! Axes: solve backend policy {`Dense`, `SparseCsr`} × numeric precision
//! {`Fp64`, `Fp32`, `Fp32Refined`} × execution {serial [`JobQueue`],
//! distributed [`Scheduler`] at worlds 2/4/6}. Pinned properties:
//!
//! 1. **Exactness at `eps = 0`**: the unfiltered sparse-CSR solve agrees
//!    with the dense backend within 1e-10 elementwise (`Fp64`), and each
//!    reduced-precision sparse run stays within the *same* documented
//!    envelope as its dense counterpart (1e-4 plain `Fp32`, 1e-6
//!    `Fp32Refined`, vs the `Fp64` dense reference).
//! 2. **Serial/distributed equivalence**: for every cell of the matrix,
//!    scheduler results are bitwise-identical to the serial queue — the
//!    backend decision is a deterministic plan property, identical on
//!    every rank.
//! 3. **Backend-blind plan cache**: the consensus accounting identity
//!    `cache hits + symbolic builds = Σ_jobs group size` holds unchanged
//!    under either backend, and re-running a batch under the *other*
//!    backend on the same engine produces zero new symbolic builds (the
//!    backend provably never enters a fingerprint or cache key).
//! 4. **Filtering stays within its documented tolerance**: a per-iteration
//!    element filter of 1e-8 perturbs the density by < 1e-5 elementwise
//!    while strictly reducing sparse-kernel flops.

use sm_comsim::SerialComm;
use sm_core::engine::{BackendPolicy, NumericOptions};
use sm_core::solver::{SignMethod, SolveBackend, SolveOptions};
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::{Matrix, Precision};
use sm_pipeline::{
    EngineOptions, JobOutput, JobQueue, JobResult, MatrixJob, RankBudget, Scheduler,
    SchedulerOutcome, SubmatrixEngine,
};

/// Deterministic banded symmetric matrix with a spectral gap at 0.
fn banded(nb: usize, bs: usize, seed: u64) -> DbcsrMatrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let bi = (i / bs) as isize;
        let bj = (j / bs) as isize;
        if (bi - bj).unsigned_abs() > 1 {
            0.0
        } else if i == j {
            let base = if i % 2 == 0 { 1.2 } else { -1.2 };
            base + ((seed % 7) as f64) * 0.017
        } else {
            0.04 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

/// A two-job Newton–Schulz batch under the given backend policy,
/// precision and per-iteration sparse filter (recurring banded patterns,
/// two distinct sizes so the plan cache sees two keys).
fn batch_at(policy: BackendPolicy, precision: Precision, sparse_eps: f64) -> Vec<MatrixJob> {
    let numeric = NumericOptions {
        precision,
        backend: policy,
        solve: SolveOptions {
            method: SignMethod::Pade(2),
            sparse_eps,
            ..SolveOptions::default()
        },
        ..NumericOptions::default()
    };
    vec![
        MatrixJob {
            name: "banded-8/density".into(),
            matrix: banded(8, 2, 3),
            mu0: 0.0,
            numeric,
            output: JobOutput::Density,
        },
        MatrixJob {
            name: "banded-6/sign".into(),
            matrix: banded(6, 2, 5),
            mu0: 0.0,
            numeric,
            output: JobOutput::Sign,
        },
    ]
}

fn dense_results(results: &[JobResult]) -> Vec<Matrix> {
    let comm = SerialComm::new();
    results.iter().map(|r| r.result.to_dense(&comm)).collect()
}

fn fresh_engine() -> std::sync::Arc<SubmatrixEngine> {
    std::sync::Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }))
}

/// Every rank of every group decides plan-cache hit/miss exactly once per
/// job: `hits + builds = executions = Σ_jobs group size`. The backend must
/// leave this identity untouched.
fn assert_consensus_accounting(outcome: &SchedulerOutcome, engine: &SubmatrixEngine) {
    let expected: usize = (0..outcome.results.len())
        .map(|j| outcome.schedule.ranks_of_job(j).len())
        .sum();
    let stats = engine.stats();
    assert_eq!(
        stats.cache_hits + stats.symbolic_builds,
        expected,
        "plan-cache consensus accounting off: {stats:?}, expected {expected}"
    );
    assert_eq!(stats.executions, expected);
}

#[test]
fn sparse_backend_matches_dense_within_documented_envelopes() {
    let queue = JobQueue::default();
    // Fp64 dense is the reference for every cell of the precision axis.
    let reference = dense_results(&queue.run(batch_at(BackendPolicy::Dense, Precision::Fp64, 0.0)));
    for precision in Precision::all() {
        let dense = dense_results(&queue.run(batch_at(BackendPolicy::Dense, precision, 0.0)));
        let sparse = dense_results(&queue.run(batch_at(BackendPolicy::SparseCsr, precision, 0.0)));
        let tol = match precision {
            // Unfiltered CSR is the same iteration in a different
            // representation: 1e-10 against the dense backend.
            Precision::Fp64 => 1e-10,
            // Reduced precision rounds both backends through the same
            // f32 grid; they may part in roundoff but each must stay in
            // its documented envelope vs the Fp64 reference (asserted
            // below) and near its dense sibling here.
            Precision::Fp32 => 1e-4,
            Precision::Fp32Refined => 1e-6,
        };
        for ((s, d), r) in sparse.iter().zip(&dense).zip(&reference) {
            let cross = s.max_abs_diff(d);
            assert!(
                cross < tol,
                "{precision:?}: sparse deviates from dense by {cross} (tol {tol})"
            );
            let envelope = match precision {
                Precision::Fp64 => 1e-10,
                Precision::Fp32 => 1e-4,
                Precision::Fp32Refined => 1e-6,
            };
            let vs_ref = s.max_abs_diff(r);
            assert!(
                vs_ref < envelope,
                "{precision:?}: sparse backend leaves the documented envelope: {vs_ref}"
            );
        }
    }
    // Sparse jobs actually ran the CSR kernels and reported them.
    let out = queue.run(batch_at(BackendPolicy::SparseCsr, Precision::Fp64, 0.0));
    for r in &out {
        assert_eq!(
            r.report.backend,
            SolveBackend::SparseCsr,
            "job '{}'",
            r.name
        );
        assert!(
            r.report.sparse_flops > 0,
            "job '{}' counted no flops",
            r.name
        );
    }
}

#[test]
fn scheduler_is_bitwise_identical_to_the_serial_queue_in_every_cell() {
    for policy in [BackendPolicy::Dense, BackendPolicy::SparseCsr] {
        for precision in Precision::all() {
            let serial = JobQueue::default().run(batch_at(policy, precision, 0.0));
            let serial_dense = dense_results(&serial);
            for world in [2usize, 4, 6] {
                let engine = fresh_engine();
                let sched = Scheduler::new(engine.clone(), RankBudget::default());
                let outcome = sched.run(world, batch_at(policy, precision, 0.0));
                for ((s, q), sr) in dense_results(&outcome.results)
                    .iter()
                    .zip(&serial_dense)
                    .zip(&serial)
                {
                    assert!(
                        s.allclose(q, 0.0),
                        "{policy:?}/{precision:?} at world {world}: job '{}' deviates bitwise",
                        sr.name
                    );
                }
                // The consensus identity is backend-blind.
                assert_consensus_accounting(&outcome, &engine);
            }
        }
    }
}

#[test]
fn plan_cache_is_blind_to_the_backend() {
    // One engine, both backends: the second sweep must produce zero new
    // symbolic builds — a backend-contaminated fingerprint or cache key
    // would force a rebuild and break this count.
    let queue = JobQueue::default();
    queue.run(batch_at(BackendPolicy::Dense, Precision::Fp64, 0.0));
    let builds_after_dense = queue.engine().stats().symbolic_builds;
    assert_eq!(builds_after_dense, 2, "two distinct patterns");
    queue.run(batch_at(BackendPolicy::SparseCsr, Precision::Fp64, 0.0));
    let stats = queue.engine().stats();
    assert_eq!(
        stats.symbolic_builds, builds_after_dense,
        "switching backend must not rebuild any plan"
    );
    assert_eq!(stats.cache_hits, 2, "sparse sweep reuses both plans");
}

#[test]
fn filtered_sparse_solve_stays_within_tolerance_and_saves_flops() {
    let queue = JobQueue::default();
    let exact = queue.run(batch_at(BackendPolicy::SparseCsr, Precision::Fp64, 0.0));
    let filtered = queue.run(batch_at(BackendPolicy::SparseCsr, Precision::Fp64, 1e-8));
    let exact_dense = dense_results(&exact);
    let filtered_dense = dense_results(&filtered);
    for ((f, e), (fr, er)) in filtered_dense
        .iter()
        .zip(&exact_dense)
        .zip(filtered.iter().zip(&exact))
    {
        let diff = f.max_abs_diff(e);
        assert!(
            diff < 1e-5,
            "job '{}': filter 1e-8 perturbs density by {diff}",
            fr.name
        );
        assert!(
            fr.report.sparse_flops <= er.report.sparse_flops,
            "job '{}': filtering must not add flops",
            fr.name
        );
        assert!(
            fr.report.sparse_filtered_nnz >= er.report.sparse_filtered_nnz,
            "job '{}': filtering must not densify the iterate",
            fr.name
        );
    }
}
