//! Batched multi-system SCF over the distributed scheduler.
//!
//! A production electronic-structure service does not purify one matrix at
//! a time: it sees a stream of **independent chemical systems** — different
//! geometries, sizes and convergence budgets — each of which needs a whole
//! self-consistent-field *loop*, not a single matrix-function evaluation.
//! The [`Scheduler`] runs such a batch directly: `run(world, specs)` takes
//! the [`ScfJobSpec`]s as iterative [`BatchJob::Scf`](crate::jobs::BatchJob::Scf)
//! jobs, so the whole fleet of SCF loops shares:
//!
//! * **one engine and one (optionally bounded) plan cache** — a system
//!   resubmitted across batches, or several specs with the same sparsity
//!   pattern, plan once; every SCF iteration of every system replays a
//!   cached plan through the same LRU policy;
//! * **the perfmodel-weighted LPT/steal machinery** — each spec's rank
//!   group is sized by its *per-iteration* pattern cost times its
//!   iteration budget ([`crate::sched::estimate_batch_job_cost`]), and straggler systems
//!   are re-dealt over drained ranks between epochs exactly like one-shot
//!   jobs;
//! * **the telemetry spine** — every [`JobResult`] carries the whole-run
//!   aggregated engine report plus per-iteration SCF telemetry
//!   ([`JobResult::scf`]: iterations, converged flag, final energy and
//!   electron count, per-iteration gather/scatter value bytes).
//!
//! This module keeps the serial reference ([`serial_scf_loop`]), the
//! outcome accessors ([`ScfOutcomeExt`]) and the name [`ScfService`].
//!
//! ## Invariants (see `ARCHITECTURE.md`)
//!
//! SCF jobs add no new collective machinery, so the scheduler's
//! load-bearing invariants carry over unchanged:
//!
//! * **Plan-cache hit/miss consensus stays per-group per-epoch.** An SCF
//!   job re-enters the consensus allreduce once per iteration, always on
//!   its group's current subcommunicator; the accounting identity
//!   extends to `hits + builds = Σ_jobs group_size × iterations`.
//! * **Batches are bitwise-identical to a serial loop of
//!   [`sm_chem::ScfDriver`] runs** at any world size and any steal
//!   schedule, in either ensemble: the engine's numeric phase is
//!   bit-reproducible across group sizes and the model feedback touches
//!   only locally-owned diagonal blocks (the `scf_service_equivalence`
//!   suite pins this, mirroring `stealing_equivalence`). One caveat: the
//!   *convergence decision* compares a group-summed energy against `tol`,
//!   so iteration counts agree across group sizes provided no iteration's
//!   `|ΔE|` lands within an ulp of `tol` (the per-iteration densities
//!   themselves are unconditionally bitwise; see the
//!   [`sm_chem::scf`] module docs).
//!
//! ## Example
//!
//! See `examples/scf_service_batch.rs` for a worked multi-system batch,
//! and [`serial_scf_loop`] for the serial reference the equivalence suite
//! compares against.

use std::sync::Arc;

use sm_chem::{ScfDriver, ScfResult};
use sm_comsim::SerialComm;
use sm_core::engine::SubmatrixEngine;

use crate::jobs::{JobResult, ScfJobSpec};
use crate::sched::Scheduler;

/// The batched SCF service is the [`Scheduler`]: `ScfService::run(world,
/// specs)` is [`Scheduler::run`] over [`ScfJobSpec`]s. The name stays
/// because the benchmark package calls `ScfService::default`, `engine`
/// and `run` by it.
pub type ScfService = Scheduler;

/// The serial reference the `scf_service_equivalence` suite (and the
/// `ablation_scf_service` bench) compares [`Scheduler::run`] against: a
/// plain loop of [`ScfDriver`] runs on a single rank, all sharing one
/// engine — the same amortization surface the service offers, with none
/// of its distribution. Specs must match this loop **bitwise** at any
/// world size.
pub fn serial_scf_loop(engine: &Arc<SubmatrixEngine>, specs: &[ScfJobSpec]) -> Vec<ScfResult> {
    let comm = SerialComm::new();
    specs
        .iter()
        .map(|spec| {
            ScfDriver::with_engine(spec.scf.clone(), engine.clone()).run(
                &spec.kt0,
                spec.mu0,
                spec.n_electrons,
                &comm,
            )
        })
        .collect()
}

/// Convenience accessors over a service outcome's per-job results.
pub trait ScfOutcomeExt {
    /// Jobs whose SCF loop converged within its budget.
    fn converged_jobs(&self) -> usize;
    /// Total SCF iterations across the batch.
    fn total_iterations(&self) -> usize;
}

impl ScfOutcomeExt for [JobResult] {
    fn converged_jobs(&self) -> usize {
        self.iter()
            .filter(|r| r.scf.as_ref().is_some_and(|s| s.converged))
            .count()
    }

    fn total_iterations(&self) -> usize {
        self.iter()
            .filter_map(|r| r.scf.as_ref().map(|s| s.iterations))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{BatchJob, MatrixJob};
    use crate::sched::estimate_batch_job_cost;
    use sm_dbcsr::{BlockedDims, DbcsrMatrix};
    use sm_linalg::Matrix;

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

    fn grand_canonical_spec(name: &str, nb: usize, seed: u64) -> ScfJobSpec {
        let kt0 = banded(nb, 2, seed);
        let n_electrons = kt0.n() as f64; // half filling of the gapped model
        let mut spec = ScfJobSpec::new(name, kt0, 0.0, n_electrons);
        spec.scf.max_iter = 40;
        spec.scf.tol = 1e-7;
        spec.scf.ensemble = sm_chem::ScfEnsemble::GrandCanonical;
        spec
    }

    #[test]
    fn service_runs_a_small_batch_and_reports_scf_telemetry() {
        let specs = vec![
            grand_canonical_spec("a", 6, 1),
            grand_canonical_spec("b", 4, 2),
            grand_canonical_spec("c", 4, 3),
        ];
        let outcome = Scheduler::default().run(3, specs.clone());
        assert_eq!(outcome.results.len(), 3);
        for (spec, r) in specs.iter().zip(&outcome.results) {
            assert_eq!(r.name, spec.name);
            let scf = r.scf.as_ref().expect("SCF jobs carry SCF telemetry");
            assert!(scf.iterations >= 1);
            assert_eq!(scf.gather_value_bytes.len(), scf.iterations);
            assert_eq!(scf.scatter_value_bytes.len(), scf.iterations);
            // The aggregated report sums the per-iteration telemetry.
            assert_eq!(
                r.report.gather_value_bytes,
                scf.gather_value_bytes.iter().sum::<u64>()
            );
        }
        assert_eq!(outcome.results.converged_jobs(), 3);
        assert!(outcome.results.total_iterations() >= 3);
    }

    #[test]
    fn scf_jobs_cost_scales_with_iteration_budget() {
        let spec = grand_canonical_spec("x", 6, 1);
        let one_shot = estimate_batch_job_cost(&BatchJob::Matrix(MatrixJob::density(
            "m",
            spec.kt0.clone(),
            0.0,
        )));
        let budget = spec.iteration_budget() as f64;
        let scf_cost = estimate_batch_job_cost(&BatchJob::Scf(spec));
        assert_eq!(scf_cost, one_shot * budget);
    }
}
