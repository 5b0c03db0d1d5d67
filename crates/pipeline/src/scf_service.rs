//! Batched multi-system SCF: the serial reference and the outcome
//! accessors.
//!
//! The [`Scheduler`] runs independent SCF systems directly: `run(world,
//! specs)` takes [`ScfJobSpec`]s as iterative
//! [`BatchJob::Scf`](crate::jobs::BatchJob::Scf) jobs, each group sized by
//! its per-iteration pattern cost times its iteration budget
//! ([`crate::sched::estimate_batch_job_cost`]), sharing one engine and plan
//! cache, and each [`JobResult`] carries per-iteration SCF telemetry
//! ([`JobResult::scf`]). This module keeps the serial reference
//! ([`serial_scf_loop`]), the outcome accessors ([`ScfOutcomeExt`]) and the
//! name [`ScfService`]; `examples/scf_service_batch.rs` runs a batch.
//!
//! SCF jobs add no collective machinery, so the invariants of
//! ARCHITECTURE.md carry over: an SCF job enters the cache consensus once
//! per iteration on its group's current subcommunicator (`hits + builds =
//! Σ_jobs group_size × iterations`), and batches are bitwise-identical to a
//! serial loop of [`sm_chem::ScfDriver`] runs at any world size and steal
//! schedule, in either ensemble (`scf_service_equivalence`). Iteration
//! counts agree across group sizes unless an iteration's `|ΔE|` lands
//! within an ulp of `tol` (the [`sm_chem::scf`] module docs).

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
/// `repro scf_service` contract) compares [`Scheduler::run`] against: a
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
        let budget = spec.scf.max_iter as f64;
        let scf_cost = estimate_batch_job_cost(&BatchJob::Scf(spec));
        assert_eq!(scf_cost, one_shot * budget);
    }
}
