//! Shared workload construction for the experiments and `smserved`.

use std::sync::Arc;
use std::time::Instant;

use sm_chem::builder::{block_pattern, build_system, SystemMatrices};
use sm_chem::{BasisSet, ScfEnsemble, ScfResult, WaterBox};
use sm_comsim::SerialComm;
use sm_core::assembly::SubmatrixSpec;
use sm_core::baseline::{orthogonalize_sparse, NewtonSchulzOptions};
use sm_core::engine::EngineOptions;
use sm_dbcsr::{BlockedDims, CooPattern, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{ScfJobSpec, SchedulerOutcome, SubmatrixEngine};

/// Deterministic seed used by every experiment.
pub const SEED: u64 = 42;

/// Run `f` and return its value with the wall seconds it took — the one
/// clock behind every report-only wall column.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let value = f();
    (value, t.elapsed().as_secs_f64())
}

/// Basis for experiments that *solve* systems (Figs. 1, 6, 7 analogues):
/// SZV with shortened decay ranges so single-column submatrices stay
/// laptop-sized while preserving the linear-scaling structure.
fn accuracy_basis() -> BasisSet {
    BasisSet::szv().with_range_scale(0.55)
}

/// Newton–Schulz options at filter `eps` with the experiments' iteration cap.
pub fn ns_options(eps_filter: f64) -> NewtonSchulzOptions {
    NewtonSchulzOptions {
        eps_filter,
        max_iter: 200,
    }
}

/// Build the system and its Löwdin-orthogonalized Kohn–Sham matrix on a
/// single rank. `eps_build` bounds which matrix elements exist at all;
/// `eps_ortho` filters the sparse inverse-square-root iteration.
fn build_orthogonalized(
    water: &WaterBox,
    basis: &BasisSet,
    eps_build: f64,
    eps_ortho: f64,
) -> (SystemMatrices, DbcsrMatrix) {
    let comm = SerialComm::new();
    let sys = build_system(water, basis, 0, 1, eps_build);
    let (kt, _, report) = orthogonalize_sparse(&sys.s, &sys.k, &ns_options(eps_ortho), &comm);
    assert!(
        report.converged,
        "orthogonalization failed to converge (residual {})",
        report.residual
    );
    (sys, kt)
}

/// The `nrep³`-cell water box in the shortened `accuracy_basis`, built and
/// orthogonalized at 1e-11 — the system every solving experiment starts
/// from.
pub fn water_system(nrep: usize) -> (WaterBox, SystemMatrices, DbcsrMatrix) {
    let water = WaterBox::cubic(nrep, SEED);
    let (sys, kt) = build_orthogonalized(&water, &accuracy_basis(), 1e-11, 1e-11);
    (water, sys, kt)
}

/// A copy of `m` with every block below `eps` dropped.
pub fn filtered(m: &DbcsrMatrix, eps: f64) -> DbcsrMatrix {
    let mut f = m.clone();
    f.store_mut().filter(eps);
    f
}

/// Block pattern at `eps` and uniform block dimensions of a water box —
/// the input of every pattern/model experiment, which plans it with
/// [`sm_core::PatternPlan`].
pub fn water_pattern(water: &WaterBox, basis: &BasisSet, eps: f64) -> (CooPattern, BlockedDims) {
    let pattern = block_pattern(water, basis, eps, 1.0);
    let dims = BlockedDims::uniform(water.n_molecules(), basis.n_per_molecule());
    (pattern, dims)
}

/// The submatrix of `m` induced by block columns `cols`, assembled dense,
/// with its contributing columns.
pub fn assemble_columns(m: &DbcsrMatrix, cols: &[usize]) -> (Vec<usize>, Matrix) {
    let pattern = m.global_pattern(&SerialComm::new());
    let maps = SubmatrixSpec::build(&pattern, m.dims(), cols).maps(&pattern, m.dims());
    let a = maps.assembly.assemble(|r, c| m.block(r, c));
    (maps.extraction.contributing.to_vec(), a)
}

/// Deterministic symmetric matrix of `nb` blocks of size `bs`, banded to
/// block half-bandwidth `half`, with diagonal `±diag + shift` (a spectral
/// gap at 0) and off-diagonal decay `off / (1 + |i − j|)`.
pub fn banded_with(
    nb: usize,
    bs: usize,
    half: usize,
    diag: f64,
    shift: f64,
    off: f64,
) -> DbcsrMatrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        if (i / bs).abs_diff(j / bs) > half {
            0.0
        } else if i == j {
            (if i % 2 == 0 { diag } else { -diag }) + shift
        } else {
            off / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

/// The block-tridiagonal system of the scheduler experiments and
/// `smserved`; `seed` shifts the diagonal, not the pattern.
pub fn banded(nb: usize, bs: usize, seed: u64) -> DbcsrMatrix {
    banded_with(nb, bs, 1, 1.0, ((seed % 13) as f64) * 0.011, 0.05)
}

/// A grand-canonical SCF job over [`banded`]`(nb, 2, seed)`: half
/// filling, µ = 0.
pub fn gc_spec(name: &str, nb: usize, seed: u64, max_iter: usize, tol: f64) -> ScfJobSpec {
    let kt0 = banded(nb, 2, seed);
    let n_electrons = kt0.n() as f64;
    let mut spec = ScfJobSpec::new(name, kt0, 0.0, n_electrons);
    spec.scf.max_iter = max_iter;
    spec.scf.tol = tol;
    spec.scf.ensemble = ScfEnsemble::GrandCanonical;
    spec
}

/// An engine with an empty plan cache and rank-internal threading off
/// (ranks are threads already).
pub fn fresh_engine() -> Arc<SubmatrixEngine> {
    Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }))
}

/// Are the two matrices equal bit for bit?
pub fn same_bits(a: &DbcsrMatrix, b: &DbcsrMatrix) -> bool {
    let comm = SerialComm::new();
    a.to_dense(&comm).allclose(&b.to_dense(&comm), 0.0)
}

/// Assert a scheduled SCF batch bitwise-identical to the serial driver
/// loop over the same specs, with equal iteration counts and convergence
/// flags.
pub fn assert_scf_bitwise(outcome: &SchedulerOutcome, serial: &[ScfResult], what: &str) {
    assert_eq!(outcome.results.len(), serial.len(), "{what}");
    for (r, s) in outcome.results.iter().zip(serial) {
        assert!(
            same_bits(&r.result, &s.density),
            "job '{}' density deviates from the serial driver loop ({what})",
            r.name
        );
        let scf = r.scf.as_ref().expect("SCF telemetry present");
        assert_eq!(scf.iterations, s.iterations.len(), "{what}");
        assert_eq!(scf.converged, s.converged, "{what}");
    }
}

/// Plan-cache consensus decisions of a scheduled SCF batch: every rank
/// of every group decides hit/miss once per SCF iteration.
pub fn consensus_decisions(outcome: &SchedulerOutcome) -> usize {
    outcome
        .results
        .iter()
        .enumerate()
        .map(|(j, r)| {
            outcome.schedule.ranks_of_job(j).len() * r.scf.as_ref().map_or(1, |s| s.iterations)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_basis_is_shorter_ranged() {
        assert!(accuracy_basis().max_sigma() < BasisSet::szv().max_sigma());
    }

    #[test]
    fn build_orthogonalized_small_system() {
        let water = WaterBox::cubic(1, SEED);
        let basis = accuracy_basis();
        let (sys, kt) = build_orthogonalized(&water, &basis, 1e-10, 1e-11);
        assert_eq!(kt.n(), water.n_molecules() * basis.n_per_molecule());
        assert!(sys.mu.is_finite());
        assert!(kt.local_nnz_blocks() > 0);
    }

    #[test]
    fn banded_is_symmetric_gapped_and_block_tridiagonal() {
        let m = banded(4, 2, 5);
        let d = m.to_dense(&SerialComm::new());
        assert!(d.allclose(&d.transpose(), 0.0));
        assert_eq!(d[(0, 0)], 1.0 + 5.0 * 0.011);
        assert_eq!(d[(1, 1)], -1.0 + 5.0 * 0.011);
        assert_eq!(d[(0, 4)], 0.0);
        assert!(same_bits(&m, &banded(4, 2, 18)), "seed acts modulo 13");
        assert!(!same_bits(&m, &banded(4, 2, 6)));
    }
}
