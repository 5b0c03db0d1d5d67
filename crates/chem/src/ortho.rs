//! Löwdin symmetric orthogonalization.
//!
//! The paper's diagonalization-based submatrix solver requires a symmetric
//! input, so instead of `S^{-1}K` it uses `K̃ = S^{-1/2} K S^{-1/2}`
//! (Sec. IV-F, Eq. 16). This module provides the dense reference path; the
//! block-sparse Newton–Schulz path lives in `sm-core::baseline` because it
//! shares the DBCSR iteration machinery.

use sm_linalg::gemm::matmul;
use sm_linalg::roots::inv_sqrt_eig;
use sm_linalg::{LinalgError, Matrix};

/// Dense Löwdin orthogonalization: returns `(K̃, S^{-1/2})`.
pub fn orthogonalize_dense(s: &Matrix, k: &Matrix) -> Result<(Matrix, Matrix), LinalgError> {
    let s_inv_half = inv_sqrt_eig(s)?;
    let tmp = matmul(&s_inv_half, k)?;
    let mut kt = matmul(&tmp, &s_inv_half)?;
    // Roundoff can leave ~1e-15 asymmetry; the eigensolver wants exact
    // symmetry.
    kt.symmetrize();
    Ok((kt, s_inv_half))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSet;
    use crate::builder::{build_system, DEFAULT_EPS_BUILD};
    use crate::water::WaterBox;
    use sm_comsim::SerialComm;

    fn small_system() -> (Matrix, Matrix, f64, usize) {
        let water = WaterBox::cubic(1, 42);
        let basis = BasisSet::szv();
        let sys = build_system(&water, &basis, 0, 1, DEFAULT_EPS_BUILD);
        let comm = SerialComm::new();
        (
            sys.s.to_dense(&comm),
            sys.k.to_dense(&comm),
            sys.mu,
            water.n_molecules() * basis.occupied_per_molecule(),
        )
    }

    #[test]
    fn orthogonalized_matrix_is_symmetric() {
        let (s, k, _, _) = small_system();
        let (kt, _) = orthogonalize_dense(&s, &k).unwrap();
        assert_eq!(kt.asymmetry(), 0.0);
    }

    #[test]
    fn s_inv_half_whitens_s() {
        let (s, k, _, _) = small_system();
        let (_, w) = orthogonalize_dense(&s, &k).unwrap();
        let waw = matmul(&matmul(&w, &s).unwrap(), &w).unwrap();
        assert!(waw.allclose(&Matrix::identity(s.nrows()), 1e-9));
    }

    #[test]
    fn condensed_phase_gap_stays_open_at_mu() {
        // The whole reproduction hinges on this: the orthogonalized
        // Kohn–Sham spectrum must have a gap at µ so sign(K̃ − µI) is well
        // conditioned (paper Sec. III-B).
        let (s, k, mu, n_occ) = small_system();
        let (kt, _) = orthogonalize_dense(&s, &k).unwrap();
        let eigs = sm_linalg::eigh::eigvalsh(&kt).unwrap();
        let homo = eigs[n_occ - 1];
        let lumo = eigs[n_occ];
        assert!(
            homo < mu && mu < lumo,
            "mu {mu} outside condensed-phase gap [{homo}, {lumo}]"
        );
        assert!(
            lumo - homo > 0.05,
            "condensed-phase gap too small: {}",
            lumo - homo
        );
    }
}
