//! Dense reference solutions.
//!
//! Ground truth for all accuracy experiments (paper Figs. 1, 7): the
//! density matrix from a full dense eigendecomposition of `K̃`, the
//! finite-temperature density, the band-structure energy, the electron
//! count and the HOMO–LUMO gap.

use sm_linalg::eigh::{eigh, Eigh};
use sm_linalg::fermi::fermi_occupation;
use sm_linalg::sign::extended_signum;
use sm_linalg::{LinalgError, Matrix};

/// Dense reference results for one orthogonalized Kohn–Sham matrix.
#[derive(Debug, Clone)]
pub struct DenseReference {
    /// Eigendecomposition of `K̃`.
    pub decomposition: Eigh,
}

impl DenseReference {
    /// Diagonalize `K̃` once; all quantities below reuse the decomposition.
    pub fn new(k_tilde: &Matrix) -> Result<Self, LinalgError> {
        Ok(DenseReference {
            decomposition: eigh(k_tilde)?,
        })
    }

    /// Zero-temperature grand-canonical density matrix
    /// `D̃ = (I − sign(K̃ − µI)) / 2` (orthogonal basis, Eq. 16's core).
    pub fn density(&self, mu: f64) -> Matrix {
        self.decomposition
            .apply(|e| 0.5 * (1.0 - extended_signum(e - mu)))
    }

    /// Band-structure energy `2·Σ_occ ε_i = 2·Tr(D̃ K̃)` (spin factor 2).
    pub fn band_energy(&self, mu: f64) -> f64 {
        2.0 * self
            .decomposition
            .eigenvalues
            .iter()
            .filter(|&&e| e < mu)
            .sum::<f64>()
    }

    /// Electron count `2·Tr(D̃)` at the given µ (and optional temperature).
    pub fn electron_count(&self, mu: f64, kt: f64) -> f64 {
        2.0 * self
            .decomposition
            .eigenvalues
            .iter()
            .map(|&e| fermi_occupation(e, mu, kt))
            .sum::<f64>()
    }

    /// HOMO–LUMO gap at the given occupation.
    pub fn gap(&self, n_occ: usize) -> f64 {
        let e = &self.decomposition.eigenvalues;
        e[n_occ] - e[n_occ - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSet;
    use crate::builder::{build_system, DEFAULT_EPS_BUILD};
    use crate::ortho::orthogonalize_dense;
    use crate::water::WaterBox;
    use sm_comsim::SerialComm;
    use sm_linalg::gemm::matmul;

    fn reference_setup() -> (Matrix, f64, usize) {
        let water = WaterBox::cubic(1, 42);
        let basis = BasisSet::szv();
        let sys = build_system(&water, &basis, 0, 1, DEFAULT_EPS_BUILD);
        let comm = SerialComm::new();
        let s = sys.s.to_dense(&comm);
        let k = sys.k.to_dense(&comm);
        let (kt, _) = orthogonalize_dense(&s, &k).unwrap();
        let n_occ = water.n_molecules() * basis.occupied_per_molecule();
        (kt, sys.mu, n_occ)
    }

    #[test]
    fn density_is_idempotent_projector() {
        let (kt, mu, _) = reference_setup();
        let r = DenseReference::new(&kt).unwrap();
        let d = r.density(mu);
        let d2 = matmul(&d, &d).unwrap();
        assert!(d2.allclose(&d, 1e-9), "density must be a projector");
    }

    #[test]
    fn electron_count_matches_occupation() {
        let (kt, mu, n_occ) = reference_setup();
        let r = DenseReference::new(&kt).unwrap();
        // 8 valence electrons per molecule.
        assert!((r.electron_count(mu, 0.0) - 2.0 * n_occ as f64).abs() < 1e-9);
        let d = r.density(mu);
        assert!((2.0 * d.trace() - 2.0 * n_occ as f64).abs() < 1e-9);
    }

    #[test]
    fn band_energy_consistency() {
        let (kt, mu, _) = reference_setup();
        let r = DenseReference::new(&kt).unwrap();
        let d = r.density(mu);
        // E = 2·Tr(D̃ K̃) from the density matrix itself.
        let e_trace = 2.0 * matmul(&d, &kt).unwrap().trace();
        assert!((e_trace - r.band_energy(mu)).abs() < 1e-8);
        assert!(e_trace < 0.0, "occupied valence states must be bound");
    }

    #[test]
    fn canonical_mu_reproduces_gap_midpoint() {
        let (kt, mu, n_occ) = reference_setup();
        let r = DenseReference::new(&kt).unwrap();
        let e = &r.decomposition.eigenvalues;
        let mu_c = 0.5 * (e[n_occ - 1] + e[n_occ]);
        // The molecular mid-gap µ and the condensed-phase canonical µ must
        // select the same occupation.
        assert!((r.electron_count(mu_c, 0.0) - r.electron_count(mu, 0.0)).abs() < 1e-12);
        assert!(r.gap(n_occ) > 0.0);
    }
}
