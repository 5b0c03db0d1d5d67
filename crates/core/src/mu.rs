//! Canonical-ensemble µ adjustment — paper Algorithm 1.
//!
//! The submatrix method is intrinsically grand canonical (fixed µ). For
//! canonical ensembles (fixed electron count) µ must be adjusted until the
//! density matrix traces to the right number of electrons. Recomputing the
//! sign function per bisection step would multiply the runtime; instead,
//! with the diagonalization solver, the electron count is evaluated from
//! the **stored eigendecompositions** (Sec. IV-G). The count needs only
//! each eigenvalue and the weight its eigenvector puts on the contributing
//! columns, so a submatrix keeps `2n` numbers where the paper's low-memory
//! compromise keeps the `k × n` rows of `Q` for those columns.

use sm_comsim::Comm;
use sm_linalg::eigh::Eigh;
use sm_linalg::fermi::fermi_occupation;

use crate::solver::sign_value;

/// The part of a submatrix eigendecomposition Algorithm 1 needs: a
/// weighted spectrum.
#[derive(Debug, Clone)]
pub struct StoredDecomposition {
    /// Eigenvalues of the submatrix.
    pub eigenvalues: Vec<f64>,
    /// `w_l = Σ_k Q_{k,l}²` over the contributing rows `k`, summed in row
    /// order: eigenvector `l`'s weight on the columns scattered back.
    pub weights: Vec<f64>,
}

impl StoredDecomposition {
    /// Weigh every eigenvalue by its eigenvector's rows `rows` — the
    /// submatrix's contributing columns
    /// ([`ExtractionMap::contributing`](crate::assembly::ExtractionMap)),
    /// whose results are scattered back.
    pub fn from_eigh(dec: &Eigh, rows: &[usize]) -> Self {
        let q = &dec.eigenvectors;
        StoredDecomposition {
            eigenvalues: dec.eigenvalues.clone(),
            weights: (0..q.ncols())
                .map(|l| rows.iter().map(|&k| q[(k, l)] * q[(k, l)]).sum())
                .collect(),
        }
    }

    /// Occupancy `Σ_k D̃_kk = Σ_l w_l f(λ_l − µ)` of the contributing
    /// columns. At `kt = 0`, `f` is `(1 − sign(λ − µ)) / 2` with the
    /// extended sign the engine evaluates (Eq. 12: 0 within
    /// `ZERO_EIGENVALUE_TOL` of µ, so `f = ½` there) — Algorithm 1's
    /// `½ − ½·Σ Q² λ'` — so the count the bisection settles on is the count
    /// the returned density holds, even when µ stops inside a jump of the
    /// step.
    pub fn occupancy(&self, mu: f64, kt: f64) -> f64 {
        self.eigenvalues
            .iter()
            .zip(&self.weights)
            .map(|(&l, &w)| {
                let f = if kt > 0.0 {
                    fermi_occupation(l, mu, kt)
                } else {
                    0.5 * (1.0 - sign_value(l, mu, kt))
                };
                w * f
            })
            .sum()
    }
}

/// Result of the µ bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MuAdjustment {
    /// The adjusted chemical potential.
    pub mu: f64,
    /// Bisection steps used.
    pub iterations: usize,
    /// Final occupancy error (orbitals, not electrons).
    pub occupancy_error: f64,
}

/// Algorithm 1: adjust µ until the summed occupancy of all submatrices
/// matches `target_occupancy` (in orbitals; electrons / 2 for closed-shell
/// systems). Collective, and exactly one collective: every rank passes its
/// local decompositions, one allgather concatenates the weighted spectra
/// in rank order, and every rank bisects the identical array locally. When
/// ranks hold contiguous, rank-ascending ranges of the global spec order
/// (what `greedy_contiguous` deals), that array is the global spectrum in
/// spec order, so µ has the same bits at every world size.
pub fn adjust_mu<C: Comm>(
    stored: &[StoredDecomposition],
    mu0: f64,
    target_occupancy: f64,
    kt: f64,
    tol: f64,
    max_iter: usize,
    comm: &C,
) -> MuAdjustment {
    let local: Vec<f64> = (stored.iter().flat_map(|s| &s.eigenvalues))
        .chain(stored.iter().flat_map(|s| &s.weights))
        .copied()
        .collect();
    let parts = comm.allgather_f64(&local);
    let (eigenvalues, weights): (Vec<&[f64]>, Vec<&[f64]>) =
        parts.iter().map(|p| p.split_at(p.len() / 2)).unzip();
    let global = StoredDecomposition {
        eigenvalues: eigenvalues.concat(),
        weights: weights.concat(),
    };
    let global_occ = |mu: f64| global.occupancy(mu, kt);

    // Bracket the root: occupancy is nondecreasing in µ.
    let mut lo = mu0 - 1.0;
    let mut hi = mu0 + 1.0;
    let mut expand = 0;
    while global_occ(lo) > target_occupancy && expand < 60 {
        lo -= hi - lo;
        expand += 1;
    }
    while global_occ(hi) < target_occupancy && expand < 120 {
        hi += hi - lo;
        expand += 1;
    }

    let mut iterations = 0;
    let mut mu = 0.5 * (lo + hi);
    let mut err = global_occ(mu) - target_occupancy;
    while err.abs() > tol && iterations < max_iter {
        if err > 0.0 {
            hi = mu;
        } else {
            lo = mu;
        }
        mu = 0.5 * (lo + hi);
        err = global_occ(mu) - target_occupancy;
        iterations += 1;
        // At zero temperature the occupancy is a step function; if the
        // target falls inside a jump the bracket collapses onto the jump
        // location without the error reaching `tol`. Stop there — the
        // returned µ is the best zero-T answer (a small `kt` smooths the
        // step if an exact count is required, Sec. IV-F).
        if hi - lo < 1e-13 * mu.abs().max(1.0) {
            break;
        }
    }

    MuAdjustment {
        mu,
        iterations,
        occupancy_error: err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::SubmatrixSpec;
    use sm_comsim::SerialComm;
    use sm_dbcsr::{BlockedDims, CooPattern};
    use sm_linalg::eigh::eigh;
    use sm_linalg::Matrix;

    /// A dense (fully-connected) pattern so a single submatrix covers the
    /// whole matrix: occupancy must then match the dense count exactly.
    fn dense_setup(nb: usize, bs: usize) -> (CooPattern, BlockedDims, Matrix) {
        let mut coords = Vec::new();
        for i in 0..nb {
            for j in 0..nb {
                coords.push((i, j));
            }
        }
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                i as f64 - (n as f64) / 2.0
            } else {
                0.1 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        a.symmetrize();
        (CooPattern::from_coords(coords, nb), dims, a)
    }

    #[test]
    fn contributing_rows_are_spec_columns() {
        let (p, dims, _) = dense_setup(3, 2);
        let spec = SubmatrixSpec::build(&p, &dims, &[1]);
        // Block column 1 occupies element rows 2..4 of the submatrix
        // (entire matrix here).
        assert_eq!(*spec.maps(&p, &dims).extraction.contributing, [2, 3]);
    }

    #[test]
    fn occupancy_matches_dense_eigenvalue_count() {
        let (p, dims, a) = dense_setup(4, 2);
        let spec = SubmatrixSpec::build(&p, &dims, &[0, 1, 2, 3]);
        let dec = eigh(&a).unwrap();
        let stored =
            StoredDecomposition::from_eigh(&dec, &spec.maps(&p, &dims).extraction.contributing);
        let mu = 0.0;
        let expect: f64 = dec
            .eigenvalues
            .iter()
            .map(|&l| fermi_occupation(l, mu, 0.0))
            .sum();
        assert!((stored.occupancy(mu, 0.0) - expect).abs() < 1e-10);
    }

    #[test]
    fn occupancy_monotone_in_mu() {
        let (p, dims, a) = dense_setup(4, 2);
        let spec = SubmatrixSpec::build(&p, &dims, &[0, 1, 2, 3]);
        let dec = eigh(&a).unwrap();
        let stored =
            StoredDecomposition::from_eigh(&dec, &spec.maps(&p, &dims).extraction.contributing);
        let mut prev = -1.0;
        for step in -10..=10 {
            let occ = stored.occupancy(step as f64 * 0.5, 0.01);
            assert!(occ >= prev - 1e-12);
            prev = occ;
        }
    }

    #[test]
    fn bisection_finds_exact_occupation() {
        let (p, dims, a) = dense_setup(4, 2);
        let spec = SubmatrixSpec::build(&p, &dims, &[0, 1, 2, 3]);
        let dec = eigh(&a).unwrap();
        let stored = vec![StoredDecomposition::from_eigh(
            &dec,
            &spec.maps(&p, &dims).extraction.contributing,
        )];
        let comm = SerialComm::new();
        // Demand exactly 3 occupied orbitals.
        let adj = adjust_mu(&stored, 0.0, 3.0, 0.0, 1e-10, 200, &comm);
        assert!(
            adj.occupancy_error.abs() < 1e-6,
            "err {}",
            adj.occupancy_error
        );
        // µ must lie between the 3rd and 4th eigenvalues.
        assert!(adj.mu > dec.eigenvalues[2] && adj.mu < dec.eigenvalues[3]);
    }

    #[test]
    fn bisection_with_finite_temperature() {
        let (p, dims, a) = dense_setup(4, 2);
        let spec = SubmatrixSpec::build(&p, &dims, &[0, 1, 2, 3]);
        let dec = eigh(&a).unwrap();
        let stored = vec![StoredDecomposition::from_eigh(
            &dec,
            &spec.maps(&p, &dims).extraction.contributing,
        )];
        let comm = SerialComm::new();
        let adj = adjust_mu(&stored, 0.0, 3.5, 0.05, 1e-10, 200, &comm);
        // At finite T fractional occupation is reachable exactly.
        assert!(adj.occupancy_error.abs() < 1e-8);
    }

    #[test]
    fn partitioned_submatrices_sum_to_dense_occupancy() {
        // Splitting the matrix into per-column submatrices: occupancies
        // are approximate individually but their µ-dependence still brackets
        // the dense count for a gapped spectrum.
        let (p, dims, a) = dense_setup(4, 2);
        let dec_full = eigh(&a).unwrap();
        let comm = SerialComm::new();
        let mut stored = Vec::new();
        for c in 0..4 {
            let spec = SubmatrixSpec::build(&p, &dims, &[c]);
            // Dense pattern ⇒ every submatrix is the full matrix.
            let dec = eigh(&a).unwrap();
            stored.push(StoredDecomposition::from_eigh(
                &dec,
                &spec.maps(&p, &dims).extraction.contributing,
            ));
        }
        let target = 4.0;
        let adj = adjust_mu(&stored, 0.0, target, 0.0, 1e-10, 200, &comm);
        let total: f64 = stored.iter().map(|s| s.occupancy(adj.mu, 0.0)).sum();
        assert!((total - target).abs() < 1e-6);
        // Since each submatrix here is exact, µ agrees with the dense one.
        assert!(adj.mu > dec_full.eigenvalues[3] && adj.mu < dec_full.eigenvalues[4]);
    }

    /// A target inside a jump of the zero-temperature step: the bisection
    /// closes on the eigenvalue at the jump, within the extended sign's
    /// band. The count it reports must be the one the density built from
    /// the sign at that µ holds — the exact step counted the eigenvalue as
    /// 0 or 1 while the sign gave it ½.
    #[test]
    fn zero_temperature_count_is_the_delivered_count_inside_a_jump() {
        let (p, dims, a) = dense_setup(4, 2);
        let dec = eigh(&a).unwrap();
        let rows: Vec<_> = (0..4)
            .map(|c| {
                let spec = SubmatrixSpec::build(&p, &dims, &[c]);
                spec.maps(&p, &dims).extraction.contributing
            })
            .collect();
        let stored: Vec<_> = rows
            .iter()
            .map(|r| StoredDecomposition::from_eigh(&dec, r))
            .collect();
        for target in [3.5, 3.3, 5.9] {
            let adj = adjust_mu(&stored, 0.0, target, 0.0, 1e-10, 200, &SerialComm::new());
            let believed = target + adj.occupancy_error;
            let sign = crate::solver::sign_from_decomposition(&dec, adj.mu, 0.0);
            let delivered: f64 = rows
                .iter()
                .flat_map(|r| r.iter())
                .map(|&k| 0.5 * (1.0 - sign[(k, k)]))
                .sum();
            assert!(
                (delivered - believed).abs() < 1e-9,
                "target {target}: bisection counts {believed}, density holds {delivered}"
            );
        }
    }
}
