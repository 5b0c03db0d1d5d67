//! Per-submatrix sign evaluation.
//!
//! The paper solves the assembled dense submatrices either with the same
//! iterative schemes CP2K applies to the full sparse matrix, or — the
//! method of choice (Sec. IV-F) — by eigendecomposition (its `dsyevd`; here
//! [`eigh`], on `dsyev`'s path), which also enables canonical-ensemble µ
//! adjustment (Algorithm 1) and finite-temperature purification for free.

use std::borrow::Cow;

use sm_linalg::eigh::{eigh, Eigh};
use sm_linalg::elem::F32_SIGN_TOL;
use sm_linalg::fermi::smeared_sign;
use sm_linalg::gemm::q_diag_qt_cols;
use sm_linalg::sign::{
    extended_signum, refine_sign_newton_schulz, sign_iteration_in, SignIterationOptions,
};
use sm_linalg::{LinalgError, Matrix, Precision};

/// Which linear-algebra representation executes an iterative sign solve.
///
/// Strictly a numeric knob, exactly like [`Precision`]: the backend never
/// shapes sparsity patterns, transfer plans, or plan-cache keys — the same
/// cached plan serves every backend. It changes *how* the assembled dense
/// submatrix is iterated, not *what* is gathered or scattered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveBackend {
    /// Dense BLAS-style kernels — the reference path, unchanged.
    #[default]
    Dense,
    /// Element-wise CSR iteration ([`sm_linalg::sparse`]) with
    /// per-iteration element filtering ([`SolveOptions::sparse_eps`]).
    /// Applies to [`SignMethod::Pade`] — the paper's Sec. V-C proposal for
    /// submatrices whose element fill is far below their block fill (DZVP);
    /// [`SignMethod::Diagonalization`] has no sparse analogue and ignores
    /// the backend.
    SparseCsr,
}

/// How to evaluate `sign(a − µI)` on a dense submatrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SignMethod {
    /// Eigendecomposition + elementwise signum (paper Eq. 17). Supports
    /// finite temperature and canonical µ adjustment.
    Diagonalization,
    /// Padé-family iteration of the given order ≥ 2 (order 2 is the
    /// Newton–Schulz iteration of Eq. 11, order 3 is Eq. 19).
    Pade(usize),
}

/// Options for a submatrix solve.
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Evaluation method.
    pub method: SignMethod,
    /// Electronic temperature `k_B·T` (0 = sign function; > 0 replaces the
    /// signum with the Fermi-derived smeared sign, Sec. IV-F).
    pub kt: f64,
    /// Convergence tolerance of the iterative methods.
    pub tol: f64,
    /// Iteration budget of the iterative methods.
    pub max_iter: usize,
    /// Numeric precision of the dense kernels (paper Sec. VI's
    /// approximate-computing mode). Strictly a numeric knob — it never
    /// shapes patterns or plans:
    ///
    /// * `Fp64` — the reference path, unchanged.
    /// * `Fp32` / `Fp32Refined` — the assembled submatrix is first rounded
    ///   elementwise through `f32` storage (idempotent with the `f32` wire
    ///   gather, so single-rank and distributed execution solve the exact
    ///   same matrix). Iterative methods then run the *generic* `f32` sign
    ///   kernels (`f64`-accumulating GEMM, tolerance clamped to
    ///   [`F32_SIGN_TOL`]); diagonalization runs the `f64` eigensolver on
    ///   the rounded input (no native `f32` eigensolver — this models
    ///   device storage, not compute). Plain `Fp32` rounds the result back
    ///   to `f32` storage (so it ships losslessly over the `f32` wire);
    ///   `Fp32Refined` instead applies one `f64` Newton–Schulz refinement
    ///   pass (iterative methods) or keeps the full `f64` back-transform
    ///   (diagonalization), recovering ≤1e-6 elementwise agreement with
    ///   `Fp64`.
    pub precision: Precision,
    /// Representation of the iterative solve. Like `precision`, strictly
    /// numeric-phase-only — never enters patterns or plan-cache keys.
    pub backend: SolveBackend,
    /// Per-iteration element filter of the [`SolveBackend::SparseCsr`]
    /// backend (Sec. V-C). `0.0` keeps the iteration exact (agreement with
    /// the dense path within ~1e-10 for well-gapped submatrices). Measured
    /// on water submatrices (`repro solve_paths`, n = 132–851): 1e-8 does
    /// not converge in 100 iterations at the default `tol`; it does at
    /// `tol` = 1e-7, with column errors of 3e-8 to 8e-8.
    pub sparse_eps: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            method: SignMethod::Diagonalization,
            kt: 0.0,
            tol: 1e-10,
            max_iter: 100,
            precision: Precision::Fp64,
            backend: SolveBackend::Dense,
            sparse_eps: 0.0,
        }
    }
}

/// Counters of one sparse (CSR) submatrix solve, for telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseSolveStats {
    /// Scalar flops actually spent in filtered sparse multiplications.
    pub flops: u64,
    /// Element fill of the final iterate.
    pub final_fill: f64,
    /// Elements absent from the final iterate relative to dense `n²` —
    /// the work the filtering avoided carrying.
    pub filtered_nnz: u64,
}

/// Result of one submatrix solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// `sign(a − µI)` (or its Fermi-smeared generalization).
    pub sign: Matrix,
    /// Iterations used (0 for diagonalization).
    pub iterations: usize,
    /// Sparse-backend counters (`None` on dense paths).
    pub sparse: Option<SparseSolveStats>,
}

/// Round a solved sign matrix to the precision's storage format. A no-op
/// for `Fp64` and `Fp32Refined` (the refinement's whole point is keeping
/// the `f64` bits); plain `Fp32` results are rounded through `f32` so they
/// ship losslessly over the `f32` result wire.
pub fn round_sign_output(sign: &mut Matrix, precision: Precision) {
    if precision == Precision::Fp32 {
        sign.round_f32_storage_in_place();
    }
}

/// The eigendecomposition a [`SignMethod::Diagonalization`] solve at
/// `precision` is built from — all a canonical-ensemble run needs before µ
/// is known.
///
/// Reduced precision diagonalizes the f32-rounded input (the values an f32
/// wire/device memory would hold). Idempotent with the f32 gather, so
/// every execution path solves the same matrix. There is no native f32
/// eigensolver — this models storage precision; the iterative methods
/// model compute too. An owned `a` is rounded in place.
pub fn decompose<'a>(
    a: impl Into<Cow<'a, Matrix>>,
    precision: Precision,
) -> Result<Eigh, LinalgError> {
    let mut a = a.into();
    if precision.storage_is_f32() {
        a.to_mut().round_f32_storage_in_place();
    }
    eigh(&a)
}

/// Evaluate `sign(a − µI)` on one dense symmetric submatrix. A borrowed `a`
/// is copied once; an owned one never is: the `f64` iteration shifts it and
/// iterates in it, the `f32` ones drop it once converted.
pub fn solve_sign<'a>(
    a: impl Into<Cow<'a, Matrix>>,
    mu: f64,
    opts: &SolveOptions,
) -> Result<SolveResult, LinalgError> {
    let a = a.into();
    match opts.method {
        SignMethod::Diagonalization => {
            let dec = decompose(a, opts.precision)?;
            let mut sign = sign_from_decomposition(&dec, mu, opts.kt);
            round_sign_output(&mut sign, opts.precision);
            Ok(SolveResult {
                sign,
                iterations: 0,
                sparse: None,
            })
        }
        SignMethod::Pade(order) => {
            assert!(
                opts.kt == 0.0,
                "iterative sign methods only support zero temperature; \
                 use Diagonalization for finite-temperature purification"
            );
            if opts.backend == SolveBackend::SparseCsr {
                return solve_sign_sparse_csr(a, mu, order, opts);
            }
            if opts.precision.storage_is_f32() {
                return solve_sign_iterative_f32(a, mu, order, opts);
            }
            let mut shifted = a.into_owned();
            shifted.shift_diag(-mu);
            let (tol, max_iter) = (opts.tol, opts.max_iter);
            let window = SignIterationOptions { tol, max_iter };
            let r = sign_iteration_in(shifted, order, window, false, |_, _| {})?;
            if !r.converged {
                return Err(LinalgError::NoConvergence {
                    op: "submatrix sign iteration",
                    iterations: r.trace.len(),
                });
            }
            Ok(SolveResult {
                iterations: r.trace.len(),
                sign: r.sign,
                sparse: None,
            })
        }
    }
}

/// Telemetry counters from a finished sparse iteration on an `n × n`
/// submatrix.
fn sparse_stats_of(r: &sm_linalg::sparse::SparseSignResult, n: usize) -> SparseSolveStats {
    let dense_nnz = (n * n) as u64;
    let kept = (r.final_fill * (n * n) as f64).round() as u64;
    SparseSolveStats {
        flops: r.flops,
        final_fill: r.final_fill,
        filtered_nnz: dense_nnz.saturating_sub(kept),
    }
}

/// The sparse-CSR iterative path (paper Sec. V-C wired end to end): run the
/// element-wise sparse Padé iteration with per-iteration filtering instead
/// of the dense kernels.
///
/// Reduced precision composes the same way the dense path does: the input
/// is rounded through `f32` storage first (idempotent with the `f32` wire
/// gather, so every execution path solves the same matrix), the `f64` CSR
/// iteration runs with its tolerance clamped to [`F32_SIGN_TOL`], plain
/// `Fp32` rounds the result back to `f32` storage, and `Fp32Refined`
/// applies one dense `f64` Newton–Schulz refinement pass.
fn solve_sign_sparse_csr(
    mut a: Cow<'_, Matrix>,
    mu: f64,
    order: usize,
    opts: &SolveOptions,
) -> Result<SolveResult, LinalgError> {
    let mut tol = opts.tol;
    if opts.precision.storage_is_f32() {
        a.to_mut().round_f32_storage_in_place();
        tol = tol.max(F32_SIGN_TOL);
    }
    let r = sm_linalg::sparse::sparse_sign_iteration(
        &a,
        mu,
        order,
        opts.sparse_eps,
        tol.max(opts.sparse_eps),
        opts.max_iter,
    )?;
    if !r.converged {
        return Err(LinalgError::NoConvergence {
            op: "sparse-csr submatrix sign iteration",
            iterations: r.iterations,
        });
    }
    let stats = sparse_stats_of(&r, a.nrows());
    let mut sign = r.sign;
    let mut iterations = r.iterations;
    if opts.precision == Precision::Fp32Refined {
        sign = refine_sign_newton_schulz(&sign)?;
        iterations += 1;
    }
    round_sign_output(&mut sign, opts.precision);
    Ok(SolveResult {
        sign,
        iterations,
        sparse: Some(stats),
    })
}

/// The reduced-precision iterative path: run the *generic* `f32` sign
/// kernel (single-precision storage, `f64`-accumulating GEMM — the CPU
/// analogue of tensor-core mixed accumulation), then optionally one `f64`
/// Newton–Schulz refinement pass (`Fp32Refined`).
///
/// The input is rounded to `f32` first and the µ shift applied in `f32`,
/// so the solve is bitwise-identical whether the values arrived over an
/// `f32` wire (distributed gather) or straight from local `f64` storage.
/// Each precision's copy is dropped once the next is made.
fn solve_sign_iterative_f32(
    a: Cow<'_, Matrix>,
    mu: f64,
    order: usize,
    opts: &SolveOptions,
) -> Result<SolveResult, LinalgError> {
    let mut shifted = a.to_f32();
    drop(a);
    shifted.shift_diag(-(mu as f32));
    let r = sign_iteration_in(
        shifted,
        order,
        SignIterationOptions {
            // f32 iterates bottom out near n·ε_f32: chase no f64 tolerance.
            tol: opts.tol.max(F32_SIGN_TOL),
            max_iter: opts.max_iter,
        },
        true,
        |_, _| {},
    )?;
    if !r.converged {
        return Err(LinalgError::NoConvergence {
            op: "f32 submatrix sign iteration",
            iterations: r.trace.len(),
        });
    }
    let (mut sign, mut iterations) = (r.sign.to_f64(), r.trace.len());
    drop(r);
    if opts.precision == Precision::Fp32Refined {
        sign = refine_sign_newton_schulz(&sign)?;
        iterations += 1;
    }
    Ok(SolveResult {
        sign,
        iterations,
        sparse: None,
    })
}

/// What the sign of `a − µI` makes of an eigenvalue `l` of `a`: the
/// extended signum of `l − µ` (Eq. 12) at zero temperature, the
/// Fermi-smeared sign at `kt > 0` (Sec. IV-F).
pub(crate) fn sign_value(l: f64, mu: f64, kt: f64) -> f64 {
    if kt > 0.0 {
        smeared_sign(l, mu, kt)
    } else {
        extended_signum(l - mu)
    }
}

/// `sign(a − µI)` from a stored decomposition of `a` — the reuse that makes
/// Algorithm 1's µ bisection cheap: no re-diagonalization, only a
/// back-transform.
pub fn sign_from_decomposition(dec: &Eigh, mu: f64, kt: f64) -> Matrix {
    dec.apply(|l| sign_value(l, mu, kt))
}

/// **Selected columns** of `sign(a − µI)` from a decomposition — the
/// paper's future-work optimization ("efforts are currently on the way
/// that try to selectively calculate selected elements of the sign
/// function", Sec. VII): the submatrix method only scatters the columns
/// originating from its own block columns, so computing
/// `Q · diag(f(λ)) · (Q[cols, :])ᵀ` costs `O(n²·k)` instead of the
/// `O(n³)` full back-transform.
///
/// Returns an `n × cols.len()` matrix whose `j`-th column is column
/// `cols[j]` of [`sign_from_decomposition`], bit for bit.
pub fn sign_columns_from_decomposition(dec: &Eigh, mu: f64, kt: f64, cols: &[usize]) -> Matrix {
    let signs: Vec<f64> = dec
        .eigenvalues
        .iter()
        .map(|&l| sign_value(l, mu, kt))
        .collect();
    q_diag_qt_cols(&dec.eigenvectors, &signs, cols).expect("selected column out of range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_linalg::gemm::matmul;

    fn gapped(n: usize, gap_at: f64) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    gap_at + 1.0
                } else {
                    gap_at - 1.0
                }
            } else {
                0.2 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn diagonalization_solver_basic() {
        let a = gapped(12, 0.3);
        let r = solve_sign(&a, 0.3, &SolveOptions::default()).unwrap();
        let s2 = matmul(&r.sign, &r.sign).unwrap();
        assert!(s2.allclose(&Matrix::identity(12), 1e-9));
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iterative_methods_match_diagonalization() {
        let a = gapped(10, -0.2);
        let mu = -0.2;
        let reference = solve_sign(&a, mu, &SolveOptions::default()).unwrap();
        for method in [
            SignMethod::Pade(2),
            SignMethod::Pade(3),
            SignMethod::Pade(5),
        ] {
            let opts = SolveOptions {
                method,
                ..SolveOptions::default()
            };
            let r = solve_sign(&a, mu, &opts).unwrap();
            assert!(
                r.sign.allclose(&reference.sign, 1e-7),
                "{method:?} disagrees with diagonalization"
            );
            assert!(r.iterations > 0);
        }
    }

    #[test]
    fn mu_shift_flips_occupation() {
        let a = Matrix::from_diag(&[1.0, 2.0, 3.0]);
        // µ below the spectrum: everything positive.
        let r = solve_sign(&a, 0.0, &SolveOptions::default()).unwrap();
        assert!(r.sign.allclose(&Matrix::identity(3), 1e-12));
        // µ above: everything negative.
        let r = solve_sign(&a, 10.0, &SolveOptions::default()).unwrap();
        assert!(r.sign.allclose(&Matrix::identity(3).scaled(-1.0), 1e-12));
        // µ between 2 and 3.
        let r = solve_sign(&a, 2.5, &SolveOptions::default()).unwrap();
        let expect = Matrix::from_diag(&[-1.0, -1.0, 1.0]);
        assert!(r.sign.allclose(&expect, 1e-12));
    }

    #[test]
    fn finite_temperature_smears_the_step() {
        let a = Matrix::from_diag(&[-0.1, 0.1]);
        let opts = SolveOptions {
            kt: 0.1,
            ..SolveOptions::default()
        };
        let r = solve_sign(&a, 0.0, &opts).unwrap();
        let expect = (0.1f64 / 0.2).tanh();
        assert!((r.sign[(1, 1)] - expect).abs() < 1e-12);
        assert!((r.sign[(0, 0)] + expect).abs() < 1e-12);
    }

    #[test]
    fn eigenvalue_at_mu_maps_to_zero() {
        // Extended definition (paper Eq. 12).
        let a = Matrix::from_diag(&[1.0, 2.0]);
        let r = solve_sign(&a, 2.0, &SolveOptions::default()).unwrap();
        assert!((r.sign[(1, 1)]).abs() < 1e-12);
        assert!((r.sign[(0, 0)] + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero temperature")]
    fn iterative_finite_t_rejected() {
        let a = gapped(4, 0.0);
        let opts = SolveOptions {
            method: SignMethod::Pade(2),
            kt: 0.1,
            ..SolveOptions::default()
        };
        let _ = solve_sign(&a, 0.0, &opts);
    }

    #[test]
    fn sign_from_decomposition_reuse_matches_fresh_solve() {
        let a = gapped(8, 0.5);
        let dec = decompose(&a, Precision::Fp64).unwrap();
        // Re-evaluate at a *different* µ from the stored decomposition.
        let shifted = sign_from_decomposition(&dec, 0.7, 0.0);
        let fresh = solve_sign(&a, 0.7, &SolveOptions::default()).unwrap();
        assert!(shifted.allclose(&fresh.sign, 1e-10));
    }
}

#[cfg(test)]
mod selected_column_tests {
    use super::*;
    use sm_linalg::eigh::eigh;

    fn gapped(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    1.4
                } else {
                    -1.4
                }
            } else {
                0.15 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        a.symmetrize();
        a
    }

    /// Columns `cols` of the full sign, bit for bit.
    fn assert_columns_of_full_sign(n: usize, mu: f64, kt: f64, cols: &[usize]) {
        let dec = eigh(&gapped(n)).unwrap();
        let full = sign_from_decomposition(&dec, mu, kt);
        let sel = sign_columns_from_decomposition(&dec, mu, kt, cols);
        assert_eq!(sel.shape(), (n, cols.len()));
        for (j, &c) in cols.iter().enumerate() {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(sel.col(j)), bits(full.col(c)), "column {c}");
        }
    }

    #[test]
    fn selected_columns_match_full_sign() {
        assert_columns_of_full_sign(12, 0.1, 0.0, &[0, 3, 11]);
        // Past the GEMM's small loop, which the full product no longer takes.
        assert_columns_of_full_sign(24, 0.1, 0.0, &[5, 4]);
    }

    #[test]
    fn selected_columns_finite_temperature() {
        assert_columns_of_full_sign(8, 0.0, 0.07, &[2, 5]);
    }

    #[test]
    fn empty_selection_is_empty() {
        let a = gapped(4);
        let dec = eigh(&a).unwrap();
        let sel = sign_columns_from_decomposition(&dec, 0.0, 0.0, &[]);
        assert_eq!(sel.shape(), (4, 0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_column_panics() {
        let a = gapped(4);
        let dec = eigh(&a).unwrap();
        sign_columns_from_decomposition(&dec, 0.0, 0.0, &[9]);
    }
}

#[cfg(test)]
mod sparse_csr_agreement_tests {
    use super::*;

    fn banded(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    1.2
                } else {
                    -1.2
                }
            } else if (i as isize - j as isize).unsigned_abs() <= 2 {
                0.07 / (1.0 + (i as f64 - j as f64).abs())
            } else {
                0.0
            }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn sparse_csr_matches_diagonalization() {
        let a = banded(14);
        let reference = solve_sign(&a, 0.0, &SolveOptions::default()).unwrap();
        let opts = SolveOptions {
            method: SignMethod::Pade(2),
            backend: SolveBackend::SparseCsr,
            sparse_eps: 1e-12,
            tol: 1e-9,
            ..SolveOptions::default()
        };
        let r = solve_sign(&a, 0.0, &opts).unwrap();
        assert!(
            r.sign.allclose(&reference.sign, 1e-6),
            "sparse CSR deviates by {}",
            r.sign.max_abs_diff(&reference.sign)
        );
        assert!(r.iterations > 0);
    }

    #[test]
    fn sparse_csr_pade3() {
        let a = banded(10);
        let reference = solve_sign(&a, 0.1, &SolveOptions::default()).unwrap();
        let opts = SolveOptions {
            method: SignMethod::Pade(3),
            backend: SolveBackend::SparseCsr,
            sparse_eps: 1e-12,
            tol: 1e-9,
            ..SolveOptions::default()
        };
        let r = solve_sign(&a, 0.1, &opts).unwrap();
        assert!(r.sign.allclose(&reference.sign, 1e-6));
    }

    #[test]
    #[should_panic(expected = "zero temperature")]
    fn sparse_csr_rejects_finite_t() {
        let a = banded(6);
        let opts = SolveOptions {
            method: SignMethod::Pade(2),
            backend: SolveBackend::SparseCsr,
            sparse_eps: 1e-10,
            kt: 0.1,
            ..SolveOptions::default()
        };
        let _ = solve_sign(&a, 0.0, &opts);
    }
}

#[cfg(test)]
mod precision_tests {
    use super::*;

    /// Banded gapped test matrix (the satellite-pattern analogue).
    fn banded(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    1.3
                } else {
                    -1.3
                }
            } else if (i as isize - j as isize).unsigned_abs() <= 3 {
                0.06 / (1.0 + (i as f64 - j as f64).abs())
            } else {
                0.0
            }
        });
        a.symmetrize();
        a
    }

    fn with_precision(method: SignMethod, precision: Precision) -> SolveOptions {
        SolveOptions {
            method,
            precision,
            ..SolveOptions::default()
        }
    }

    /// Documented tolerance contract: f32 solves match f64 within 1e-4,
    /// f32-refined within 1e-6, elementwise — across solver methods and a
    /// sweep of sizes/chemical potentials (the property the engine-level
    /// wire tests build on).
    #[test]
    fn f32_and_refined_match_f64_within_documented_tolerances() {
        for n in [8usize, 14, 23] {
            let a = banded(n);
            for mu in [0.0, 0.15, -0.2] {
                for method in [
                    SignMethod::Diagonalization,
                    SignMethod::Pade(2),
                    SignMethod::Pade(3),
                ] {
                    let reference = solve_sign(&a, mu, &with_precision(method, Precision::Fp64))
                        .unwrap()
                        .sign;
                    let r32 = solve_sign(&a, mu, &with_precision(method, Precision::Fp32))
                        .unwrap()
                        .sign;
                    let d32 = r32.max_abs_diff(&reference);
                    assert!(d32 < 1e-4, "{method:?} n={n} mu={mu}: fp32 off by {d32}");
                    let rref = solve_sign(&a, mu, &with_precision(method, Precision::Fp32Refined))
                        .unwrap()
                        .sign;
                    let dref = rref.max_abs_diff(&reference);
                    assert!(
                        dref < 1e-6,
                        "{method:?} n={n} mu={mu}: fp32-refined off by {dref}"
                    );
                }
            }
        }
    }

    #[test]
    fn plain_fp32_outputs_are_f32_representable() {
        let a = banded(12);
        for method in [SignMethod::Diagonalization, SignMethod::Pade(2)] {
            let r = solve_sign(&a, 0.1, &with_precision(method, Precision::Fp32)).unwrap();
            // Round-tripping through f32 storage changes nothing: the f32
            // result wire is lossless for plain-Fp32 results.
            assert!(r.sign.allclose(&r.sign.round_f32_storage(), 0.0));
        }
    }

    #[test]
    fn f32_solve_is_invariant_to_prior_wire_rounding() {
        // The bitwise-equivalence keystone: solving the f64 values and
        // solving their f32-wire-rounded copy produce identical results,
        // because the solve rounds its input first (idempotent).
        let a = banded(16);
        let rounded = a.round_f32_storage();
        for prec in [Precision::Fp32, Precision::Fp32Refined] {
            for method in [SignMethod::Diagonalization, SignMethod::Pade(2)] {
                let direct = solve_sign(&a, 0.05, &with_precision(method, prec)).unwrap();
                let wired = solve_sign(&rounded, 0.05, &with_precision(method, prec)).unwrap();
                assert!(
                    direct.sign.allclose(&wired.sign, 0.0),
                    "{method:?}/{prec:?} diverged after wire rounding"
                );
            }
        }
    }

    /// A block handed over by value solves to the bits of the same block
    /// lent: the owned path shifts, rounds and iterates in the caller's
    /// buffer, the borrowed one in its copy, with the same operations.
    #[test]
    fn owned_and_borrowed_inputs_solve_to_the_same_bits() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [12usize, 40] {
            let a = banded(n);
            for prec in Precision::all() {
                let methods = [
                    SignMethod::Diagonalization,
                    SignMethod::Pade(2),
                    SignMethod::Pade(3),
                ];
                for (method, backend) in methods
                    .into_iter()
                    .map(|m| (m, SolveBackend::Dense))
                    .chain([2, 3].map(|p| (SignMethod::Pade(p), SolveBackend::SparseCsr)))
                {
                    let opts = SolveOptions {
                        backend,
                        ..with_precision(method, prec)
                    };
                    let lent = solve_sign(&a, 0.05, &opts).unwrap();
                    let owned = solve_sign(a.clone(), 0.05, &opts).unwrap();
                    let case = format!("n={n} {prec:?} {method:?} {backend:?}");
                    assert_eq!(bits(&owned.sign), bits(&lent.sign), "{case}");
                    assert_eq!(owned.iterations, lent.iterations, "{case}");
                }
            }
        }
    }

    #[test]
    fn refined_iterative_counts_the_refinement_pass() {
        let a = banded(10);
        let plain = solve_sign(
            &a,
            0.0,
            &with_precision(SignMethod::Pade(2), Precision::Fp32),
        )
        .unwrap();
        let refined = solve_sign(
            &a,
            0.0,
            &with_precision(SignMethod::Pade(2), Precision::Fp32Refined),
        )
        .unwrap();
        assert_eq!(refined.iterations, plain.iterations + 1);
    }

    #[test]
    fn sparse_csr_backend_matches_dense_at_eps_zero() {
        // The tentpole contract: at eps = 0 the CSR backend agrees with the
        // dense iterative path within 1e-10 — same iteration map, exact
        // (unfiltered) sparse products.
        let a = banded(18);
        for mu in [0.0, 0.1] {
            for method in [SignMethod::Pade(2), SignMethod::Pade(3)] {
                let dense = solve_sign(&a, mu, &with_precision(method, Precision::Fp64)).unwrap();
                let sparse = solve_sign(
                    &a,
                    mu,
                    &SolveOptions {
                        method,
                        backend: SolveBackend::SparseCsr,
                        sparse_eps: 0.0,
                        ..SolveOptions::default()
                    },
                )
                .unwrap();
                let d = sparse.sign.max_abs_diff(&dense.sign);
                assert!(d < 1e-10, "{method:?} mu={mu}: sparse off dense by {d}");
                assert!(
                    dense.sparse.is_none(),
                    "dense path must not report sparse stats"
                );
                let stats = sparse.sparse.expect("sparse path reports stats");
                assert!(stats.flops > 0);
                assert!(stats.final_fill > 0.0 && stats.final_fill <= 1.0);
            }
        }
    }

    #[test]
    fn sparse_csr_filtering_saves_flops_within_documented_tolerance() {
        let a = banded(24);
        let exact = solve_sign(
            &a,
            0.0,
            &SolveOptions {
                method: SignMethod::Pade(2),
                backend: SolveBackend::SparseCsr,
                sparse_eps: 0.0,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        let filtered = solve_sign(
            &a,
            0.0,
            &SolveOptions {
                method: SignMethod::Pade(2),
                backend: SolveBackend::SparseCsr,
                sparse_eps: 1e-5,
                tol: 1e-4,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        let (se, sf) = (exact.sparse.unwrap(), filtered.sparse.unwrap());
        assert!(sf.flops < se.flops, "filtering must save flops");
        assert!(sf.filtered_nnz >= se.filtered_nnz);
        // Documented tolerance of filtered runs: ~10× the filter.
        let d = filtered.sign.max_abs_diff(&exact.sign);
        assert!(d < 1e-3, "filtered run off by {d}");
    }

    #[test]
    fn sparse_csr_composes_with_reduced_precision() {
        // Same contract the dense path documents: Fp32 within 1e-4 of the
        // f64 sparse solve, Fp32Refined within 1e-6; both invariant to
        // prior f32 wire rounding (input rounding is idempotent).
        let a = banded(16);
        let rounded = a.round_f32_storage();
        let base = SolveOptions {
            method: SignMethod::Pade(2),
            backend: SolveBackend::SparseCsr,
            sparse_eps: 0.0,
            ..SolveOptions::default()
        };
        let reference = solve_sign(&a, 0.05, &base).unwrap().sign;
        for (prec, tol) in [(Precision::Fp32, 1e-4), (Precision::Fp32Refined, 1e-6)] {
            let opts = SolveOptions {
                precision: prec,
                ..base
            };
            let direct = solve_sign(&a, 0.05, &opts).unwrap();
            let d = direct.sign.max_abs_diff(&reference);
            assert!(d < tol, "{prec:?}: sparse off f64 sparse by {d}");
            let wired = solve_sign(&rounded, 0.05, &opts).unwrap();
            assert!(
                direct.sign.allclose(&wired.sign, 0.0),
                "{prec:?} diverged after wire rounding"
            );
        }
        // Plain Fp32 results ship losslessly over the f32 result wire.
        let r32 = solve_sign(
            &a,
            0.05,
            &SolveOptions {
                precision: Precision::Fp32,
                ..base
            },
        )
        .unwrap();
        assert!(r32.sign.allclose(&r32.sign.round_f32_storage(), 0.0));
        // Refined counts its refinement pass, like the dense f32 path.
        let refined = solve_sign(
            &a,
            0.05,
            &SolveOptions {
                precision: Precision::Fp32Refined,
                ..base
            },
        )
        .unwrap();
        let plain = solve_sign(
            &a,
            0.05,
            &SolveOptions {
                precision: Precision::Fp32,
                ..base
            },
        )
        .unwrap();
        assert_eq!(refined.iterations, plain.iterations + 1);
    }

    #[test]
    fn diagonalization_ignores_the_backend() {
        let a = banded(12);
        let dense = solve_sign(&a, 0.1, &SolveOptions::default()).unwrap();
        let routed = solve_sign(
            &a,
            0.1,
            &SolveOptions {
                backend: SolveBackend::SparseCsr,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!(dense.sign.allclose(&routed.sign, 0.0));
        assert!(routed.sparse.is_none());
    }

    #[test]
    fn finite_temperature_diag_supports_f32_storage() {
        let a = banded(8);
        let opts = SolveOptions {
            kt: 0.05,
            precision: Precision::Fp32Refined,
            ..SolveOptions::default()
        };
        let r = solve_sign(&a, 0.0, &opts).unwrap();
        let reference = solve_sign(
            &a,
            0.0,
            &SolveOptions {
                kt: 0.05,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert!(r.sign.max_abs_diff(&reference.sign) < 1e-5);
    }
}
