//! The matrix sign function.
//!
//! Three evaluation strategies from the paper:
//!
//! * [`sign_eig`] — eigendecomposition + elementwise signum (Eq. 17), the
//!   method of choice for dense submatrices (Sec. IV-F), including the
//!   extended definition `sign(0) = 0` of Eq. 12;
//! * [`newton_schulz_sign`] — the 2nd-order Newton–Schulz iteration
//!   (Eq. 11), CP2K's default for sparse matrices and the paper's baseline;
//! * [`sign_iteration`] — the arbitrary-order Padé family; order 2 is
//!   Newton–Schulz, order 3 reproduces Eq. 19 used in the GPU/FPGA study.
//!   [`sign_iteration_in`] is the one implementation: the engine runs it in
//!   `f64` and `f32`, and Figs. 12–13 run it over `sm_accel`'s binary16
//!   and FPGA element types, watching each step through its observer. It
//!   takes its input by value and scales it into the iterate, so a solve
//!   holds the input and three work buffers of `n²` each, no more.

use crate::eigh::eigh;
use crate::elem::Elem;
use crate::gemm::{gemm, matmul, matmul_wide_into, Op};
use crate::matrix::{Matrix, MatrixBase};
use crate::norms::{involutority_residual, spectral_bound};
use crate::LinalgError;

/// Eigenvalues with magnitude below this count as "on the imaginary axis"
/// and map to 0 per the extended definition (paper Eq. 12).
pub const ZERO_EIGENVALUE_TOL: f64 = 1e-12;

/// Extended scalar sign: −1 / 0 / +1 with a tolerance band around zero.
#[inline]
pub fn extended_signum(x: f64) -> f64 {
    if x.abs() <= ZERO_EIGENVALUE_TOL {
        0.0
    } else {
        x.signum()
    }
}

/// `sign(A)` of a symmetric matrix via eigendecomposition (paper Eq. 17).
pub fn sign_eig(a: &Matrix) -> Result<Matrix, LinalgError> {
    Ok(eigh(a)?.apply(extended_signum))
}

/// Progress record of one iterative sign evaluation step.
#[derive(Debug, Clone, Copy)]
pub struct SignStep {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// Involutority residual ‖Xₖ² − I‖_F after the step (Fig. 13's metric).
    pub residual: f64,
}

/// Result of an iterative sign evaluation (generic over the element type;
/// the historical `f64` entry points use [`SignIterationResult`]).
#[derive(Debug, Clone)]
pub struct SignIterationResultIn<E: Elem> {
    /// Converged (or best-effort) sign matrix.
    pub sign: MatrixBase<E>,
    /// Per-iteration residual trace.
    pub trace: Vec<SignStep>,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
}

/// Result of an iterative sign evaluation in double precision.
pub type SignIterationResult = SignIterationResultIn<f64>;

/// The scalar types the iterative sign kernels run in. Adds the one piece
/// of per-type dispatch the generic iteration needs: the square multiply,
/// which for `f32` may use the `f64`-accumulating kernel
/// ([`matmul_wide`](crate::gemm::matmul_wide)).
pub trait SignElem: Elem {
    /// `C = A · B` with the element type's accumulation policy, overwriting
    /// whatever `c` held.
    fn multiply(
        a: &MatrixBase<Self>,
        b: &MatrixBase<Self>,
        wide_acc: bool,
        c: &mut MatrixBase<Self>,
    ) -> Result<(), LinalgError>;
}

impl SignElem for f64 {
    fn multiply(
        a: &MatrixBase<f64>,
        b: &MatrixBase<f64>,
        _wide_acc: bool,
        c: &mut MatrixBase<f64>,
    ) -> Result<(), LinalgError> {
        gemm(1.0, a, Op::NoTrans, b, Op::NoTrans, 0.0, c)
    }
}

impl SignElem for f32 {
    fn multiply(
        a: &MatrixBase<f32>,
        b: &MatrixBase<f32>,
        wide_acc: bool,
        c: &mut MatrixBase<f32>,
    ) -> Result<(), LinalgError> {
        if wide_acc {
            matmul_wide_into(a, b, c)
        } else {
            gemm(1.0, a, Op::NoTrans, b, Op::NoTrans, 0.0, c)
        }
    }
}

/// Options for the iterative sign evaluations.
#[derive(Debug, Clone, Copy)]
pub struct SignIterationOptions {
    /// Convergence threshold on ‖Xₖ² − I‖_F / √n. No residual meets a
    /// negative `tol`, so the iteration then runs exactly `max_iter` steps
    /// (the fixed window Figs. 12–13 plot).
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for SignIterationOptions {
    fn default() -> Self {
        SignIterationOptions {
            tol: 1e-10,
            max_iter: 100,
        }
    }
}

/// Coefficients of the order-`p` Padé/Newton–Schulz sign polynomial:
/// `X_{k+1} = X_k · Σ_{i<p} c_i (I − X_k²)^i` with
/// `c_i = C(2i, i) / 4^i` (the binomial series of `(1−z)^{−1/2}`).
///
/// Order 2 reproduces Newton–Schulz (Eq. 11), order 3 reproduces the GPU
/// iteration of Eq. 19.
pub fn pade_coefficients(order: usize) -> Vec<f64> {
    assert!(order >= 2, "sign iteration order must be at least 2");
    let mut c = Vec::with_capacity(order);
    let mut coef = 1.0f64;
    for i in 0..order {
        if i > 0 {
            // C(2i, i)/4^i = prev * (2i-1)/(2i)
            coef *= (2 * i - 1) as f64 / (2 * i) as f64;
        }
        c.push(coef);
    }
    c
}

/// Arbitrary-order Padé sign iteration on a symmetric matrix, generic over
/// the element type (the reduced-precision execution path runs this very
/// kernel in `f32`).
///
/// The input becomes the iterate: `A` is scaled in place into `X₀`, so the
/// iteration holds four `n²` buffers, `X` and three work buffers allocated
/// once. A caller that keeps its matrix passes a clone ([`sign_iteration`]
/// does).
///
/// Every step computes `Y = X²` (also used for the convergence test), then
/// evaluates the order-`p` polynomial in `Y` by Horner's rule in the
/// variable `E = I − Y`, and finally multiplies by `X` — `p + 1` multiplies
/// per step. With `wide_acc = true` the `f32` instance accumulates every
/// multiply in `f64` ([`matmul_wide`](crate::gemm::matmul_wide)) —
/// single-precision storage, double-precision sums; the flag is a no-op for
/// `f64`.
///
/// `observe(k, X)` sees the iterate after step `k`'s update; the engine
/// passes a no-op, which compiles away.
///
/// A NaN or infinite entry of `a` can never converge and is reported as
/// [`LinalgError::NonFinite`] before the first multiply, not as
/// `converged = false` after the whole iteration budget.
pub fn sign_iteration_in<E: SignElem>(
    a: MatrixBase<E>,
    order: usize,
    opts: SignIterationOptions,
    wide_acc: bool,
    mut observe: impl FnMut(usize, &MatrixBase<E>),
) -> Result<SignIterationResultIn<E>, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "sign_iteration",
            shape: a.shape(),
        });
    }
    a.require_finite("sign_iteration")?;
    let n = a.nrows();
    let coeffs = pade_coefficients(order);
    let sqrt_n = (n.max(1) as f64).sqrt();

    // `X₀ = A / spectral_bound(A)` starts the iteration inside its
    // convergence region.
    let bound = spectral_bound(&a);
    let mut x = a;
    if bound > 0.0 {
        x.scale(E::from_f64(1.0 / bound));
    }
    // `Y` (then `E` in place), the Horner accumulator, and the product being
    // written, which then swaps with one of its factors.
    let mut e = MatrixBase::<E>::zeros(n, n);
    let mut p = MatrixBase::<E>::zeros(n, n);
    let mut next = MatrixBase::<E>::zeros(n, n);

    let mut trace = Vec::new();
    let mut converged = false;

    for it in 0..opts.max_iter {
        // Y = X².
        E::multiply(&x, &x, wide_acc, &mut e)?;
        let residual = involutority_residual(&e) / sqrt_n;
        trace.push(SignStep {
            iteration: it,
            residual,
        });
        if residual <= opts.tol {
            converged = true;
            break;
        }

        // E = I − Y; evaluate P(E) = Σ c_i E^i by Horner, from p = c_{p−1} I.
        // The first step multiplies that scaled identity into E at the price
        // of any other product (the packed kernel skips no zeros); as a scale
        // and a `shift_diag` it would save one of a step's `order + 1`
        // multiplies.
        e.scale(E::from_f64(-1.0));
        e.shift_diag(E::ONE);
        p.as_mut_slice().fill(E::ZERO);
        p.shift_diag(E::from_f64(coeffs[order - 1]));
        for &c in coeffs[..order - 1].iter().rev() {
            // p = p*E + c_i I
            E::multiply(&p, &e, wide_acc, &mut next)?;
            next.shift_diag(E::from_f64(c));
            std::mem::swap(&mut p, &mut next);
        }
        // X = X * P
        E::multiply(&x, &p, wide_acc, &mut next)?;
        std::mem::swap(&mut x, &mut next);
        observe(it, &x);
    }

    Ok(SignIterationResultIn {
        sign: x,
        trace,
        converged,
    })
}

/// Double-precision Padé sign iteration (the historical entry point) on a
/// copy of `a`.
pub fn sign_iteration(
    a: &Matrix,
    order: usize,
    opts: SignIterationOptions,
) -> Result<SignIterationResult, LinalgError> {
    sign_iteration_in(a.clone(), order, opts, false, |_, _| {})
}

/// One double-precision Newton–Schulz step `X ← X·(3I − X²)/2` — the cheap
/// `f64` refinement pass applied after an `f32` sign solve
/// (`Precision::Fp32Refined`). The NS map converges quadratically near an
/// involutory matrix, so a single step takes an `f32`-accurate iterate
/// (residual ~1e-5) to well below 1e-6 without re-running the iteration.
pub fn refine_sign_newton_schulz(x: &Matrix) -> Result<Matrix, LinalgError> {
    let mut q = matmul(x, x)?;
    q.scale(-0.5);
    q.shift_diag(1.5);
    matmul(x, &q)
}

/// 2nd-order Newton–Schulz sign iteration (paper Eq. 11).
pub fn newton_schulz_sign(
    a: &Matrix,
    opts: SignIterationOptions,
) -> Result<SignIterationResult, LinalgError> {
    sign_iteration(a, 2, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Symmetric test matrix with spectrum well away from zero.
    fn gapped_matrix(n: usize) -> Matrix {
        // Diagonal ±1.5 with decaying symmetric coupling — guaranteed gap.
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    1.5
                } else {
                    -1.5
                }
            } else {
                0.3 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn sign_eig_is_involutory() {
        let a = gapped_matrix(16);
        let s = sign_eig(&a).unwrap();
        let s2 = matmul(&s, &s).unwrap();
        assert!(s2.allclose(&Matrix::identity(16), 1e-10));
    }

    #[test]
    fn sign_eig_commutes_with_a() {
        let a = gapped_matrix(10);
        let s = sign_eig(&a).unwrap();
        let as_ = matmul(&a, &s).unwrap();
        let sa = matmul(&s, &a).unwrap();
        assert!(as_.allclose(&sa, 1e-10));
    }

    #[test]
    fn sign_of_definite_matrix_is_identity() {
        let mut a = gapped_matrix(8);
        a.shift_diag(10.0); // all eigenvalues positive
        let s = sign_eig(&a).unwrap();
        assert!(s.allclose(&Matrix::identity(8), 1e-10));
    }

    #[test]
    fn extended_sign_maps_zero_eigenvalue_to_zero() {
        // Diagonal matrix with an exact zero eigenvalue (Eq. 12).
        let a = Matrix::from_diag(&[2.0, 0.0, -3.0]);
        let s = sign_eig(&a).unwrap();
        let expect = Matrix::from_diag(&[1.0, 0.0, -1.0]);
        assert!(s.allclose(&expect, 1e-12));
    }

    #[test]
    fn pade_coefficients_match_closed_forms() {
        // Order 2: (3I - Y)/2 => constants [1, 1/2] in E-expansion.
        assert_eq!(pade_coefficients(2), vec![1.0, 0.5]);
        // Order 3: Eq. 19 constants [1, 1/2, 3/8].
        assert_eq!(pade_coefficients(3), vec![1.0, 0.5, 0.375]);
        // Order 4 adds 5/16.
        assert_eq!(pade_coefficients(4), vec![1.0, 0.5, 0.375, 0.3125]);
    }

    #[test]
    fn newton_schulz_matches_eig() {
        let a = gapped_matrix(12);
        let s_ref = sign_eig(&a).unwrap();
        let r = newton_schulz_sign(&a, SignIterationOptions::default()).unwrap();
        assert!(r.converged, "NS did not converge");
        assert!(r.sign.allclose(&s_ref, 1e-7));
    }

    #[test]
    fn pade3_matches_eig_and_converges_in_fewer_iterations() {
        let a = gapped_matrix(12);
        let s_ref = sign_eig(&a).unwrap();
        let ns = newton_schulz_sign(&a, SignIterationOptions::default()).unwrap();
        let p3 = sign_iteration(&a, 3, SignIterationOptions::default()).unwrap();
        assert!(p3.converged);
        assert!(p3.sign.allclose(&s_ref, 1e-7));
        assert!(
            p3.trace.len() <= ns.trace.len(),
            "order 3 ({}) should need no more iterations than order 2 ({})",
            p3.trace.len(),
            ns.trace.len()
        );
    }

    #[test]
    fn higher_orders_agree() {
        let a = gapped_matrix(9);
        let s_ref = sign_eig(&a).unwrap();
        for order in [4, 5, 7] {
            let r = sign_iteration(&a, order, SignIterationOptions::default()).unwrap();
            assert!(r.converged, "order {order} did not converge");
            assert!(r.sign.allclose(&s_ref, 1e-7), "order {order} disagrees");
        }
    }

    #[test]
    fn residual_trace_is_monotone_decreasing_once_converging() {
        let a = gapped_matrix(10);
        let r = newton_schulz_sign(&a, SignIterationOptions::default()).unwrap();
        // After the first couple of steps the residual must fall.
        let tail: Vec<f64> = r.trace.iter().skip(1).map(|s| s.residual).collect();
        for w in tail.windows(2) {
            assert!(w[1] <= w[0] * 1.5, "residual should trend down: {w:?}");
        }
        // Final residual below tolerance.
        assert!(r.trace.last().unwrap().residual <= 1e-10);
    }

    #[test]
    fn iteration_budget_respected() {
        let a = gapped_matrix(8);
        let r = sign_iteration(
            &a,
            2,
            SignIterationOptions {
                tol: 0.0, // unreachable
                max_iter: 3,
            },
        )
        .unwrap();
        assert!(!r.converged);
        assert_eq!(r.trace.len(), 3);
    }

    /// An observer moves no bit: f64 orders 2 and 3 and f32 with and
    /// without wide accumulation return what they return with a no-op, and
    /// the last iterate it sees is the result. A negative `tol` calls it
    /// exactly `max_iter` times.
    #[test]
    fn observer_keeps_every_bit_and_sees_a_fixed_window() {
        fn watched_matches_quiet<E: SignElem>(
            a: &MatrixBase<E>,
            order: usize,
            opts: SignIterationOptions,
            wide: bool,
        ) {
            let bits = |m: &MatrixBase<E>| -> Vec<u64> {
                m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
            };
            let quiet = sign_iteration_in(a.clone(), order, opts, wide, |_, _| {}).unwrap();
            let mut last = None;
            let watched =
                sign_iteration_in(a.clone(), order, opts, wide, |_, x| last = Some(bits(x)))
                    .unwrap();
            assert_eq!(bits(&watched.sign), bits(&quiet.sign));
            assert_eq!(last, Some(bits(&quiet.sign)));
            let residuals = |r: &SignIterationResultIn<E>| -> Vec<u64> {
                r.trace.iter().map(|s| s.residual.to_bits()).collect()
            };
            assert_eq!(residuals(&watched), residuals(&quiet));
        }
        let a = gapped_matrix(13);
        let f32_opts = SignIterationOptions {
            tol: crate::elem::F32_SIGN_TOL,
            ..SignIterationOptions::default()
        };
        for order in [2, 3] {
            watched_matches_quiet(&a, order, SignIterationOptions::default(), false);
            for wide in [false, true] {
                watched_matches_quiet(&a.to_f32(), order, f32_opts, wide);
            }
        }

        let mut steps = Vec::new();
        let window = SignIterationOptions {
            tol: -1.0,
            max_iter: 7,
        };
        let r = sign_iteration_in(a, 3, window, false, |k, _| steps.push(k)).unwrap();
        assert!(!r.converged);
        assert_eq!(steps, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn f32_iteration_matches_f64_to_single_precision() {
        let a = gapped_matrix(14);
        let s_ref = sign_eig(&a).unwrap();
        for wide in [false, true] {
            let r = sign_iteration_in(
                a.to_f32(),
                2,
                SignIterationOptions {
                    tol: crate::elem::F32_SIGN_TOL,
                    ..SignIterationOptions::default()
                },
                wide,
                |_, _| {},
            )
            .unwrap();
            assert!(r.converged, "f32 NS (wide={wide}) did not converge");
            let diff = r.sign.to_f64().max_abs_diff(&s_ref);
            assert!(diff < 1e-4, "f32 sign (wide={wide}) off by {diff}");
        }
    }

    #[test]
    fn refinement_step_recovers_f64_accuracy() {
        let a = gapped_matrix(12);
        let s_ref = sign_eig(&a).unwrap();
        let r32 = sign_iteration_in(
            a.to_f32(),
            2,
            SignIterationOptions {
                tol: crate::elem::F32_SIGN_TOL,
                ..SignIterationOptions::default()
            },
            true,
            |_, _| {},
        )
        .unwrap();
        let coarse = r32.sign.to_f64();
        let refined = refine_sign_newton_schulz(&coarse).unwrap();
        let e_coarse = coarse.max_abs_diff(&s_ref);
        let e_refined = refined.max_abs_diff(&s_ref);
        assert!(
            e_refined < e_coarse,
            "refinement must improve: {e_refined} vs {e_coarse}"
        );
        assert!(e_refined < 1e-6, "refined error {e_refined}");
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(sign_iteration(&a, 2, SignIterationOptions::default()).is_err());
        assert!(sign_eig(&a).is_err());
    }

    #[test]
    fn non_finite_input_rejected_before_iterating() {
        for bad in [f64::NAN, f64::NEG_INFINITY] {
            let mut a = gapped_matrix(8);
            a[(1, 2)] = bad;
            a[(2, 1)] = bad;
            let expect = LinalgError::NonFinite {
                op: "sign_iteration",
            };
            let opts = SignIterationOptions::default();
            assert_eq!(sign_iteration(&a, 3, opts).unwrap_err(), expect);
            assert_eq!(
                sign_iteration_in(a.to_f32(), 3, opts, true, |_, _| {}).unwrap_err(),
                expect
            );
        }
    }

    #[test]
    fn sign_of_diag_matrix_iterative() {
        let a = Matrix::from_diag(&[4.0, -2.0, 0.5, -0.25]);
        let r = newton_schulz_sign(&a, SignIterationOptions::default()).unwrap();
        let expect = Matrix::from_diag(&[1.0, -1.0, 1.0, -1.0]);
        assert!(r.sign.allclose(&expect, 1e-8));
    }
}
