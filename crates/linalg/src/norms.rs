//! Matrix norms.
//!
//! The Frobenius norm drives the convergence tests of the sign iterations
//! (the involutority residual ‖Xₖ² − I‖_F of paper Fig. 13); the 1- and
//! ∞-norms bound spectral radii for iteration scaling.

use crate::elem::Elem;
use crate::matrix::{Matrix, MatrixBase};

/// Frobenius norm `sqrt(Σ a_ij²)` with overflow-safe scaling.
pub fn fro_norm(a: &Matrix) -> f64 {
    crate::blas1::nrm2(a.as_slice())
}

/// Whether the Frobenius norm of the elements `x` exceeds `eps`, with the
/// answer [`fro_norm`]`(a) > eps` gives for the matrix `a` they hold, on
/// every input, at a fraction of the cost: the block filters of the sparse
/// multiplies ask it of every block they keep or drop. The norm from the
/// plain sum of squares and the scaled one of [`fro_norm`] each lie within
/// `3·(len + 2)` units of roundoff of the exact norm while the plain sum
/// neither overflows nor nears underflow, so only a norm within
/// `16·(len + 4)` units of `eps`, or a sum outside `[1e-270, MAX]`, is
/// decided by the scaled norm itself.
pub fn fro_norm_exceeds(x: &[f64], eps: f64) -> bool {
    let sum = crate::blas1::dot(x, x);
    let margin = 8.0 * (x.len() + 4) as f64 * f64::EPSILON;
    if sum.is_finite() && sum >= 1e-270 && margin < 0.5 {
        let norm = sum.sqrt();
        if norm > eps * (1.0 + margin) {
            return true;
        }
        if norm < eps * (1.0 - margin) {
            return false;
        }
    }
    crate::blas1::nrm2(x) > eps
}

/// 1-norm: maximum absolute column sum (any element type; accumulated in
/// `f64` so the bound is reliable for `f32` storage too).
pub fn one_norm<E: Elem>(a: &MatrixBase<E>) -> f64 {
    (0..a.ncols())
        .map(|j| a.col(j).iter().map(|v| v.abs().to_f64()).sum::<f64>())
        .fold(0.0, f64::max)
}

/// ∞-norm: maximum absolute row sum (any element type).
pub fn inf_norm<E: Elem>(a: &MatrixBase<E>) -> f64 {
    let mut sums = vec![0.0f64; a.nrows()];
    for j in 0..a.ncols() {
        for (i, &v) in a.col(j).iter().enumerate() {
            sums[i] += v.abs().to_f64();
        }
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// Largest absolute element (any element type).
pub fn max_norm<E: Elem>(a: &MatrixBase<E>) -> f64 {
    a.as_slice()
        .iter()
        .map(|v| v.abs().to_f64())
        .fold(0.0, f64::max)
}

/// Cheap upper bound on the spectral radius of a symmetric matrix:
/// `sqrt(‖A‖₁ · ‖A‖∞)` (equals ‖A‖₁ for symmetric input). Used to scale
/// Newton–Schulz style iterations into their convergence region.
pub fn spectral_bound<E: Elem>(a: &MatrixBase<E>) -> f64 {
    (one_norm(a) * inf_norm(a)).sqrt()
}

/// Frobenius norm of `A² - I` without forming the subtraction separately —
/// the involutority residual used as the convergence criterion of the sign
/// iterations (paper Fig. 13). Accumulated in `f64` for every element type
/// so the `f32` iterations get a trustworthy convergence test.
pub fn involutority_residual<E: Elem>(a2: &MatrixBase<E>) -> f64 {
    assert!(a2.is_square());
    let n = a2.nrows();
    let mut ssq = 0.0f64;
    for j in 0..n {
        for (i, &v) in a2.col(j).iter().enumerate() {
            let r = if i == j { v.to_f64() - 1.0 } else { v.to_f64() };
            ssq += r * r;
        }
    }
    ssq.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fro_norm_basic() {
        let a = Matrix::from_row_major(2, 2, &[3.0, 0.0, 0.0, 4.0]);
        assert!((fro_norm(&a) - 5.0).abs() < 1e-15);
    }

    /// The fast filter test gives `fro_norm(a) > eps` on norms one ulp
    /// either side of `eps` and equal to it, at scales near underflow and
    /// overflow, and on non-finite, empty and zero matrices.
    #[test]
    fn fro_norm_exceeds_decides_as_fro_norm() {
        let base = Matrix::from_fn(6, 6, |i, j| ((i * 7 + j * 5) % 13) as f64 * 0.37 - 2.1);
        let mut cases = Vec::new();
        for scale in [1.0, 1e-5, 1e-140, 1e-160, 1e-300, 1e150, 1e160] {
            let mut a = base.clone();
            a.scale(scale);
            cases.push(a);
        }
        let mut odd = base.clone();
        odd[(2, 3)] = f64::NAN;
        cases.push(odd.clone());
        odd[(2, 3)] = f64::INFINITY;
        cases.push(odd);
        cases.extend([
            Matrix::zeros(0, 0),
            Matrix::zeros(6, 6),
            Matrix::identity(1),
        ]);
        for a in &cases {
            let norm = fro_norm(a);
            let mut eps = vec![0.0, -1.0, f64::NAN, f64::INFINITY, norm * 0.5, norm * 2.0];
            let (mut down, mut up) = (norm, norm);
            for _ in 0..4 {
                eps.extend([down, up]);
                (down, up) = (down.next_down(), up.next_up());
            }
            for e in eps {
                let fast = fro_norm_exceeds(a.as_slice(), e);
                assert_eq!(fast, norm > e, "norm {norm}, eps {e}");
            }
        }
    }

    #[test]
    fn one_and_inf_norms() {
        let a = Matrix::from_row_major(2, 2, &[1.0, -2.0, 3.0, 4.0]);
        assert_eq!(one_norm(&a), 6.0); // col 1: |-2|+|4| = 6
        assert_eq!(inf_norm(&a), 7.0); // row 1: |3|+|4| = 7
    }

    #[test]
    fn max_norm_basic() {
        let a = Matrix::from_row_major(2, 2, &[1.0, -9.0, 3.0, 4.0]);
        assert_eq!(max_norm(&a), 9.0);
    }

    #[test]
    fn spectral_bound_dominates_eigenvalues() {
        let mut a = Matrix::from_fn(6, 6, |i, j| ((i + 2 * j) % 5) as f64 * 0.3);
        a.symmetrize();
        let bound = spectral_bound(&a);
        let eig = crate::eigh::eigvalsh(&a).unwrap();
        let rho = eig.iter().fold(0.0f64, |m, &l| m.max(l.abs()));
        assert!(
            bound >= rho - 1e-12,
            "bound {bound} < spectral radius {rho}"
        );
    }

    #[test]
    fn involutority_residual_of_identity_squared() {
        let i = Matrix::identity(5);
        assert_eq!(involutority_residual(&i), 0.0);
        let mut almost = i.clone();
        almost[(2, 3)] = 1e-3;
        assert!((involutority_residual(&almost) - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn norms_of_empty_matrix() {
        let a = Matrix::zeros(0, 0);
        assert_eq!(fro_norm(&a), 0.0);
        assert_eq!(one_norm(&a), 0.0);
        assert_eq!(inf_norm(&a), 0.0);
        assert_eq!(max_norm(&a), 0.0);
    }
}
