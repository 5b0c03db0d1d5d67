//! BLAS level-1 style vector kernels.
//!
//! These are the scalar building blocks used by the factorizations and the
//! eigensolver. They are deliberately simple; the hot O(n³) work happens in
//! [`crate::gemm`]. The kernels GEMM builds on ([`dot`], [`axpy`],
//! [`scal`]) are generic over the [`Elem`] scalar so
//! the same code path serves the `f32` and `f64` instances; the
//! factorization-only helpers stay `f64`.

use crate::elem::Elem;

/// Dot product `x · y`, accumulated in the element type.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot<E: Elem>(x: &[E], y: &[E]) -> E {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    // Unrolled by 4 to expose instruction-level parallelism; falls back to a
    // scalar loop for the tail.
    let mut acc = [E::ZERO; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let b = c * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y += alpha * x`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy<E: Elem>(alpha: E, x: &[E], y: &mut [E]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    if alpha == E::ZERO {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Euclidean norm with scaling to avoid overflow/underflow (like `dnrm2`).
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Scale a vector in place: `x *= alpha`.
#[inline]
pub fn scal<E: Elem>(alpha: E, x: &mut [E]) {
    for v in x {
        *v *= alpha;
    }
}

/// Swap the contents of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn swap(x: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "swap: length mismatch");
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        std::mem::swap(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [5.0, 4.0, 3.0, 2.0, 1.0];
        assert_eq!(dot(&x, &y), 35.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot::<f64>(&[], &[]), 0.0);
    }

    #[test]
    fn dot_matches_naive_for_long_vectors() {
        let x: Vec<f64> = (0..103).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..103).map(|i| (i as f64).cos()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn axpy_zero_alpha_is_noop() {
        let x = [f64::NAN, f64::NAN];
        let mut y = [1.0, 2.0];
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [1.0, 2.0]);
    }

    #[test]
    fn nrm2_pythagorean() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn nrm2_avoids_overflow() {
        let big = 1e200;
        let n = nrm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-15);
    }

    #[test]
    fn nrm2_zero_vector() {
        assert_eq!(nrm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(nrm2(&[]), 0.0);
    }

    #[test]
    fn scal_scales() {
        let mut x = [1.0, -2.0];
        scal(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn generic_kernels_work_in_f32() {
        let x = [1.0f32, 2.0, 3.0];
        let y = [4.0f32, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0f32);
        let mut z = [0.0f32; 3];
        axpy(2.0f32, &x, &mut z);
        assert_eq!(z, [2.0, 4.0, 6.0]);
        scal(0.5f32, &mut z);
        assert_eq!(z, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn swap_exchanges() {
        let mut x = [1.0, 2.0];
        let mut y = [3.0, 4.0];
        swap(&mut x, &mut y);
        assert_eq!(x, [3.0, 4.0]);
        assert_eq!(y, [1.0, 2.0]);
    }
}
