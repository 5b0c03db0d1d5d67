//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! This is the first stage of the `dsyevd`-equivalent eigensolver used to
//! evaluate `sign(A) = Q sign(Λ) Q^T` on dense submatrices (paper Eq. 17).
//! The algorithm is LAPACK's unblocked reduction (`dsytd2`, `uplo = 'U'`)
//! on the column-major [`Matrix`]: the reflector of step `i` is generated
//! from the contiguous part `A[..i, i]` of column `i` above the diagonal
//! and stays there, and the leading block is updated by one symmetric
//! matrix–vector pass ([`symv_upper`]) and one rank-2 update
//! ([`syr2_upper`]), both column by column over the upper triangle
//! (4/3 n³ flops). Working from the last column up leaves a matrix graded
//! towards small entries with its small end at the top of `T`, which is
//! the end the QL sweep of [`crate::eigh`] deflates from. The orthogonal
//! factor is not accumulated along the way: [`Tridiagonal::q`] forms it
//! afterwards by applying the reflectors to contiguous columns
//! (`dorg2l`-style, another 4/3 n³), and only a caller that wants
//! eigenvectors pays for it. [`crate::eigh`] runs both in its per-thread
//! scratch: it keeps one [`Tridiagonal`] and one basis per thread, which
//! each reduction resets to what a fresh allocation held before it writes.

use crate::blas1::{axpy, dot};
use crate::blas2::{symv_upper, syr2_upper};
use crate::matrix::Matrix;
use crate::LinalgError;

/// Sums of squares inside this range are formed and rooted directly: above
/// the lower end every term that underflowed cost less than one rounding,
/// and below the upper end no partial sum overflowed.
pub(crate) const SAFE_SQUARES: std::ops::RangeInclusive<f64> =
    f64::MIN_POSITIVE / f64::EPSILON..=f64::MAX * f64::EPSILON;

/// Result of a Householder tridiagonalization `A = Q T Q^T`, with `Q`
/// held as its elementary reflectors `H_i = I − tau[i]·v_i·v_iᵀ`,
/// `Q = H_{n−1} ⋯ H_2 · H_1`.
#[derive(Debug, Clone)]
pub struct Tridiagonal {
    /// Diagonal of `T` (length n).
    pub d: Vec<f64>,
    /// Sub-diagonal of `T` (length n): `e[i]` couples `d[i]` and
    /// `d[i + 1]`; the last entry is 0.
    pub e: Vec<f64>,
    /// `v_i` in `[..i, i]`, its trailing 1 stored. The rest is scratch.
    reflectors: Matrix,
    /// `tau[i]` of `H_i`; 0 marks `H_i = I` (`tau[0]` always).
    tau: Vec<f64>,
}

/// Overwrite `x` with the Householder vector `v` (last entry 1, stored) of
/// the reflector `H = I − tau·v·vᵀ` that maps `x` to `beta` times the last
/// unit vector; returns `(beta, tau)`. When the rest of `x` is zero,
/// `tau = 0` (`H = I`) and `x` is left as scratch.
fn make_reflector(x: &mut [f64]) -> (f64, f64) {
    let last = x.len() - 1;
    let pivot = x[last];
    let mut scale = 1.0;
    let mut rest_sq = dot(&x[..last], &x[..last]);
    if !SAFE_SQUARES.contains(&(pivot * pivot + rest_sq)) {
        // Zero, tiny or huge entries: reflect `x / max|x|`, the same `H`.
        scale = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if scale == 0.0 {
            return (0.0, 0.0);
        }
        for v in x.iter_mut() {
            *v /= scale;
        }
        rest_sq = dot(&x[..last], &x[..last]);
    }
    if rest_sq == 0.0 {
        return (pivot, 0.0);
    }
    let alpha = x[last];
    let beta = -(alpha * alpha + rest_sq).sqrt().copysign(alpha);
    let inv = 1.0 / (alpha - beta);
    for v in &mut x[..last] {
        *v *= inv;
    }
    x[last] = 1.0;
    (beta * scale, (beta - alpha) / beta)
}

/// Reduce the symmetric part `(A + Aᵀ)/2` of a square matrix to
/// tridiagonal form. Returns an error if `a` is not square.
pub fn tridiagonalize(a: &Matrix) -> Result<Tridiagonal, LinalgError> {
    let mut tri = Tridiagonal::empty();
    tri.reduce(a, &mut Vec::new())?;
    Ok(tri)
}

impl Tridiagonal {
    /// A reduction of the empty matrix, holding no allocation yet.
    pub(crate) fn empty() -> Self {
        Tridiagonal {
            d: Vec::new(),
            e: Vec::new(),
            reflectors: Matrix::zeros(0, 0),
            tau: Vec::new(),
        }
    }

    /// [`tridiagonalize`] into this value's buffers, with `w` as the
    /// work vector: each is first reset to what a fresh allocation held,
    /// and keeps the capacity it has.
    pub(crate) fn reduce(&mut self, a: &Matrix, w: &mut Vec<f64>) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "tridiagonalize",
                shape: a.shape(),
            });
        }
        let n = a.nrows();
        // The symmetrized copy is the working buffer the reduction overwrites.
        let work = &mut self.reflectors;
        work.set_from(a);
        work.symmetrize();
        for v in [&mut self.d, &mut self.e, &mut self.tau, &mut *w] {
            v.clear();
            v.resize(n, 0.0);
        }
        let (d, e, tau) = (&mut self.d, &mut self.e, &mut self.tau);

        for i in (1..n).rev() {
            // Column i starts where the leading block's storage ends.
            let (leading, rest) = work.as_mut_slice().split_at_mut(i * n);
            d[i] = rest[i];
            let v = &mut rest[..i];
            (e[i - 1], tau[i]) = make_reflector(v);
            let t = tau[i];
            if t == 0.0 {
                continue;
            }
            // w = p − ½·t·(pᵀv)·v with p = t·A₁₁·v, then A₁₁ −= v·wᵀ + w·vᵀ.
            let w = &mut w[..i];
            symv_upper(t, leading, n, v, w)?;
            axpy(-0.5 * t * dot(w, v), v, w);
            syr2_upper(-1.0, v, w, leading, n)?;
        }
        if n > 0 {
            d[0] = work[(0, 0)];
        }
        Ok(())
    }

    /// Form `Q = H_{n−1} ⋯ H_2 · H_1`, innermost factor first: `H_i` only
    /// touches rows `..i` of the columns `..i` of what has been accumulated
    /// so far, each a contiguous slice.
    pub fn q(&self) -> Matrix {
        let mut q = Matrix::zeros(0, 0);
        self.q_into(&mut q);
        q
    }

    /// [`q`](Self::q) into `q`'s allocation.
    pub(crate) fn q_into(&self, q: &mut Matrix) {
        let n = self.d.len();
        q.set_identity(n);
        for i in 1..n {
            let t = self.tau[i];
            if t == 0.0 {
                continue;
            }
            let v = &self.reflectors.col(i)[..i];
            for j in 0..i {
                let col = &mut q.col_mut(j)[..i];
                axpy(-t * dot(v, col), v, col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn};
    use crate::norms::fro_norm;

    /// The dense tridiagonal matrix `T` of a reduction.
    fn t_matrix(tri: &Tridiagonal) -> Matrix {
        let n = tri.d.len();
        let mut t = Matrix::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = tri.d[i];
            if i + 1 < n {
                t[(i + 1, i)] = tri.e[i];
                t[(i, i + 1)] = tri.e[i];
            }
        }
        t
    }

    fn sym_test_matrix(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            ((i * 31 + j * 17) % 13) as f64 * 0.1 + if i == j { 2.0 } else { 0.0 }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn q_is_orthogonal() {
        let a = sym_test_matrix(12);
        let q = tridiagonalize(&a).unwrap().q();
        let qtq = matmul_tn(&q, &q).unwrap();
        assert!(qtq.allclose(&Matrix::identity(12), 1e-12));
    }

    #[test]
    fn reconstruction_qtqt_equals_a() {
        let a = sym_test_matrix(10);
        let tri = tridiagonalize(&a).unwrap();
        let (q, t) = (tri.q(), t_matrix(&tri));
        let qt = matmul(&q, &t).unwrap();
        let back = matmul(&qt, &q.transpose()).unwrap();
        assert!(
            back.allclose(&a, 1e-11),
            "reconstruction error {}",
            fro_norm(&back.sub(&a).unwrap())
        );
    }

    #[test]
    fn already_tridiagonal_input() {
        let mut a = Matrix::zeros(5, 5);
        for i in 0..5 {
            a[(i, i)] = (i + 1) as f64;
            if i > 0 {
                a[(i, i - 1)] = 0.5;
                a[(i - 1, i)] = 0.5;
            }
        }
        let tri = tridiagonalize(&a).unwrap();
        let q = tri.q();
        let back = matmul(&matmul(&q, &t_matrix(&tri)).unwrap(), &q.transpose()).unwrap();
        assert!(back.allclose(&a, 1e-12));
    }

    #[test]
    fn diagonal_input_is_fixed_point() {
        let a = Matrix::from_diag(&[3.0, 1.0, -2.0]);
        let tri = tridiagonalize(&a).unwrap();
        assert!((tri.d[0] - 3.0).abs() < 1e-15);
        assert!((tri.d[1] - 1.0).abs() < 1e-15);
        assert!((tri.d[2] + 2.0).abs() < 1e-15);
        assert!(tri.e.iter().all(|&x| x.abs() < 1e-15));
    }

    #[test]
    fn one_by_one_and_empty() {
        let a = Matrix::from_diag(&[7.0]);
        let tri = tridiagonalize(&a).unwrap();
        assert_eq!(tri.d, vec![7.0]);
        let a0 = Matrix::zeros(0, 0);
        let tri0 = tridiagonalize(&a0).unwrap();
        assert!(tri0.d.is_empty());
    }

    #[test]
    fn two_by_two() {
        let a = Matrix::from_row_major(2, 2, &[2.0, 1.0, 1.0, 3.0]);
        let tri = tridiagonalize(&a).unwrap();
        let q = tri.q();
        let back = matmul(&matmul(&q, &t_matrix(&tri)).unwrap(), &q.transpose()).unwrap();
        assert!(back.allclose(&a, 1e-13));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            tridiagonalize(&a),
            Err(LinalgError::NotSquare {
                op: "tridiagonalize",
                ..
            })
        ));
    }
}
