//! BLAS level-2 style matrix-vector kernels.
//!
//! [`symv_upper`] and [`syr2_upper`] are the two O(n²) passes of every
//! Householder step in [`crate::tridiag`]; both walk the upper triangle
//! column by column, so every inner loop runs over contiguous memory in
//! the column-major layout. They take the storage as a slice with a
//! leading dimension so the leading block of a larger matrix needs no copy.

use crate::matrix::Matrix;
use crate::LinalgError;

/// `y = alpha * A * x + beta * y`.
///
/// Walks the matrix column by column so memory access is contiguous in the
/// column-major layout.
pub fn gemv(
    alpha: f64,
    a: &Matrix,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) -> Result<(), LinalgError> {
    if a.ncols() != x.len() || a.nrows() != y.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "gemv",
            lhs: a.shape(),
            rhs: (x.len(), 1),
        });
    }
    if beta != 1.0 {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    for (j, &xj) in x.iter().enumerate() {
        let s = alpha * xj;
        if s != 0.0 {
            crate::blas1::axpy(s, a.col(j), y);
        }
    }
    Ok(())
}

/// Shape check shared by the two triangle kernels: vectors of one length
/// `m`, and storage that holds the leading `m × m` block at `lda`.
fn check_leading_block(
    op: &'static str,
    a_len: usize,
    lda: usize,
    m: usize,
    other: usize,
) -> Result<(), LinalgError> {
    let fits = m == 0 || (lda >= m && a_len >= (m - 1) * lda + m);
    if other == m && fits {
        Ok(())
    } else {
        Err(LinalgError::DimensionMismatch {
            op,
            lhs: (lda, a_len / lda.max(1)),
            rhs: (m, other),
        })
    }
}

/// `y = alpha * A * x` for the symmetric leading `m × m` block
/// (`m = x.len()`) of column-major storage `a` with leading dimension
/// `lda`. Only the upper triangle is read.
///
/// One pass over each column above the diagonal serves both triangles:
/// the same contiguous slice feeds the dot product that completes `y[j]`
/// and the axpy into `y[..j]`. The dot runs on four accumulators in a
/// fixed order, so the result is a deterministic function of the input.
pub fn symv_upper(
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    y: &mut [f64],
) -> Result<(), LinalgError> {
    let m = x.len();
    check_leading_block("symv_upper", a.len(), lda, m, y.len())?;
    for j in 0..m {
        let (col, xj) = (&a[j * lda..j * lda + j], x[j]);
        let mut acc = [0.0f64; 4];
        let mut cols = col.chunks_exact(4);
        let mut xs = x[..j].chunks_exact(4);
        let mut ys = y[..j].chunks_exact_mut(4);
        for ((c, xk), yk) in (&mut cols).zip(&mut xs).zip(&mut ys) {
            for l in 0..4 {
                yk[l] += xj * c[l];
                acc[l] += c[l] * xk[l];
            }
        }
        let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for ((&c, &xk), yk) in cols
            .remainder()
            .iter()
            .zip(xs.remainder())
            .zip(ys.into_remainder())
        {
            *yk += xj * c;
            dot += c * xk;
        }
        // First write of `y[j]`; later columns add to it.
        y[j] = a[j * lda + j] * xj + dot;
    }
    for v in y.iter_mut() {
        *v *= alpha;
    }
    Ok(())
}

/// Symmetric rank-2 update `A += alpha * (x yᵀ + y xᵀ)` of the upper
/// triangle of the leading `m × m` block (`m = x.len()`) of column-major
/// storage `a` with leading dimension `lda`. Everything below the diagonal
/// is left untouched.
pub fn syr2_upper(
    alpha: f64,
    x: &[f64],
    y: &[f64],
    a: &mut [f64],
    lda: usize,
) -> Result<(), LinalgError> {
    let m = x.len();
    check_leading_block("syr2_upper", a.len(), lda, m, y.len())?;
    for j in 0..m {
        let (ax, ay) = (alpha * x[j], alpha * y[j]);
        let col = &mut a[j * lda..=j * lda + j];
        for ((c, &xk), &yk) in col.iter_mut().zip(x).zip(y) {
            *c += xk * ay + yk * ax;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_naive;

    #[test]
    fn gemv_identity() {
        let a = Matrix::identity(3);
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        gemv(1.0, &a, &x, 0.0, &mut y).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn gemv_general() {
        let a = Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let x = [1.0, 1.0, 1.0];
        let mut y = [10.0, 10.0];
        // y = 2*A*x + 1*y = 2*[6,15] + [10,10]
        gemv(2.0, &a, &x, 1.0, &mut y).unwrap();
        assert_eq!(y, [22.0, 40.0]);
    }

    #[test]
    fn gemv_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let x = [0.0; 2];
        let mut y = [0.0; 2];
        assert!(gemv(1.0, &a, &x, 0.0, &mut y).is_err());
    }

    /// A symmetric matrix and a copy whose strict lower triangle is
    /// poisoned, so a kernel that reads it cannot pass.
    fn upper_only(n: usize) -> (Matrix, Matrix) {
        let mut full = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 13) % 11) as f64 * 0.25 - 1.0);
        full.symmetrize();
        let upper = Matrix::from_fn(n, n, |i, j| if i > j { f64::NAN } else { full[(i, j)] });
        (full, upper)
    }

    fn column(x: &[f64]) -> Matrix {
        Matrix::from_col_major(x.len(), 1, x.to_vec())
    }

    /// Every leading block 0..=n, so the unrolled body and each remainder
    /// length run.
    #[test]
    fn symv_upper_matches_naive_on_leading_blocks() {
        let n = 13;
        let (full, upper) = upper_only(n);
        for m in 0..=n {
            let idx: Vec<usize> = (0..m).collect();
            let x: Vec<f64> = (0..m).map(|k| 0.5 - k as f64 * 0.125).collect();
            let expect = matmul_naive(&full.principal_submatrix(&idx), &column(&x)).unwrap();
            let mut y = vec![f64::NAN; m];
            symv_upper(-0.75, upper.as_slice(), n, &x, &mut y).unwrap();
            for (k, &yk) in y.iter().enumerate() {
                assert!(
                    (yk + 0.75 * expect[(k, 0)]).abs() < 1e-13,
                    "block {m}, row {k}"
                );
            }
        }
    }

    #[test]
    fn syr2_upper_matches_naive_and_spares_the_rest() {
        let n = 9;
        let (full, upper) = upper_only(n);
        for m in [0, 1, 5, 8, 9] {
            let x: Vec<f64> = (0..m).map(|k| 1.0 + k as f64 * 0.5).collect();
            let y: Vec<f64> = (0..m).map(|k| 0.25 - k as f64).collect();
            let xy = matmul_naive(&column(&x), &column(&y).transpose()).unwrap();
            let mut got = upper.clone();
            syr2_upper(-1.0, &x, &y, got.as_mut_slice(), n).unwrap();
            for j in 0..n {
                for i in 0..n {
                    let g = got[(i, j)];
                    if i > j {
                        assert!(g.is_nan(), "lower ({i},{j}) written");
                    } else if j >= m {
                        assert_eq!(g, full[(i, j)], "({i},{j}) outside the block");
                    } else {
                        let want = full[(i, j)] - xy[(i, j)] - xy[(j, i)];
                        assert!((g - want).abs() < 1e-13, "({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn triangle_kernels_reject_mismatched_shapes() {
        let mut a = [0.0; 9];
        let mut y = [0.0; 2];
        // Vectors of different lengths.
        assert!(symv_upper(1.0, &a, 3, &[0.0; 3], &mut y).is_err());
        assert!(syr2_upper(1.0, &[0.0; 3], &y, &mut a, 3).is_err());
        // Storage too short for the block, and a leading dimension below it.
        assert!(symv_upper(1.0, &a[..7], 3, &[0.0; 3], &mut [0.0; 3]).is_err());
        assert!(syr2_upper(1.0, &[0.0; 3], &[0.0; 3], &mut a, 2).is_err());
    }
}
