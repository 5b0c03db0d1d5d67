//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Overlap matrices `S` built from well-conditioned basis sets are SPD;
//! Cholesky provides a cheap definiteness check and a solver used by the
//! chemistry substrate and by tests that validate `S^{-1/2}`.

use crate::matrix::Matrix;
use crate::LinalgError;

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

/// Factor a symmetric positive-definite matrix. Only the lower triangle of
/// `a` is referenced. Fails with [`LinalgError::Singular`] if a
/// non-positive pivot is met (matrix not positive definite).
pub fn cholesky(a: &Matrix) -> Result<Cholesky, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "cholesky",
            shape: a.shape(),
        });
    }
    let n = a.nrows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        // Diagonal element.
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::Singular {
                op: "cholesky",
                index: j,
            });
        }
        let dj = d.sqrt();
        l[(j, j)] = dj;
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / dj;
        }
    }
    Ok(Cholesky { l })
}

impl Cholesky {
    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward and back substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.l.nrows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        // L^T x = y
        let mut x = y;
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        Ok(x)
    }
}

/// True if `a` is symmetric positive definite (within Cholesky's tolerance).
pub fn is_spd(a: &Matrix) -> bool {
    a.is_square() && a.asymmetry() < 1e-10 && cholesky(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_nt;

    fn spd_matrix(n: usize) -> Matrix {
        // B B^T + n*I is SPD.
        let b = Matrix::from_fn(n, n, |i, j| ((i * 7 + j * 3) % 5) as f64 * 0.2);
        let mut a = matmul_nt(&b, &b).unwrap();
        a.shift_diag(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd_matrix(8);
        let ch = cholesky(&a).unwrap();
        let back = matmul_nt(ch.l(), ch.l()).unwrap();
        assert!(back.allclose(&a, 1e-11));
    }

    #[test]
    fn l_is_lower_triangular() {
        let a = spd_matrix(6);
        let ch = cholesky(&a).unwrap();
        for j in 0..6 {
            for i in 0..j {
                assert_eq!(ch.l()[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd_matrix(10);
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64) - 4.5).collect();
        let x_col = Matrix::from_col_major(10, 1, x_true.clone());
        let b = crate::gemm::matmul(&a, &x_col).unwrap().into_vec();
        let x = cholesky(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_diag(&[1.0, -1.0]);
        assert!(matches!(
            cholesky(&a),
            Err(LinalgError::Singular {
                op: "cholesky",
                index: 1
            })
        ));
    }

    #[test]
    fn is_spd_checks() {
        assert!(is_spd(&spd_matrix(5)));
        assert!(!is_spd(&Matrix::from_diag(&[1.0, 0.0])));
        assert!(!is_spd(&Matrix::zeros(2, 3)));
        // asymmetric
        let m = Matrix::from_row_major(2, 2, &[1.0, 0.5, 0.0, 1.0]);
        assert!(!is_spd(&m));
    }

    #[test]
    fn solve_wrong_length_errors() {
        let a = spd_matrix(4);
        let ch = cholesky(&a).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }
}
