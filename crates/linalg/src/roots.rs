//! Matrix roots and inverse roots.
//!
//! Löwdin symmetric orthogonalization (paper Sec. IV-F) needs `S^{-1/2}`;
//! the submatrix method was originally published for inverse p-th roots
//! (paper ref. \[8\]), so the general operation is provided as well. Two
//! routes: exact via eigendecomposition, and the coupled Newton–Schulz
//! iteration that CP2K uses on sparse matrices.

use crate::eigh::eigh;
use crate::gemm::matmul;
use crate::matrix::Matrix;
use crate::norms::{fro_norm, spectral_bound};
use crate::LinalgError;

/// `A^{-1/2}` of a symmetric positive-definite matrix via
/// eigendecomposition. Fails if an eigenvalue is not strictly positive.
pub fn inv_sqrt_eig(a: &Matrix) -> Result<Matrix, LinalgError> {
    let dec = eigh(a)?;
    if let Some((idx, _)) = dec.eigenvalues.iter().enumerate().find(|(_, &l)| l <= 0.0) {
        return Err(LinalgError::Singular {
            op: "inv_sqrt_eig",
            index: idx,
        });
    }
    Ok(dec.apply(|l| 1.0 / l.sqrt()))
}

/// `A^{-1/p}` of a symmetric positive-definite matrix via
/// eigendecomposition (the operation of the original submatrix-method
/// paper, ref. \[8\]).
pub fn inv_pth_root_eig(a: &Matrix, p: u32) -> Result<Matrix, LinalgError> {
    assert!(p >= 1, "inv_pth_root_eig: p must be >= 1");
    let dec = eigh(a)?;
    if let Some((idx, _)) = dec.eigenvalues.iter().enumerate().find(|(_, &l)| l <= 0.0) {
        return Err(LinalgError::Singular {
            op: "inv_pth_root_eig",
            index: idx,
        });
    }
    let exp = -1.0 / p as f64;
    Ok(dec.apply(|l| l.powf(exp)))
}

/// Result of the coupled Newton–Schulz inverse-square-root iteration.
#[derive(Debug, Clone)]
pub struct InvSqrtResult {
    /// Approximation of `A^{-1/2}`.
    pub inv_sqrt: Matrix,
    /// Approximation of `A^{1/2}` (the coupled iterate, free of charge).
    pub sqrt: Matrix,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the residual tolerance was met.
    pub converged: bool,
}

/// Coupled Newton–Schulz iteration for `A^{-1/2}` (Denman–Beavers in its
/// stable product form):
///
/// ```text
/// Y₀ = A/s,  Z₀ = I
/// T  = (3I − Zₖ Yₖ)/2
/// Yₖ₊₁ = Yₖ T,   Zₖ₊₁ = T Zₖ
/// Y → (A/s)^{1/2},  Z → (A/s)^{-1/2}
/// ```
///
/// The scaling `s = spectral_bound(A)` keeps `‖I − A/s‖ < 1` for SPD input
/// so the quadratically convergent region is entered immediately. This is
/// the sparse-friendly route CP2K uses for Löwdin orthogonalization.
pub fn newton_schulz_inv_sqrt(
    a: &Matrix,
    tol: f64,
    max_iter: usize,
) -> Result<InvSqrtResult, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "newton_schulz_inv_sqrt",
            shape: a.shape(),
        });
    }
    let n = a.nrows();
    let s = spectral_bound(a).max(f64::MIN_POSITIVE);
    let mut y = a.scaled(1.0 / s);
    let mut z = Matrix::identity(n);
    let sqrt_n = (n.max(1) as f64).sqrt();

    let mut converged = false;
    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // T = (3I − Z Y)/2
        let mut t = matmul(&z, &y)?;
        t.scale(-0.5);
        t.shift_diag(1.5);
        y = matmul(&y, &t)?;
        z = matmul(&t, &z)?;

        // Convergence: ‖Z Y − I‖_F / √n (Y Z = I at the fixed point).
        let mut res = matmul(&z, &y)?;
        res.shift_diag(-1.0);
        if fro_norm(&res) / sqrt_n <= tol {
            converged = true;
            break;
        }
    }

    // Undo the scaling: A^{1/2} = √s · Y, A^{-1/2} = Z / √s.
    let rs = s.sqrt();
    y.scale(rs);
    z.scale(1.0 / rs);
    Ok(InvSqrtResult {
        inv_sqrt: z,
        sqrt: y,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::matmul_nt;

    fn spd_matrix(n: usize) -> Matrix {
        let b = Matrix::from_fn(n, n, |i, j| ((i * 5 + j * 11) % 7) as f64 * 0.15);
        let mut a = matmul_nt(&b, &b).unwrap();
        a.shift_diag(1.0 + n as f64 * 0.1);
        a
    }

    #[test]
    fn sqrt_squares_back() {
        // The coupled Newton–Schulz iterate's square root, squared.
        let a = spd_matrix(10);
        let r = newton_schulz_inv_sqrt(&a, 1e-12, 100).unwrap().sqrt;
        let back = matmul(&r, &r).unwrap();
        assert!(back.allclose(&a, 1e-10));
    }

    #[test]
    fn inv_sqrt_whitens() {
        let a = spd_matrix(8);
        let w = inv_sqrt_eig(&a).unwrap();
        // W A W = I (Löwdin orthogonalization property).
        let waw = matmul(&matmul(&w, &a).unwrap(), &w).unwrap();
        assert!(waw.allclose(&Matrix::identity(8), 1e-10));
    }

    #[test]
    fn inv_sqrt_rejects_indefinite() {
        let a = Matrix::from_diag(&[1.0, -1.0]);
        assert!(matches!(
            inv_sqrt_eig(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn inv_pth_root_identities() {
        let a = spd_matrix(6);
        // p = 1: plain inverse.
        let r1 = inv_pth_root_eig(&a, 1).unwrap();
        let prod = matmul(&r1, &a).unwrap();
        assert!(prod.allclose(&Matrix::identity(6), 1e-9));
        // p = 2: matches inv_sqrt.
        let r2 = inv_pth_root_eig(&a, 2).unwrap();
        assert!(r2.allclose(&inv_sqrt_eig(&a).unwrap(), 1e-10));
        // p = 4: (A^{-1/4})^4 A = I.
        let r4 = inv_pth_root_eig(&a, 4).unwrap();
        let r4_2 = matmul(&r4, &r4).unwrap();
        let r4_4 = matmul(&r4_2, &r4_2).unwrap();
        let p4 = matmul(&r4_4, &a).unwrap();
        assert!(p4.allclose(&Matrix::identity(6), 1e-8));
    }

    #[test]
    fn newton_schulz_matches_eig_route() {
        let a = spd_matrix(12);
        let exact = inv_sqrt_eig(&a).unwrap();
        let ns = newton_schulz_inv_sqrt(&a, 1e-12, 100).unwrap();
        assert!(ns.converged, "NS inverse sqrt did not converge");
        assert!(
            ns.inv_sqrt.allclose(&exact, 1e-8),
            "max diff {}",
            ns.inv_sqrt.max_abs_diff(&exact)
        );
        // The coupled iterate approximates A^{1/2} = A·A^{-1/2}.
        assert!(ns.sqrt.allclose(&matmul(&a, &exact).unwrap(), 1e-8));
    }

    #[test]
    fn newton_schulz_on_identity_converges_immediately() {
        let a = Matrix::identity(5);
        let ns = newton_schulz_inv_sqrt(&a, 1e-14, 10).unwrap();
        assert!(ns.converged);
        assert!(ns.inv_sqrt.allclose(&Matrix::identity(5), 1e-10));
    }

    #[test]
    fn newton_schulz_budget_exhaustion_reports_not_converged() {
        let a = spd_matrix(6);
        let ns = newton_schulz_inv_sqrt(&a, 0.0, 2).unwrap();
        assert!(!ns.converged);
        assert_eq!(ns.iterations, 2);
    }

    #[test]
    fn non_square_rejected() {
        assert!(newton_schulz_inv_sqrt(&Matrix::zeros(2, 3), 1e-10, 5).is_err());
    }
}
