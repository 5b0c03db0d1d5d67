//! The traced Padé run behind Figs. 12–13: the engine's own iteration
//! (`sm_linalg::sign::sign_iteration_in` at order 3, paper Eq. 19) in one
//! element type for a fixed window of steps, with FP64 diagnostics of every
//! iterate:
//!
//! * Fig. 12 — the band-structure energy of the density built from the
//!   iterate, read as a per-atom difference from the converged FP64 run;
//! * Fig. 13 — the involutority violation `‖X_k² − I‖_F`.
//!
//! The paper's headline observations: convergence after ~6–8 steps;
//! FP16/FP16' energies within a few meV/atom of FP64 but with a noise
//! floor that stops involutority from dropping further; GPU-FP32 and
//! FPGA-FP32 trajectories that differ only through summation order.

use sm_linalg::gemm::matmul;
use sm_linalg::norms::involutority_residual;
use sm_linalg::sign::{sign_iteration_in, SignElem, SignIterationOptions};
use sm_linalg::Matrix;

/// Per-step diagnostics of a traced run, step `k` at index `k − 1`.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Band energy `2·Tr(D_k A)` of each iterate's density (Fig. 12).
    pub energy: Vec<f64>,
    /// `‖X_k² − I‖_F` of each iterate, in FP64 (Fig. 13).
    pub involutority: Vec<f64>,
    /// The last iterate, widened to f64.
    pub sign: Matrix,
}

/// `steps` steps of Eq. 19 on `A − µI` in element type `T`.
///
/// The shift runs in f64 and the result is rounded to `T` once (the device
/// upload); the iteration's prescale, products and polynomial all round in
/// `T`. The diagnostics run in FP64 on each iterate, host-side as in the
/// paper. `f32` runs with single-precision sums (`wide_acc = false`), the
/// GPU's FP32.
pub fn pade3_trace<T: SignElem>(a: &Matrix, mu: f64, steps: usize) -> Trace {
    let mut shifted = a.clone();
    shifted.shift_diag(-mu);
    let (mut energy, mut involutority) = (Vec::new(), Vec::new());
    let window = SignIterationOptions {
        tol: -1.0,
        max_iter: steps,
    };
    let r = sign_iteration_in(shifted.cast::<T>(), 3, window, false, |_, x| {
        let x = x.cast::<f64>();
        involutority.push(involutority_residual(&matmul(&x, &x).expect("square")));
        energy.push(band_energy_of_sign(&x, a));
    })
    .expect("a finite square submatrix");
    Trace {
        energy,
        involutority,
        sign: r.sign.cast(),
    }
}

/// Band energy `2·Tr(D·A)` with `D = (I − X)/2` for a sign iterate `X`.
pub fn band_energy_of_sign(x: &Matrix, a: &Matrix) -> f64 {
    // Tr(D A) = ½(Tr A − Tr(X A)); Tr(X A) = Σ_ij X_ij A_ji.
    let n = a.nrows();
    let mut tr_xa = 0.0;
    for j in 0..n {
        for i in 0..n {
            tr_xa += x[(i, j)] * a[(j, i)];
        }
    }
    a.trace() - tr_xa
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_accel::{Fp16, Fp16Mixed, FpgaFp32};
    use sm_chem::energy::signed_error_mev_per_atom;

    /// Gapped symmetric test matrix standing in for a water submatrix.
    fn submatrix_like(n: usize) -> Matrix {
        // Strongly gapped relative to the spectral bound, like the
        // water submatrices the paper offloads (weak FP16 noise must not
        // be able to flip an eigenvalue across µ).
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 3 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                -0.02 / (1.0 + 0.3 * (i as f64 - j as f64).abs())
            }
        });
        a.symmetrize();
        a
    }

    fn floor(t: &Trace) -> f64 {
        t.involutority.iter().copied().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn fp64_converges_to_machine_precision() {
        let a = submatrix_like(30);
        let t = pade3_trace::<f64>(&a, 0.0, 20);
        assert_eq!(t.involutority.len(), 20);
        let last = *t.involutority.last().unwrap();
        assert!(last < 1e-9, "FP64 involutority {last}");
        // Matches the eigendecomposition sign.
        let s_ref = sm_linalg::sign::sign_eig(&a).unwrap();
        assert!(t.sign.allclose(&s_ref, 1e-7));
    }

    #[test]
    fn fp16_has_a_noise_floor() {
        let a = submatrix_like(24);
        let floor16 = floor(&pade3_trace::<Fp16>(&a, 0.0, 20));
        let floor64 = floor(&pade3_trace::<f64>(&a, 0.0, 20));
        assert!(
            floor16 > 1e3 * floor64.max(1e-300),
            "FP16 floor {floor16} should sit far above FP64 floor {floor64}"
        );
        // The paper's observation: FP16 noise never reaches involutority
        // below ~1e-2 at submatrix scale; allow a generous bound here.
        assert!(floor16 > 1e-5);
    }

    #[test]
    fn mixed_precision_beats_pure_fp16() {
        let a = submatrix_like(24);
        let f16 = floor(&pade3_trace::<Fp16>(&a, 0.0, 16));
        let f16m = floor(&pade3_trace::<Fp16Mixed>(&a, 0.0, 16));
        let f32 = floor(&pade3_trace::<f32>(&a, 0.0, 16));
        // Paper Fig. 13: the FP16 and FP16' floors nearly coincide — both
        // are limited by binary16 *storage* of the iterate; FP32 sits
        // orders of magnitude lower.
        assert!(
            f16m <= 3.0 * f16,
            "FP16' ({f16m}) should be comparable to FP16 ({f16})"
        );
        assert!(f32 < 1e-2 * f16m, "FP32 ({f32}) should beat FP16' ({f16m})");
    }

    #[test]
    fn energies_converge_within_mev_scale() {
        // Paper: reduced-precision energies land within ~5 meV/atom of the
        // converged FP64 result.
        let (a, n_atoms, steps) = (submatrix_like(30), 10, 18);
        let e_ref = *pade3_trace::<f64>(&a, 0.0, steps).energy.last().unwrap();
        for (label, t) in [
            ("FP16", pade3_trace::<Fp16>(&a, 0.0, steps)),
            ("FP16'", pade3_trace::<Fp16Mixed>(&a, 0.0, steps)),
            ("FP32", pade3_trace::<f32>(&a, 0.0, steps)),
            ("FPGA FP32", pade3_trace::<FpgaFp32>(&a, 0.0, steps)),
        ] {
            let e = *t.energy.last().unwrap();
            let last = signed_error_mev_per_atom(e, e_ref, n_atoms).abs();
            assert!(last < 100.0, "{label} final energy diff {last} meV/atom");
        }
    }

    #[test]
    fn gpu_and_fpga_fp32_trajectories_differ() {
        let a = submatrix_like(40);
        let gpu = pade3_trace::<f32>(&a, 0.0, 10);
        let fpga = pade3_trace::<FpgaFp32>(&a, 0.0, 10);
        assert_ne!(
            gpu.involutority, fpga.involutority,
            "different summation orders must produce different trajectories"
        );
        // But both still converge to the same sign function.
        assert!(gpu.sign.allclose(&fpga.sign, 1e-3));
    }

    #[test]
    fn band_energy_of_exact_sign_counts_negative_spectrum() {
        let a = Matrix::from_diag(&[-2.0, -1.0, 1.0, 3.0]);
        let x = Matrix::from_diag(&[-1.0, -1.0, 1.0, 1.0]);
        // E = 2·Σ_{λ<0} λ = -6.
        assert!((band_energy_of_sign(&x, &a) + 6.0).abs() < 1e-14);
    }

    #[test]
    fn mu_shift_respected() {
        let a = Matrix::from_diag(&[0.0, 1.0, 2.0, 3.0]);
        let t = pade3_trace::<f64>(&a, 1.5, 30);
        assert_eq!(t.energy.len(), 30);
        let expect = Matrix::from_diag(&[-1.0, -1.0, 1.0, 1.0]);
        assert!(t.sign.allclose(&expect, 1e-6));
    }
}
