//! Householder reduction of a real symmetric matrix to tridiagonal form.
//!
//! This is the first stage of the eigensolver ([`crate::eigh`], on the
//! path of LAPACK's `dsyev`) used to evaluate `sign(A) = Q sign(Λ) Q^T` on
//! dense submatrices (paper Eq. 17). The algorithm is LAPACK's unblocked
//! reduction (`dsytd2`, `uplo = 'U'`) on the column-major [`Matrix`]: the
//! reflector of step `i` is generated from the contiguous part `A[..i, i]`
//! of column `i` above the diagonal and stays there. Each step needs the
//! product `p = τ·A₁₁·v` with the leading block and then the rank-2 update
//! `A₁₁ −= v·wᵀ + w·vᵀ` (4/3 n³ flops in all). Step `i`'s update is owed
//! until step `i − 1` has its reflector: it goes to column `i − 1` first,
//! then one pass over the columns `..i − 1` applies it and feeds each
//! updated column into step `i − 1`'s product right away ([`crate::blas2`],
//! the "BLAS 2.5" fusion). Every element sees the operations of a product
//! pass followed by an update pass in their order, so `d`, `e`, `tau`, the
//! reflectors and every eigenpair have the two-pass reduction's bits; the
//! leading block is read and written once per step instead of read twice.
//! On one core of the AVX-512 Xeon the benchmark runs on (medians of 21
//! interleaved rounds, `--release`, 4/3·n³ flops, three runs), the
//! reduction runs at 8.7–13.0 GFLOP/s at n = 77 and 13.5–16.0 at n = 512,
//! where the two passes ran at 4.1–6.2 and 4.9–6.9: 2.0–2.1× and
//! 2.3–2.7×, or 0.14–0.17 and 0.18–0.27 of the `f64` microkernel's peak
//! (50–82 GFLOP/s as the host's load moved). Its working copy is only the
//! upper triangle of `(A + Aᵀ)/2`, formed from `a` directly; below the
//! diagonal it holds `a`'s entries, which nothing reads.
//!
//! Working from the last column up leaves a matrix graded towards small
//! entries with its small end at the top of `T`, which is the end the QL
//! sweep of [`crate::eigh`] deflates from. The orthogonal factor is not
//! accumulated along the way: [`Tridiagonal::q`] forms it afterwards by
//! applying the reflectors to contiguous columns (`dorg2l`-style, another
//! 4/3 n³), and only a caller that wants eigenvectors pays for it.
//! [`crate::eigh`] runs both in its per-thread scratch: it keeps one
//! [`Tridiagonal`] and one basis per thread, which each reduction resets to
//! what a fresh allocation held before it writes.

use crate::blas1::{axpy, dot, scal};
use crate::blas2::{rank2_column, SweepKernel};
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
    /// work vectors: each is first reset to what a fresh allocation held,
    /// and keeps the capacity it has.
    pub(crate) fn reduce(&mut self, a: &Matrix, w: &mut Vec<f64>) -> Result<(), LinalgError> {
        self.reduce_with(a, w, crate::gemm::sweep_kernel())
    }

    /// [`reduce`](Self::reduce) with its sweeps run by `kernel`.
    fn reduce_with(
        &mut self,
        a: &Matrix,
        w: &mut Vec<f64>,
        kernel: SweepKernel,
    ) -> Result<(), LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare {
                op: "tridiagonalize",
                shape: a.shape(),
            });
        }
        let n = a.nrows();
        // The upper triangle of (A + Aᵀ)/2 is the working copy the reduction
        // overwrites; below the diagonal `work` keeps `a`'s entries, which
        // nothing reads.
        let work = &mut self.reflectors;
        work.set_from(a);
        let (a, upper) = (a.as_slice(), work.as_mut_slice());
        for j in 0..n {
            for i in 0..j {
                upper[i + j * n] = 0.5 * (a[i + j * n] + a[j + i * n]);
            }
        }
        for v in [&mut self.d, &mut self.e, &mut self.tau] {
            v.clear();
            v.resize(n, 0.0);
        }
        w.clear();
        w.resize(2 * n, 0.0);
        let (d, e, tau) = (&mut self.d, &mut self.e, &mut self.tau);
        // Step i + 1's `w`, still owed to the leading block with its
        // reflector, and the half step i writes its own `w` into.
        let (mut w_owed, mut w_next) = w.split_at_mut(n);
        let mut owed = false;

        for i in (1..n).rev() {
            // Columns ..=i, then column i + 1 and its reflector.
            let (left, right) = work.as_mut_slice().split_at_mut((i + 1) * n);
            let update = owed.then(|| (&right[..=i], &w_owed[..=i]));
            // Column i starts where the leading block's storage ends.
            let (leading, col) = left.split_at_mut(i * n);
            if let Some(update) = update {
                rank2_column(&mut col[..=i], 0..i + 1, update);
            }
            d[i] = col[i];
            let v = &mut col[..i];
            (e[i - 1], tau[i]) = make_reflector(v);
            let t = tau[i];
            // Step i + 1's update of columns ..i, and in the same pass
            // A₁₁·v on the updated block, into w.
            let w = &mut w_next[..i];
            let update = update.map(|(u, w)| (&u[..i], &w[..i]));
            let symv = (t != 0.0).then_some((&*v, &mut *w));
            kernel(leading, n, update, symv);
            owed = t != 0.0;
            if owed {
                // p = t·A₁₁·v, w = p − ½·t·(pᵀv)·v; A₁₁ −= v·wᵀ + w·vᵀ is owed.
                scal(t, w);
                axpy(-0.5 * t * dot(w, v), v, w);
                std::mem::swap(&mut w_owed, &mut w_next);
            }
        }
        if n > 0 {
            if owed {
                let (first, rest) = work.as_mut_slice().split_at_mut(n);
                rank2_column(&mut first[..1], 0..1, (&rest[..1], &w_owed[..1]));
            }
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
    use crate::blas2::tests::{symv_upper, syr2_upper};
    use crate::eigh::{eigh, eigvalsh, ql_implicit};
    use crate::gemm::{matmul, matmul_tn};
    use crate::norms::fro_norm;
    use std::time::Instant;

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

    /// The reduction as it ran before its two passes were fused: one
    /// `symv_upper` and one `syr2_upper` over the leading block per step.
    fn reduce_in_two_passes(tri: &mut Tridiagonal, a: &Matrix, w: &mut Vec<f64>) {
        let n = a.nrows();
        let work = &mut tri.reflectors;
        work.set_from(a);
        work.symmetrize();
        for v in [&mut tri.d, &mut tri.e, &mut tri.tau, &mut *w] {
            v.clear();
            v.resize(n, 0.0);
        }
        let (d, e, tau) = (&mut tri.d, &mut tri.e, &mut tri.tau);
        for i in (1..n).rev() {
            let (leading, rest) = work.as_mut_slice().split_at_mut(i * n);
            d[i] = rest[i];
            let v = &mut rest[..i];
            (e[i - 1], tau[i]) = make_reflector(v);
            let t = tau[i];
            if t == 0.0 {
                continue;
            }
            let w = &mut w[..i];
            symv_upper(t, leading, n, v, w).unwrap();
            axpy(-0.5 * t * dot(w, v), v, w);
            syr2_upper(-1.0, v, w, leading, n).unwrap();
        }
        if n > 0 {
            d[0] = work[(0, 0)];
        }
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Everything a reduction leaves, bit for bit: `d`, `e`, `tau`, and the
    /// upper triangle of its working copy, the reflectors among it (below
    /// the diagonal it is scratch).
    fn reduction_bits(tri: &Tridiagonal) -> [Vec<u64>; 4] {
        let Tridiagonal {
            d,
            e,
            reflectors,
            tau,
        } = tri;
        let upper: Vec<f64> = (0..d.len())
            .flat_map(|j| reflectors.col(j)[..=j].to_vec())
            .collect();
        [bits(d), bits(e), bits(tau), bits(&upper)]
    }

    /// `eigh`'s and `eigvalsh`'s output from a finished reduction: the
    /// basis formed and rotated, then sorted as `eigh` sorts it.
    fn spectrum_bits(mut tri: Tridiagonal) -> Result<[Vec<u64>; 3], LinalgError> {
        let mut z = Matrix::zeros(0, 0);
        tri.q_into(&mut z);
        let (mut d, mut e) = (tri.d.clone(), tri.e.clone());
        ql_implicit(&mut tri.d, &mut tri.e, Some(&mut z), None)?;
        ql_implicit(&mut d, &mut e, None, None)?;
        let n = d.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&i, &j| tri.d[i].total_cmp(&tri.d[j]).then(i.cmp(&j)));
        let values: Vec<f64> = order.iter().map(|&i| tri.d[i]).collect();
        let vectors: Vec<f64> = order.iter().flat_map(|&i| z.col(i).to_vec()).collect();
        d.sort_unstable_by(f64::total_cmp);
        Ok([bits(&values), bits(&vectors), bits(&d)])
    }

    /// The six inputs of the bit-identity test: random; graded over sixteen
    /// decades; clustered at 1; block-diagonal with 1 × 1 blocks among the
    /// larger ones (steps with `tau = 0`, several in a row); scaled by
    /// 1e150 and by 1e−150 (`make_reflector`'s rescaling); and a third of
    /// the entries +0 or −0.
    fn bit_case(kind: usize, n: usize) -> Matrix {
        let r = |i: usize, j: usize| {
            let h = (i.min(j) * 7919 + i.max(j) * 104_729 + n * 31) % 1009;
            h as f64 / 1009.0 - 0.5
        };
        let sizes = [1, 1, 3, 1, 1, 1, 4, 2];
        let block = |i: usize| {
            let (mut start, mut k) = (0, 0);
            while start + sizes[k % sizes.len()] <= i {
                start += sizes[k % sizes.len()];
                k += 1;
            }
            start
        };
        let scale = |k: usize| 10f64.powf(-8.0 * k as f64 / n.max(1) as f64);
        Matrix::from_fn(n, n, |i, j| match kind {
            0 => r(i, j),
            1 => r(i, j) * scale(i) * scale(j),
            2 => f64::from(u8::from(i == j)) + 1e-9 * r(i, j),
            3 if block(i) == block(j) => r(i, j),
            3 => 0.0,
            4 => r(i, j) * 1e150,
            5 => r(i, j) * 1e-150,
            _ => match (i * 3 + j * 5) % 9 {
                0..=2 => 0.0,
                3 | 4 => -0.0,
                _ => r(i, j),
            },
        })
    }

    /// Median seconds per call of each variant of a reduction, over
    /// `rounds` rounds that run every variant `reps` times in turn.
    fn interleaved(rounds: usize, reps: usize, variants: &mut [&mut dyn FnMut()]) -> Vec<f64> {
        let mut times = vec![Vec::new(); variants.len()];
        for _ in 0..rounds {
            for (run, t) in variants.iter_mut().zip(&mut times) {
                let start = Instant::now();
                for _ in 0..reps {
                    run();
                }
                t.push(start.elapsed().as_secs_f64() / reps as f64);
            }
        }
        times
            .into_iter()
            .map(|mut t| {
                t.sort_by(f64::total_cmp);
                t[t.len() / 2]
            })
            .collect()
    }

    /// The fused reduction with every sweep kernel this CPU runs against
    /// the two-pass reduction it replaced, on every dimension up to 40 and
    /// at 64, 77, 96, 128 and 512: `d`, `e`, `tau` and the reflector
    /// storage bit for bit, then `eigh`'s eigenvalues and eigenvectors and
    /// `eigvalsh`'s eigenvalues against the same decomposition of the
    /// two-pass reduction. Prints both reductions' speed at n = 77 and 512.
    #[test]
    fn fused_reduction_keeps_the_two_passes_bits() {
        let kernels: Vec<SweepKernel> = crate::gemm::sweep_kernels().collect();
        println!(
            "sweep kernels compared: {} (the portable one included)",
            kernels.len()
        );
        let (mut tri, mut w) = (Tridiagonal::empty(), Vec::new());
        let (mut oracle, mut oracle_w) = (Tridiagonal::empty(), Vec::new());
        for n in (0..=40).chain([64, 77, 96, 128, 512]) {
            for kind in 0..7 {
                let a = bit_case(kind, n);
                reduce_in_two_passes(&mut oracle, &a, &mut oracle_w);
                let want = reduction_bits(&oracle);
                for (k, &kernel) in kernels.iter().enumerate() {
                    tri.reduce_with(&a, &mut w, kernel).unwrap();
                    let got = reduction_bits(&tri);
                    assert!(got == want, "n {n}, input {kind}, kernel {k}");
                }
                let spectrum = spectrum_bits(oracle.clone());
                let got = eigh(&a).map(|r| [r.eigenvalues, r.eigenvectors.into_vec()]);
                match (spectrum, got, eigvalsh(&a)) {
                    (Ok([values, vectors, only]), Ok([v, z]), Ok(o)) => {
                        assert!(values == bits(&v), "n {n}, input {kind}: eigenvalues");
                        assert!(vectors == bits(&z), "n {n}, input {kind}: eigenvectors");
                        assert!(only == bits(&o), "n {n}, input {kind}: eigvalsh");
                    }
                    (Err(want), Err(got), Err(_)) => {
                        assert_eq!(want.to_string(), got.to_string(), "n {n}, input {kind}");
                    }
                    _ => panic!("n {n}, input {kind}: one of the two failed"),
                }
            }
        }
        // Speed: medians of interleaved rounds, in the test profile's build
        // (`--release` reads faster).
        let peak = crate::gemm::f64_microkernel_peak_gflops();
        println!(
            "f64 microkernel ({}) peak: {peak:.1} GFLOP/s",
            crate::gemm::f64_microkernel()
        );
        for (n, reps) in [(77, 200), (512, 2)] {
            let a = bit_case(0, n);
            let mut two_passes = || reduce_in_two_passes(&mut oracle, &a, &mut oracle_w);
            let mut fused = || tri.reduce(&a, &mut w).unwrap();
            let t = interleaved(21, reps, &mut [&mut two_passes, &mut fused]);
            let flops = 4.0 / 3.0 * (n as f64).powi(3);
            for (name, t) in ["two passes", "fused"].into_iter().zip(&t) {
                let gflops = flops / t / 1e9;
                println!(
                    "n = {n:3} {name:>10}: {:9.1} µs, {gflops:5.2} GFLOP/s, {:.3} of peak",
                    t * 1e6,
                    gflops / peak
                );
            }
            println!("n = {n:3} fused / two passes rate: {:.2}", t[0] / t[1]);
        }
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
