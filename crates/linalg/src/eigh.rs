//! Symmetric eigensolver on the path of LAPACK's `dsyev`: a `dsytd2`
//! reduction, the `dorg2l` basis and implicit-shift QL. The paper calls
//! `dsyevd`, whose divide and conquer this crate does not have.
//!
//! Stage 1 ([`crate::tridiag::tridiagonalize`]) reduces the matrix to
//! tridiagonal form by a `dsytd2`-style Householder reduction over the
//! contiguous columns of the upper triangle and, when eigenvectors are
//! wanted, forms `Q` from the stored reflectors afterwards; stage 2
//! diagonalizes the tridiagonal matrix with the implicit-shift QL
//! algorithm while rotating pairs of contiguous columns of that basis.
//! [`eigvalsh`] runs both stages without a basis.
//! The paper computes `sign`/Fermi purifications from exactly such a
//! decomposition (Sec. IV-F, Eq. 17) because dense diagonalization beats
//! iterative schemes on the small, nearly dense submatrices.
//!
//! Both stages run in a fixed order on one thread. From dimension
//! `ROTATION_KERNEL_MIN_N` (16) on, the sweep rotates its basis through the
//! widest rotation kernel `gemm.rs`'s run-time choice finds (AVX-512F,
//! AVX2 or portable); each computes every element as two products and one
//! sum, never a fused multiply-add, so the result is the same bits on
//! every CPU and with every kernel.
//!
//! Every buffer the two stages work in lives in a per-thread scratch:
//! stage 1's working copy and its `d`, `e`, `tau` and `w`, the Householder
//! basis the sweep rotates, the sort order, and [`function_columns`]'s
//! input, sorted decomposition, `f(λ)` and columns, beside
//! [`q_diag_qt_cols`](crate::gemm::q_diag_qt_cols)'s two temporaries. A
//! call takes the scratch out of its thread, resets each buffer it reads to
//! what a fresh allocation held (zeros, the identity), and puts it back, so
//! the bits never depend on what ran before. A thread keeps the capacity of
//! the largest `n` it has seen and frees it when it exits; [`eigh`]
//! allocates only the two outputs it returns, [`function_columns`] nothing
//! once its thread has seen `n` (from `n` = 17 on, the back-transform's
//! packed GEMM still allocates its pack buffer). A tiny submatrix
//! (dimension 4 to 10) otherwise paid as much in `malloc` and `free` as in
//! arithmetic.

use std::cell::Cell;

use crate::gemm::{rotate_portable, BackTransform, Rotation};
use crate::matrix::Matrix;
use crate::tridiag::{Tridiagonal, SAFE_SQUARES};
use crate::LinalgError;

/// Maximum QL sweeps per eigenvalue before giving up.
const MAX_QL_ITERS: usize = 50;

/// Dimension from which the QL sweep calls a rotation kernel. Below it the
/// rotation stays an inline loop, where the smallest submatrices
/// (`batch_tiny_w2`'s are 4 to 10) live. Against the inline loop, `eigh`
/// with the AVX-512F kernel took 3 to 7 % longer at n = 4 to 14, the same
/// at 16 and 1 % less at 20; with the AVX2 kernel 0 to 4 % longer at 4 to
/// 10, the same at 12 and 14, and 3 to 7 % less at 16 and 20 (medians of
/// 15 interleaved rounds).
const ROTATION_KERNEL_MIN_N: usize = 16;

/// Eigendecomposition `A = Q Λ Q^T` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct Eigh {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors; column `k` corresponds to
    /// `eigenvalues[k]`.
    pub eigenvectors: Matrix,
}

/// `sqrt(a² + b²)`: taken directly when the sum of squares is safely a
/// normal number, scaled by the larger operand otherwise so that it
/// neither underflows destructively nor overflows.
#[inline]
fn pythag(a: f64, b: f64) -> f64 {
    let sq = a * a + b * b;
    if SAFE_SQUARES.contains(&sq) {
        return sq.sqrt();
    }
    let (small, large) = if a.abs() < b.abs() {
        (a.abs(), b.abs())
    } else {
        (b.abs(), a.abs())
    };
    if large == 0.0 {
        0.0
    } else {
        large * (1.0 + (small / large).powi(2)).sqrt()
    }
}

/// Implicit-shift QL iteration on a symmetric tridiagonal matrix.
///
/// `d` holds the diagonal, `e[i]` the entry coupling `d[i]` and `d[i + 1]`
/// (the last entry is scratch), and `z` the `n × n` basis to rotate (the
/// Householder `Q` for eigenvectors of the original matrix, `None` for
/// eigenvalues only — `d` and `e` never read it), rotated by `rotation`,
/// or by the inline loop when that is `None`. On success `d` contains the
/// (unsorted) eigenvalues and the columns of `z` the corresponding
/// eigenvectors.
pub(crate) fn ql_implicit(
    d: &mut [f64],
    e: &mut [f64],
    mut z: Option<&mut Matrix>,
    rotation: Option<Rotation>,
) -> Result<(), LinalgError> {
    let n = d.len();
    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split the problem.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            if iter == MAX_QL_ITERS {
                return Err(LinalgError::NoConvergence {
                    op: "eigh",
                    iterations: iter,
                });
            }
            iter += 1;

            // Form the implicit shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = pythag(g, 1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let mut s = 1.0f64;
            let mut c = 1.0f64;
            let mut p = 0.0f64;

            let mut i = m;
            let mut underflow = false;
            while i > l {
                i -= 1;
                let f = s * e[i];
                let b = c * e[i];
                r = pythag(f, g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Recover from underflow: deflate and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Rotate the eigenvector basis (columns i and i+1 of z).
                if let Some(z) = z.as_deref_mut() {
                    let (lo, hi) = z.as_mut_slice().split_at_mut((i + 1) * n);
                    let (zi, zi1) = (&mut lo[i * n..], &mut hi[..n]);
                    match rotation {
                        Some(kernel) => kernel(c, s, zi, zi1),
                        None => rotate_portable(c, s, zi, zi1),
                    }
                }
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// The input checks every entry point shares: a non-square matrix and a
/// NaN or infinite entry are input faults, reported as such before any work
/// is done on them.
fn check_input(a: &Matrix, op: &'static str) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op,
            shape: a.shape(),
        });
    }
    a.require_finite(op)
}

/// What one decomposition works in: stage 1's reduction and its work
/// vector, the basis the QL sweep rotates, and the order that sorts it.
struct Buffers {
    tri: Tridiagonal,
    w: Vec<f64>,
    z: Matrix,
    order: Vec<usize>,
}

impl Buffers {
    /// Both stages on `a`: afterwards `tri.d` holds the eigenvalues and the
    /// columns of `z` the eigenvectors, both unsorted, and `order` the
    /// positions in ascending eigenvalue order.
    fn decompose(&mut self, a: &Matrix, rotation: Option<Rotation>) -> Result<(), LinalgError> {
        check_input(a, "eigh")?;
        self.tri.reduce(a, &mut self.w)?;
        self.tri.q_into(&mut self.z);
        let (d, e) = (&mut self.tri.d, &mut self.tri.e);
        ql_implicit(d, e, Some(&mut self.z), rotation)?;
        // A stable sort without the buffer `sort_by` allocates: ties keep
        // their index order.
        self.order.clear();
        self.order.extend(0..d.len());
        self.order
            .sort_unstable_by(|&i, &j| d[i].total_cmp(&d[j]).then(i.cmp(&j)));
        Ok(())
    }

    /// The eigenvalues ascending and their eigenvectors, into the given
    /// allocations.
    fn sorted_into(&self, eigenvalues: &mut Vec<f64>, eigenvectors: &mut Matrix) {
        let n = self.order.len();
        eigenvalues.clear();
        eigenvalues.extend(self.order.iter().map(|&i| self.tri.d[i]));
        eigenvectors.set_zeros(n, n);
        for (new_col, &old_col) in self.order.iter().enumerate() {
            eigenvectors
                .col_mut(new_col)
                .copy_from_slice(self.z.col(old_col));
        }
    }
}

/// A thread's scratch: the decomposition's buffers, and what
/// [`function_columns`] and [`crate::gemm::q_diag_qt_cols`] work in.
pub(crate) struct Scratch {
    dec: Buffers,
    input: Matrix,
    eigenvalues: Vec<f64>,
    eigenvectors: Matrix,
    f_values: Vec<f64>,
    pub(crate) back: BackTransform,
    columns: Matrix,
}

impl Scratch {
    fn new() -> Self {
        let empty = || Matrix::zeros(0, 0);
        Scratch {
            dec: Buffers {
                tri: Tridiagonal::empty(),
                w: Vec::new(),
                z: empty(),
                order: Vec::new(),
            },
            input: empty(),
            eigenvalues: Vec::new(),
            eigenvectors: empty(),
            f_values: Vec::new(),
            back: BackTransform::new(),
            columns: empty(),
        }
    }
}

thread_local! {
    static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) };
}

/// Run `f` on the calling thread's scratch, which is taken out for the call
/// and put back after it: a call nested inside `f`, or one made while the
/// thread's locals are being torn down, works on a fresh scratch instead,
/// so no two live calls share a buffer.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let kept = SCRATCH.try_with(Cell::take).ok().flatten();
    let mut scratch = kept.unwrap_or_else(Scratch::new);
    let result = f(&mut scratch);
    // During teardown there is nowhere to keep it; it is dropped here.
    let _ = SCRATCH.try_with(|cell| cell.set(Some(scratch)));
    result
}

/// Full symmetric eigendecomposition with eigenvalues sorted ascending.
///
/// Decomposes the symmetric part `(A + Aᵀ)/2` of `a`: both triangles are
/// read, and a symmetric `a` is decomposed as it is.
pub fn eigh(a: &Matrix) -> Result<Eigh, LinalgError> {
    let rotation = (a.nrows() >= ROTATION_KERNEL_MIN_N).then(crate::gemm::rotation);
    eigh_rotating(a, rotation)
}

/// [`eigh`] with the basis rotated by `rotation`, or by the inline loop.
fn eigh_rotating(a: &Matrix, rotation: Option<Rotation>) -> Result<Eigh, LinalgError> {
    with_scratch(|s| {
        s.dec.decompose(a, rotation)?;
        let (mut eigenvalues, mut eigenvectors) = (Vec::new(), Matrix::zeros(0, 0));
        s.dec.sorted_into(&mut eigenvalues, &mut eigenvectors);
        Ok(Eigh {
            eigenvalues,
            eigenvectors,
        })
    })
}

/// Columns `cols` of `f(A) = Q · diag(f(λ)) · Qᵀ`, in the order given, for
/// the `n × n` matrix `A` that `fill` writes into a zeroed buffer; `take`
/// gets them as an `n × cols.len()` matrix. The same bits as
/// [`q_diag_qt_cols`](crate::gemm::q_diag_qt_cols)`(&eigh(&a)?.eigenvectors,
/// &f(λ), cols)`, with every intermediate — `A`, the decomposition, `f(λ)`
/// and the columns — in the calling thread's scratch, so a thread that has
/// seen this `n` before allocates nothing up to `n` = 16 (see the module
/// docs). The submatrix method's
/// diagonalisation (paper Sec. IV-F) needs only the columns it scatters
/// (Sec. VII).
pub fn function_columns<R>(
    n: usize,
    fill: impl FnOnce(&mut Matrix),
    f: impl Fn(f64) -> f64,
    cols: &[usize],
    take: impl FnOnce(&mut Matrix) -> R,
) -> Result<R, LinalgError> {
    with_scratch(|s| {
        s.input.set_zeros(n, n);
        fill(&mut s.input);
        let rotation = (s.input.nrows() >= ROTATION_KERNEL_MIN_N).then(crate::gemm::rotation);
        s.dec.decompose(&s.input, rotation)?;
        s.dec.sorted_into(&mut s.eigenvalues, &mut s.eigenvectors);
        s.f_values.clear();
        s.f_values.extend(s.eigenvalues.iter().map(|&l| f(l)));
        s.back
            .run(&s.eigenvectors, &s.f_values, cols, &mut s.columns)?;
        Ok(take(&mut s.columns))
    })
}

/// Eigenvalues only, ascending: the same bits as [`eigh`]'s, without
/// forming or rotating a basis.
pub fn eigvalsh(a: &Matrix) -> Result<Vec<f64>, LinalgError> {
    check_input(a, "eigvalsh")?;
    with_scratch(|s| {
        let Buffers { tri, w, .. } = &mut s.dec;
        tri.reduce(a, w)?;
        ql_implicit(&mut tri.d, &mut tri.e, None, None)?;
        let mut d = tri.d.clone();
        d.sort_unstable_by(f64::total_cmp);
        Ok(d)
    })
}

impl Eigh {
    /// Reconstruct `f(A) = Q f(Λ) Q^T` by applying `f` to each eigenvalue.
    ///
    /// This single entry point implements the paper's whole family of
    /// purifications: `f = signum` gives the sign function (Eq. 17),
    /// `f = fermi` the finite-temperature generalization, and shifted
    /// variants implement the µ adjustment of Algorithm 1 without
    /// recomputing the decomposition.
    pub fn apply(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let fd: Vec<f64> = self.eigenvalues.iter().map(|&l| f(l)).collect();
        crate::gemm::q_diag_qt(&self.eigenvectors, &fd)
            .expect("eigendecomposition dimensions are consistent by construction")
    }

    /// Smallest eigenvalue.
    pub fn min(&self) -> f64 {
        *self
            .eigenvalues
            .first()
            .expect("empty eigendecomposition has no extremes")
    }

    /// Largest eigenvalue.
    pub fn max(&self) -> f64 {
        *self
            .eigenvalues
            .last()
            .expect("empty eigendecomposition has no extremes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tn, q_diag_qt_cols};
    use proptest::prelude::*;

    fn sym_test_matrix(n: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            (((i * 37 + j * 23) % 17) as f64) * 0.05 + if i == j { 1.5 } else { 0.0 }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert!((r.eigenvalues[0] + 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 2.0).abs() < 1e-14);
        assert!((r.eigenvalues[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_row_major(2, 2, &[2.0, 1.0, 1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn reconstruction() {
        let a = sym_test_matrix(20);
        let r = eigh(&a).unwrap();
        let back = r.apply(|l| l);
        assert!(back.allclose(&a, 1e-11));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let a = sym_test_matrix(15);
        let r = eigh(&a).unwrap();
        let qtq = matmul_tn(&r.eigenvectors, &r.eigenvectors).unwrap();
        assert!(qtq.allclose(&Matrix::identity(15), 1e-12));
    }

    #[test]
    fn av_equals_lambda_v() {
        let a = sym_test_matrix(10);
        let r = eigh(&a).unwrap();
        for k in 0..10 {
            let v = Matrix::from_col_major(10, 1, r.eigenvectors.col(k).to_vec());
            let av = matmul(&a, &v).unwrap();
            let lv = v.scaled(r.eigenvalues[k]);
            assert!(av.allclose(&lv, 1e-10), "eigenpair {k} violates A v = λ v");
        }
    }

    #[test]
    fn trace_is_eigenvalue_sum() {
        let a = sym_test_matrix(12);
        let r = eigh(&a).unwrap();
        let sum: f64 = r.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let a = sym_test_matrix(25);
        let r = eigh(&a).unwrap();
        for w in r.eigenvalues.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn apply_sign_function_is_involutory() {
        let mut a = sym_test_matrix(14);
        a.shift_diag(-1.6); // ensure both signs occur
        let r = eigh(&a).unwrap();
        assert!(r.min() < 0.0 && r.max() > 0.0, "test needs mixed spectrum");
        let s = r.apply(f64::signum);
        let s2 = matmul(&s, &s).unwrap();
        assert!(s2.allclose(&Matrix::identity(14), 1e-10));
    }

    #[test]
    fn degenerate_eigenvalues() {
        // 3x3 with a double eigenvalue: diag(1,1,2) rotated.
        let a = Matrix::from_diag(&[1.0, 1.0, 2.0]);
        let r = eigh(&a).unwrap();
        assert!((r.eigenvalues[0] - 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[1] - 1.0).abs() < 1e-14);
        assert!((r.eigenvalues[2] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_diag(&[-4.2]);
        let r = eigh(&a).unwrap();
        assert_eq!(r.eigenvalues, vec![-4.2]);
        assert_eq!(r.eigenvectors[(0, 0)].abs(), 1.0);
    }

    #[test]
    fn empty_matrix() {
        let a = Matrix::zeros(0, 0);
        let r = eigh(&a).unwrap();
        assert!(r.eigenvalues.is_empty());
    }

    #[test]
    fn non_square_rejected() {
        assert!(eigh(&Matrix::zeros(2, 3)).is_err());
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// `Q · diag(lambda) · Qᵀ` for the orthogonal `Q` of a seeded matrix.
    fn with_spectrum(lambda: &[f64], seed: usize) -> Matrix {
        let n = lambda.len();
        let mut g = Matrix::from_fn(n, n, |i, j| {
            ((i * 29 + j * 13 + (i ^ j) * 5 + seed * 11) % 67) as f64 / 67.0 - 0.5
        });
        g.symmetrize();
        let mut a = crate::gemm::q_diag_qt(&eigh(&g).unwrap().eigenvectors, lambda).unwrap();
        a.symmetrize();
        a
    }

    /// The four spectra the reduction treats differently: gapped, k-fold
    /// degenerate, rank-deficient with zero rows and columns (reflectors
    /// with `tau = 0`), and already tridiagonal (every tail already zero).
    fn spectrum_case(kind: usize, n: usize, seed: usize) -> Matrix {
        match kind {
            0 => {
                let lambda: Vec<f64> = (0..n)
                    .map(|k| k as f64 * 0.1 + if 2 * k >= n { 3.0 } else { -3.0 })
                    .collect();
                with_spectrum(&lambda, seed)
            }
            1 => {
                let fold = 2 + seed % 5;
                let lambda: Vec<f64> = (0..n).map(|k| (k / fold) as f64 - 1.5).collect();
                with_spectrum(&lambda, seed)
            }
            2 => {
                let stride = 2 + seed % 3;
                let mut a = Matrix::from_fn(n, n, |i, j| {
                    if i % stride == 0 || j % stride == 0 {
                        0.0
                    } else {
                        ((i * 37 + j * 23 + seed) % 17) as f64 * 0.05 - 0.4
                    }
                });
                a.symmetrize();
                a
            }
            _ => Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
                0 => ((i + seed) % 7) as f64 - 3.0,
                1 => 0.5 + (i.min(j) % 3) as f64 * 0.25,
                _ => 0.0,
            }),
        }
    }

    fn check_decomposition(kind: usize, n: usize, seed: usize) -> Result<(), TestCaseError> {
        let a = spectrum_case(kind, n, seed);
        let r = eigh(&a).unwrap();
        let (q, lambda) = (&r.eigenvectors, &r.eigenvalues);
        let tol = 50.0 * n as f64 * f64::EPSILON;
        let a_max = crate::norms::max_norm(&a);

        let mut q_lambda = q.clone();
        for (k, &l) in lambda.iter().enumerate() {
            crate::blas1::scal(l, q_lambda.col_mut(k));
        }
        let residual = matmul(&a, q).unwrap().max_abs_diff(&q_lambda);
        prop_assert!(residual <= tol * a_max, "|AQ - QL| = {residual}");
        let ortho = matmul_tn(q, q).unwrap().max_abs_diff(&Matrix::identity(n));
        prop_assert!(ortho <= tol, "|QtQ - I| = {ortho}");
        prop_assert!(lambda.windows(2).all(|w| w[0] <= w[1]), "not ascending");
        let trace_gap = (lambda.iter().sum::<f64>() - a.trace()).abs();
        prop_assert!(trace_gap <= tol * a_max, "trace off by {trace_gap}");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn residual_orthogonality_order_and_trace(
            kind in 0usize..4,
            n in 0usize..131,
            seed in 0usize..64,
        ) {
            check_decomposition(kind, n, seed)?;
        }
    }

    /// A low-rank input reduces to a `T` graded over many orders of
    /// magnitude. The QL sweep deflates from the top of `T`, so the tiny
    /// end has to be there: a reduction from the first column down puts it
    /// at the bottom, and the sweep runs out of iterations on these.
    #[test]
    fn graded_tridiagonal_of_a_low_rank_matrix_converges() {
        for (n, seed) in [(70, 2), (75, 8), (76, 11), (130, 53)] {
            check_decomposition(2, n, seed).unwrap();
        }
    }

    /// The four spectra the rotation kernels are checked on: random,
    /// clustered at ±1, graded over twelve orders of magnitude, and a band
    /// of quarter-integers (exact partial sums, exact zeros). Graded over
    /// sixteen, a sixth of the spectra put eigenvalues at the rounding
    /// floor of the rest, and the sweep runs out of iterations on them
    /// with or without a kernel.
    fn rotation_case(kind: usize, n: usize, seed: usize) -> Matrix {
        let hash = |i: usize, j: usize| {
            let h = (i.min(j) * 7919 + i.max(j) * 104_729 + seed * 31) % 1009;
            h as f64 / 1009.0 - 0.5
        };
        match kind {
            0 => Matrix::from_fn(n, n, hash),
            1 => {
                let lambda: Vec<f64> = (0..n)
                    .map(|k| if k % 2 == 0 { 1.0 } else { -1.0 } + k as f64 * 1e-9)
                    .collect();
                with_spectrum(&lambda, seed)
            }
            2 => graded(n, seed, 12.0),
            _ => Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
                d @ 0..=3 => ((i + j + seed + d) % 9) as f64 * 0.25 - 1.0,
                _ => 0.0,
            }),
        }
    }

    /// A spectrum graded over `decades` orders of magnitude, of seeded signs.
    fn graded(n: usize, seed: usize, decades: f64) -> Matrix {
        let sign = |k: usize| {
            let h = (k * 7919 + k * 104_729 + seed * 31) % 1009;
            (h as f64 / 1009.0 - 0.5).signum()
        };
        let lambda: Vec<f64> = (0..n)
            .map(|k| 10f64.powf(-decades * k as f64 / n as f64) * sign(k))
            .collect();
        with_spectrum(&lambda, seed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// `eigh` against the per-rotation loop the sweep ran before it
        /// took a kernel, and every kernel this CPU runs against that loop:
        /// every eigenvalue and eigenvector entry, bit for bit.
        #[test]
        fn rotation_kernels_keep_every_bit(
            kind in 0usize..4,
            n in 1usize..131,
            seed in 0usize..64,
        ) {
            let a = rotation_case(kind, n, seed);
            let reference = eigh_rotating(&a, None)
                .map_err(|e| TestCaseError::fail(format!("{kind} {n} {seed}: {e}")))?;
            let got = std::iter::once(eigh(&a).unwrap()).chain(
                crate::gemm::rotations().map(|r| eigh_rotating(&a, Some(r)).unwrap()),
            );
            for r in got {
                prop_assert_eq!(bits(&r.eigenvalues), bits(&reference.eigenvalues));
                prop_assert_eq!(
                    bits(r.eigenvectors.as_slice()),
                    bits(reference.eigenvectors.as_slice())
                );
            }
        }
    }

    #[test]
    fn eigvalsh_matches_eigh() {
        for n in 0..=40 {
            let a = spectrum_case(n % 4, n, n);
            assert_eq!(
                bits(&eigvalsh(&a).unwrap()),
                bits(&eigh(&a).unwrap().eigenvalues),
                "n = {n}"
            );
        }
    }

    #[test]
    fn non_finite_input_is_an_input_fault() {
        for (at, bad) in [
            ((7, 7), f64::NAN),
            ((9, 3), f64::NAN),
            ((0, 5), f64::INFINITY),
        ] {
            let mut a = sym_test_matrix(40);
            a[at] = bad;
            a[(at.1, at.0)] = bad;
            assert_eq!(eigh(&a).unwrap_err(), LinalgError::NonFinite { op: "eigh" });
            assert_eq!(
                eigvalsh(&a).unwrap_err(),
                LinalgError::NonFinite { op: "eigvalsh" }
            );
        }
    }

    /// Entries whose squares leave the `f64` range take the scaled
    /// branches of the reflector norm and of `pythag`.
    #[test]
    fn eigenvalues_scale_with_the_matrix() {
        let a = sym_test_matrix(30);
        let reference = eigh(&a).unwrap().eigenvalues;
        for s in [1e150, 1e-150] {
            let scaled = eigh(&a.scaled(s)).unwrap().eigenvalues;
            for (&got, &want) in scaled.iter().zip(&reference) {
                assert!(
                    (got - s * want).abs() <= 1e-13 * (s * want).abs(),
                    "scale {s}: {got} vs {}",
                    s * want
                );
            }
        }
    }

    #[test]
    fn decomposes_the_symmetric_part() {
        let mut a = sym_test_matrix(24);
        for j in 0..24 {
            for i in 0..j {
                a[(i, j)] += 1e-3 * ((i + 2 * j) % 5) as f64 / 4.0;
            }
        }
        assert!((a.asymmetry() - 1e-3).abs() < 1e-9);
        let mut symmetric = a.clone();
        symmetric.symmetrize();
        let (r, expect) = (eigh(&a).unwrap(), eigh(&symmetric).unwrap());
        assert_eq!(bits(&r.eigenvalues), bits(&expect.eigenvalues));
        assert_eq!(
            bits(r.eigenvectors.as_slice()),
            bits(expect.eigenvectors.as_slice())
        );
    }

    #[test]
    fn repeated_calls_agree_bit_for_bit() {
        let a = sym_test_matrix(77);
        let (r1, r2) = (eigh(&a).unwrap(), eigh(&a).unwrap());
        assert_eq!(bits(&r1.eigenvalues), bits(&r2.eigenvalues));
        assert_eq!(
            bits(r1.eigenvectors.as_slice()),
            bits(r2.eigenvectors.as_slice())
        );
    }

    #[test]
    fn moderately_large_matrix() {
        let a = sym_test_matrix(80);
        let r = eigh(&a).unwrap();
        let back = r.apply(|l| l);
        assert!(back.allclose(&a, 1e-9));
    }

    /// What input `a` gives through entry `entry` of the three the scratch
    /// serves — `eigh`, `q_diag_qt_cols` with `a` as the basis, and
    /// `function_columns` — as the output's bits, or its error.
    /// `function_columns` is filled as the engine's assembly fills it, by
    /// writing only the nonzero entries (a non-square `a` replaces the
    /// input whole, to reach the shape check).
    fn through_entry(entry: usize, a: &Matrix) -> Result<Vec<u64>, LinalgError> {
        let n = a.nrows();
        let cols: Vec<usize> = [n.wrapping_sub(1), 0, n / 2]
            .into_iter()
            .filter(|&c| c < n)
            .collect();
        let f = |l: f64| (l - 0.1).signum() * (1.0 + l * l).sqrt();
        let fill = |w: &mut Matrix| match a.is_square() {
            true => (w.as_mut_slice().iter_mut().zip(a.as_slice()))
                .filter(|(_, v)| **v != 0.0)
                .for_each(|(w, v)| *w = *v),
            false => w.set_from(a),
        };
        match entry {
            0 => eigh(a).map(|r| [bits(&r.eigenvalues), bits(r.eigenvectors.as_slice())].concat()),
            1 => {
                let d: Vec<f64> = (0..a.ncols()).map(|l| f(l as f64 * 0.25 - 1.0)).collect();
                q_diag_qt_cols(a, &d, &cols).map(|c| bits(c.as_slice()))
            }
            _ => function_columns(n, fill, f, &cols, |c| bits(c.as_slice())),
        }
    }

    /// A thread keeps its scratch from call to call, and each call resets
    /// every buffer it reads: over an interleaved sequence of dimensions,
    /// the four spectra of the rotation tests and three inputs that fail
    /// part-way (a NaN, a non-square matrix, a spectrum graded over sixteen
    /// decades that exhausts the QL sweep), then each dimension again as a
    /// dense matrix followed by a band of the same size, run through every
    /// entry in turn on one thread, each output is bit for bit what the
    /// same call gives on a fresh thread.
    #[test]
    fn reused_scratch_keeps_every_bit() {
        let dims = [0, 1, 2, 7, 40, 3, 96, 16, 130, 5];
        let mut inputs: Vec<Matrix> = (dims.iter().enumerate())
            .map(|(i, &n)| rotation_case(i % 4, n, i))
            .collect();
        let mut nan = rotation_case(0, 12, 3);
        nan[(4, 9)] = f64::NAN;
        let no_convergence = graded(67, 1, 16.0);
        inputs.insert(3, nan);
        inputs.insert(6, Matrix::from_fn(9, 5, |i, j| (i * 5 + j) as f64 * 0.1));
        inputs.insert(9, no_convergence);
        let repeats = dims.iter().enumerate();
        inputs.extend(repeats.flat_map(|(i, &n)| [0, 3].map(|kind| rotation_case(kind, n, i))));
        let calls = || (0..inputs.len()).flat_map(|k| (0..3).map(move |entry| (k, entry)));
        let fresh: Vec<_> = calls()
            .map(|(k, entry)| {
                let a = inputs[k].clone();
                std::thread::spawn(move || through_entry(entry, &a))
                    .join()
                    .expect("a fresh thread makes the call")
            })
            .collect();
        assert!(matches!(fresh[27], Err(LinalgError::NoConvergence { .. })));
        for ((k, entry), expect) in calls().zip(&fresh) {
            let got = through_entry(entry, &inputs[k]);
            assert_eq!(&got, expect, "input {k}, entry {entry}");
        }
    }
}
