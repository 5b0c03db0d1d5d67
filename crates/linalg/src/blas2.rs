//! The level-2 pass of the Householder tridiagonal reduction.
//!
//! Step `i` of [`crate::tridiag`]'s reduction needs a symmetric
//! matrix–vector product with the leading block (`p = t·A₁₁·v`) and then a
//! rank-2 update of that block (`A₁₁ −= v·wᵀ + w·vᵀ`). Step `i`'s update and
//! step `i − 1`'s product read the same columns, so a `SweepKernel` does
//! both in one pass over the upper triangle — the "BLAS 2.5" fusion of
//! Howell, Demmel, Fulton, Hammarling and Marmol (ACM TOMS 34(3), 2008):
//! each column gets the update, and the updated column feeds the product's
//! dot and its axpy right away. The leading block is read and written once
//! per step, where a product pass and an update pass read it twice. The
//! product is the half of a blocked `dsytrd` that stays level-2, so a
//! blocked reduction would run its panels through the same pass.
//!
//! `gemm.rs`'s run-time choice hands out the kernel: an AVX2 one, or
//! `sweep_portable`. The AVX2 kernel takes four columns at a time, so the
//! four columns' dots are independent chains that overlap and `u`, `w`,
//! `x` and `y` are loaded once for the four; on and under each block's
//! diagonal it works on a 4 × 4 chunk in registers. An AVX-512F variant
//! (8 rows to a `zmm` register, each column's dot products split into two
//! halves of 4 for the accumulators) measured no faster at n = 40 to 77
//! and about 15 % faster at n = 512, so it is not kept.
//!
//! Every element sees the operations of the two separate passes in their
//! order, each a product and a separate add, never a fused multiply-add:
//! the update `a += u·(−w_j) + w·(−u_j)`, then `y[k] += x_j·a_kj` after
//! `y[k]`'s own first write `y[k] = a_kk·x_k + dot_k`, and each column's dot
//! on four accumulators — row `k` into accumulator `k mod 4` — summed
//! `(a0 + a1) + (a2 + a3)` before the rows past the last multiple of four
//! are added one by one. So every kernel gives the same bits, on every CPU.
//!
//! Measured per pass on one core of the AVX-512 Xeon the benchmark runs on
//! (best of 15 rounds, `--release`), the AVX2 kernel takes 0.36–0.39 ns per
//! upper-triangle element from m = 64 on (about one cycle; 8 flops), 1.1 µs
//! at m = 76 against 2.9 µs for the two passes; at m = 1 to 3, where no
//! block of four fits, it reads within ±10 % of them, and from m = 4 on it
//! is faster.

/// A rank-2 update `A −= u·wᵀ + w·uᵀ` owed to a leading block: the
/// reflector `u` and the vector `w` of the step that made it.
pub(crate) type Rank2<'a> = (&'a [f64], &'a [f64]);

/// The product half of a sweep: `y = A·x` into `y`.
pub(crate) type Symv<'a> = (&'a [f64], &'a mut [f64]);

/// One pass over the upper triangle of the leading `m × m` block (`m` the
/// vectors' length) of column-major storage `a` with leading dimension
/// `lda`: column after column, the rank-2 `update` if one is owed, then, if
/// one is wanted, the product `y = A·x` of the block as updated — `y` need
/// hold nothing, every entry is written before it is added to. Below the
/// diagonal nothing is read or written. Every kernel gives
/// [`sweep_portable`]'s bits.
pub(crate) type SweepKernel =
    fn(a: &mut [f64], lda: usize, update: Option<Rank2<'_>>, symv: Option<Symv<'_>>);

/// A [`SweepKernel`] in plain scalar code, one column after the other; the
/// compiler vectorises it as the build target allows. For column `j`, rows
/// `..r` (`r` = `j` rounded down to a multiple of 4) get the update, then
/// the product's axpy into `y` and its dot on the four accumulators; then
/// [`column_tail`] does rows `r..=j`.
#[inline(always)]
pub(crate) fn sweep_portable(
    a: &mut [f64],
    lda: usize,
    update: Option<Rank2<'_>>,
    symv: Option<Symv<'_>>,
) {
    let (x, mut y) = symv.unzip();
    let m = x.or(update.map(|(u, _)| u)).map_or(0, <[f64]>::len);
    for j in 0..m {
        let col = &mut a[j * lda..=j * lda + j];
        let r = j & !3;
        if let Some(update) = update {
            rank2_column(col, 0..r, update);
        }
        let mut acc = [0.0f64; 4];
        if let (Some(x), Some(y)) = (x, y.as_deref_mut()) {
            let xj = x[j];
            let rows = col[..r].as_chunks::<4>().0.iter();
            for ((c, xk), yk) in rows.zip(x.as_chunks::<4>().0).zip(y.as_chunks_mut::<4>().0) {
                for l in 0..4 {
                    yk[l] += xj * c[l];
                    acc[l] += c[l] * xk[l];
                }
            }
        }
        column_tail(col, r, update, x.zip(y.as_deref_mut()), acc);
    }
}

/// Rows `r..=j` of column `j` (`col` its rows `..=j`), after rows `..r` are
/// done: the update, then the rest of the dot — its accumulators summed
/// `(a0 + a1) + (a2 + a3)`, the rows `r..j` added one by one — with the
/// product's axpy into `y[r..j]`, and `y[j]`'s first write,
/// `a_jj·x_j + dot`.
#[inline(always)]
pub(crate) fn column_tail(
    col: &mut [f64],
    r: usize,
    update: Option<Rank2<'_>>,
    symv: Option<Symv<'_>>,
    acc: [f64; 4],
) {
    let j = col.len() - 1;
    if let Some(update) = update {
        rank2_column(col, r..j + 1, update);
    }
    if let Some((x, y)) = symv {
        let xj = x[j];
        let mut dot = (acc[0] + acc[1]) + (acc[2] + acc[3]);
        for k in r..j {
            y[k] += xj * col[k];
            dot += col[k] * x[k];
        }
        y[j] = col[j] * xj + dot;
    }
}

/// The rank-2 update of rows `rows` of column `j` of the upper triangle,
/// `col` its rows `..=j`: `a_kj += u_k·(−w_j) + w_k·(−u_j)`.
#[inline(always)]
pub(crate) fn rank2_column(col: &mut [f64], rows: std::ops::Range<usize>, (u, w): Rank2<'_>) {
    let j = col.len() - 1;
    let (neg_u, neg_w) = (-u[j], -w[j]);
    let (u, w) = (&u[rows.clone()], &w[rows.clone()]);
    for ((c, &uk), &wk) in col[rows].iter_mut().zip(u).zip(w) {
        *c += uk * neg_w + wk * neg_u;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::gemm::matmul_naive;
    use crate::matrix::Matrix;
    use crate::LinalgError;

    // The reduction's two level-2 passes as they ran before the sweep fused
    // them: the oracle of the sweep tests here and of `tridiag`'s
    // reduction tests.

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
    pub(crate) fn symv_upper(
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
    pub(crate) fn syr2_upper(
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

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Every sweep kernel this CPU runs against [`syr2_upper`] then
    /// [`symv_upper`] on every leading block up to 21 (each remainder of 4
    /// beside whole blocks), and each half alone: the block and `y` bit for
    /// bit, and the lower triangle, NaN, left as it was. Entries and
    /// vectors hold zeros of both signs.
    #[test]
    fn sweep_keeps_the_two_passes_bits() {
        let n = 21;
        let (_, mut a0) = upper_only(n);
        for (k, v) in a0.as_mut_slice().iter_mut().enumerate() {
            if k % 7 == 3 && !v.is_nan() {
                *v = if k % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        let vector = |m: usize, s: f64| -> Vec<f64> {
            (0..m)
                .map(|k| {
                    if k % 5 == 2 {
                        -0.0
                    } else {
                        s - k as f64 * 0.375
                    }
                })
                .collect()
        };
        for m in 0..=n {
            let (u, w, x) = (vector(m, 0.5), vector(m, -1.25), vector(m, 0.75));
            for (with_update, with_symv) in [(true, true), (true, false), (false, true)] {
                let mut want = a0.clone();
                let mut want_y = vec![f64::NAN; m];
                if with_update {
                    syr2_upper(-1.0, &u, &w, want.as_mut_slice(), n).unwrap();
                }
                if with_symv {
                    symv_upper(1.0, want.as_slice(), n, &x, &mut want_y).unwrap();
                }
                for kernel in crate::gemm::sweep_kernels() {
                    let mut got = a0.clone();
                    let mut y = vec![f64::NAN; m];
                    let update = with_update.then_some((&u[..], &w[..]));
                    let symv = with_symv.then_some((&x[..], &mut y[..]));
                    kernel(got.as_mut_slice(), n, update, symv);
                    let what = format!("m {m}, update {with_update}, symv {with_symv}");
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{what}");
                    assert_eq!(bits(&y), bits(&want_y), "{what}");
                }
            }
        }
    }
}
