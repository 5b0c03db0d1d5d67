//! Element-wise sparse matrices (CSR) and sparse sign iterations.
//!
//! Paper Sec. V-C observes that DZVP submatrices are block-dense but
//! element-wise < 20% full, and proposes replacing the dense submatrix
//! solve "by element-wise sparse linear algebra as a future improvement of
//! the submatrix method". This module implements that improvement: a CSR
//! matrix with numerically filtered sparse×sparse multiplication, and a
//! Newton–Schulz/Padé sign iteration running entirely in CSR with
//! per-iteration element filtering.
//!
//! Every filter threshold `eps` keeps `|v| > eps`; a negative or NaN `eps`
//! filters nothing (it is read as `0.0`, which drops exact zeros only).

use crate::matrix::Matrix;
use crate::norms::spectral_bound;
use crate::sign::pade_coefficients;
use crate::LinalgError;

/// The filter threshold every `|v| > eps` test in this module uses: a
/// negative `eps` would store explicit zeros and a NaN one would drop
/// every element, so both are read as `0.0`.
fn filter_threshold(eps: f64) -> f64 {
    eps.max(0.0)
}

/// Compressed sparse row matrix (square use cases only need one partition).
/// Within a row the stored columns are ascending and distinct.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from a dense matrix, dropping elements with `|a_ij| <= eps`
    /// (negative or NaN `eps`: exact zeros only).
    pub fn from_dense(a: &Matrix, eps: f64) -> Self {
        let eps = filter_threshold(eps);
        let (m, n) = a.shape();
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..m {
            for j in 0..n {
                let v = a[(i, j)];
                if v.abs() > eps {
                    col_idx.push(j);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: m,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// `n × n` identity.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Convert back to dense.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[(i, self.col_idx[k])] = self.values[k];
            }
        }
        out
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Stored fraction relative to dense.
    pub fn fill(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows * self.ncols) as f64
    }

    /// Scale all values in place.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.values {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        crate::blas1::nrm2(&self.values)
    }

    /// Sparse×sparse multiplication with numerical filtering: result
    /// elements with `|c_ij| <= eps` are dropped (negative or NaN `eps`:
    /// exact zeros only). Returns the product and the flop count actually
    /// spent (2 per scalar multiply-add) — the quantity Sec. V-C's
    /// proposal aims to cut.
    pub fn multiply_filtered(
        &self,
        other: &CsrMatrix,
        eps: f64,
    ) -> Result<(CsrMatrix, u64), LinalgError> {
        if self.ncols != other.nrows {
            return Err(LinalgError::DimensionMismatch {
                op: "csr_multiply",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let eps = filter_threshold(eps);
        let m = self.nrows;
        let n = other.ncols;
        let mut row_ptr = Vec::with_capacity(m + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        // Gustavson's algorithm with a dense accumulator row. Each `acc[j]`
        // receives its terms in ascending `(ka, kb)` order; `lo..hi` spans
        // the columns any row of `other` reached, and a column inside it
        // that none reached still holds `0.0`, which no filter keeps.
        let mut acc = vec![0.0f64; n];
        let mut flops = 0u64;
        for i in 0..m {
            let (mut lo, mut hi) = (n, 0);
            for ka in self.row_ptr[i]..self.row_ptr[i + 1] {
                let k = self.col_idx[ka];
                let av = self.values[ka];
                let cols = &other.col_idx[other.row_ptr[k]..other.row_ptr[k + 1]];
                let vals = &other.values[other.row_ptr[k]..other.row_ptr[k + 1]];
                let (Some(&first), Some(&last)) = (cols.first(), cols.last()) else {
                    continue;
                };
                lo = lo.min(first);
                hi = hi.max(last + 1);
                flops += 2 * cols.len() as u64;
                if last - first + 1 == cols.len() {
                    // Stored columns are ascending and distinct, so these
                    // are consecutive (a banded or a full row): one slice
                    // update, the same multiply-then-add per element.
                    for (c, &bv) in acc[first..=last].iter_mut().zip(vals) {
                        *c += av * bv;
                    }
                } else {
                    for (&j, &bv) in cols.iter().zip(vals) {
                        acc[j] += av * bv;
                    }
                }
            }
            if lo < hi {
                for (j, c) in (lo..hi).zip(&mut acc[lo..hi]) {
                    if c.abs() > eps {
                        col_idx.push(j);
                        values.push(*c);
                    }
                    *c = 0.0;
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok((
            CsrMatrix {
                nrows: m,
                ncols: n,
                row_ptr,
                col_idx,
                values,
            },
            flops,
        ))
    }

    /// `self + alpha·I` (square only), preserving sparsity elsewhere.
    pub fn shift_diag(&self, alpha: f64) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols, "shift_diag requires square");
        let n = self.nrows;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            let mut placed = false;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k];
                if j == i {
                    col_idx.push(j);
                    values.push(self.values[k] + alpha);
                    placed = true;
                } else {
                    if j > i && !placed {
                        col_idx.push(i);
                        values.push(alpha);
                        placed = true;
                    }
                    col_idx.push(j);
                    values.push(self.values[k]);
                }
            }
            if !placed {
                col_idx.push(i);
                values.push(alpha);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: n,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Involutority residual `‖self·self − I‖_F / √n` computed from an
    /// already-formed square `self2 = self·self`.
    #[allow(clippy::needless_range_loop)] // CSR row walk needs the row index
    fn involutority_of_square(square: &CsrMatrix) -> f64 {
        let n = square.nrows;
        let mut ssq = 0.0f64;
        let mut diag_seen = vec![false; n];
        for i in 0..n {
            for k in square.row_ptr[i]..square.row_ptr[i + 1] {
                let j = square.col_idx[k];
                let r = if i == j {
                    diag_seen[i] = true;
                    square.values[k] - 1.0
                } else {
                    square.values[k]
                };
                ssq += r * r;
            }
        }
        for seen in diag_seen {
            if !seen {
                ssq += 1.0; // missing diagonal element contributes (0−1)²
            }
        }
        (ssq / n.max(1) as f64).sqrt()
    }
}

/// Report of an element-wise sparse sign iteration.
#[derive(Debug, Clone)]
pub struct SparseSignResult {
    /// The (sparse) sign iterate converted back to dense for extraction.
    pub sign: Matrix,
    /// Iterations executed.
    pub iterations: usize,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Total scalar flops spent in sparse multiplications.
    pub flops: u64,
    /// Element fill of the final iterate.
    pub final_fill: f64,
}

/// Element-wise sparse Newton–Schulz/Padé sign iteration (paper Sec. V-C's
/// proposed improvement). `eps` filters iterate elements after every
/// multiplication (negative or NaN: exact zeros only); `order` ≥ 2 selects
/// the Padé order (2 = Newton–Schulz). A NaN or infinite entry of `a` is
/// [`LinalgError::NonFinite`]: filtered to a structural zero it would give
/// the converged sign of a different matrix.
pub fn sparse_sign_iteration(
    a: &Matrix,
    mu: f64,
    order: usize,
    eps: f64,
    tol: f64,
    max_iter: usize,
) -> Result<SparseSignResult, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "sparse_sign_iteration",
            shape: a.shape(),
        });
    }
    a.require_finite("sparse_sign_iteration")?;
    let n = a.nrows();
    let coeffs = pade_coefficients(order);

    let mut shifted = a.clone();
    shifted.shift_diag(-mu);
    let bound = spectral_bound(&shifted);
    if bound > 0.0 {
        shifted.scale(1.0 / bound);
    }
    let mut x = CsrMatrix::from_dense(&shifted, eps);

    let mut flops = 0u64;
    let mut converged = false;
    let mut iterations = 0;
    for _ in 0..max_iter {
        iterations += 1;
        let (y, f1) = x.multiply_filtered(&x, eps)?;
        flops += f1;
        let residual = CsrMatrix::involutority_of_square(&y);
        if residual <= tol {
            converged = true;
            break;
        }
        // E = I − Y; P(E) by Horner in CSR.
        let mut e = y;
        e.scale(-1.0);
        let e = e.shift_diag(1.0);
        let mut p = CsrMatrix::identity(n);
        p.scale(coeffs[order - 1]);
        for ci in (0..order - 1).rev() {
            let (pe, f) = p.multiply_filtered(&e, eps)?;
            flops += f;
            p = pe.shift_diag(coeffs[ci]);
        }
        let (next, f2) = x.multiply_filtered(&p, eps)?;
        flops += f2;
        x = next;
    }

    Ok(SparseSignResult {
        final_fill: x.fill(),
        sign: x.to_dense(),
        iterations,
        converged,
        flops,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::sign_eig;

    fn banded_gapped(n: usize, half: usize) -> Matrix {
        let mut a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else if (i as isize - j as isize).unsigned_abs() <= half {
                0.08 / (1.0 + (i as f64 - j as f64).abs())
            } else {
                0.0
            }
        });
        a.symmetrize();
        a
    }

    #[test]
    fn csr_roundtrip() {
        let a = banded_gapped(10, 2);
        let s = CsrMatrix::from_dense(&a, 0.0);
        assert!(s.to_dense().allclose(&a, 0.0));
        assert_eq!(s.shape(), (10, 10));
        // Banded: much fewer than n² nonzeros.
        assert!(s.fill() < 0.6);
    }

    #[test]
    fn from_dense_filters() {
        let a = Matrix::from_row_major(2, 2, &[1.0, 1e-12, -1e-12, 2.0]);
        let s = CsrMatrix::from_dense(&a, 1e-9);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn identity_and_shift() {
        let i = CsrMatrix::identity(4);
        assert!(i.to_dense().allclose(&Matrix::identity(4), 0.0));
        let shifted = i.shift_diag(1.5);
        let mut expect = Matrix::identity(4);
        expect.scale(2.5);
        assert!(shifted.to_dense().allclose(&expect, 0.0));
    }

    #[test]
    fn shift_diag_creates_missing_diagonal() {
        // Off-diagonal-only matrix.
        let a = Matrix::from_row_major(3, 3, &[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let s = CsrMatrix::from_dense(&a, 0.0);
        let shifted = s.shift_diag(2.0);
        let mut expect = a.clone();
        expect.shift_diag(2.0);
        assert!(shifted.to_dense().allclose(&expect, 0.0));
    }

    #[test]
    fn multiply_matches_dense() {
        let a = banded_gapped(12, 3);
        let b = banded_gapped(12, 2).transpose();
        let sa = CsrMatrix::from_dense(&a, 0.0);
        let sb = CsrMatrix::from_dense(&b, 0.0);
        let (c, flops) = sa.multiply_filtered(&sb, 0.0).unwrap();
        let expect = crate::gemm::matmul(&a, &b).unwrap();
        assert!(c.to_dense().allclose(&expect, 1e-13));
        assert!(flops > 0);
        // Sparse flops strictly below dense 2n³.
        assert!(flops < 2 * 12u64.pow(3));
    }

    #[test]
    fn multiply_filtering_drops_small_results() {
        let a = banded_gapped(10, 1);
        let s = CsrMatrix::from_dense(&a, 0.0);
        let (loose, _) = s.multiply_filtered(&s, 1e-2).unwrap();
        let (tight, _) = s.multiply_filtered(&s, 0.0).unwrap();
        assert!(loose.nnz() < tight.nnz());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::from_dense(&Matrix::zeros(4, 4), 0.0);
        assert!(a.multiply_filtered(&b, 0.0).is_err());
    }

    /// `multiply_filtered` as it stood before its row loop was rebuilt: a
    /// list of the columns a row touched, searched on every term whose
    /// accumulator reads zero and sorted before the flush, two flops
    /// counted per term. The kernel must repeat its output bit for bit.
    fn multiply_reference(a: &CsrMatrix, b: &CsrMatrix, eps: f64) -> (CsrMatrix, u64) {
        let (m, n) = (a.nrows, b.ncols);
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut acc = vec![0.0f64; n];
        let mut touched: Vec<usize> = Vec::new();
        let mut flops = 0u64;
        for i in 0..m {
            for ka in a.row_ptr[i]..a.row_ptr[i + 1] {
                let k = a.col_idx[ka];
                let av = a.values[ka];
                for kb in b.row_ptr[k]..b.row_ptr[k + 1] {
                    let j = b.col_idx[kb];
                    if acc[j] == 0.0 && !touched.contains(&j) {
                        touched.push(j);
                    }
                    acc[j] += av * b.values[kb];
                    flops += 2;
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                if acc[j].abs() > eps {
                    col_idx.push(j);
                    values.push(acc[j]);
                }
                acc[j] = 0.0;
            }
            touched.clear();
            row_ptr.push(col_idx.len());
        }
        let c = CsrMatrix {
            nrows: m,
            ncols: n,
            row_ptr,
            col_idx,
            values,
        };
        (c, flops)
    }

    fn value_bits(c: &CsrMatrix) -> Vec<u64> {
        c.values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn negative_or_nan_eps_filters_nothing() {
        let a = banded_gapped(10, 2);
        let exact = CsrMatrix::from_dense(&a, 0.0);
        let (square, flops) = exact.multiply_filtered(&exact, 0.0).unwrap();
        let sign = sparse_sign_iteration(&a, 0.0, 2, 0.0, 1e-10, 100).unwrap();
        assert!(sign.converged);
        for eps in [-1.0, f64::NAN, f64::NEG_INFINITY] {
            // No explicit zeros from a negative threshold, no empty matrix
            // from a NaN one.
            assert_eq!(
                CsrMatrix::from_dense(&a, eps),
                exact,
                "from_dense at eps {eps}"
            );
            let (c, f) = exact.multiply_filtered(&exact, eps).unwrap();
            assert_eq!((&c, f), (&square, flops), "multiply at eps {eps}");
            let r = sparse_sign_iteration(&a, 0.0, 2, eps, 1e-10, 100).unwrap();
            assert_eq!(r.iterations, sign.iterations, "iterations at eps {eps}");
            assert!(r.converged && r.sign.allclose(&sign.sign, 0.0));
        }
    }

    #[test]
    fn sparse_sign_rejects_non_finite_input() {
        // Filtered to a structural zero, the NaN pair would leave a
        // finite, converged sign of a different matrix.
        for bad in [f64::NAN, f64::INFINITY] {
            let mut a = banded_gapped(8, 2);
            a[(1, 2)] = bad;
            a[(2, 1)] = bad;
            assert_eq!(
                sparse_sign_iteration(&a, 0.0, 2, 0.0, 1e-10, 100).unwrap_err(),
                LinalgError::NonFinite {
                    op: "sparse_sign_iteration"
                }
            );
        }
    }

    #[test]
    fn sparse_sign_matches_dense_reference() {
        let a = banded_gapped(16, 2);
        let r = sparse_sign_iteration(&a, 0.0, 2, 1e-12, 1e-10, 100).unwrap();
        assert!(r.converged, "sparse NS did not converge");
        let expect = sign_eig(&a).unwrap();
        assert!(
            r.sign.allclose(&expect, 1e-6),
            "max diff {}",
            r.sign.max_abs_diff(&expect)
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic pseudo-random matrix with an exact-zero mask —
        /// `density` out of 8 entries survive; values avoid the filter
        /// thresholds so "kept vs dropped" is never a borderline call.
        fn sparse_matrix(rows: usize, cols: usize, seed: usize, density: usize) -> Matrix {
            Matrix::from_fn(rows, cols, |i, j| {
                let h = (i * 31 + j * 17 + seed * 7) % 8;
                if h < density {
                    let v = 1 + (i * 13 + j * 29 + seed * 5) % 9;
                    let s = if (i + j + seed).is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    s * v as f64 / 4.0
                } else {
                    0.0
                }
            })
        }

        /// One operand of the kernel-against-reference comparison: every
        /// row is drawn empty, full, a band of consecutive columns, or
        /// scattered at `density`; one operand in twelve is all zero.
        /// Values are nonzero quarter-integers, so products and sums are
        /// exact and partial sums return to exactly 0.0 mid-row.
        fn mixed_rows(rows: usize, cols: usize, density: f64, rng: &mut TestRng) -> CsrMatrix {
            let all_zero = rng.next_u64().is_multiple_of(12);
            let mut a = Matrix::zeros(rows, cols);
            for i in 0..rows {
                let kind = rng.next_u64() % 8;
                let start = rng.next_u64() as usize % cols;
                let len = 1 + rng.next_u64() as usize % (cols - start);
                for j in 0..cols {
                    let quarters = 1 + rng.next_u64() % 9;
                    let sign = if rng.next_u64().is_multiple_of(2) {
                        1.0
                    } else {
                        -1.0
                    };
                    let scattered = rng.next_unit_f64() < density;
                    let stored = match kind {
                        0 => false,
                        1 => true,
                        2 | 3 => (start..start + len).contains(&j),
                        _ => scattered,
                    };
                    if stored && !all_zero {
                        a[(i, j)] = sign * quarters as f64 / 4.0;
                    }
                }
            }
            CsrMatrix::from_dense(&a, 0.0)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn from_dense_to_dense_roundtrips_bitwise_at_eps_zero(
                rows in 1usize..14,
                cols in 1usize..14,
                seed in 0usize..64,
                density in 1usize..9,
            ) {
                let a = sparse_matrix(rows, cols, seed, density);
                let s = CsrMatrix::from_dense(&a, 0.0);
                // `eps = 0` keeps every nonzero: the round trip is exact,
                // and the stored count is exactly the nonzero count.
                prop_assert!(s.to_dense().allclose(&a, 0.0));
                let nnz_expect = (0..rows)
                    .flat_map(|i| (0..cols).map(move |j| (i, j)))
                    .filter(|&(i, j)| a[(i, j)] != 0.0)
                    .count();
                prop_assert_eq!(s.nnz(), nnz_expect);
                prop_assert_eq!(s.shape(), (rows, cols));
            }

            #[test]
            fn eps_zero_filtered_multiply_is_exact(
                n in 1usize..12,
                k in 1usize..12,
                m in 1usize..12,
                seed in 0usize..64,
            ) {
                let a = sparse_matrix(n, k, seed, 5);
                let b = sparse_matrix(k, m, seed + 101, 5);
                let sa = CsrMatrix::from_dense(&a, 0.0);
                let sb = CsrMatrix::from_dense(&b, 0.0);
                let (c, flops) = sa.multiply_filtered(&sb, 0.0).unwrap();
                let expect = crate::gemm::matmul(&a, &b).unwrap();
                // Gustavson accumulates each output entry in the same
                // ascending-k order as the dense kernel, skipping only
                // exact-zero terms — `eps = 0` filtering is exact, not
                // merely close.
                prop_assert!(
                    c.to_dense().allclose(&expect, 0.0),
                    "eps=0 product deviates by {}",
                    c.to_dense().max_abs_diff(&expect)
                );
                // Flop count is exactly two per surviving product term.
                let terms: u64 = (0..n)
                    .flat_map(|i| (0..m).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        (0..k)
                            .filter(|&kk| a[(i, kk)] != 0.0 && b[(kk, j)] != 0.0)
                            .count() as u64
                    })
                    .sum();
                prop_assert_eq!(flops, 2 * terms);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(600))]
            #[test]
            fn kernel_repeats_the_reference_bit_for_bit(
                m in 1usize..14,
                k in 1usize..14,
                n in 1usize..14,
                density in 0.05f64..0.95,
                eps_choice in 0usize..3,
                seed in 0usize..1_000_000,
            ) {
                let mut rng = TestRng::from_name(&seed.to_string());
                let a = mixed_rows(m, k, density, &mut rng);
                let b = mixed_rows(k, n, density, &mut rng);
                let eps = [0.0, 0.3, 1.0][eps_choice];
                let (c, flops) = a.multiply_filtered(&b, eps).unwrap();
                let (expect, expect_flops) = multiply_reference(&a, &b, eps);
                prop_assert_eq!(&c.row_ptr, &expect.row_ptr);
                prop_assert_eq!(&c.col_idx, &expect.col_idx);
                prop_assert_eq!(value_bits(&c), value_bits(&expect));
                prop_assert_eq!(flops, expect_flops);
                prop_assert_eq!(c.shape(), (m, n));
            }
        }
    }

    #[test]
    fn sparse_pade3_matches_too() {
        let a = banded_gapped(12, 2);
        let r = sparse_sign_iteration(&a, 0.0, 3, 1e-12, 1e-10, 100).unwrap();
        assert!(r.converged);
        let expect = sign_eig(&a).unwrap();
        assert!(r.sign.allclose(&expect, 1e-6));
    }

    #[test]
    fn filtering_saves_flops_at_accuracy_cost() {
        let a = banded_gapped(24, 2);
        let tight = sparse_sign_iteration(&a, 0.0, 2, 1e-13, 1e-9, 100).unwrap();
        let loose = sparse_sign_iteration(&a, 0.0, 2, 1e-4, 1e-3, 100).unwrap();
        assert!(
            loose.flops < tight.flops,
            "looser filter must save flops: {} vs {}",
            loose.flops,
            tight.flops
        );
        let expect = sign_eig(&a).unwrap();
        let err_tight = tight.sign.max_abs_diff(&expect);
        let err_loose = loose.sign.max_abs_diff(&expect);
        assert!(err_tight <= err_loose + 1e-12);
    }

    #[test]
    fn mu_shift_respected() {
        let a = Matrix::from_diag(&[0.0, 1.0, 2.0, 3.0]);
        let r = sparse_sign_iteration(&a, 1.5, 2, 1e-14, 1e-10, 100).unwrap();
        let expect = Matrix::from_diag(&[-1.0, -1.0, 1.0, 1.0]);
        assert!(r.sign.allclose(&expect, 1e-8));
    }

    #[test]
    fn final_fill_reported() {
        let a = banded_gapped(20, 2);
        let r = sparse_sign_iteration(&a, 0.0, 2, 1e-6, 1e-5, 100).unwrap();
        assert!(r.final_fill > 0.0 && r.final_fill <= 1.0);
    }
}
