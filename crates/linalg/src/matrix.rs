//! Column-major dense matrix type.
//!
//! The submatrix method assembles *dense* principal submatrices out of a
//! sparse operator and evaluates matrix functions on them (paper Sec. III).
//! This module provides the dense container those evaluations run on.
//! Column-major storage matches the BLAS/LAPACK convention used by CP2K.
//!
//! [`MatrixBase`] is generic over the [`Elem`] scalar so the hot kernels
//! (GEMM, sign iterations) can run in single precision for the paper's
//! approximate-computing mode; [`Matrix`] is the `f64` instance every
//! existing API works in, [`MatrixF32`] the single-precision one.

use crate::elem::Elem;
use crate::error::LinalgError;

/// Dense column-major matrix over an [`Elem`] scalar.
///
/// Element `(i, j)` lives at linear index `i + j * nrows`.
#[derive(Clone, PartialEq)]
pub struct MatrixBase<E: Elem> {
    nrows: usize,
    ncols: usize,
    data: Vec<E>,
}

/// Double-precision matrix — the default scalar of the whole stack.
pub type Matrix = MatrixBase<f64>;

/// Single-precision matrix used by the reduced-precision solve kernels.
pub type MatrixF32 = MatrixBase<f32>;

impl<E: Elem> std::fmt::Debug for MatrixBase<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let show_r = self.nrows.min(8);
        let show_c = self.ncols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_c < self.ncols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.nrows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<E: Elem> MatrixBase<E> {
    /// Create a zero-filled matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        MatrixBase {
            nrows,
            ncols,
            data: vec![E::ZERO; nrows * ncols],
        }
    }

    /// Create the `n`-by-`n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = MatrixBase::zeros(n, n);
        m.set_identity(n);
        m
    }

    /// Make this the `nrows × ncols` zero matrix [`zeros`](Self::zeros)
    /// returns, in the allocation it already has when that is large enough.
    pub(crate) fn set_zeros(&mut self, nrows: usize, ncols: usize) {
        self.data.clear();
        self.data.resize(nrows * ncols, E::ZERO);
        (self.nrows, self.ncols) = (nrows, ncols);
    }

    /// [`set_zeros`](Self::set_zeros) to the `n × n` identity.
    pub(crate) fn set_identity(&mut self, n: usize) {
        self.set_zeros(n, n);
        for i in 0..n {
            self[(i, i)] = E::ONE;
        }
    }

    /// Make this a copy of `other`, in the allocation it already has when
    /// that is large enough.
    pub(crate) fn set_from(&mut self, other: &MatrixBase<E>) {
        self.data.clear();
        self.data.extend_from_slice(&other.data);
        (self.nrows, self.ncols) = other.shape();
    }

    /// Build a matrix from a column-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<E>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "from_col_major: data length {} does not match {}x{}",
            data.len(),
            nrows,
            ncols
        );
        MatrixBase { nrows, ncols, data }
    }

    /// Build a matrix from row-major data (convenient for literals in tests).
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_row_major(nrows: usize, ncols: usize, data: &[E]) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        let mut m = MatrixBase::zeros(nrows, ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                m[(i, j)] = data[i * ncols + j];
            }
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` for every element.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> E) -> Self {
        let mut m = MatrixBase::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Build a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[E]) -> Self {
        let n = diag.len();
        let mut m = MatrixBase::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Raw column-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Consume the matrix, returning its column-major data.
    pub fn into_vec(self) -> Vec<E> {
        self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[E] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [E] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy row `i` into a freshly allocated vector.
    pub fn row(&self, i: usize) -> Vec<E> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Copy the main diagonal into a vector.
    pub fn diag(&self) -> Vec<E> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self[(i, i)]).collect()
    }

    /// Trace (sum of diagonal elements). Requires a square matrix only in
    /// spirit; for rectangular input the min-dimension diagonal is summed.
    pub fn trace(&self) -> E {
        let mut s = E::ZERO;
        for d in self.diag() {
            s += d;
        }
        s
    }

    /// Return the transposed matrix.
    pub fn transpose(&self) -> MatrixBase<E> {
        let mut t = MatrixBase::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            for i in 0..self.nrows {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Extract the principal submatrix picking `idx` rows and columns.
    ///
    /// This is the core selection operation of the submatrix method: given
    /// the index set of nonzero rows of a column, it carves the induced
    /// dense principal submatrix out of `self`.
    pub fn principal_submatrix(&self, idx: &[usize]) -> MatrixBase<E> {
        let k = idx.len();
        let mut s = MatrixBase::zeros(k, k);
        for (jj, &j) in idx.iter().enumerate() {
            for (ii, &i) in idx.iter().enumerate() {
                s[(ii, jj)] = self[(i, j)];
            }
        }
        s
    }

    /// Extract a general (possibly rectangular) submatrix from row indices
    /// `rows` and column indices `cols`.
    pub fn submatrix(&self, rows: &[usize], cols: &[usize]) -> MatrixBase<E> {
        let mut s = MatrixBase::zeros(rows.len(), cols.len());
        for (jj, &j) in cols.iter().enumerate() {
            for (ii, &i) in rows.iter().enumerate() {
                s[(ii, jj)] = self[(i, j)];
            }
        }
        s
    }

    /// Elementwise `self + other`.
    pub fn add(&self, other: &MatrixBase<E>) -> Result<MatrixBase<E>, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *o += b;
        }
        Ok(out)
    }

    /// Elementwise `self - other`.
    pub fn sub(&self, other: &MatrixBase<E>) -> Result<MatrixBase<E>, LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = self.clone();
        for (o, &b) in out.data.iter_mut().zip(other.data.iter()) {
            *o -= b;
        }
        Ok(out)
    }

    /// In-place `self += alpha * other`.
    pub fn axpy(&mut self, alpha: E, other: &MatrixBase<E>) -> Result<(), LinalgError> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (o, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *o += alpha * b;
        }
        Ok(())
    }

    /// Scale every element in place.
    pub fn scale(&mut self, alpha: E) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// Return `alpha * self` as a new matrix.
    pub fn scaled(&self, alpha: E) -> MatrixBase<E> {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }

    /// Add `alpha` to each diagonal element in place (`self += alpha * I`).
    pub fn shift_diag(&mut self, alpha: E) {
        let n = self.nrows.min(self.ncols);
        for i in 0..n {
            self[(i, i)] += alpha;
        }
    }

    /// Symmetrize in place: `self = (self + self^T) / 2`. Square only.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize requires a square matrix");
        let half = E::from_f64(0.5);
        for j in 0..self.ncols {
            for i in 0..j {
                let avg = half * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Maximum absolute deviation from symmetry, `max |A - A^T|`.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square());
        let mut worst = 0.0f64;
        for j in 0..self.ncols {
            for i in 0..j {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs().to_f64());
            }
        }
        worst
    }

    /// True if every element differs from `other` by at most `tol`.
    pub fn allclose(&self, other: &MatrixBase<E>, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(&a, &b)| (a - b).abs().to_f64() <= tol)
    }

    /// Largest absolute element difference to `other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &MatrixBase<E>) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs().to_f64())
            .fold(0.0, f64::max)
    }

    /// Number of elements with absolute value above `threshold`.
    pub fn count_above(&self, threshold: f64) -> usize {
        self.data
            .iter()
            .filter(|v| v.abs().to_f64() > threshold)
            .count()
    }

    /// Zero out all elements with `|a_ij| <= threshold`, returning how many
    /// elements were dropped. This is the element-wise analogue of the
    /// DBCSR `eps_filter` truncation.
    pub fn filter(&mut self, threshold: f64) -> usize {
        let mut dropped = 0;
        for v in &mut self.data {
            if v.abs().to_f64() <= threshold && *v != E::ZERO {
                *v = E::ZERO;
                dropped += 1;
            }
        }
        dropped
    }

    /// The input check of the kernels that cannot work on a NaN or an
    /// infinite entry: [`LinalgError::NonFinite`] naming `op` if one is held.
    pub(crate) fn require_finite(&self, op: &'static str) -> Result<(), LinalgError> {
        if self.data.iter().all(|v| v.to_f64().is_finite()) {
            Ok(())
        } else {
            Err(LinalgError::NonFinite { op })
        }
    }

    /// Convert to another element type, rounding every value through the
    /// target storage format.
    pub fn cast<F: Elem>(&self) -> MatrixBase<F> {
        MatrixBase {
            nrows: self.nrows,
            ncols: self.ncols,
            data: self.data.iter().map(|v| F::from_f64(v.to_f64())).collect(),
        }
    }
}

impl Matrix {
    /// Round to single precision (the reduced-precision solve input).
    pub fn to_f32(&self) -> MatrixF32 {
        self.cast()
    }

    /// Round every element through `f32` storage, keeping `f64` layout —
    /// models values that crossed an `f32` wire or device memory.
    pub fn round_f32_storage(&self) -> Matrix {
        let mut rounded = self.clone();
        rounded.round_f32_storage_in_place();
        rounded
    }

    /// [`round_f32_storage`](Self::round_f32_storage) in place.
    pub fn round_f32_storage_in_place(&mut self) {
        for v in &mut self.data {
            *v = *v as f32 as f64;
        }
    }
}

impl MatrixF32 {
    /// Widen to double precision (exact).
    pub fn to_f64(&self) -> Matrix {
        self.cast()
    }
}

impl<E: Elem> std::ops::Index<(usize, usize)> for MatrixBase<E> {
    type Output = E;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &E {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl<E: Elem> std::ops::IndexMut<(usize, usize)> for MatrixBase<E> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut E {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

/// A borrowed matrix as a [`Cow`](std::borrow::Cow): a callee that needs
/// its own copy (`solve_sign`) makes one; a caller done with its matrix
/// hands it over instead and the callee works in it.
impl<'a, E: Elem> From<&'a MatrixBase<E>> for std::borrow::Cow<'a, MatrixBase<E>> {
    fn from(m: &'a MatrixBase<E>) -> Self {
        std::borrow::Cow::Borrowed(m)
    }
}

impl<E: Elem> From<MatrixBase<E>> for std::borrow::Cow<'_, MatrixBase<E>> {
    fn from(m: MatrixBase<E>) -> Self {
        std::borrow::Cow::Owned(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert!(!m.is_square());
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn identity_has_unit_diag() {
        let m = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
        assert_eq!(m.trace(), 4.0);
    }

    #[test]
    fn col_major_layout() {
        let m = Matrix::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // column 0 = [1, 2], column 1 = [3, 4]
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
        assert_eq!(m.col(1), &[3.0, 4.0]);
    }

    #[test]
    fn row_major_constructor_matches_math_layout() {
        let m = Matrix::from_row_major(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 10 + j) as f64);
        let t = m.transpose();
        assert_eq!(t.shape(), (5, 3));
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn principal_submatrix_selects_rows_and_cols() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.principal_submatrix(&[0, 2]);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], m[(0, 0)]);
        assert_eq!(s[(0, 1)], m[(0, 2)]);
        assert_eq!(s[(1, 0)], m[(2, 0)]);
        assert_eq!(s[(1, 1)], m[(2, 2)]);
    }

    #[test]
    fn submatrix_rectangular() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(&[1, 3], &[0, 1, 2]);
        assert_eq!(s.shape(), (2, 3));
        assert_eq!(s[(1, 2)], m[(3, 2)]);
    }

    #[test]
    fn add_sub_axpy() {
        let a = Matrix::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::identity(2);
        let c = a.add(&b).unwrap();
        assert_eq!(c[(0, 0)], 2.0);
        let d = c.sub(&b).unwrap();
        assert_eq!(d, a);
        let mut e = a.clone();
        e.axpy(2.0, &b).unwrap();
        assert_eq!(e[(0, 0)], 3.0);
        assert_eq!(e[(1, 1)], 6.0);
    }

    #[test]
    fn add_shape_mismatch_errors() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.add(&b),
            Err(LinalgError::DimensionMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn scale_and_shift_diag() {
        let mut m = Matrix::identity(3);
        m.scale(2.0);
        assert_eq!(m[(1, 1)], 2.0);
        m.shift_diag(-2.0);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn symmetrize_and_asymmetry() {
        let mut m = Matrix::from_row_major(2, 2, &[1.0, 2.0, 4.0, 1.0]);
        assert!((m.asymmetry() - 2.0).abs() < 1e-15);
        m.symmetrize();
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.asymmetry(), 0.0);
    }

    #[test]
    fn filter_drops_small_elements() {
        let mut m = Matrix::from_row_major(2, 2, &[1.0, 1e-9, -1e-9, 2.0]);
        let dropped = m.filter(1e-6);
        assert_eq!(dropped, 2);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m[(1, 0)], 0.0);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m.count_above(0.5), 2);
    }

    #[test]
    fn from_diag_builds_diagonal() {
        let m = Matrix::from_diag(&[1.0, -2.0, 3.0]);
        assert_eq!(m.shape(), (3, 3));
        assert_eq!(m.diag(), vec![1.0, -2.0, 3.0]);
        assert_eq!(m[(0, 1)], 0.0);
        assert_eq!(m.trace(), 2.0);
    }

    #[test]
    fn allclose_and_max_abs_diff() {
        let a = Matrix::identity(2);
        let mut b = a.clone();
        b[(0, 1)] = 1e-9;
        assert!(a.allclose(&b, 1e-8));
        assert!(!a.allclose(&b, 1e-10));
        assert!((a.max_abs_diff(&b) - 1e-9).abs() < 1e-24);
    }

    #[test]
    fn debug_format_truncates() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m:?}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("..."));
    }

    #[test]
    fn f32_matrix_basic_ops() {
        let a = MatrixF32::from_row_major(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a[(0, 1)], 2.0f32);
        let mut b = a.clone();
        b.scale(2.0);
        assert_eq!(b[(1, 1)], 8.0f32);
        assert_eq!(a.transpose()[(1, 0)], 2.0f32);
        assert_eq!(a.trace(), 5.0f32);
    }

    #[test]
    fn cast_roundtrips_and_rounds() {
        let a = Matrix::from_row_major(2, 2, &[0.1, 1.0 + 1e-12, -3.0, 0.0]);
        let a32 = a.to_f32();
        // Widening back is exact, but carries the f32 rounding.
        let back = a32.to_f64();
        assert_eq!(back[(0, 0)], 0.1f32 as f64);
        assert_eq!(back[(0, 1)], 1.0);
        assert_eq!(back[(1, 0)], -3.0);
        // round_f32_storage is the same rounding with f64 layout.
        assert_eq!(a.round_f32_storage(), back);
        // Idempotent: rounding an already-rounded matrix changes nothing.
        assert_eq!(back.round_f32_storage(), back);
    }
}
