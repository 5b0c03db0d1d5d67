//! Submatrix index sets, dense assembly and result extraction.
//!
//! Step 1 of the method (paper Sec. III-A): for a set of block columns
//! `cols`, the principal submatrix is induced by the union of nonzero block
//! rows of those columns. Step 3 scatters the columns of `f(a)` that
//! originate from `cols` back into the block-sparse result, *retaining the
//! sparsity pattern of the input*.
//!
//! "Which block lands at which offset" is decided once per spec, by
//! [`AssemblyMap::build`] and [`ExtractionMap::build`]; those flat copy
//! programs are the only assembly and extraction in the crate — the engine
//! caches them in its plans, figures and tests build them on the spot.

use std::collections::BTreeMap;

use sm_dbcsr::{BlockedDims, CooPattern};
use sm_linalg::Matrix;

/// Index-set description of one (possibly combined) submatrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmatrixSpec {
    /// The block columns this submatrix is generated from (sorted).
    pub cols: Vec<usize>,
    /// Union of nonzero block rows of those columns (sorted ascending).
    pub rows: Vec<usize>,
    /// Element offset of each entry of `rows` inside the dense submatrix.
    pub row_offsets: Vec<usize>,
    /// Dense dimension of the submatrix.
    pub dim: usize,
}

impl SubmatrixSpec {
    /// Build the spec for a group of block columns.
    ///
    /// # Panics
    /// Panics if `cols` is empty or a column's diagonal block is missing
    /// from the pattern (every orthogonalized Kohn–Sham matrix has nonzero
    /// diagonal blocks).
    pub fn build(pattern: &CooPattern, dims: &BlockedDims, cols: &[usize]) -> Self {
        assert!(
            !cols.is_empty(),
            "submatrix needs at least one block column"
        );
        let mut cols = cols.to_vec();
        cols.sort_unstable();
        cols.dedup();
        let rows = pattern.rows_in_cols(&cols);
        for &c in &cols {
            assert!(
                rows.binary_search(&c).is_ok(),
                "block column {c} has no diagonal entry; cannot extract its result"
            );
        }
        let mut row_offsets = Vec::with_capacity(rows.len());
        let mut off = 0usize;
        for &r in &rows {
            row_offsets.push(off);
            off += dims.size(r);
        }
        SubmatrixSpec {
            cols,
            rows,
            row_offsets,
            dim: off,
        }
    }

    /// Position of block `b` inside `rows`, if included.
    pub fn position_of(&self, b: usize) -> Option<usize> {
        self.rows.binary_search(&b).ok()
    }

    /// Element offset of block `b` inside the dense submatrix.
    pub fn offset_of(&self, b: usize) -> Option<usize> {
        self.position_of(b).map(|p| self.row_offsets[p])
    }

    /// Estimated floating-point cost of solving this submatrix, the `n³`
    /// model of paper Eq. 14.
    pub fn cost(&self) -> f64 {
        (self.dim as f64).powi(3)
    }

    /// All block coordinates `(br, bc)` of the original matrix that fall
    /// inside this principal submatrix *and* are nonzero in the pattern —
    /// i.e. the blocks that must be transferred to assemble it
    /// (Sec. IV-A3).
    pub fn required_blocks<'a>(
        &'a self,
        pattern: &'a CooPattern,
    ) -> impl Iterator<Item = (usize, usize)> + 'a {
        self.rows.iter().flat_map(move |&bc| {
            let inside = move |&br: &usize| self.position_of(br).is_some();
            pattern
                .rows_in_col(bc)
                .filter(inside)
                .map(move |br| (br, bc))
        })
    }

    /// Dense fraction: nonzero blocks of the submatrix relative to its full
    /// block grid (the block-wise submatrix sparsity of paper Fig. 11).
    pub fn block_fill(&self, pattern: &CooPattern) -> f64 {
        let nb = self.rows.len();
        if nb == 0 {
            return 0.0;
        }
        self.required_blocks(pattern).count() as f64 / (nb * nb) as f64
    }
}

/// One block copy of the assembly: source block `(br, bc)` lands at
/// `(row_off, col_off)` of the dense submatrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssemblySlot {
    /// Source block row.
    pub br: usize,
    /// Source block column.
    pub bc: usize,
    /// Destination element row offset.
    pub row_off: usize,
    /// Destination element column offset.
    pub col_off: usize,
}

/// Flat copy program assembling one dense principal submatrix, with every
/// pattern query and binary search resolved at build time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssemblyMap {
    /// Dense dimension of the submatrix.
    pub dim: usize,
    /// Block copies, in deterministic (column-major block) order.
    pub slots: Vec<AssemblySlot>,
}

impl AssemblyMap {
    /// Resolve every nonzero pattern block inside the spec's principal
    /// submatrix to its destination offsets.
    pub fn build(spec: &SubmatrixSpec, pattern: &CooPattern) -> Self {
        let mut slots = Vec::with_capacity(spec.rows.iter().map(|&bc| pattern.col_nnz(bc)).sum());
        for (pj, &bc) in spec.rows.iter().enumerate() {
            let col_off = spec.row_offsets[pj];
            for br in pattern.rows_in_col(bc) {
                let Some(pi) = spec.position_of(br) else {
                    continue;
                };
                slots.push(AssemblySlot {
                    br,
                    bc,
                    row_off: spec.row_offsets[pi],
                    col_off,
                });
            }
        }
        AssemblyMap {
            dim: spec.dim,
            slots,
        }
    }

    /// Assemble the dense submatrix: pure block copies, no index
    /// computation. `block_of(br, bc)` returns the stored block or `None`
    /// if zero; all required blocks must be locally available (the
    /// transfer plan guarantees this in distributed runs).
    pub fn assemble<'a>(&self, block_of: impl Fn(usize, usize) -> Option<&'a Matrix>) -> Matrix {
        let mut a = Matrix::zeros(self.dim, self.dim);
        self.assemble_into(&mut a, block_of);
        a
    }

    /// [`assemble`](Self::assemble) into `a`, a zero matrix of this size.
    pub(crate) fn assemble_into<'a>(
        &self,
        a: &mut Matrix,
        block_of: impl Fn(usize, usize) -> Option<&'a Matrix>,
    ) {
        for slot in &self.slots {
            let Some(blk) = block_of(slot.br, slot.bc) else {
                continue; // structurally present but numerically dropped
            };
            for j in 0..blk.ncols() {
                for i in 0..blk.nrows() {
                    a[(slot.row_off + i, slot.col_off + j)] = blk[(i, j)];
                }
            }
        }
    }
}

/// One block copy of the result extraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractionSlot {
    /// Destination block row.
    pub br: usize,
    /// Destination block column.
    pub bc: usize,
    /// Source element row offset in `f(a)`.
    pub row_off: usize,
    /// Source element column offset in the full `f(a)`.
    pub col_off: usize,
    /// Source element column offset in the selected-columns matrix.
    pub sel_off: usize,
    /// Block shape.
    pub nrows: usize,
    /// Block shape.
    pub ncols: usize,
}

/// Flat copy program extracting the result blocks that originate from a
/// spec's block columns out of `f(a)`, keyed by `(block_row, block_col)` —
/// only coordinates present in the input pattern are produced (paper
/// Sec. III-A step 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionMap {
    /// Block extractions in deterministic order.
    pub slots: Vec<ExtractionSlot>,
    /// Total contributing element columns (width of the selected-columns
    /// matrix).
    pub n_sel_cols: usize,
}

impl ExtractionMap {
    /// Resolve every pattern block of the spec's own columns to its source
    /// offsets in `f(a)` and in the selected-columns matrix.
    pub fn build(spec: &SubmatrixSpec, pattern: &CooPattern, dims: &BlockedDims) -> Self {
        // Every row of a spec's own columns is one of its rows.
        let mut slots = Vec::with_capacity(spec.cols.iter().map(|&bc| pattern.col_nnz(bc)).sum());
        let mut sel_base = 0usize;
        for &bc in &spec.cols {
            let ncols = dims.size(bc);
            let col_off = spec
                .offset_of(bc)
                .expect("spec columns are always included in rows");
            for br in pattern.rows_in_col(bc) {
                let Some(pi) = spec.position_of(br) else {
                    continue;
                };
                slots.push(ExtractionSlot {
                    br,
                    bc,
                    row_off: spec.row_offsets[pi],
                    col_off,
                    sel_off: sel_base,
                    nrows: dims.size(br),
                    ncols,
                });
            }
            sel_base += ncols;
        }
        ExtractionMap {
            slots,
            n_sel_cols: sel_base,
        }
    }

    /// Dense dimension of the `f(a)` the slots read from. A spec's rows are
    /// the union of its columns' pattern rows, so the last row block always
    /// has a slot and the largest slot end is the submatrix dimension.
    fn dim(&self) -> usize {
        let ends = self.slots.iter().map(|s| s.row_off + s.nrows);
        ends.max().unwrap_or(0)
    }

    /// Extract result blocks from the full `f(a)`.
    pub fn extract(&self, f_a: &Matrix) -> BTreeMap<(usize, usize), Matrix> {
        let mut out = BTreeMap::new();
        self.extract_each(f_a, false, |coord, blk| drop(out.insert(coord, blk)));
        out
    }

    /// Hand each result block to `put` as it is copied out of `src`: the
    /// full `f(a)`, or with `columns` only its contributing columns — the
    /// element columns of the spec's own block columns, in spec order.
    pub(crate) fn extract_each(
        &self,
        src: &Matrix,
        columns: bool,
        mut put: impl FnMut((usize, usize), Matrix),
    ) {
        let width = if columns { self.n_sel_cols } else { self.dim() };
        assert_eq!(src.shape(), (self.dim(), width), "result shape mismatch");
        for slot in &self.slots {
            let base_j = if columns { slot.sel_off } else { slot.col_off };
            let mut blk = Matrix::zeros(slot.nrows, slot.ncols);
            for j in 0..slot.ncols {
                for i in 0..slot.nrows {
                    blk[(i, j)] = src[(slot.row_off + i, base_j + j)];
                }
            }
            put((slot.br, slot.bc), blk);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pattern of a 4-block tridiagonal matrix with 2-element blocks.
    fn tridiag_setup() -> (CooPattern, BlockedDims) {
        let mut coords = Vec::new();
        for i in 0..4 {
            coords.push((i, i));
            if i + 1 < 4 {
                coords.push((i, i + 1));
                coords.push((i + 1, i));
            }
        }
        (
            CooPattern::from_coords(coords, 4),
            BlockedDims::uniform(4, 2),
        )
    }

    #[test]
    fn spec_for_single_column() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[1]);
        assert_eq!(s.cols, vec![1]);
        assert_eq!(s.rows, vec![0, 1, 2]);
        assert_eq!(s.dim, 6);
        assert_eq!(s.row_offsets, vec![0, 2, 4]);
        assert_eq!(s.offset_of(1), Some(2));
        assert_eq!(s.offset_of(3), None);
    }

    #[test]
    fn spec_for_combined_columns_unions_rows() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[1, 2]);
        assert_eq!(s.rows, vec![0, 1, 2, 3]);
        assert_eq!(s.dim, 8);
        // Duplicate columns collapse.
        let s2 = SubmatrixSpec::build(&p, &d, &[2, 1, 1]);
        assert_eq!(s, s2);
    }

    #[test]
    fn edge_column_is_smaller() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[0]);
        assert_eq!(s.rows, vec![0, 1]);
        assert_eq!(s.dim, 4);
    }

    #[test]
    fn required_blocks_are_pattern_intersection() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[1]);
        let req: Vec<_> = s.required_blocks(&p).collect();
        // Principal submatrix on {0,1,2}: tridiagonal coupling inside.
        let expect = vec![(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)];
        let mut req_sorted = req.clone();
        req_sorted.sort_unstable();
        let mut expect_sorted = expect;
        expect_sorted.sort_unstable();
        assert_eq!(req_sorted, expect_sorted);
        // (2,0) and (0,2) are zero in the tridiagonal pattern: excluded.
        assert!(!req_sorted.contains(&(2, 0)));
    }

    #[test]
    fn block_fill_of_tridiagonal_window() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[1]);
        // 7 of 9 blocks present.
        assert!((s.block_fill(&p) - 7.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn assemble_and_extract_roundtrip() {
        let (p, d) = tridiag_setup();
        // Build a full dense tridiagonal matrix and its block map.
        let n = d.n();
        let dense = Matrix::from_fn(n, n, |i, j| {
            if (i / 2) as isize - (j / 2) as isize == 0
                || ((i / 2) as isize - (j / 2) as isize).abs() == 1
            {
                (i * n + j) as f64 * 0.01 + 1.0
            } else {
                0.0
            }
        });
        let mut blocks: BTreeMap<(usize, usize), Matrix> = BTreeMap::new();
        for &(br, bc) in p.entries() {
            let rows: Vec<usize> = d.range(br).collect();
            let cols: Vec<usize> = d.range(bc).collect();
            blocks.insert((br, bc), dense.submatrix(&rows, &cols));
        }

        let spec = SubmatrixSpec::build(&p, &d, &[1]);
        let a = AssemblyMap::build(&spec, &p).assemble(|r, c| blocks.get(&(r, c)));
        // The assembled submatrix equals the dense principal submatrix on
        // element indices 0..6 (blocks 0,1,2) *with zeros where the pattern
        // is zero* — for a tridiagonal window including blocks 0..2 the
        // (0,2)/(2,0) block pairs are zero in both.
        let idx: Vec<usize> = (0..6).collect();
        let expect = dense.principal_submatrix(&idx);
        assert!(a.allclose(&expect, 0.0));

        // Identity function roundtrip: extracting from f(a) = a returns
        // exactly the original blocks of column 1.
        let result = ExtractionMap::build(&spec, &p, &d).extract(&a);
        assert_eq!(result.len(), 3); // rows 0,1,2 of column 1
        for ((br, bc), blk) in &result {
            assert!(blocks[&(*br, *bc)].allclose(blk, 0.0));
        }
    }

    #[test]
    fn extract_only_requested_columns() {
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[1, 2]);
        let f_a = Matrix::identity(spec.dim);
        let result = ExtractionMap::build(&spec, &p, &d).extract(&f_a);
        // Columns 1 and 2 each have 3 pattern rows.
        assert_eq!(result.len(), 6);
        assert!(result.keys().all(|&(_, bc)| bc == 1 || bc == 2));
    }

    #[test]
    fn cost_is_cubic() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[1]);
        assert_eq!(s.cost(), 216.0);
    }

    #[test]
    #[should_panic(expected = "at least one block column")]
    fn empty_cols_rejected() {
        let (p, d) = tridiag_setup();
        SubmatrixSpec::build(&p, &d, &[]);
    }

    #[test]
    fn missing_numerical_block_assembles_as_zero() {
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[0]);
        let a = AssemblyMap::build(&spec, &p).assemble(|_, _| None);
        assert!(a.allclose(&Matrix::zeros(4, 4), 0.0));
    }
}

#[cfg(test)]
mod selected_column_extraction_tests {
    use super::*;

    fn tridiag_setup() -> (CooPattern, BlockedDims) {
        let mut coords = Vec::new();
        for i in 0..4 {
            coords.push((i, i));
            if i + 1 < 4 {
                coords.push((i, i + 1));
                coords.push((i + 1, i));
            }
        }
        (
            CooPattern::from_coords(coords, 4),
            BlockedDims::uniform(4, 2),
        )
    }

    #[test]
    fn column_extraction_matches_full_extraction() {
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[1, 2]);
        // Fake a full f(a) with distinguishable entries.
        let f_a = Matrix::from_fn(spec.dim, spec.dim, |i, j| (i * 100 + j) as f64);
        let map = ExtractionMap::build(&spec, &p, &d);
        let full = map.extract(&f_a);
        // Carve the contributing columns out of f_a manually.
        let mut cols = Vec::new();
        for &bc in &spec.cols {
            let off = spec.offset_of(bc).unwrap();
            for j in 0..d.size(bc) {
                cols.push(off + j);
            }
        }
        let all_rows: Vec<usize> = (0..spec.dim).collect();
        let cols_mat = f_a.submatrix(&all_rows, &cols);
        let mut from_cols = BTreeMap::new();
        map.extract_each(&cols_mat, true, |coord, blk| {
            drop(from_cols.insert(coord, blk))
        });
        assert_eq!(full.len(), from_cols.len());
        for (coord, blk) in &full {
            assert!(
                from_cols[coord].allclose(blk, 0.0),
                "block {coord:?} differs"
            );
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_column_count_panics() {
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[1]);
        let bad = Matrix::zeros(spec.dim, 5);
        ExtractionMap::build(&spec, &p, &d).extract_each(&bad, true, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_result_dimension_panics() {
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[1]);
        let bad = Matrix::zeros(spec.dim + 2, spec.dim + 2);
        ExtractionMap::build(&spec, &p, &d).extract(&bad);
    }
}
