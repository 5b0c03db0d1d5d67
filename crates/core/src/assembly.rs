//! Submatrix index sets, dense assembly and result extraction.
//!
//! Step 1 of the method (paper Sec. III-A): for a set of block columns
//! `cols`, the principal submatrix is induced by the union of nonzero block
//! rows of those columns. Step 3 scatters the columns of `f(a)` that
//! originate from `cols` back into the block-sparse result, *retaining the
//! sparsity pattern of the input*.
//!
//! "Which block lands at which offset" is decided once per spec, by one
//! walk over its (row-block, col-block) pairs, [`SubmatrixSpec::walk`]:
//! the copy programs it lays out in a [`CopyPrograms`] are the only
//! description of a submatrix in the crate, and the pattern IDs it lists
//! are what the transfer plan fetches. The engine caches the maps in its
//! plans; figures and tests walk on the spot ([`SubmatrixSpec::maps`]).

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

use sm_dbcsr::{BlockedDims, CooPattern};
use sm_linalg::Matrix;

/// Index-set description of one (possibly combined) submatrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
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
        let mut spec = SubmatrixSpec::default();
        spec.rebuild(pattern, dims, cols);
        spec
    }

    /// Make this the spec of `cols`, reusing its buffers, and return its
    /// dimension: what [`build`](Self::build) returns, without its
    /// allocations when one spec serves many groups in turn.
    pub fn rebuild(&mut self, pattern: &CooPattern, dims: &BlockedDims, cols: &[usize]) -> usize {
        assert!(
            !cols.is_empty(),
            "submatrix needs at least one block column"
        );
        self.cols.clear();
        self.cols.extend_from_slice(cols);
        self.cols.sort_unstable();
        self.cols.dedup();
        pattern.rows_in_cols(&self.cols, &mut self.rows);
        for &c in &self.cols {
            assert!(
                self.rows.binary_search(&c).is_ok(),
                "block column {c} has no diagonal entry; cannot extract its result"
            );
        }
        self.row_offsets.clear();
        self.row_offsets.reserve(self.rows.len());
        let mut off = 0usize;
        for &r in &self.rows {
            self.row_offsets.push(off);
            off += dims.size(r);
        }
        self.dim = off;
        off
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
        cost_of_dim(self.dim)
    }

    /// The one walk over the submatrix's (row-block, col-block) pairs: the
    /// pattern ID of every nonzero block inside it goes to `ids`, read off
    /// each column's run of the pattern — the blocks to transfer (Sec.
    /// IV-A3). Given `programs`, each block becomes an assembly slot there,
    /// those of the spec's own columns extraction slots, and the element
    /// columns of its own columns contributing ones. Returns the elements of
    /// the blocks it extracts.
    pub fn walk(
        &self,
        pattern: &CooPattern,
        dims: &BlockedDims,
        ids: &mut Vec<usize>,
        mut programs: Option<&mut CopyPrograms>,
    ) -> usize {
        let (mut extracted, mut sel_off) = (0, 0);
        let mut own = self.cols.iter().peekable();
        for (&bc, &col_off) in self.rows.iter().zip(&self.row_offsets) {
            // Both lists ascend and the spec's columns are among its rows.
            let own_col = own.next_if_eq(&&bc).is_some();
            let (ncols, mut at) = (dims.size(bc), 0);
            for id in pattern.col_ids(bc) {
                // The column's rows ascend like the spec's: search past the last.
                let br = pattern.entries()[id].0;
                at += self.rows[at..].partition_point(|&r| r < br);
                if self.rows.get(at) != Some(&br) {
                    continue;
                }
                let row_off = self.row_offsets[at];
                ids.push(id);
                let nrows = dims.size(br);
                extracted += if own_col { nrows * ncols } else { 0 };
                let Some(p) = programs.as_deref_mut() else {
                    continue;
                };
                p.slots.push(AssemblySlot {
                    br,
                    bc,
                    row_off,
                    col_off,
                });
                if own_col {
                    p.extracted.push(ExtractionSlot {
                        br,
                        bc,
                        row_off,
                        col_off,
                        sel_off,
                        nrows,
                        ncols,
                    });
                }
            }
            if own_col {
                if let Some(p) = programs.as_deref_mut() {
                    p.contributing.extend(col_off..col_off + ncols);
                }
                sel_off += ncols;
            }
        }
        if let Some(p) = programs {
            let ends = [p.slots.len(), p.extracted.len(), p.contributing.len()];
            p.walked.push((self.dim, ends));
        }
        extracted
    }

    /// The copy programs of this submatrix alone, from one walk.
    pub fn maps(&self, pattern: &CooPattern, dims: &BlockedDims) -> SubmatrixMaps {
        let mut programs = CopyPrograms::default();
        self.walk(pattern, dims, &mut Vec::new(), Some(&mut programs));
        let (mut assembly, mut extraction) = programs.share();
        SubmatrixMaps {
            assembly: assembly.remove(0),
            extraction: extraction.remove(0),
        }
    }
}

/// The `n³` cost of a submatrix of dimension `dim` (paper Eq. 14).
pub(crate) fn cost_of_dim(dim: usize) -> f64 {
    (dim as f64).powi(3)
}

/// The three buffers walks lay copy programs out in, one run per walked
/// submatrix in each, and each submatrix's dimension and run ends.
#[derive(Debug, Default)]
pub struct CopyPrograms {
    slots: Vec<AssemblySlot>,
    extracted: Vec<ExtractionSlot>,
    contributing: Vec<usize>,
    walked: Vec<(usize, [usize; 3])>,
}

impl CopyPrograms {
    /// The maps of the submatrices walked since the last share, in order,
    /// on one exact-capacity copy of each buffer, which it then empties.
    pub fn share(&mut self) -> (Vec<AssemblyMap>, Vec<ExtractionMap>) {
        let slots: Arc<[AssemblySlot]> = Arc::from(&self.slots[..]);
        let extracted: Arc<[ExtractionSlot]> = Arc::from(&self.extracted[..]);
        let contributing: Arc<[usize]> = Arc::from(&self.contributing[..]);
        fn run<T>(buffer: &Arc<[T]>, range: Range<usize>) -> SharedSlice<T> {
            let buffer = Arc::clone(buffer);
            SharedSlice { buffer, range }
        }
        let mut start = [0; 3];
        let share = |&(dim, end): &(usize, [usize; 3])| {
            let [s, e, c] = [0, 1, 2].map(|b| start[b]..end[b]);
            start = end;
            let assembly = AssemblyMap {
                dim,
                slots: run(&slots, s),
            };
            let extraction = ExtractionMap {
                dim,
                slots: run(&extracted, e),
                contributing: run(&contributing, c),
            };
            (assembly, extraction)
        };
        let maps = self.walked.iter().map(share).unzip();
        self.slots.clear();
        self.extracted.clear();
        self.contributing.clear();
        self.walked.clear();
        maps
    }
}

/// A run of a shared buffer: a handle on the buffer plus a range of it,
/// read as the slice it names.
#[derive(Clone)]
pub struct SharedSlice<T> {
    buffer: Arc<[T]>,
    range: Range<usize>,
}

impl<T> Deref for SharedSlice<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buffer[self.range.clone()]
    }
}

/// Equal runs, wherever they sit.
impl<T: PartialEq> PartialEq for SharedSlice<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for SharedSlice<T> {}

impl<T: fmt::Debug> fmt::Debug for SharedSlice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// One submatrix's copy programs ([`SubmatrixSpec::maps`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmatrixMaps {
    /// Assembly copy program; its slots' `(br, bc)` are the blocks the
    /// submatrix needs.
    pub assembly: AssemblyMap,
    /// Extraction copy program of the spec's own columns.
    pub extraction: ExtractionMap,
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
    pub slots: SharedSlice<AssemblySlot>,
}

impl AssemblyMap {
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
        for slot in self.slots.iter() {
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
    /// Dense dimension of the `f(a)` the slots read from.
    pub dim: usize,
    /// Block extractions in deterministic order.
    pub slots: SharedSlice<ExtractionSlot>,
    /// Element indices (submatrix-local) of the spec's own columns, in
    /// order: the columns extraction scatters (the width of the
    /// selected-columns matrix), and the rows of `Q` Algorithm 1 weighs.
    pub contributing: SharedSlice<usize>,
}

impl ExtractionMap {
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
        let width = if columns {
            self.contributing.len()
        } else {
            self.dim
        };
        assert_eq!(src.shape(), (self.dim, width), "result shape mismatch");
        for slot in self.slots.iter() {
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

/// A run covering a buffer of its own, for the references the tests build.
#[cfg(test)]
impl<T> From<Vec<T>> for SharedSlice<T> {
    fn from(buffer: Vec<T>) -> Self {
        let range = 0..buffer.len();
        let buffer = buffer.into();
        SharedSlice { buffer, range }
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
        let (mut ids, mut programs) = (vec![99], CopyPrograms::default());
        s.walk(&p, &d, &mut ids, Some(&mut programs));
        // Appended after what the list held, in the assembly's slot order.
        assert_eq!(ids.remove(0), 99);
        let mut req: Vec<_> = ids.iter().map(|&id| p.entries()[id]).collect();
        let slots: Vec<_> = (programs.share().0[0].slots.iter())
            .map(|s| (s.br, s.bc))
            .collect();
        assert_eq!(req, slots);
        // Principal submatrix on {0,1,2}: tridiagonal coupling inside.
        let mut expect = vec![(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2)];
        req.sort_unstable();
        expect.sort_unstable();
        assert_eq!(req, expect);
        // (2,0) and (0,2) are zero in the tridiagonal pattern: excluded.
        assert!(!req.contains(&(2, 0)));
    }

    #[test]
    fn block_fill_of_tridiagonal_window() {
        let (p, d) = tridiag_setup();
        let s = SubmatrixSpec::build(&p, &d, &[1]);
        // 7 of the window's 9 blocks are copied.
        let mut ids = Vec::new();
        s.walk(&p, &d, &mut ids, None);
        assert_eq!(ids.len(), 7);
        assert_eq!(s.rows.len(), 3);
    }

    #[test]
    fn walk_matches_the_spec_index_set() {
        // Combined columns {1, 2} of the tridiagonal pattern: rows 0..4,
        // own columns at element offsets 2 and 4.
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[2, 1]);
        let maps = spec.maps(&p, &d);
        assert_eq!(*maps.extraction.contributing, [2, 3, 4, 5]);
        for slot in maps.assembly.slots.iter() {
            assert_eq!(Some(slot.row_off), spec.offset_of(slot.br));
            assert_eq!(Some(slot.col_off), spec.offset_of(slot.bc));
        }
        let own: Vec<_> = (maps.extraction.slots.iter())
            .map(|e| (e.br, e.bc, e.sel_off))
            .collect();
        let expect = [
            (0, 1, 0),
            (1, 1, 0),
            (2, 1, 0),
            (1, 2, 2),
            (2, 2, 2),
            (3, 2, 2),
        ];
        assert_eq!(own, expect);
        // A spec rebuilt for other columns is the one `build` makes.
        let mut reused = spec.clone();
        reused.rebuild(&p, &d, &[0]);
        assert_eq!(reused, SubmatrixSpec::build(&p, &d, &[0]));
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
        let maps = spec.maps(&p, &d);
        let a = maps.assembly.assemble(|r, c| blocks.get(&(r, c)));
        // The assembled submatrix equals the dense principal submatrix on
        // element indices 0..6 (blocks 0,1,2) *with zeros where the pattern
        // is zero* — for a tridiagonal window including blocks 0..2 the
        // (0,2)/(2,0) block pairs are zero in both.
        let idx: Vec<usize> = (0..6).collect();
        let expect = dense.principal_submatrix(&idx);
        assert!(a.allclose(&expect, 0.0));

        // Identity function roundtrip: extracting from f(a) = a returns
        // exactly the original blocks of column 1.
        let result = maps.extraction.extract(&a);
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
        let result = spec.maps(&p, &d).extraction.extract(&f_a);
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
        let a = spec.maps(&p, &d).assembly.assemble(|_, _| None);
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
        let map = spec.maps(&p, &d).extraction;
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
        (spec.maps(&p, &d).extraction).extract_each(&bad, true, |_, _| ());
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_result_dimension_panics() {
        let (p, d) = tridiag_setup();
        let spec = SubmatrixSpec::build(&p, &d, &[1]);
        let bad = Matrix::zeros(spec.dim + 2, spec.dim + 2);
        spec.maps(&p, &d).extraction.extract(&bad);
    }
}
