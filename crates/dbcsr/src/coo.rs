//! Deterministic global COO view of a block sparsity pattern.
//!
//! Submatrix-method initialization requires *every* rank to know the full
//! block sparsity pattern of the distributed matrix (paper Sec. IV-A1):
//! entries are gathered, sorted by (column, row), and the resulting position
//! of each nonzero block serves as its globally unique ID throughout the
//! implementation.

/// Sorted COO representation of the nonzero-block pattern.
///
/// Entries are sorted by `(block_col, block_row)`; the index of an entry in
/// [`CooPattern::entries`] is its block ID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CooPattern {
    /// `(block_row, block_col)` pairs sorted by column then row.
    entries: Vec<(usize, usize)>,
    /// Start of each block column's run inside `entries`:
    /// `col_starts[c]..col_starts[c+1]`.
    col_starts: Vec<usize>,
    /// Number of block columns of the underlying matrix.
    nb: usize,
}

impl CooPattern {
    /// Build from an unsorted list of nonzero block coordinates.
    /// Duplicates are merged. `nb` is the number of block rows/columns.
    pub fn from_coords(coords: Vec<(usize, usize)>, nb: usize) -> Self {
        Self::from_pairs(coords.iter().copied(), nb)
    }

    /// [`from_coords`](Self::from_coords) over an iterator it walks twice:
    /// one counting pass lays the columns out and one places each block, so
    /// no list of all blocks is sorted. Only each column's rows are, and a
    /// row-major input (one rank's store) leaves them sorted already.
    pub fn from_pairs(coords: impl Iterator<Item = (usize, usize)> + Clone, nb: usize) -> Self {
        let mut col_starts = vec![0usize; nb + 1];
        for (r, c) in coords.clone() {
            assert!(
                r < nb && c < nb,
                "block coordinate ({r},{c}) outside {nb}x{nb} grid"
            );
            col_starts[c + 1] += 1;
        }
        for c in 0..nb {
            col_starts[c + 1] += col_starts[c];
        }
        // Place each block at its column's cursor; the cursors end where
        // the next column starts, and shift back into starts after.
        let mut entries = vec![(0, 0); col_starts[nb]];
        for (r, c) in coords {
            entries[col_starts[c]] = (r, c);
            col_starts[c] += 1;
        }
        col_starts.copy_within(0..nb, 1);
        col_starts[0] = 0;
        // Sort each column and merge its duplicates, compacting in place,
        // unless every column came out ascending and distinct already.
        let by_col = |a: &(usize, usize), b: &(usize, usize)| (a.1, a.0) < (b.1, b.0);
        if !entries.is_sorted_by(by_col) {
            let mut len = 0;
            for c in 0..nb {
                let run = col_starts[c]..col_starts[c + 1];
                entries[run.clone()].sort_unstable();
                col_starts[c] = len;
                for k in run {
                    if len == col_starts[c] || entries[len - 1] != entries[k] {
                        entries[len] = entries[k];
                        len += 1;
                    }
                }
            }
            col_starts[nb] = len;
            entries.truncate(len);
        }
        CooPattern {
            entries,
            col_starts,
            nb,
        }
    }

    /// Number of nonzero blocks.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Number of block rows/columns of the matrix.
    pub fn nb(&self) -> usize {
        self.nb
    }

    /// All entries, sorted by `(col, row)`. The index of an entry is its ID.
    pub fn entries(&self) -> &[(usize, usize)] {
        &self.entries
    }

    /// Deterministic unique ID of block `(r, c)`, if present.
    pub fn id_of(&self, r: usize, c: usize) -> Option<usize> {
        let lo = self.col_starts[c];
        let hi = self.col_starts[c + 1];
        self.entries[lo..hi]
            .binary_search_by_key(&r, |&(rr, _)| rr)
            .ok()
            .map(|p| lo + p)
    }

    /// Block rows with a nonzero block in column `c` (ascending). This is
    /// the index set that induces column `c`'s principal submatrix.
    pub fn rows_in_col(&self, c: usize) -> impl Iterator<Item = usize> + '_ {
        self.entries[self.col_ids(c)].iter().map(|&(r, _)| r)
    }

    /// IDs of column `c`'s blocks, in ascending row order: the column's run
    /// of [`entries`](Self::entries).
    pub fn col_ids(&self, c: usize) -> std::ops::Range<usize> {
        self.col_starts[c]..self.col_starts[c + 1]
    }

    /// Number of nonzero blocks in column `c`.
    pub fn col_nnz(&self, c: usize) -> usize {
        self.col_starts[c + 1] - self.col_starts[c]
    }

    /// Union of the nonzero row sets of several columns, ascending, into
    /// `rows` (cleared first, its buffer reused) — the index set of a
    /// *combined* submatrix built from multiple block columns (paper
    /// Sec. IV-C2).
    pub fn rows_in_cols(&self, cols: &[usize], rows: &mut Vec<usize>) {
        rows.clear();
        rows.reserve(cols.iter().map(|&c| self.col_nnz(c)).sum());
        rows.extend(cols.iter().flat_map(|&c| self.rows_in_col(c)));
        if cols.len() > 1 {
            rows.sort_unstable();
            rows.dedup();
        }
    }

    /// Fraction of nonzero blocks, `nnz / nb²`.
    pub fn fill_fraction(&self) -> f64 {
        if self.nb == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nb * self.nb) as f64
    }

    /// True if the pattern is structurally symmetric.
    pub fn is_symmetric(&self) -> bool {
        self.entries
            .iter()
            .all(|&(r, c)| self.id_of(c, r).is_some())
    }

    /// Fingerprint of this pattern under the given partition. Agrees with
    /// [`crate::matrix::DbcsrMatrix::pattern_fingerprint`] of any
    /// distribution of the same pattern.
    pub fn fingerprint(&self, dims: &crate::dims::BlockedDims) -> crate::wire::PatternFingerprint {
        let mut acc = crate::wire::FingerprintAccumulator::default();
        for &(r, c) in &self.entries {
            acc.add_block(r, c);
        }
        acc.finish(dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooPattern {
        // 3x3 grid, pattern:
        //  X . X
        //  X X .
        //  . . X
        CooPattern::from_coords(vec![(0, 0), (1, 0), (1, 1), (0, 2), (2, 2)], 3)
    }

    #[test]
    fn sorted_by_col_then_row() {
        let p = sample();
        assert_eq!(p.entries(), &[(0, 0), (1, 0), (1, 1), (0, 2), (2, 2)]);
    }

    #[test]
    fn ids_are_positions() {
        let p = sample();
        assert_eq!(p.id_of(0, 0), Some(0));
        assert_eq!(p.id_of(1, 0), Some(1));
        assert_eq!(p.id_of(1, 1), Some(2));
        assert_eq!(p.id_of(0, 2), Some(3));
        assert_eq!(p.id_of(2, 2), Some(4));
        assert_eq!(p.id_of(2, 0), None);
        for (id, &(r, c)) in p.entries().iter().enumerate() {
            assert_eq!(p.id_of(r, c), Some(id));
        }
    }

    #[test]
    fn column_queries() {
        let p = sample();
        assert_eq!(p.rows_in_col(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(p.rows_in_col(1).collect::<Vec<_>>(), vec![1]);
        assert_eq!(p.rows_in_col(2).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(p.col_nnz(0), 2);
        assert_eq!(p.col_nnz(1), 1);
    }

    #[test]
    fn combined_columns_union() {
        let p = sample();
        let mut rows = vec![7];
        p.rows_in_cols(&[0, 2], &mut rows);
        assert_eq!(rows, vec![0, 1, 2]);
        p.rows_in_cols(&[1], &mut rows);
        assert_eq!(rows, vec![1]);
        p.rows_in_cols(&[], &mut rows);
        assert_eq!(rows, Vec::<usize>::new());
    }

    #[test]
    fn duplicates_merged_and_order_independent() {
        let a = CooPattern::from_coords(vec![(1, 0), (0, 0), (1, 0)], 2);
        let b = CooPattern::from_coords(vec![(0, 0), (1, 0)], 2);
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 2);
    }

    #[test]
    fn fill_fraction_and_symmetry() {
        let p = sample();
        assert!((p.fill_fraction() - 5.0 / 9.0).abs() < 1e-15);
        assert!(!p.is_symmetric()); // (0,2) present, (2,0) missing
        let sym = CooPattern::from_coords(vec![(0, 0), (1, 0), (0, 1), (1, 1)], 2);
        assert!(sym.is_symmetric());
    }

    /// The counting pass against a sort: seeded lists in any order, with
    /// duplicates in several columns (so later columns compact onto
    /// earlier ones), row-major lists (the one-rank fast path) and empty
    /// columns.
    #[test]
    fn counting_pass_matches_a_sorted_set() {
        for seed in 0u64..300 {
            let mut next = (0u64..).map(|k| crate::wire::mix64(seed * 7919 + k));
            let nb = 1 + (next.next().unwrap_or(0) % 9) as usize;
            let len = (next.next().unwrap_or(0) % 40) as usize;
            let mut coords: Vec<(usize, usize)> = (0..len)
                .map(|_| {
                    let v = next.next().unwrap_or(0) as usize;
                    (v % nb, v / nb % nb)
                })
                .collect();
            if seed % 3 == 0 {
                coords.sort_unstable();
                coords.dedup();
            }
            let set: std::collections::BTreeSet<_> = coords.iter().map(|&(r, c)| (c, r)).collect();
            let p = CooPattern::from_coords(coords, nb);
            let expect: Vec<_> = set.into_iter().map(|(c, r)| (r, c)).collect();
            assert_eq!(p.entries(), &expect[..], "seed {seed}");
            for c in 0..nb {
                let rows: Vec<_> = expect.iter().filter(|e| e.1 == c).map(|e| e.0).collect();
                assert_eq!(p.rows_in_col(c).collect::<Vec<_>>(), rows, "seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_coordinate_panics() {
        CooPattern::from_coords(vec![(3, 0)], 3);
    }

    #[test]
    fn empty_pattern() {
        let p = CooPattern::from_coords(vec![], 4);
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.fill_fraction(), 0.0);
        assert!(p.is_symmetric());
        assert_eq!(p.rows_in_col(2).count(), 0);
    }
}
