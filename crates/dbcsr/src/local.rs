//! Local storage of nonzero dense blocks.
//!
//! A `BTreeMap` keyed by `(block_row, block_col)` keeps iteration order
//! deterministic across ranks and runs — determinism is what lets every
//! rank derive identical block IDs from the COO view (paper Sec. IV-A1).

use std::collections::BTreeMap;

use sm_linalg::Matrix;

/// Coordinates of a block in the block grid.
pub type BlockCoord = (usize, usize);

/// Set of dense nonzero blocks owned by one rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockStore {
    blocks: BTreeMap<BlockCoord, Matrix>,
}

impl BlockStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Insert (replace) a block.
    pub fn insert(&mut self, coord: BlockCoord, block: Matrix) {
        self.blocks.insert(coord, block);
    }

    /// Accumulate into a block, creating it zero-initialized on first touch.
    ///
    /// # Panics
    /// Panics if an existing block has a different shape.
    pub fn accumulate(&mut self, coord: BlockCoord, block: &Matrix) {
        match self.blocks.get_mut(&coord) {
            Some(existing) => existing
                .axpy(1.0, block)
                .expect("accumulate: block shape mismatch"),
            None => {
                self.blocks.insert(coord, block.clone());
            }
        }
    }

    /// Borrow a block if present.
    pub fn get(&self, coord: &BlockCoord) -> Option<&Matrix> {
        self.blocks.get(coord)
    }

    /// Mutably borrow a block if present.
    pub fn get_mut(&mut self, coord: &BlockCoord) -> Option<&mut Matrix> {
        self.blocks.get_mut(coord)
    }

    /// Remove a block, returning it.
    pub fn remove(&mut self, coord: &BlockCoord) -> Option<Matrix> {
        self.blocks.remove(coord)
    }

    /// True if the coordinate holds a block.
    pub fn contains(&self, coord: &BlockCoord) -> bool {
        self.blocks.contains_key(coord)
    }

    /// Deterministic (sorted) iteration over blocks.
    pub fn iter(&self) -> impl Iterator<Item = (&BlockCoord, &Matrix)> {
        self.blocks.iter()
    }

    /// Deterministic mutable iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&BlockCoord, &mut Matrix)> {
        self.blocks.iter_mut()
    }

    /// Sorted list of block coordinates.
    pub fn coords(&self) -> Vec<BlockCoord> {
        self.blocks.keys().copied().collect()
    }

    /// Drop blocks whose Frobenius norm is at most `eps` (DBCSR
    /// `filter_eps` semantics). Returns the number of dropped blocks.
    pub fn filter(&mut self, eps: f64) -> usize {
        let before = self.blocks.len();
        self.blocks
            .retain(|_, b| sm_linalg::norms::fro_norm_exceeds(b.as_slice(), eps));
        before - self.blocks.len()
    }

    /// Total stored elements (Σ rows·cols over blocks).
    pub fn stored_elements(&self) -> usize {
        self.blocks.values().map(|b| b.nrows() * b.ncols()).sum()
    }

    /// Drain all blocks out of the store.
    pub fn drain(&mut self) -> Vec<(BlockCoord, Matrix)> {
        std::mem::take(&mut self.blocks).into_iter().collect()
    }
}

impl FromIterator<(BlockCoord, Matrix)> for BlockStore {
    fn from_iter<I: IntoIterator<Item = (BlockCoord, Matrix)>>(iter: I) -> Self {
        BlockStore {
            blocks: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(v: f64) -> Matrix {
        Matrix::from_row_major(2, 2, &[v, 0.0, 0.0, v])
    }

    #[test]
    fn insert_get_remove() {
        let mut s = BlockStore::new();
        assert!(s.is_empty());
        s.insert((0, 1), blk(2.0));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&(0, 1)));
        assert_eq!(s.get(&(0, 1)).unwrap()[(0, 0)], 2.0);
        assert!(s.remove(&(0, 1)).is_some());
        assert!(s.is_empty());
    }

    #[test]
    fn accumulate_creates_then_adds() {
        let mut s = BlockStore::new();
        s.accumulate((1, 1), &blk(1.0));
        s.accumulate((1, 1), &blk(2.0));
        assert_eq!(s.get(&(1, 1)).unwrap()[(0, 0)], 3.0);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut s = BlockStore::new();
        s.insert((2, 0), blk(1.0));
        s.insert((0, 1), blk(1.0));
        s.insert((0, 0), blk(1.0));
        let coords = s.coords();
        assert_eq!(coords, vec![(0, 0), (0, 1), (2, 0)]);
    }

    #[test]
    fn filter_by_block_norm() {
        let mut s = BlockStore::new();
        s.insert((0, 0), blk(1.0));
        s.insert((0, 1), blk(1e-9));
        let dropped = s.filter(1e-6);
        assert_eq!(dropped, 1);
        assert!(s.contains(&(0, 0)));
        assert!(!s.contains(&(0, 1)));
    }

    #[test]
    fn stored_elements_counts() {
        let mut s = BlockStore::new();
        s.insert((0, 0), Matrix::zeros(2, 3));
        s.insert((1, 0), Matrix::zeros(4, 1));
        assert_eq!(s.stored_elements(), 10);
    }

    #[test]
    fn from_iterator_and_drain() {
        let s: BlockStore = vec![((0, 0), blk(1.0)), ((1, 1), blk(2.0))]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        let mut s = s;
        let drained = s.drain();
        assert_eq!(drained.len(), 2);
        assert!(s.is_empty());
    }
}
