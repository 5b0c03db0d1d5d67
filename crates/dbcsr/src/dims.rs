//! Block partition of a matrix dimension.
//!
//! DBCSR matrices in CP2K use atom- or molecule-sized blocks; all matrices
//! in this reproduction are structurally symmetric, so one partition serves
//! both rows and columns.

use std::sync::Arc;

/// A partition of `0..n()` into consecutive blocks. Every matrix, plan and
/// view holds one, so a clone shares the two arrays instead of copying them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockedDims {
    sizes: Arc<[usize]>,
    offsets: Arc<[usize]>, // offsets[i] = start of block i; offsets[nb] = n
}

impl BlockedDims {
    /// Build from per-block sizes. Zero-sized blocks are rejected.
    pub fn new(sizes: Vec<usize>) -> Self {
        assert!(
            sizes.iter().all(|&s| s > 0),
            "blocks must have positive size"
        );
        let mut offsets = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &s in &sizes {
            acc += s;
            offsets.push(acc);
        }
        BlockedDims {
            sizes: sizes.into(),
            offsets: offsets.into(),
        }
    }

    /// `nb` blocks of uniform size `bs`.
    pub fn uniform(nb: usize, bs: usize) -> Self {
        BlockedDims::new(vec![bs; nb])
    }

    /// Number of blocks.
    #[inline]
    pub fn nb(&self) -> usize {
        self.sizes.len()
    }

    /// Total (element) dimension.
    #[inline]
    pub fn n(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// Size of block `b`.
    #[inline]
    pub fn size(&self, b: usize) -> usize {
        self.sizes[b]
    }

    /// First element index of block `b`.
    #[inline]
    pub fn offset(&self, b: usize) -> usize {
        self.offsets[b]
    }

    /// Element index range of block `b`.
    #[inline]
    pub fn range(&self, b: usize) -> std::ops::Range<usize> {
        self.offsets[b]..self.offsets[b + 1]
    }

    /// All block sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Block containing element index `i` (binary search).
    pub fn block_of(&self, i: usize) -> usize {
        assert!(i < self.n(), "element index {i} out of range");
        match self.offsets.binary_search(&i) {
            Ok(b) => b,
            Err(ins) => ins - 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_partition() {
        let d = BlockedDims::uniform(4, 6);
        assert_eq!(d.nb(), 4);
        assert_eq!(d.n(), 24);
        assert_eq!(d.size(2), 6);
        assert_eq!(d.offset(2), 12);
        assert_eq!(d.range(3), 18..24);
    }

    #[test]
    fn ragged_partition() {
        let d = BlockedDims::new(vec![2, 5, 1]);
        assert_eq!(d.n(), 8);
        assert_eq!(d.offset(0), 0);
        assert_eq!(d.offset(1), 2);
        assert_eq!(d.offset(2), 7);
        assert_eq!(d.sizes(), &[2, 5, 1]);
    }

    #[test]
    fn block_of_element() {
        let d = BlockedDims::new(vec![2, 5, 1]);
        assert_eq!(d.block_of(0), 0);
        assert_eq!(d.block_of(1), 0);
        assert_eq!(d.block_of(2), 1);
        assert_eq!(d.block_of(6), 1);
        assert_eq!(d.block_of(7), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_of_out_of_range() {
        BlockedDims::uniform(2, 3).block_of(6);
    }

    #[test]
    #[should_panic(expected = "positive size")]
    fn zero_block_rejected() {
        BlockedDims::new(vec![2, 0]);
    }
}
