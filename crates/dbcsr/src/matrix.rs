//! The distributed block-sparse matrix type.
//!
//! Each rank holds the blocks the cyclic distribution assigns to it; the
//! communicator is passed explicitly to every collective operation, mirroring
//! how libDBCSR threads its MPI communicator through all calls.

use sm_comsim::{Cart2d, Comm, Payload};
use sm_linalg::Matrix;

use crate::coo::CooPattern;
use crate::dims::BlockedDims;
use crate::local::BlockStore;
use crate::wire::{pack_blocks_prec, unpack_blocks_prec, ValueFormat};

/// The process grid for a communicator of `comm_size` ranks — the single
/// source of the block→rank distribution policy. Everything that maps
/// blocks to owners (matrices, the submatrix engine's transfer planning)
/// must derive its grid from here so the mapping cannot drift.
///
/// Any rank count is accepted: the grid is the most-square factorization
/// ([`Cart2d::squarest`]), so per-job scheduler subgroups of arbitrary
/// width can host matrices. Cannon multiplication supports every grid
/// shape this produces, square or not.
pub fn process_grid(comm_size: usize) -> Cart2d {
    Cart2d::squarest(comm_size)
}

/// SPMD handle to a distributed block-sparse matrix.
///
/// All matrices in this reproduction are square with identical row and
/// column block partitions (Kohn–Sham, overlap and density matrices all
/// share the basis-function partition).
#[derive(Debug, Clone, PartialEq)]
pub struct DbcsrMatrix {
    dims: BlockedDims,
    grid: Cart2d,
    rank: usize,
    store: BlockStore,
}

impl DbcsrMatrix {
    /// Create an empty (all-zero) matrix for `rank` in a communicator of
    /// `comm_size` ranks.
    pub fn new(dims: BlockedDims, rank: usize, comm_size: usize) -> Self {
        let grid = process_grid(comm_size);
        assert!(rank < comm_size, "rank {rank} outside communicator");
        DbcsrMatrix {
            dims,
            grid,
            rank,
            store: BlockStore::new(),
        }
    }

    /// The block partition.
    pub fn dims(&self) -> &BlockedDims {
        &self.dims
    }

    /// The process grid.
    pub fn grid(&self) -> Cart2d {
        self.grid
    }

    /// This handle's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total element dimension `n`.
    pub fn n(&self) -> usize {
        self.dims.n()
    }

    /// Number of block rows/columns.
    pub fn nb(&self) -> usize {
        self.dims.nb()
    }

    /// Owning rank of block `(br, bc)` under the cyclic distribution.
    pub fn owner(&self, br: usize, bc: usize) -> usize {
        self.grid.owner_of_block(br, bc)
    }

    /// True if this rank owns block `(br, bc)`.
    pub fn is_mine(&self, br: usize, bc: usize) -> bool {
        self.owner(br, bc) == self.rank
    }

    /// Local block storage (read).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Local block storage (write). Callers must respect the distribution;
    /// [`DbcsrMatrix::insert_block`] is the checked path.
    pub fn store_mut(&mut self) -> &mut BlockStore {
        &mut self.store
    }

    /// Insert a block after validating ownership and shape.
    ///
    /// # Panics
    /// Panics if this rank does not own `(br, bc)` or the block shape does
    /// not match the partition.
    pub fn insert_block(&mut self, br: usize, bc: usize, block: Matrix) {
        assert!(
            self.is_mine(br, bc),
            "rank {} inserting non-owned block ({br},{bc})",
            self.rank
        );
        assert_eq!(
            block.shape(),
            (self.dims.size(br), self.dims.size(bc)),
            "block ({br},{bc}) has wrong shape"
        );
        self.store.insert((br, bc), block);
    }

    /// Borrow a local block.
    pub fn block(&self, br: usize, bc: usize) -> Option<&Matrix> {
        self.store.get(&(br, bc))
    }

    /// Build this rank's part from a full dense matrix (replicated input).
    /// Blocks whose Frobenius norm is at most `eps` are not stored.
    pub fn from_dense(
        dense: &Matrix,
        dims: BlockedDims,
        rank: usize,
        comm_size: usize,
        eps: f64,
    ) -> Self {
        assert_eq!(dense.shape(), (dims.n(), dims.n()), "dense shape mismatch");
        let mut m = DbcsrMatrix::new(dims, rank, comm_size);
        for br in 0..m.nb() {
            for bc in 0..m.nb() {
                if !m.is_mine(br, bc) {
                    continue;
                }
                let rows: Vec<usize> = m.dims.range(br).collect();
                let cols: Vec<usize> = m.dims.range(bc).collect();
                let blk = dense.submatrix(&rows, &cols);
                if sm_linalg::norms::fro_norm_exceeds(blk.as_slice(), eps) {
                    m.store.insert((br, bc), blk);
                }
            }
        }
        m
    }

    /// Identity matrix in block form (diagonal blocks only).
    pub fn identity(dims: BlockedDims, rank: usize, comm_size: usize) -> Self {
        let mut m = DbcsrMatrix::new(dims, rank, comm_size);
        for b in 0..m.nb() {
            if m.is_mine(b, b) {
                let s = m.dims.size(b);
                m.store.insert((b, b), Matrix::identity(s));
            }
        }
        m
    }

    /// Gather the full dense matrix on every rank (collective). Intended
    /// for tests and small reference computations.
    pub fn to_dense<C: Comm>(&self, comm: &C) -> Matrix {
        let (meta, data) = pack_blocks_prec(self.store.iter(), ValueFormat::F64);
        let metas = comm.allgather_u64(&meta);
        let datas = comm.allgather_f64(&data.into_f64());
        let mut dense = Matrix::zeros(self.n(), self.n());
        for (meta, data) in metas.iter().zip(datas) {
            for (coord, blk) in unpack_blocks_prec(&self.dims, meta, Payload::F64(data)) {
                let (br, bc) = coord;
                let r0 = self.dims.offset(br);
                let c0 = self.dims.offset(bc);
                for j in 0..blk.ncols() {
                    for i in 0..blk.nrows() {
                        dense[(r0 + i, c0 + j)] = blk[(i, j)];
                    }
                }
            }
        }
        dense
    }

    /// Build the deterministic global COO sparsity view (collective;
    /// paper Sec. IV-A1). Identical on every rank.
    pub fn global_pattern<C: Comm>(&self, comm: &C) -> CooPattern {
        let local: Vec<u64> = self
            .store
            .iter()
            .flat_map(|(&(r, c), _)| [r as u64, c as u64])
            .collect();
        let all = comm.allgather_u64(&local);
        let coords: Vec<(usize, usize)> = all
            .iter()
            .flat_map(|v| v.chunks_exact(2).map(|p| (p[0] as usize, p[1] as usize)))
            .collect();
        CooPattern::from_coords(coords, self.nb())
    }

    /// Local number of stored blocks.
    pub fn local_nnz_blocks(&self) -> usize {
        self.store.len()
    }

    /// Order- and distribution-independent fingerprint of the global block
    /// sparsity pattern plus partition (collective). Costs one hash pass
    /// over the *local* blocks and a 5-word allreduce — no allgather of the
    /// pattern — so it is cheap enough to run on every numeric-phase call.
    /// Matches [`crate::coo::CooPattern::fingerprint`] of the global
    /// pattern with the same partition.
    pub fn pattern_fingerprint<C: Comm>(&self, comm: &C) -> crate::wire::PatternFingerprint {
        let mut acc = crate::wire::FingerprintAccumulator::default();
        for (&(br, bc), _) in self.store.iter() {
            acc.add_block(br, bc);
        }
        let mut buf = acc.to_reduction();
        comm.allreduce_f64(sm_comsim::ReduceOp::Sum, &mut buf);
        crate::wire::FingerprintAccumulator::from_reduction(&buf).finish(&self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_comsim::{run_ranks, SerialComm};

    fn test_dims() -> BlockedDims {
        BlockedDims::new(vec![2, 3, 1])
    }

    fn dense_banded(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if (i as isize - j as isize).abs() <= 2 {
                (i + j) as f64 + 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn serial_from_dense_roundtrip() {
        let dims = test_dims();
        let dense = dense_banded(dims.n());
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let back = m.to_dense(&comm);
        assert!(back.allclose(&dense, 0.0));
    }

    #[test]
    fn from_dense_skips_zero_blocks() {
        let dims = BlockedDims::uniform(4, 2);
        let dense = Matrix::identity(8);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        // Only the 4 diagonal blocks are nonzero.
        assert_eq!(m.local_nnz_blocks(), 4);
    }

    #[test]
    fn cyclic_ownership_4_ranks() {
        let dims = BlockedDims::uniform(4, 2);
        let m = DbcsrMatrix::new(dims, 0, 4);
        assert_eq!(m.owner(0, 0), 0);
        assert_eq!(m.owner(0, 1), 1);
        assert_eq!(m.owner(1, 0), 2);
        assert_eq!(m.owner(1, 1), 3);
        assert_eq!(m.owner(2, 2), 0);
        assert!(m.is_mine(0, 0));
        assert!(!m.is_mine(0, 1));
    }

    #[test]
    fn non_square_comm_uses_squarest_grid() {
        // Scheduler subgroups come in arbitrary widths; ownership follows
        // the most-square factorization (here 1×3) and stays a partition.
        let m = DbcsrMatrix::new(test_dims(), 0, 3);
        assert_eq!(m.grid(), Cart2d::new(1, 3));
        for br in 0..m.nb() {
            for bc in 0..m.nb() {
                assert!(m.owner(br, bc) < 3);
            }
        }
        // 6 ranks factor 2×3.
        let m6 = DbcsrMatrix::new(test_dims(), 5, 6);
        assert_eq!(m6.grid(), Cart2d::new(2, 3));
    }

    #[test]
    #[should_panic(expected = "non-owned block")]
    fn inserting_foreign_block_panics() {
        let mut m = DbcsrMatrix::new(BlockedDims::uniform(2, 2), 0, 4);
        m.insert_block(0, 1, Matrix::zeros(2, 2));
    }

    #[test]
    #[should_panic(expected = "wrong shape")]
    fn inserting_misshapen_block_panics() {
        let mut m = DbcsrMatrix::new(BlockedDims::new(vec![2, 3]), 0, 1);
        m.insert_block(0, 1, Matrix::zeros(2, 2));
    }

    #[test]
    fn identity_blocks() {
        let dims = test_dims();
        let m = DbcsrMatrix::identity(dims, 0, 1);
        let comm = SerialComm::new();
        let dense = m.to_dense(&comm);
        assert!(dense.allclose(&Matrix::identity(6), 0.0));
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let dims = test_dims();
        let dense = dense_banded(dims.n());
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let (meta, data) = pack_blocks_prec(m.store().iter(), ValueFormat::F64);
        let blocks = unpack_blocks_prec(&dims, &meta, data);
        assert_eq!(blocks.len(), m.local_nnz_blocks());
        for (coord, blk) in blocks {
            assert_eq!(m.block(coord.0, coord.1).unwrap(), &blk);
        }
    }

    #[test]
    fn pack_empty() {
        let store = BlockStore::new();
        let (meta, data) = pack_blocks_prec(store.iter(), ValueFormat::F64);
        assert_eq!(meta, vec![0]);
        assert_eq!(data, Payload::F64(Vec::new()));
        assert!(unpack_blocks_prec(&test_dims(), &meta, data).is_empty());
    }

    #[test]
    fn distributed_to_dense_matches_serial() {
        let dims = BlockedDims::uniform(6, 2);
        let dense = dense_banded(dims.n());
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            m.to_dense(&SerialComm::new())
        };
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            m.to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&serial, 0.0));
        }
    }

    #[test]
    fn distributed_pattern_is_identical_on_all_ranks() {
        let dims = BlockedDims::uniform(6, 2);
        let dense = dense_banded(dims.n());
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            m.global_pattern(c)
        });
        let first = &results[0];
        assert!(first.nnz() > 0);
        for p in &results {
            assert_eq!(p, first);
        }
        // Pattern must match the serial one.
        let serial = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0)
            .global_pattern(&SerialComm::new());
        assert_eq!(first, &serial);
    }

    #[test]
    fn distribution_partitions_blocks() {
        // Every block owned by exactly one rank.
        let dims = BlockedDims::uniform(5, 2);
        let dense = dense_banded(dims.n());
        let (results, _) = run_ranks(9, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            m.store().coords()
        });
        let mut all: Vec<(usize, usize)> = results.into_iter().flatten().collect();
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "a block was stored on two ranks");
        let serial = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        assert_eq!(total, serial.local_nnz_blocks());
    }
}
