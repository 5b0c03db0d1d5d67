//! Distributed block-sparse matrix multiplication — generalized Cannon
//! ring shifts on any `rows × cols` process grid.
//!
//! libDBCSR implements multiplication with a modified Cannon's algorithm
//! (paper Sec. II-C): tiles of `A` shift westward and tiles of `B` shift
//! northward around the process grid. This implementation generalizes the
//! classic square-grid lockstep to **any** Cartesian grid the
//! [`crate::matrix::process_grid`] factorization produces (1×3, 2×3, 2×4,
//! 3×4, …): tiles of `A` circulate westward around each grid *row*
//! (`cols − 1` unit shifts) and tiles of `B` northward around each grid
//! *column* (`rows − 1` unit shifts). Under the cyclic block→rank
//! distribution a rank at `(r, c)` owns `A` blocks with `br ≡ r (mod
//! rows)` and `B` blocks with `bc ≡ c (mod cols)`, so after the ring
//! passes it holds exactly the `A` row panel and `B` column panel that
//! produce its `C` blocks — every `A(br,bk)·B(bk,bc)` product is formed
//! exactly once, on the rank the cyclic distribution assigns `C(br,bc)`
//! to.
//!
//! Unlike the lockstep variant (which applies block products in tile-
//! arrival order, an order that depends on the grid shape), the products
//! are applied once per output block in **canonical ascending inner-index
//! order**. That makes the result bitwise-identical to the serial multiply
//! on every grid shape — the determinism contract the scheduler's
//! equivalence suites pin — at the cost of holding one row panel of `A`
//! and one column panel of `B` per rank instead of a single streamed tile.
//!
//! The local multiply is a stacked one, as in libDBCSR (Borštnik et al.,
//! *Parallel Computing* 40, 2014): each output block row gathers its block
//! products into flat buffers, grouped by output block, and each output
//! block's stack runs through [`sm_linalg::gemm::gemm_stack`], whose
//! fixed-shape kernel keeps the 6 × 6 block of `C` in registers for the
//! whole stack. The per-element chain is the one a `gemm` call per block
//! product makes, so the stack changes time, not bits.
//!
//! The local multiply counts floating-point operations and the shifts count
//! bytes, so the same code path feeds both the correctness tests and the
//! analytic cluster-time model of the scaling experiments.

use std::borrow::Cow;

use rayon::prelude::*;
use sm_comsim::Comm;
use sm_linalg::gemm::{gemm_stack, PAR_THRESHOLD_FLOPS};
use sm_linalg::norms::fro_norm_exceeds;
use sm_linalg::Matrix;

use crate::dims::BlockedDims;
use crate::error::DbcsrError;
use crate::local::BlockStore;
use crate::matrix::DbcsrMatrix;
use crate::wire;

/// Tags for the two payloads of a tile shift (meta + data), separated for
/// the A (westward) and B (northward) streams.
const TAG_A_META: u64 = 0x10;
const TAG_A_DATA: u64 = 0x11;
const TAG_B_META: u64 = 0x20;
const TAG_B_DATA: u64 = 0x21;

/// Instrumentation of one distributed multiplication.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiplyStats {
    /// Local floating-point operations (2·m·n·k per block product), this
    /// rank.
    pub local_flops: u64,
    /// Bytes this rank shifted to neighbors.
    pub bytes_shifted: u64,
    /// Block products on this rank.
    pub block_gemms: u64,
}

impl MultiplyStats {
    /// Merge counters (e.g. across ranks).
    pub fn merge(&mut self, other: &MultiplyStats) {
        self.local_flops += other.local_flops;
        self.bytes_shifted += other.bytes_shifted;
        self.block_gemms += other.block_gemms;
    }
}

/// `C = A · B` on the distributed matrices, with optional block filtering
/// of the result (DBCSR's `eps_filter`). Both operands must share the
/// partition and the process grid; a mismatch returns a typed
/// [`DbcsrError`] so the caller can fail the job instead of the rank.
/// Collective over `comm`. Works on any `rows × cols` grid.
pub fn multiply<C: Comm>(
    a: &DbcsrMatrix,
    b: &DbcsrMatrix,
    comm: &C,
    eps_filter: Option<f64>,
) -> Result<(DbcsrMatrix, MultiplyStats), DbcsrError> {
    if a.dims() != b.dims() {
        return Err(DbcsrError::PartitionMismatch {
            op: "multiply",
            lhs_nb: a.nb(),
            rhs_nb: b.nb(),
        });
    }
    if a.grid() != b.grid() {
        return Err(DbcsrError::GridMismatch {
            op: "multiply",
            lhs: (a.grid().rows(), a.grid().cols()),
            rhs: (b.grid().rows(), b.grid().cols()),
        });
    }
    let grid = a.grid();
    let rank = a.rank();
    let mut stats = MultiplyStats::default();

    // The A row panel circulates westward around this grid row (blocks
    // with br ≡ my_r (mod rows)), the B column panel northward around
    // this grid column (bc ≡ my_c (mod cols)).
    let (west, east) = (grid.left(rank, 1), grid.right(rank, 1));
    let a_tags = (TAG_A_META, TAG_A_DATA);
    let a_panel = gather_panel(a, comm, grid.cols(), west, east, a_tags, &mut stats);
    let (north, south) = (grid.up(rank, 1), grid.down(rank, 1));
    let b_tags = (TAG_B_META, TAG_B_DATA);
    let b_panel = gather_panel(b, comm, grid.rows(), north, south, b_tags, &mut stats);

    // One multiply over the complete panels: every C(br, bc) block this
    // rank owns accumulates its products in ascending bk order, the same
    // order the serial path uses — bitwise-identical on every grid shape.
    let mut c_mat = DbcsrMatrix::new(a.dims().clone(), rank, grid.size());
    *c_mat.store_mut() = local_multiply(&a_panel, &b_panel, a.dims(), eps_filter, &mut stats);

    // Sanity: every produced block must be owned by this rank.
    debug_assert!(c_mat
        .store()
        .coords()
        .iter()
        .all(|&(br, bc)| c_mat.is_mine(br, bc)));

    Ok((c_mat, stats))
}

/// This rank's panel of `m`: its own blocks and those of the `ring − 1`
/// other ranks of its ring, one unit shift to `dst` (and from `src`) at a
/// time. Rank tiles partition the blocks, so the union needs no
/// deduplication, and the sorted store keeps them in ascending order
/// whatever the arrival order. On a ring of one the panel is the local
/// store itself, borrowed.
fn gather_panel<'m, C: Comm>(
    m: &'m DbcsrMatrix,
    comm: &C,
    ring: usize,
    dst: usize,
    src: usize,
    (tag_meta, tag_data): (u64, u64),
    stats: &mut MultiplyStats,
) -> Cow<'m, BlockStore> {
    if ring <= 1 {
        return Cow::Borrowed(m.store());
    }
    let mut panel = m.store().clone();
    let mut tile = Cow::Borrowed(m.store());
    for _ in 1..ring {
        let (incoming, bytes) =
            wire::shift_store(&tile, m.dims(), dst, src, tag_meta, tag_data, comm);
        stats.bytes_shifted += bytes;
        for (&coord, blk) in incoming.iter() {
            panel.insert(coord, blk.clone());
        }
        tile = Cow::Owned(incoming);
    }
    Cow::Owned(panel)
}

/// `A · B` of two local panels of blocks partitioned by `dims`, each
/// result block kept only if its Frobenius norm exceeds `eps_filter` (when
/// given).
///
/// `B` is indexed by block row once, in flat buffers, so each `A` block
/// `(br, bk)` meets exactly the `B` blocks `(bk, bc)` sharing its inner
/// index. Each output block row then builds its stack: every product
/// `A(br, bk) · B(bk, bc)` of the row as a pair of element slices, grouped
/// by output block in ascending `bc` and, within one, in ascending `bk`.
/// Each output block is one [`gemm_stack`] call. Distinct rows touch
/// disjoint `C` blocks, so they fan out over the `rayon` pool, as DBCSR's
/// OpenMP threads do, once the multiply reaches `gemm`'s threading
/// threshold: below it the shim's per-call threads cost more than they
/// save.
fn local_multiply(
    a: &BlockStore,
    b: &BlockStore,
    dims: &BlockedDims,
    eps_filter: Option<f64>,
    stats: &mut MultiplyStats,
) -> BlockStore {
    let nb = dims.nb();
    // Row bk of B is b_blocks[b_start[bk]..b_start[bk + 1]], ascending bc.
    let mut b_start = vec![0; nb + 1];
    for &(bk, _) in b.iter().map(|(coord, _)| coord) {
        b_start[bk + 1] += 1;
    }
    for bk in 0..nb {
        b_start[bk + 1] += b_start[bk];
    }
    let b_blocks: Vec<(usize, &[f64])> = b
        .iter()
        .map(|(&(_, bc), blk)| (bc, blk.as_slice()))
        .collect();
    let b_row = |bk: usize| &b_blocks[b_start[bk]..b_start[bk + 1]];

    let a_blocks: Vec<(usize, usize, &[f64])> = a
        .iter()
        .map(|(&(br, bk), blk)| (br, bk, blk.as_slice()))
        .collect();
    // Columns of C that row bk of B reaches, summed over its blocks.
    let mut width = vec![0; nb];
    for &(bk, bc) in b.iter().map(|(coord, _)| coord) {
        width[bk] += dims.size(bc);
    }
    let mut flops = 0;
    for &(br, bk, _) in &a_blocks {
        flops += 2 * dims.size(br) * dims.size(bk) * width[bk];
        stats.block_gemms += b_row(bk).len() as u64;
    }
    stats.local_flops += flops as u64;

    let row_product = |row: &&[(usize, usize, &[f64])]| {
        let Some(&(br, _, _)) = row.first() else {
            return (0, Vec::new(), Vec::new());
        };
        // Counting sort of the row's products by output block column: those
        // of column bc land in stack[start[bc]..start[bc + 1]], in
        // ascending bk because the row is walked in ascending bk.
        let mut start = vec![0; nb + 1];
        for &(_, bk, _) in *row {
            for &(bc, _) in b_row(bk) {
                start[bc + 1] += 1;
            }
        }
        for bc in 0..nb {
            start[bc + 1] += start[bc];
        }
        let mut next = start.clone();
        let mut stack = vec![(&[][..], &[][..]); start[nb]];
        for &(_, bk, a_blk) in *row {
            for &(bc, b_blk) in b_row(bk) {
                stack[next[bc]] = (a_blk, b_blk);
                next[bc] += 1;
            }
        }
        // The row's result blocks, column-major one after the other in
        // `values`, and the (bc, offset) of each one the filter keeps.
        let m = dims.size(br);
        let reached = (0..nb).filter(|&bc| start[bc + 1] > start[bc]);
        let mut values = Vec::with_capacity(reached.map(|bc| m * dims.size(bc)).sum());
        let mut kept = Vec::new();
        for bc in 0..nb {
            let products = &stack[start[bc]..start[bc + 1]];
            if products.is_empty() {
                continue;
            }
            let (at, n) = (values.len(), dims.size(bc));
            values.resize(at + m * n, 0.0);
            let c_blk = &mut values[at..];
            gemm_stack(products, (m, n), c_blk).expect("blocks are shaped by their partition");
            if eps_filter.is_none_or(|eps| fro_norm_exceeds(c_blk, eps)) {
                kept.push((bc, at));
            } else {
                values.truncate(at);
            }
        }
        (br, kept, values)
    };
    let rows: Vec<&[(usize, usize, &[f64])]> = a_blocks.chunk_by(|x, y| x.0 == y.0).collect();
    let rows: Vec<_> = if flops >= PAR_THRESHOLD_FLOPS {
        rows.par_iter().map(row_product).collect()
    } else {
        rows.iter().map(row_product).collect()
    };
    // The result's blocks are allocated here, after every row's stack is
    // freed, one after the other in coordinate order. Made inside the rows
    // they sat among the rows' scratch, and the SCF ops of `smbench
    // scf_md_w2`, which read the input the orthogonalization built, took
    // 5 % longer.
    let mut c = BlockStore::new();
    for (br, kept, values) in rows {
        let m = dims.size(br);
        for (bc, at) in kept {
            let n = dims.size(bc);
            let blk = Matrix::from_col_major(m, n, values[at..][..m * n].to_vec());
            c.insert((br, bc), blk);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::BlockedDims;
    use crate::wire::mix64;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_linalg::gemm::matmul;

    fn dense_banded(n: usize, halfwidth: isize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if (i as isize - j as isize).abs() <= halfwidth {
                ((i * 7 + j * 3) % 11) as f64 * 0.3 - 0.5
            } else {
                0.0
            }
        })
    }

    #[test]
    fn serial_multiply_matches_dense() {
        let dims = BlockedDims::new(vec![2, 3, 2, 1]);
        let n = dims.n();
        let da = dense_banded(n, 3);
        let db = dense_banded(n, 2);
        let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(&db, dims.clone(), 0, 1, 0.0);
        let comm = SerialComm::new();
        let (c, stats) = multiply(&a, &b, &comm, None).unwrap();
        let expect = matmul(&da, &db).unwrap();
        assert!(c.to_dense(&comm).allclose(&expect, 1e-12));
        assert!(stats.local_flops > 0);
        assert_eq!(stats.bytes_shifted, 0, "serial multiply moves no bytes");
    }

    #[test]
    fn distributed_multiply_matches_dense_4_ranks() {
        let dims = BlockedDims::uniform(6, 2);
        let n = dims.n();
        let da = dense_banded(n, 4);
        let db = dense_banded(n, 3);
        let expect = matmul(&da, &db).unwrap();
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            let b = DbcsrMatrix::from_dense(&db, dims.clone(), c.rank(), c.size(), 0.0);
            let (prod, stats) = multiply(&a, &b, c, None).unwrap();
            (prod.to_dense(c), stats)
        });
        for (dense, _) in &results {
            assert!(dense.allclose(&expect, 1e-12));
        }
        // With q = 2 there are shifts, so bytes must flow.
        let total_bytes: u64 = results.iter().map(|(_, s)| s.bytes_shifted).sum();
        assert!(total_bytes > 0);
    }

    #[test]
    fn distributed_multiply_matches_dense_9_ranks() {
        let dims = BlockedDims::new(vec![1, 2, 3, 2, 1, 2]);
        let n = dims.n();
        let da = dense_banded(n, 5);
        let db = dense_banded(n, 2);
        let expect = matmul(&da, &db).unwrap();
        let (results, _) = run_ranks(9, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            let b = DbcsrMatrix::from_dense(&db, dims.clone(), c.rank(), c.size(), 0.0);
            multiply(&a, &b, c, None).unwrap().0.to_dense(c)
        });
        for dense in results {
            assert!(dense.allclose(&expect, 1e-11));
        }
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let dims = BlockedDims::uniform(4, 3);
        let n = dims.n();
        let da = dense_banded(n, 4);
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            let i = DbcsrMatrix::identity(dims.clone(), c.rank(), c.size());
            multiply(&a, &i, c, None).unwrap().0.to_dense(c)
        });
        for dense in results {
            assert!(dense.allclose(&da, 1e-13));
        }
    }

    #[test]
    fn filtering_drops_small_result_blocks() {
        let dims = BlockedDims::uniform(4, 2);
        let n = dims.n();
        // Nearly diagonal matrices: off-diagonal products are tiny.
        let da = Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 1e-9 });
        let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let comm = SerialComm::new();
        let (unfiltered, _) = multiply(&a, &a, &comm, None).unwrap();
        let (filtered, _) = multiply(&a, &a, &comm, Some(1e-6)).unwrap();
        assert!(filtered.local_nnz_blocks() < unfiltered.local_nnz_blocks());
        // Diagonal survives.
        assert_eq!(filtered.local_nnz_blocks(), 4);
    }

    #[test]
    fn sparse_times_sparse_preserves_structure_bound() {
        // Block-diagonal times block-diagonal stays block-diagonal.
        let dims = BlockedDims::uniform(5, 2);
        let n = dims.n();
        let da = Matrix::from_fn(n, n, |i, j| {
            if i / 2 == j / 2 {
                (i + j) as f64 + 1.0
            } else {
                0.0
            }
        });
        let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let comm = SerialComm::new();
        let (c, stats) = multiply(&a, &a, &comm, None).unwrap();
        assert_eq!(c.local_nnz_blocks(), 5);
        // 5 diagonal block pairs => 5 block gemms.
        assert_eq!(stats.block_gemms, 5);
        assert_eq!(stats.local_flops, 5 * 2 * 2 * 2 * 2);
    }

    /// Serial reference product with the same block partition.
    fn serial_product(da: &Matrix, db: &Matrix, dims: &BlockedDims) -> Matrix {
        let comm = SerialComm::new();
        let a = DbcsrMatrix::from_dense(da, dims.clone(), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(db, dims.clone(), 0, 1, 0.0);
        multiply(&a, &b, &comm, None).unwrap().0.to_dense(&comm)
    }

    #[test]
    fn non_square_grids_match_serial_bitwise() {
        // Worlds whose squarest factorization is non-square: 1×2, 1×3,
        // 1×5, 2×3, 1×7, 2×4, 3×4. The old implementation panicked on all
        // of them ("requires a square process grid") — this doubles as the
        // regression test that the panic is gone, and pins the stronger
        // contract that results are bitwise-identical to the serial path.
        let dims = BlockedDims::new(vec![2, 3, 1, 2, 3, 2, 1]);
        let n = dims.n();
        let da = dense_banded(n, 5);
        let db = dense_banded(n, 3);
        let expect = serial_product(&da, &db, &dims);
        for world in [2usize, 3, 5, 6, 7, 8, 12] {
            let (results, _) = run_ranks(world, |c| {
                let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
                let b = DbcsrMatrix::from_dense(&db, dims.clone(), c.rank(), c.size(), 0.0);
                multiply(&a, &b, c, None).unwrap().0.to_dense(c)
            });
            for dense in results {
                assert!(
                    dense.allclose(&expect, 0.0),
                    "world {world}: distributed product is not bitwise-identical to serial"
                );
            }
        }
    }

    #[test]
    fn square_grids_match_serial_bitwise() {
        // The square grids were never bitwise-pinned before (old lockstep
        // Cannon accumulated in step order); the panel formulation is.
        let dims = BlockedDims::new(vec![1, 2, 3, 2, 1, 2]);
        let n = dims.n();
        let da = dense_banded(n, 5);
        let db = dense_banded(n, 2);
        let expect = serial_product(&da, &db, &dims);
        for world in [4usize, 9] {
            let (results, _) = run_ranks(world, |c| {
                let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
                let b = DbcsrMatrix::from_dense(&db, dims.clone(), c.rank(), c.size(), 0.0);
                multiply(&a, &b, c, None).unwrap().0.to_dense(c)
            });
            for dense in results {
                assert!(dense.allclose(&expect, 0.0), "world {world}: not bitwise");
            }
        }
    }

    #[test]
    fn partition_mismatch_is_a_typed_error() {
        let da = dense_banded(8, 2);
        let a = DbcsrMatrix::from_dense(&da, BlockedDims::uniform(4, 2), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(&da, BlockedDims::uniform(2, 4), 0, 1, 0.0);
        let err = multiply(&a, &b, &SerialComm::new(), None).unwrap_err();
        assert_eq!(
            err,
            DbcsrError::PartitionMismatch {
                op: "multiply",
                lhs_nb: 4,
                rhs_nb: 2
            }
        );
    }

    #[test]
    fn grid_mismatch_is_a_typed_error() {
        let dims = BlockedDims::uniform(4, 2);
        let da = dense_banded(8, 2);
        let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(&da, dims, 0, 4, 0.0);
        let err = multiply(&a, &b, &SerialComm::new(), None).unwrap_err();
        assert_eq!(
            err,
            DbcsrError::GridMismatch {
                op: "multiply",
                lhs: (1, 1),
                rhs: (2, 2)
            }
        );
    }

    #[test]
    fn flop_count_is_grid_invariant() {
        let dims = BlockedDims::uniform(6, 2);
        let n = dims.n();
        let da = dense_banded(n, 4);
        let serial_flops = {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
            multiply(&a, &a, &SerialComm::new(), None)
                .unwrap()
                .1
                .local_flops
        };
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            multiply(&a, &a, c, None).unwrap().1.local_flops
        });
        let dist_flops: u64 = results.iter().sum();
        assert_eq!(serial_flops, dist_flops);
    }

    /// The block-by-block local multiply the stack replaced, kept as its
    /// oracle: one `gemm` call per block product into a per-row map of
    /// result blocks, each then accumulated into `c`.
    fn reference_local_multiply(
        a_tile: &BlockStore,
        b_tile: &BlockStore,
        c: &mut BlockStore,
        stats: &mut MultiplyStats,
    ) {
        use sm_linalg::gemm::{gemm, Op};
        use std::collections::HashMap;

        // bk -> list of (bc, block)
        let mut b_by_row: HashMap<usize, Vec<(usize, &Matrix)>> = HashMap::new();
        for (&(bk, bc), blk) in b_tile.iter() {
            b_by_row.entry(bk).or_default().push((bc, blk));
        }
        // br -> list of (bk, block), grouped so each group owns its C row.
        let mut a_by_row: HashMap<usize, Vec<(usize, &Matrix)>> = HashMap::new();
        for (&(br, bk), blk) in a_tile.iter() {
            a_by_row.entry(br).or_default().push((bk, blk));
        }
        let mut rows: Vec<(usize, Vec<(usize, &Matrix)>)> = a_by_row.into_iter().collect();
        rows.sort_by_key(|(br, _)| *br);

        type RowResult = (u64, u64, Vec<((usize, usize), Matrix)>);
        let row_results: Vec<RowResult> = rows
            .par_iter()
            .map(|(br, a_row)| {
                let mut flops = 0u64;
                let mut gemms = 0u64;
                let mut c_row: HashMap<usize, Matrix> = HashMap::new();
                for &(bk, a_blk) in a_row {
                    let Some(b_row) = b_by_row.get(&bk) else {
                        continue;
                    };
                    for &(bc, b_blk) in b_row {
                        let (m, k) = a_blk.shape();
                        let n = b_blk.ncols();
                        debug_assert_eq!(b_blk.nrows(), k);
                        let c_blk = c_row.entry(bc).or_insert_with(|| Matrix::zeros(m, n));
                        gemm(1.0, a_blk, Op::NoTrans, b_blk, Op::NoTrans, 1.0, c_blk)
                            .expect("block shapes validated by partition");
                        flops += (2 * m * n * k) as u64;
                        gemms += 1;
                    }
                }
                let mut out: Vec<((usize, usize), Matrix)> = c_row
                    .into_iter()
                    .map(|(bc, blk)| ((*br, bc), blk))
                    .collect();
                out.sort_by_key(|(coord, _)| *coord);
                (flops, gemms, out)
            })
            .collect();

        for (flops, gemms, blocks) in row_results {
            stats.local_flops += flops;
            stats.block_gemms += gemms;
            for (coord, blk) in blocks {
                c.accumulate(coord, &blk);
            }
        }
    }

    /// A random block-sparse store over `sizes`: each block present with
    /// probability `fill`, each element of a present block zero (either
    /// sign) with probability 1/4, else uniform in (−1, 1).
    fn random_store(sizes: &[usize], fill: f64, seed: u64) -> BlockStore {
        let mut h = seed;
        let mut draw = || {
            h = mix64(h.wrapping_add(0x9e37_79b9_7f4a_7c15));
            h
        };
        let unit = |x: u64| (x >> 11) as f64 / (1u64 << 53) as f64;
        let mut store = BlockStore::new();
        for (br, &m) in sizes.iter().enumerate() {
            for (bc, &n) in sizes.iter().enumerate() {
                if unit(draw()) >= fill {
                    continue;
                }
                let blk = Matrix::from_fn(m, n, |_, _| match draw() % 8 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => 2.0 * unit(draw()) - 1.0,
                });
                store.insert((br, bc), blk);
            }
        }
        store
    }

    fn same_bits(x: &BlockStore, y: &BlockStore) -> bool {
        x.coords() == y.coords()
            && x.iter().zip(y.iter()).all(|((_, p), (_, q))| {
                p.shape() == q.shape()
                    && p.as_slice()
                        .iter()
                        .zip(q.as_slice())
                        .all(|(u, v)| u.to_bits() == v.to_bits())
            })
    }

    /// The stacked local multiply against the block-by-block one it
    /// replaced, bit for bit and counter for counter: random patterns of
    /// block sizes 1 to 6 and 23, so products fall on both sides of the
    /// small-loop bound and 6 × 6 stacks are broken up by other inner
    /// sizes, with zeros of either sign in both operands, filtered and not.
    /// Then one SZV pattern (every block 6 × 6) with its speed printed.
    #[test]
    fn stacked_multiply_matches_the_block_by_block_reference() {
        use sm_linalg::norms::fro_norm;
        let shapes: [&[usize]; 6] = [
            &[6; 9],
            &[6, 6, 23, 6, 6, 6, 1, 6],
            &[1, 2, 3, 4, 5, 6, 23],
            &[23, 23, 6, 23, 2],
            &[5, 1, 6, 6, 3, 6, 6, 4, 2, 6],
            &[23; 3],
        ];
        for (case, sizes) in shapes.iter().enumerate() {
            for seed in 0..6u64 {
                let fill = [0.2, 0.5, 0.9][seed as usize % 3];
                let a = random_store(sizes, fill, 2 * seed + 100 * case as u64);
                let b = random_store(sizes, fill, 2 * seed + 1 + 100 * case as u64);
                for eps in [None, Some(0.5), Some(2.0)] {
                    let (mut want, mut want_stats) = (BlockStore::new(), MultiplyStats::default());
                    reference_local_multiply(&a, &b, &mut want, &mut want_stats);
                    if let Some(eps) = eps {
                        want.filter(eps);
                    }
                    let mut stats = MultiplyStats::default();
                    let got =
                        local_multiply(&a, &b, &BlockedDims::new(sizes.to_vec()), eps, &mut stats);
                    let what = format!("case {case}, seed {seed}, eps {eps:?}");
                    assert!(same_bits(&got, &want), "{what}: not bitwise");
                    assert_eq!(stats, want_stats, "{what}");
                }
            }
        }

        // An SZV pattern: 160 blocks of 6, a third of them present.
        let sizes = [6; 160];
        let dims = BlockedDims::new(sizes.to_vec());
        let a = random_store(&sizes, 0.33, 7);
        let b = random_store(&sizes, 0.33, 8);
        let best_of = |f: &mut dyn FnMut()| {
            (0..3)
                .map(|_| {
                    let t = std::time::Instant::now();
                    f();
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let (mut want, mut want_stats) = (BlockStore::new(), MultiplyStats::default());
        let t_ref = best_of(&mut || {
            (want, want_stats) = (BlockStore::new(), MultiplyStats::default());
            reference_local_multiply(&a, &b, &mut want, &mut want_stats);
        });
        let (mut got, mut stats) = (BlockStore::new(), MultiplyStats::default());
        let t_stack = best_of(&mut || {
            stats = MultiplyStats::default();
            got = local_multiply(&a, &b, &dims, None, &mut stats);
        });
        assert!(same_bits(&got, &want), "SZV pattern: not bitwise");
        assert_eq!(stats, want_stats);
        assert!(got.iter().all(|(_, blk)| fro_norm(blk) > 0.0));
        let gflops = |t: f64| stats.local_flops as f64 / t / 1e9;
        println!(
            "SZV pattern, {} block products: stacked {:.2} ms ({:.2} GFLOP/s), \
             block-by-block {:.2} ms ({:.2} GFLOP/s), {:.1}x",
            stats.block_gemms,
            t_stack * 1e3,
            gflops(t_stack),
            t_ref * 1e3,
            gflops(t_ref),
            t_ref / t_stack
        );
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]
            #[test]
            fn multiply_is_bitwise_identical_on_any_grid(
                world in 2usize..13,
                seed in 0usize..64,
                nb in 3usize..7,
            ) {
                let sizes: Vec<usize> = (0..nb).map(|i| 1 + (seed + i * 7) % 3).collect();
                let dims = BlockedDims::new(sizes);
                let n = dims.n();
                let da = Matrix::from_fn(n, n, |i, j| {
                    if (i * 31 + j * 17 + seed) % 4 == 0 {
                        ((i * 13 + j * 7 + seed) % 19) as f64 * 0.17 - 0.9
                    } else {
                        0.0
                    }
                });
                let db = Matrix::from_fn(n, n, |i, j| {
                    if (i * 11 + j * 23 + seed) % 3 == 0 {
                        ((i * 5 + j * 29 + seed) % 17) as f64 * 0.23 - 0.7
                    } else {
                        0.0
                    }
                });
                let expect = serial_product(&da, &db, &dims);
                let (results, _) = run_ranks(world, |c| {
                    let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
                    let b = DbcsrMatrix::from_dense(&db, dims.clone(), c.rank(), c.size(), 0.0);
                    multiply(&a, &b, c, None).unwrap().0.to_dense(c)
                });
                for dense in results {
                    prop_assert!(
                        dense.allclose(&expect, 0.0),
                        "world {} not bitwise-identical to serial",
                        world
                    );
                }
            }
        }
    }
}
