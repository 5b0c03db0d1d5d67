//! Elementwise and reduction operations on distributed matrices.
//!
//! Matrices with the same partition and grid are *aligned*: their blocks
//! live on the same ranks, so addition, scaling and filtering are purely
//! local. Reductions (trace, norms, counts) combine a local partial with an
//! allreduce.

use sm_comsim::{Comm, ReduceOp};
use sm_linalg::Matrix;

use crate::matrix::DbcsrMatrix;
use crate::wire::ValueFormat;

/// `a += alpha * b` (local; operands must be aligned).
pub fn axpy(a: &mut DbcsrMatrix, alpha: f64, b: &DbcsrMatrix) {
    assert_eq!(a.dims(), b.dims(), "axpy: partition mismatch");
    assert_eq!(a.grid(), b.grid(), "axpy: grid mismatch");
    for (&coord, blk) in b.store().iter() {
        let scaled = blk.scaled(alpha);
        a.store_mut().accumulate(coord, &scaled);
    }
}

/// Scale all local blocks: `a *= alpha`.
pub fn scale(a: &mut DbcsrMatrix, alpha: f64) {
    for (_, blk) in a.store_mut().iter_mut() {
        blk.scale(alpha);
    }
}

/// `a += alpha * I`: adds to the diagonal of every owned diagonal block,
/// materializing missing diagonal blocks (they become nonzero).
pub fn shift_diag(a: &mut DbcsrMatrix, alpha: f64) {
    if alpha == 0.0 {
        return;
    }
    for b in 0..a.nb() {
        if !a.is_mine(b, b) {
            continue;
        }
        let s = a.dims().size(b);
        if a.store().get(&(b, b)).is_none() {
            a.store_mut().insert((b, b), Matrix::zeros(s, s));
        }
        let blk = a
            .store_mut()
            .get_mut(&(b, b))
            .expect("just materialized above");
        blk.shift_diag(alpha);
    }
}

/// Global trace (collective).
pub fn trace<C: Comm>(a: &DbcsrMatrix, comm: &C) -> f64 {
    let mut local = 0.0f64;
    for (&(br, bc), blk) in a.store().iter() {
        if br == bc {
            local += blk.trace();
        }
    }
    let mut buf = [local];
    comm.allreduce_f64(ReduceOp::Sum, &mut buf);
    buf[0]
}

/// Global Frobenius norm (collective).
pub fn fro_norm<C: Comm>(a: &DbcsrMatrix, comm: &C) -> f64 {
    let mut ssq = 0.0f64;
    for (_, blk) in a.store().iter() {
        for &v in blk.as_slice() {
            ssq += v * v;
        }
    }
    let mut buf = [ssq];
    comm.allreduce_f64(ReduceOp::Sum, &mut buf);
    buf[0].sqrt()
}

/// Global count of nonzero blocks (collective).
pub fn nnz_blocks<C: Comm>(a: &DbcsrMatrix, comm: &C) -> usize {
    let mut buf = [a.local_nnz_blocks() as f64];
    comm.allreduce_f64(ReduceOp::Sum, &mut buf);
    buf[0] as usize
}

/// Global count of stored elements (collective).
pub fn stored_elements<C: Comm>(a: &DbcsrMatrix, comm: &C) -> usize {
    let mut buf = [a.store().stored_elements() as f64];
    comm.allreduce_f64(ReduceOp::Sum, &mut buf);
    buf[0] as usize
}

/// Trace of `A · B` without forming the product (collective):
/// `Tr(AB) = Σ_{br,bk} <A[br,bk], B[bk,br]^T>`. Both operands must be
/// aligned. This evaluates the band-structure energy `Tr(D K)` of Eq. 10
/// at block-sparse cost.
pub fn trace_of_product<C: Comm>(a: &DbcsrMatrix, b: &DbcsrMatrix, comm: &C) -> f64 {
    assert_eq!(a.dims(), b.dims(), "trace_of_product: partition mismatch");
    assert_eq!(a.grid(), b.grid(), "trace_of_product: grid mismatch");
    // A[br,bk] lives on rank (br%q, bk%q); B[bk,br] on (bk%q, br%q). They
    // generally live on different ranks, so gather B's transposed-partner
    // contributions via all-to-all of the needed blocks. Simpler and still
    // exact: compute partial traces where both blocks are local, and route
    // non-local partners. For the reproduction's workloads the single-rank
    // path dominates; the multi-rank path gathers B fully only for the
    // blocks A actually holds.
    let mut local = 0.0f64;
    let mut missing: Vec<(usize, usize)> = Vec::new();
    for (&(br, bk), _) in a.store().iter() {
        if b.store().get(&(bk, br)).is_some() || b.owner(bk, br) == b.rank() {
            // partner local (or absent => zero contribution)
        } else {
            missing.push((bk, br));
        }
    }
    // Fetch missing partner blocks with an all-to-all.
    let (fetched, _) = fetch_blocks_prec(b, &missing, ValueFormat::F64, comm);
    for (&(br, bk), a_blk) in a.store().iter() {
        let partner = if b.owner(bk, br) == b.rank() {
            b.store().get(&(bk, br)).cloned()
        } else {
            fetched.get(&(bk, br)).cloned()
        };
        if let Some(b_blk) = partner {
            // <A, B^T> = Σ_ij A_ij * B_ji
            for j in 0..a_blk.ncols() {
                for i in 0..a_blk.nrows() {
                    local += a_blk[(i, j)] * b_blk[(j, i)];
                }
            }
        }
    }
    let mut buf = [local];
    comm.allreduce_f64(ReduceOp::Sum, &mut buf);
    buf[0]
}

/// Fetch a set of remote blocks of `m` by coordinate (collective) in the
/// given value encoding — the engine's gather hot path. Blocks that are
/// zero (absent) on their owner are simply not returned. With
/// [`ValueFormat::F32`](crate::wire::ValueFormat) the owners' replies move
/// half the value bytes (values rounded through `f32` storage, which the
/// reduced-precision solve does anyway). Additionally returns the
/// value-payload bytes received from **remote** ranks — the deterministic
/// gather byte counter of the precision telemetry.
pub fn fetch_blocks_prec<C: Comm>(
    m: &DbcsrMatrix,
    wanted: &[(usize, usize)],
    format: ValueFormat,
    comm: &C,
) -> (std::collections::BTreeMap<(usize, usize), Matrix>, u64) {
    use sm_comsim::Payload;
    let size = comm.size();
    if size == 1 && wanted.is_empty() {
        // One rank owns every block and asks for none: three rounds of
        // empty payloads would return nothing.
        return (std::collections::BTreeMap::new(), 0);
    }
    // Round 1: send requests (block coords) to owners.
    let mut requests: Vec<Vec<u64>> = vec![Vec::new(); size];
    for &(br, bc) in wanted {
        let owner = m.owner(br, bc);
        requests[owner].push(br as u64);
        requests[owner].push(bc as u64);
    }
    let incoming = comm.alltoallv(requests.into_iter().map(Payload::U64).collect());
    // Round 2: answer with the requested blocks we actually store, packed
    // in the shared wire format straight from the store (no block copies
    // besides the wire buffer itself).
    let mut replies_meta: Vec<Payload> = Vec::with_capacity(size);
    let mut replies_data: Vec<Payload> = Vec::with_capacity(size);
    for req in incoming {
        let req = req.into_u64();
        let found: Vec<((usize, usize), &Matrix)> = req
            .chunks_exact(2)
            .filter_map(|pair| {
                let coord = (pair[0] as usize, pair[1] as usize);
                m.store().get(&coord).map(|blk| (coord, blk))
            })
            .collect();
        let (meta, data) =
            crate::wire::pack_blocks_prec(found.iter().map(|(c, b)| (c, *b)), format);
        replies_meta.push(Payload::U64(meta));
        replies_data.push(data);
    }
    let metas = comm.alltoallv(replies_meta);
    let datas = comm.alltoallv(replies_data);
    let mut out = std::collections::BTreeMap::new();
    let mut value_bytes = 0u64;
    for (src, (meta, data)) in metas.into_iter().zip(datas).enumerate() {
        if src != comm.rank() {
            value_bytes += data.byte_len() as u64;
        }
        for (coord, blk) in crate::wire::unpack_received(m.dims(), &meta.into_u64(), data) {
            out.insert(coord, blk);
        }
    }
    (out, value_bytes)
}

/// Distributed transpose (collective): every block `(br, bc)` is
/// transposed and routed to the owner of `(bc, br)`.
pub fn transpose<C: Comm>(a: &DbcsrMatrix, comm: &C) -> DbcsrMatrix {
    let mut out = DbcsrMatrix::new(a.dims().clone(), a.rank(), comm.size());
    let mut outgoing: Vec<std::collections::BTreeMap<(usize, usize), Matrix>> = (0..comm.size())
        .map(|_| std::collections::BTreeMap::new())
        .collect();
    for (&(br, bc), blk) in a.store().iter() {
        outgoing[out.owner(bc, br)].insert((bc, br), blk.transpose());
    }
    let (received, _) =
        crate::wire::exchange_blocks_prec(outgoing, a.dims(), ValueFormat::F64, comm);
    for ((br, bc), blk) in received {
        out.insert_block(br, bc, blk);
    }
    out
}

/// Largest absolute deviation from symmetry, `max |A − Aᵀ|` (collective).
pub fn asymmetry<C: Comm>(a: &DbcsrMatrix, comm: &C) -> f64 {
    let at = transpose(a, comm);
    let mut worst = 0.0f64;
    for (&coord, blk) in a.store().iter() {
        match at.store().get(&coord) {
            Some(tb) => worst = worst.max(blk.max_abs_diff(tb)),
            None => worst = worst.max(sm_linalg::norms::max_norm(blk)),
        }
    }
    // Blocks present only in Aᵀ (i.e. the partner was zero in A).
    for (&coord, tb) in at.store().iter() {
        if a.store().get(&coord).is_none() {
            worst = worst.max(sm_linalg::norms::max_norm(tb));
        }
    }
    let mut buf = [worst];
    comm.allreduce_f64(ReduceOp::Max, &mut buf);
    buf[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dims::BlockedDims;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_linalg::gemm::matmul;

    fn dense_banded(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if (i as isize - j as isize).abs() <= 3 {
                ((i * 5 + j) % 7) as f64 * 0.25 - 0.4
            } else {
                0.0
            }
        })
    }

    #[test]
    fn axpy_matches_dense() {
        let dims = BlockedDims::uniform(4, 2);
        let n = dims.n();
        let da = dense_banded(n);
        let db = Matrix::identity(n);
        let comm = SerialComm::new();
        let mut a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(&db, dims, 0, 1, 0.0);
        axpy(&mut a, 2.5, &b);
        let mut expect = da.clone();
        expect.shift_diag(2.5);
        assert!(a.to_dense(&comm).allclose(&expect, 1e-14));
    }

    #[test]
    fn scale_and_shift_diag() {
        let dims = BlockedDims::new(vec![2, 3]);
        let comm = SerialComm::new();
        let mut a = DbcsrMatrix::identity(dims, 0, 1);
        scale(&mut a, 3.0);
        shift_diag(&mut a, -3.0);
        let dense = a.to_dense(&comm);
        assert!(dense.allclose(&Matrix::zeros(5, 5), 0.0));
    }

    #[test]
    fn shift_diag_materializes_missing_blocks() {
        let dims = BlockedDims::uniform(3, 2);
        let mut a = DbcsrMatrix::new(dims, 0, 1); // completely empty
        shift_diag(&mut a, 1.0);
        assert_eq!(a.local_nnz_blocks(), 3);
        let comm = SerialComm::new();
        assert!(a.to_dense(&comm).allclose(&Matrix::identity(6), 0.0));
    }

    #[test]
    fn trace_and_fro_norm_match_dense() {
        let dims = BlockedDims::uniform(4, 3);
        let n = dims.n();
        let da = dense_banded(n);
        let comm = SerialComm::new();
        let a = DbcsrMatrix::from_dense(&da, dims, 0, 1, 0.0);
        assert!((trace(&a, &comm) - da.trace()).abs() < 1e-12);
        assert!((fro_norm(&a, &comm) - sm_linalg::norms::fro_norm(&da)).abs() < 1e-12);
    }

    #[test]
    fn distributed_reductions_agree_with_serial() {
        let dims = BlockedDims::uniform(6, 2);
        let n = dims.n();
        let da = dense_banded(n);
        let serial_trace = da.trace();
        let serial_fro = sm_linalg::norms::fro_norm(&da);
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            (trace(&a, c), fro_norm(&a, c), nnz_blocks(&a, c))
        });
        for (t, f, nnz) in results {
            assert!((t - serial_trace).abs() < 1e-12);
            assert!((f - serial_fro).abs() < 1e-12);
            assert!(nnz > 0);
        }
    }

    #[test]
    fn trace_of_product_matches_dense_serial() {
        let dims = BlockedDims::uniform(4, 2);
        let n = dims.n();
        let da = dense_banded(n);
        let db = dense_banded(n).transpose();
        let comm = SerialComm::new();
        let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(&db, dims, 0, 1, 0.0);
        let expect = matmul(&da, &db).unwrap().trace();
        assert!((trace_of_product(&a, &b, &comm) - expect).abs() < 1e-10);
    }

    #[test]
    fn trace_of_product_matches_dense_distributed() {
        let dims = BlockedDims::uniform(6, 2);
        let n = dims.n();
        let da = dense_banded(n);
        let db = dense_banded(n).transpose();
        let expect = matmul(&da, &db).unwrap().trace();
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            let b = DbcsrMatrix::from_dense(&db, dims.clone(), c.rank(), c.size(), 0.0);
            trace_of_product(&a, &b, c)
        });
        for t in results {
            assert!((t - expect).abs() < 1e-10, "{t} != {expect}");
        }
    }

    #[test]
    fn fetch_blocks_returns_remote_blocks() {
        let dims = BlockedDims::uniform(4, 2);
        let n = dims.n();
        let da = dense_banded(n);
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&da, dims.clone(), c.rank(), c.size(), 0.0);
            // Everyone asks for block (0,0) (owned by rank 0) and (1,1)
            // (owned by rank 3).
            let (fetched, _) = fetch_blocks_prec(&a, &[(0, 0), (1, 1)], ValueFormat::F64, c);
            (fetched.get(&(0, 0)).cloned(), fetched.get(&(1, 1)).cloned())
        });
        let rows: Vec<usize> = (0..2).collect();
        let expect00 = da.submatrix(&rows, &rows);
        for (b00, b11) in results {
            assert!(b00.unwrap().allclose(&expect00, 0.0));
            assert!(b11.is_some());
        }
    }
}

#[cfg(test)]
mod transpose_tests {
    use super::*;
    use crate::dims::BlockedDims;
    use sm_comsim::{run_ranks, SerialComm};

    fn test_dense(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if (i as isize - j as isize).abs() <= 3 {
                (i * 11 + j * 3) as f64 * 0.1 - 1.0
            } else {
                0.0
            }
        })
    }

    #[test]
    fn transpose_matches_dense_serial() {
        let dims = BlockedDims::new(vec![2, 3, 1, 2]);
        let dense = test_dense(dims.n());
        let comm = SerialComm::new();
        let a = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let t = transpose(&a, &comm);
        assert!(t.to_dense(&comm).allclose(&dense.transpose(), 0.0));
    }

    #[test]
    fn transpose_matches_dense_distributed() {
        let dims = BlockedDims::uniform(6, 2);
        let dense = test_dense(dims.n());
        let expect = dense.transpose();
        let (results, _) = run_ranks(4, |c| {
            let a = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            transpose(&a, c).to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&expect, 0.0));
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let dims = BlockedDims::uniform(4, 3);
        let dense = test_dense(dims.n());
        let comm = SerialComm::new();
        let a = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let tt = transpose(&transpose(&a, &comm), &comm);
        assert_eq!(&tt, &a);
    }

    #[test]
    fn asymmetry_detects_and_clears() {
        let dims = BlockedDims::uniform(3, 2);
        let mut dense = test_dense(dims.n());
        let comm = SerialComm::new();
        dense.symmetrize();
        let sym = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        assert!(asymmetry(&sym, &comm) < 1e-15);
        dense[(0, 3)] += 0.5;
        let asym = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        assert!((asymmetry(&asym, &comm) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn asymmetry_catches_one_sided_blocks() {
        // A block present at (0,1) with no partner at (1,0).
        let dims = BlockedDims::uniform(2, 2);
        let comm = SerialComm::new();
        let mut a = DbcsrMatrix::new(dims, 0, 1);
        a.insert_block(0, 1, Matrix::from_row_major(2, 2, &[0.3, 0.0, 0.0, 0.0]));
        assert!((asymmetry(&a, &comm) - 0.3).abs() < 1e-15);
    }
}
