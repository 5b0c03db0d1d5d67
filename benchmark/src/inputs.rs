//! Seeded input generators. The program under test receives only what
//! these produce; `--seed` reaches nothing else.
//!
//! Every generator keeps the *work* of a workload independent of the seed:
//! the seed picks values (and job order), never a dimension or a sparsity
//! pattern. The water geometry is therefore fixed — two liquid
//! arrangements differ by 12 % in `Σ n³` and in CSR flops, which would
//! swamp the 10 % regression bound when runs with different seeds are
//! compared — and the seed perturbs the matrix elements instead.

use sm_chem::builder::{build_system, SystemMatrices};
use sm_chem::{BasisSet, WaterBox};
use sm_comsim::SerialComm;
use sm_core::baseline::{orthogonalize_sparse, NewtonSchulzOptions};
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;

use crate::spans::Recorder;

/// Liquid arrangement of water system 0 (see module docs); system `g` uses
/// `WATER_GEOMETRY_SEED + g`.
const WATER_GEOMETRY_SEED: u64 = 42;

/// splitmix64: a full-period generator whose whole state is one word.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn symmetric_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The dense workloads' matrix: 16 blocks of 32, banded with a
/// half-bandwidth of [`DENSE_HALF_BAND`] blocks. Grouped
/// [`DENSE_GROUP`] columns at a time it is one submatrix of dimension 512,
/// ROADMAP's kernel scale (n ≥ 512).
pub const DENSE_BLOCKS: usize = 16;
pub const DENSE_GROUP: usize = 16;
const DENSE_HALF_BAND: usize = 6;

/// Synthetic gapped banded block matrix: diagonal `±1` (plus seeded
/// jitter), seeded couplings decaying as `1/(1+|i−j|)` inside the block
/// band. The spectrum keeps a gap around 0, so `sign(A)` is well defined
/// at `µ = 0` and the Padé iteration count does not depend on the seed.
pub fn dense_banded(seed: u64) -> DbcsrMatrix {
    let dims = BlockedDims::uniform(DENSE_BLOCKS, 32);
    let n = dims.n();
    let mut rng = Rng::new(seed);
    let mut dense = Matrix::zeros(n, n);
    for j in 0..n {
        let bj = dims.block_of(j);
        for i in j..n {
            if dims.block_of(i) - bj > DENSE_HALF_BAND {
                break;
            }
            let r = rng.symmetric_unit();
            let v = if i == j {
                (if i % 2 == 0 { 1.0 } else { -1.0 }) + 0.05 * r
            } else {
                0.05 * r / (1.0 + (i - j) as f64)
            };
            dense[(i, j)] = v;
            dense[(j, i)] = v;
        }
    }
    DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0)
}

/// One water system ready for the engine.
pub struct WaterSystem {
    /// Orthogonalized, filtered Kohn–Sham matrix (single-rank handle).
    pub kt: DbcsrMatrix,
    /// Chemical potential inside the gap.
    pub mu: f64,
    /// Electron count (8 per molecule).
    pub n_electrons: f64,
    /// Atoms, for per-atom energy errors.
    pub n_atoms: usize,
}

/// SZV water box `geometry` of `32·nx` molecules (the 32-molecule cell
/// repeated `nx` times along x) at range scale 0.55, Löwdin-
/// orthogonalized with the sparse iteration filtered at `eps_ortho` (kept
/// coarse: the iteration is memory-latency-bound and the least repeatable
/// part of a run), block-filtered at `eps_filter`, every element then
/// scaled by a seeded factor within `1 ± 1e-3` (symmetric, pattern
/// unchanged).
pub fn water_system(
    nx: usize,
    geometry: u64,
    eps_ortho: f64,
    eps_filter: f64,
    seed: u64,
    rec: &mut Recorder,
) -> WaterSystem {
    let comm = SerialComm::new();
    let water = WaterBox::elongated(1, nx, WATER_GEOMETRY_SEED + geometry);
    let basis = BasisSet::szv().with_range_scale(0.55);
    let sys: SystemMatrices =
        rec.scope("chem.build", |_| build_system(&water, &basis, 0, 1, 1e-10));
    let (mut kt, _, report) = rec.scope("dbcsr.ortho", |_| {
        orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: eps_ortho,
                max_iter: 200,
            },
            &comm,
        )
    });
    assert!(report.converged, "orthogonalization did not converge");
    kt.store_mut().filter(eps_filter);
    jitter_symmetric(&mut kt, seed);
    WaterSystem {
        kt,
        mu: sys.mu,
        n_electrons: 8.0 * water.n_molecules() as f64,
        n_atoms: water.n_atoms(),
    }
}

/// Scale element `(i, j)` and its mirror by the same seeded factor in
/// `1 ± 1e-3`.
fn jitter_symmetric(m: &mut DbcsrMatrix, seed: u64) {
    let dims = m.dims().clone();
    let n = dims.n() as u64;
    for (&(br, bc), blk) in m.store_mut().iter_mut() {
        let (r0, c0) = (dims.offset(br), dims.offset(bc));
        for j in 0..blk.ncols() {
            for i in 0..blk.nrows() {
                let (gi, gj) = ((r0 + i) as u64, (c0 + j) as u64);
                let key = gi.min(gj) * n + gi.max(gj);
                let r = Rng::new(seed ^ key.wrapping_mul(0x2545_f491_4f6c_dd1d)).symmetric_unit();
                blk[(i, j)] *= 1.0 + 1e-3 * r;
            }
        }
    }
}

/// Copy of `m` with every value multiplied by `factor` — an MD step's
/// resubmission: new values on an unchanged pattern.
pub fn scaled(m: &DbcsrMatrix, factor: f64) -> DbcsrMatrix {
    let mut out = m.clone();
    sm_dbcsr::ops::scale(&mut out, factor);
    out
}

/// Number of jobs in one `batch_tiny_w2` batch.
pub const TINY_JOBS: usize = 60;

/// 60 tiny gapped matrices with 60 *distinct* block patterns, dimensions
/// 6–16: 3–8 blocks of size 2, a tridiagonal block band, plus the far
/// couplings (block distance ≥ 2, lexicographic order) selected by the
/// bits of a per-shape mask. The set of shapes is fixed; the seed picks
/// the submission order and the values.
pub fn tiny_matrices(seed: u64) -> Vec<DbcsrMatrix> {
    // Round-robin over block counts, one mask value per round, skipping a
    // block count once its far pairs cannot encode the mask.
    let mut shapes: Vec<(usize, u32)> = Vec::with_capacity(TINY_JOBS);
    for mask in 0u32.. {
        for nb in 3..=8usize {
            let far_pairs = (nb - 1) * (nb - 2) / 2;
            if shapes.len() < TINY_JOBS && u64::from(mask) < 1u64 << far_pairs {
                shapes.push((nb, mask));
            }
        }
        if shapes.len() == TINY_JOBS {
            break;
        }
    }
    let mut rng = Rng::new(seed);
    rng.shuffle(&mut shapes);
    shapes
        .into_iter()
        .map(|(nb, mask)| {
            let far: Vec<(usize, usize)> = (0..nb)
                .flat_map(|a| (a + 2..nb).map(move |b| (a, b)))
                .enumerate()
                .filter(|&(bit, _)| bit < 32 && mask >> bit & 1 == 1)
                .map(|(_, pair)| pair)
                .collect();
            let dims = BlockedDims::uniform(nb, 2);
            let n = dims.n();
            let mut dense = Matrix::zeros(n, n);
            for j in 0..n {
                for i in j..n {
                    let (bi, bj) = (i / 2, j / 2);
                    if bi - bj > 1 && !far.contains(&(bj, bi)) {
                        continue;
                    }
                    let r = rng.symmetric_unit();
                    let v = if i == j {
                        (if i % 2 == 0 { 1.0 } else { -1.0 }) + 0.05 * r
                    } else {
                        0.04 * (1.0 + 0.5 * r) / (1.0 + (i - j) as f64)
                    };
                    dense[(i, j)] = v;
                    dense[(j, i)] = v;
                }
            }
            DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0)
        })
        .collect()
}
