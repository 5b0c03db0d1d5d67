//! Analytic execution models for the scaling experiments.
//!
//! The paper's Figures 6 and 8–10 measure wall-clock times on 1–32 nodes of
//! a Skylake/Omni-Path cluster. This reproduction *counts* the work both
//! methods perform (FLOPs from the submatrix plan or the sparse-multiply
//! pattern, bytes from the transfer plans) and converts it to simulated
//! seconds with [`sm_comsim::ClusterModel`] — see DESIGN.md's substitution
//! table. The counted quantities are exact; only the machine constants are
//! modeled.

use sm_comsim::ClusterModel;
use sm_dbcsr::{BlockedDims, CooPattern};

use crate::plan::PatternPlan;

/// Effective FLOPs of a symmetric eigendecomposition + back-transform per
/// `n³`: tridiagonalization (4/3) + QL with eigenvector accumulation (≈6)
/// + the two back-transform GEMMs (≈4) ≈ 10.
pub const EIGH_FLOPS_PER_N3: f64 = 10.0;

/// Simulated time breakdown of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ModeledTime {
    /// Initialization: pattern exchange + deduplicated block transfers.
    pub init: f64,
    /// Compute phase (max over ranks).
    pub compute: f64,
    /// Result write-back transfers.
    pub writeback: f64,
}

impl ModeledTime {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.init + self.compute + self.writeback
    }
}

/// Model a submatrix-method run of the given plan on `n_cores` (the paper
/// uses one rank per core for the submatrix method, Sec. V). Each rank's
/// compute, unique blocks and write-back come from its
/// [`rank_shares`](PatternPlan::rank_shares) entry — the engine's own
/// deal, walks and transfer deduplication.
pub fn model_submatrix_run(
    plan: &PatternPlan,
    n_cores: usize,
    cluster: &ClusterModel,
) -> ModeledTime {
    assert!(n_cores >= 1);
    // The global COO pattern allgather: every rank receives the full
    // nonzero-block list, 16 bytes per entry. The fraction of blocks
    // living on other ranks is (n_cores − 1)/n_cores under the cyclic
    // distribution.
    let coo_bytes = plan.pattern.nnz() as f64 * 16.0;
    let remote_fraction = (n_cores - 1) as f64 / n_cores as f64;

    let mut max_compute = 0.0f64;
    let mut max_init = 0.0f64;
    let mut max_writeback = 0.0f64;
    for share in plan.rank_shares(n_cores) {
        if share.costs.is_empty() {
            continue;
        }
        // Compute: eigendecomposition cost of each assigned submatrix.
        let flops: f64 = share.costs.iter().map(|c| c * EIGH_FLOPS_PER_N3).sum();
        max_compute = max_compute.max(cluster.dense_compute_time(flops));

        // Init: the pattern allgather plus the deduplicated block transfers.
        let unique = &share.transfers;
        let bytes = coo_bytes * remote_fraction + unique.unique_bytes as f64 * remote_fraction;
        let msgs = (n_cores - 1).min(unique.unique_blocks as usize) as f64;
        max_init = max_init.max(cluster.transfer_time(bytes, msgs));

        // Write-back: the blocks each submatrix extracts (its pattern
        // column blocks), again mostly remote.
        let result_bytes = (share.extracted * 8) as f64;
        max_writeback =
            max_writeback.max(cluster.transfer_time(result_bytes * remote_fraction, msgs));
    }

    ModeledTime {
        init: max_init,
        compute: max_compute,
        writeback: max_writeback,
    }
}

/// Flops of one block-sparse multiplication `X·X` for a pattern with
/// uniform block size `b`: `Σ_k 2·b³·c_k²` where `c_k` is the nonzero-block
/// count of column k (symmetric pattern assumed). `fill` models the
/// iterate's densification relative to the input pattern.
pub fn sparse_multiply_flops(pattern: &CooPattern, block_size: usize, fill: f64) -> f64 {
    let b3 = (block_size as f64).powi(3);
    let mut triples = 0.0;
    for c in 0..pattern.nb() {
        let ck = pattern.col_nnz(c) as f64 * fill;
        let ck = ck.min(pattern.nb() as f64);
        triples += ck * ck;
    }
    2.0 * b3 * triples
}

/// Estimate of Newton–Schulz iteration count to reach `eps` for a spectrum
/// with relative gap `gap_rel = gap / spectral_width`: the pre-asymptotic
/// phase needs ~log₂(1/gap_rel) doublings before quadratic convergence
/// takes over with ~log₂ log(1/eps) extra steps.
pub fn ns_iteration_estimate(gap_rel: f64, eps: f64) -> usize {
    assert!(gap_rel > 0.0 && gap_rel < 1.0);
    assert!(eps > 0.0 && eps < 1.0);
    let pre = (1.0 / gap_rel).log2().ceil();
    let post = (1.0f64.max((1.0 / eps).ln())).log2().ceil();
    (pre + post).max(1.0) as usize
}

/// Per-block, per-Cannon-step index-processing cost of the block-sparse
/// multiply (seconds): libDBCSR rebuilds its local multiplication index —
/// matching A-tile columns against B-tile rows — at every shift step.
pub const DBCSR_INDEX_COST_PER_BLOCK: f64 = 400e-9;

/// Model a Newton–Schulz run: `iterations` sparse iterations, each costing
/// two multiplications plus Cannon communication on a √ranks × √ranks grid.
/// The paper runs NS with 8 ranks × 5 threads per node (Sec. V): `n_cores`
/// is total cores; `ranks = n_cores / threads_per_rank`. Ranks on one node
/// share the NIC, so shift bandwidth divides by ranks-per-node; every shift
/// step also pays the per-block index-processing cost, which is what erodes
/// Cannon's weak scaling as the grid grows (paper Fig. 10).
pub fn model_newton_schulz_run(
    pattern: &CooPattern,
    dims: &BlockedDims,
    n_cores: usize,
    threads_per_rank: usize,
    iterations: usize,
    fill: f64,
    cluster: &ClusterModel,
) -> ModeledTime {
    assert!(n_cores >= 1 && threads_per_rank >= 1);
    let ranks = (n_cores / threads_per_rank).max(1);
    let q = (ranks as f64).sqrt().floor().max(1.0);

    let block_size = dims.size(0);
    let mult_flops = sparse_multiply_flops(pattern, block_size, fill);
    // Two multiplies per iteration; work split over all cores (ranks ×
    // threads), at the sparse (memory-bound) rate.
    let per_iter_compute = cluster.sparse_compute_time(2.0 * mult_flops / n_cores as f64);

    // Cannon shifts: per multiply, (q−1) shift steps each moving this
    // rank's tile of A and B through the node-shared NIC.
    let nnz_blocks = pattern.nnz() as f64 * fill.min(pattern.nb() as f64);
    let matrix_bytes: f64 = pattern
        .entries()
        .iter()
        .map(|&(r, c)| (dims.size(r) * dims.size(c) * 8) as f64)
        .sum::<f64>()
        * fill.min(pattern.nb() as f64);
    let tile_bytes = matrix_bytes / ranks as f64;
    let ranks_per_node = (cluster.cores_per_node / threads_per_rank).max(1) as f64;
    let shift_bandwidth_penalty = ranks_per_node.min(ranks as f64);
    let per_iter_comm = 2.0
        * (q - 1.0)
        * (cluster.latency * 2.0 + shift_bandwidth_penalty * 2.0 * tile_bytes / cluster.bandwidth);

    // Index processing: q steps per multiply, each touching every block of
    // the local A and B tiles.
    let blocks_per_tile = nnz_blocks / ranks as f64;
    let per_iter_index = 2.0 * q * 2.0 * blocks_per_tile * DBCSR_INDEX_COST_PER_BLOCK;

    ModeledTime {
        init: 0.0,
        compute: iterations as f64 * per_iter_compute,
        writeback: iterations as f64 * (per_iter_comm + per_iter_index),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::SubmatrixSpec;
    use crate::engine::Grouping;
    use crate::loadbalance::greedy_contiguous;
    use std::collections::BTreeSet;

    fn one_per_column(p: &CooPattern, d: &BlockedDims) -> PatternPlan {
        PatternPlan::new(p.clone(), d.clone(), &Grouping::OnePerColumn)
    }

    /// [`model_submatrix_run`] as it was before it read the engine's rank
    /// shares: the one-per-column spec list, dealt by `greedy_contiguous`,
    /// each rank's specs walked for its blocks, deduplicated in a set, and
    /// its write-back summed column by column over the pattern. The oracle
    /// the shares are held to.
    fn reference_submatrix_run(
        pattern: &CooPattern,
        dims: &BlockedDims,
        n_cores: usize,
        cluster: &ClusterModel,
    ) -> ModeledTime {
        let specs: Vec<SubmatrixSpec> = (0..pattern.nb())
            .map(|c| SubmatrixSpec::build(pattern, dims, &[c]))
            .collect();
        let costs: Vec<f64> = specs.iter().map(|s| s.cost()).collect();
        let assignment = greedy_contiguous(&costs, n_cores);

        let mut max_compute = 0.0f64;
        let mut max_init = 0.0f64;
        let mut max_writeback = 0.0f64;
        for range in &assignment.ranges {
            if range.is_empty() {
                continue;
            }
            let specs = &specs[range.clone()];
            let flops: f64 = specs.iter().map(|s| s.cost() * EIGH_FLOPS_PER_N3).sum();
            max_compute = max_compute.max(cluster.dense_compute_time(flops));

            let coo_bytes = pattern.nnz() as f64 * 16.0;
            let mut ids = Vec::new();
            for spec in specs {
                spec.walk(pattern, dims, &mut ids, None);
            }
            let unique: BTreeSet<_> = ids.iter().map(|&id| pattern.entries()[id]).collect();
            let unique_bytes: usize = (unique.iter())
                .map(|&(r, c)| dims.size(r) * dims.size(c) * 8)
                .sum();
            let remote_fraction = (n_cores - 1) as f64 / n_cores as f64;
            let bytes = coo_bytes * remote_fraction + unique_bytes as f64 * remote_fraction;
            let msgs = (n_cores - 1).min(unique.len()) as f64;
            max_init = max_init.max(cluster.transfer_time(bytes, msgs));

            let result_bytes: f64 = specs
                .iter()
                .flat_map(|s| s.cols.iter())
                .map(|&c| {
                    pattern
                        .rows_in_col(c)
                        .map(|r| (dims.size(r) * dims.size(c) * 8) as f64)
                        .sum::<f64>()
                })
                .sum();
            max_writeback =
                max_writeback.max(cluster.transfer_time(result_bytes * remote_fraction, msgs));
        }
        ModeledTime {
            init: max_init,
            compute: max_compute,
            writeback: max_writeback,
        }
    }

    /// A water-like box: `nrep³` cells of 8 molecules at jittered sites of
    /// a periodic cubic lattice (spacing 1), two molecules coupled by one
    /// 6 × 6 block when their periodic distance is below `cutoff` — the
    /// distance-cutoff pattern of an SZV water box at a filter threshold.
    fn water_like(nrep: usize, cutoff: f64) -> (CooPattern, BlockedDims) {
        let side = 2 * nrep;
        let jitter = |i: usize, axis: u64| {
            let h = (i as u64 * 0x9e37_79b9 + axis * 0x85eb_ca6b) % 1021;
            0.3 * (h as f64 / 1021.0 - 0.5)
        };
        let sites: Vec<[f64; 3]> = (0..side * side * side)
            .map(|i| {
                let at = [i % side, i / side % side, i / (side * side)];
                [0, 1, 2].map(|a| at[a] as f64 + jitter(i, a as u64))
            })
            .collect();
        let periodic = |d: f64| d - side as f64 * (d / side as f64).round();
        let coords = (0..sites.len())
            .flat_map(|j| (0..sites.len()).map(move |i| (i, j)))
            .filter(|&(i, j)| {
                let d2: f64 = (0..3)
                    .map(|a| periodic(sites[i][a] - sites[j][a]).powi(2))
                    .sum();
                d2 < cutoff * cutoff
            })
            .collect();
        (
            CooPattern::from_coords(coords, sites.len()),
            BlockedDims::uniform(sites.len(), 6),
        )
    }

    #[test]
    fn rank_views_model_the_reference_run_bit_for_bit() {
        let cluster = ClusterModel::paper_testbed();
        for (nrep, cutoff) in [(2, 1.9), (3, 2.3)] {
            let (p, d) = water_like(nrep, cutoff);
            let plan = one_per_column(&p, &d);
            for cores in [1, 8, 80] {
                let new = model_submatrix_run(&plan, cores, &cluster);
                let old = reference_submatrix_run(&p, &d, cores, &cluster);
                let bits = |t: ModeledTime| [t.init, t.compute, t.writeback].map(f64::to_bits);
                assert_eq!(bits(new), bits(old), "{nrep}³ cells at {cores} cores");
            }
        }
    }

    fn banded(nb: usize, half: usize) -> (CooPattern, BlockedDims) {
        let mut coords = Vec::new();
        for i in 0..nb {
            for j in i.saturating_sub(half)..(i + half + 1).min(nb) {
                coords.push((i, j));
            }
        }
        (
            CooPattern::from_coords(coords, nb),
            BlockedDims::uniform(nb, 6),
        )
    }

    #[test]
    fn submatrix_time_decreases_with_cores() {
        let (p, d) = banded(512, 4);
        let plan = one_per_column(&p, &d);
        let cluster = ClusterModel::paper_testbed();
        let t1 = model_submatrix_run(&plan, 1, &cluster);
        let t8 = model_submatrix_run(&plan, 8, &cluster);
        let t64 = model_submatrix_run(&plan, 64, &cluster);
        assert!(t8.compute < t1.compute);
        assert!(t64.compute <= t8.compute);
        // Strong-scaling efficiency between 1 and 8 cores stays high for
        // 64 equal submatrices.
        let eff = t1.compute / (8.0 * t8.compute);
        assert!(eff > 0.8, "efficiency {eff}");
    }

    #[test]
    fn submatrix_time_scales_linearly_with_system() {
        // Same per-column structure, doubled system, same cores ⇒ ~2x time.
        let cluster = ClusterModel::paper_testbed();
        let (p1, d1) = banded(64, 4);
        let (p2, d2) = banded(128, 4);
        let t1 = model_submatrix_run(&one_per_column(&p1, &d1), 4, &cluster);
        let t2 = model_submatrix_run(&one_per_column(&p2, &d2), 4, &cluster);
        let ratio = t2.compute / t1.compute;
        assert!(
            (1.6..=2.4).contains(&ratio),
            "expected ~2x compute growth, got {ratio}"
        );
    }

    #[test]
    fn sparse_multiply_flops_counts_triples() {
        // Diagonal pattern: c_k = 1 ⇒ flops = 2·b³·nb.
        let (p, _) = banded(10, 0);
        let f = sparse_multiply_flops(&p, 2, 1.0);
        assert_eq!(f, 2.0 * 8.0 * 10.0);
        // Fill multiplies quadratically (until saturation).
        let f2 = sparse_multiply_flops(&p, 2, 2.0);
        assert_eq!(f2, 4.0 * f);
    }

    #[test]
    fn fill_saturates_at_dense() {
        let (p, _) = banded(4, 0);
        let f_huge = sparse_multiply_flops(&p, 2, 100.0);
        let f_dense = sparse_multiply_flops(&p, 2, 4.0); // c_k = 4 = nb
        assert_eq!(f_huge, f_dense);
    }

    #[test]
    fn ns_iteration_estimate_reasonable() {
        // Typical gapped chemistry: relative gap ~1e-2, eps 1e-10 ⇒ 10-15.
        let k = ns_iteration_estimate(1e-2, 1e-10);
        assert!((8..=20).contains(&k), "estimate {k}");
        // Tighter eps needs more steps.
        assert!(ns_iteration_estimate(1e-2, 1e-14) >= k);
        // Smaller gap needs more steps.
        assert!(ns_iteration_estimate(1e-4, 1e-10) > k);
    }

    #[test]
    fn ns_model_scales_with_iterations_and_cores() {
        let (p, d) = banded(64, 4);
        let cluster = ClusterModel::paper_testbed();
        let t10 = model_newton_schulz_run(&p, &d, 40, 5, 10, 2.0, &cluster);
        let t20 = model_newton_schulz_run(&p, &d, 40, 5, 20, 2.0, &cluster);
        assert!((t20.total() / t10.total() - 2.0).abs() < 1e-9);
        let t_more_cores = model_newton_schulz_run(&p, &d, 160, 5, 10, 2.0, &cluster);
        assert!(t_more_cores.compute < t10.compute);
    }

    #[test]
    fn submatrix_beats_ns_on_very_sparse_systems() {
        // The headline claim (Fig. 6, right side): for sparse matrices the
        // submatrix method outruns Newton–Schulz at equal cores.
        let (p, d) = banded(256, 2); // very sparse: 5 blocks/column
        let cluster = ClusterModel::paper_testbed();
        let sm = model_submatrix_run(&one_per_column(&p, &d), 80, &cluster);
        let ns = model_newton_schulz_run(&p, &d, 80, 5, 15, 2.0, &cluster);
        assert!(
            sm.total() < ns.total(),
            "submatrix {} should beat NS {}",
            sm.total(),
            ns.total()
        );
    }

    #[test]
    fn ns_beats_submatrix_on_dense_patterns() {
        // The crossover's other side (Fig. 6, left): for nearly dense
        // patterns the n³-per-column submatrix work explodes.
        let (p, d) = banded(64, 60); // essentially dense
        let cluster = ClusterModel::paper_testbed();
        let sm = model_submatrix_run(&one_per_column(&p, &d), 80, &cluster);
        let ns = model_newton_schulz_run(&p, &d, 80, 5, 15, 1.0, &cluster);
        assert!(
            ns.total() < sm.total(),
            "NS {} should beat submatrix {} on dense patterns",
            ns.total(),
            sm.total()
        );
    }
}
