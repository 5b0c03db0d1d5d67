//! Fast shape assertions of the paper's headline claims, evaluated on
//! pattern-level workloads (no heavy solving): these are the regression
//! gates for the evaluation figures.

use std::sync::OnceLock;

use sm_chem::builder::block_pattern;
use sm_chem::{BasisSet, WaterBox};
use sm_comsim::ClusterModel;
use sm_core::assembly::SubmatrixSpec;
use sm_core::engine::Grouping;
use sm_core::model::{model_newton_schulz_run, model_submatrix_run, ns_iteration_estimate};
use sm_core::transfers::{TransferStats, UniqueIds};
use sm_core::PatternPlan;
use sm_dbcsr::{BlockedDims, CooPattern};

fn pattern_for(nrep: usize, eps: f64) -> (CooPattern, BlockedDims) {
    let water = WaterBox::cubic(nrep, 42);
    let basis = BasisSet::szv();
    let pattern = block_pattern(&water, &basis, eps, 1.0);
    let dims = BlockedDims::uniform(water.n_molecules(), basis.n_per_molecule());
    (pattern, dims)
}

fn one_per_column(pattern: &CooPattern, dims: &BlockedDims) -> PatternPlan {
    PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn)
}

#[test]
fn claim_linear_scaling_regime_exists() {
    // Paper Fig. 4: submatrix dimension becomes size-independent.
    let [(p3, d3), (p4, d4), (p5, d5)] = [3, 4, 5].map(|nrep| pattern_for(nrep, 1e-5));
    let [p3, p4, p5] = [(&p3, &d3), (&p4, &d4), (&p5, &d5)].map(|(p, d)| one_per_column(p, d));
    assert_eq!(p4.max_dim, p5.max_dim, "dim(SM) must saturate");
    assert!((p3.avg_dim - p5.avg_dim).abs() / p5.avg_dim < 0.05);
}

#[test]
fn claim_submatrix_runtime_scales_linearly() {
    // Paper Fig. 8: modeled time ∝ atoms in the linear regime.
    let cluster = ClusterModel::paper_testbed();
    let (pat4, d4) = pattern_for(4, 1e-5);
    let (pat6, d6) = pattern_for(6, 1e-5);
    let t4 = model_submatrix_run(&one_per_column(&pat4, &d4), 80, &cluster).total();
    let t6 = model_submatrix_run(&one_per_column(&pat6, &d6), 80, &cluster).total();
    let time_ratio = t6 / t4;
    let size_ratio = (6.0f64 / 4.0).powi(3);
    assert!(
        (time_ratio / size_ratio - 1.0).abs() < 0.15,
        "time ratio {time_ratio} vs size ratio {size_ratio}"
    );
}

#[test]
fn claim_strong_scaling_efficiency_high() {
    // Paper Fig. 9: ≥ ~0.8 efficiency at 4x cores.
    let cluster = ClusterModel::paper_testbed();
    let (pattern, dims) = pattern_for(5, 1e-5);
    let plan = one_per_column(&pattern, &dims);
    let t80 = model_submatrix_run(&plan, 80, &cluster).total();
    let t320 = model_submatrix_run(&plan, 320, &cluster).total();
    let eff = t80 * 80.0 / (t320 * 320.0);
    assert!(eff > 0.8, "strong-scaling efficiency {eff}");
}

#[test]
fn claim_weak_scaling_submatrix_beats_newton_schulz() {
    // Paper Fig. 10: the submatrix method's weak-scaling efficiency stays
    // above Newton–Schulz's.
    let cluster = ClusterModel::paper_testbed();
    let basis = BasisSet::szv();
    let iters = ns_iteration_estimate(0.05, 1e-5);
    let mut sm_eff = Vec::new();
    let mut ns_eff = Vec::new();
    let mut sm_base = 0.0;
    let mut ns_base = 0.0;
    for (step, nx) in [1usize, 4, 16].into_iter().enumerate() {
        let water = WaterBox::elongated(3, nx, 42);
        let cores = 40 * nx;
        let pattern = block_pattern(&water, &basis, 1e-5, 1.0);
        let dims = BlockedDims::uniform(water.n_molecules(), basis.n_per_molecule());
        let t_sm = model_submatrix_run(&one_per_column(&pattern, &dims), cores, &cluster).total();
        let t_ns = model_newton_schulz_run(&pattern, &dims, cores, 5, iters, 2.0, &cluster).total();
        if step == 0 {
            sm_base = t_sm;
            ns_base = t_ns;
        }
        sm_eff.push(sm_base / t_sm);
        ns_eff.push(ns_base / t_ns);
    }
    assert!(
        sm_eff.last().unwrap() > ns_eff.last().unwrap(),
        "submatrix weak-scaling efficiency {:?} must beat NS {:?}",
        sm_eff,
        ns_eff
    );
    assert!(ns_eff.last().unwrap() < &0.95, "NS must visibly degrade");
}

#[test]
fn claim_method_advantage_grows_with_sparsity() {
    // Paper Fig. 6's monotone trend: SM/NS modeled-time ratio falls as the
    // filter loosens (pattern thins).
    let cluster = ClusterModel::paper_testbed();
    let mut prev_ratio = f64::INFINITY;
    for eps in [1e-7, 1e-5, 1e-3] {
        let (pattern, dims) = pattern_for(4, eps);
        let iters = ns_iteration_estimate(0.05, eps);
        let t_sm = model_submatrix_run(&one_per_column(&pattern, &dims), 80, &cluster).total();
        let t_ns = model_newton_schulz_run(&pattern, &dims, 80, 5, iters, 2.0, &cluster).total();
        let ratio = t_sm / t_ns;
        assert!(
            ratio < prev_ratio * 1.05,
            "SM/NS ratio must trend down with sparsity: {ratio} after {prev_ratio}"
        );
        prev_ratio = ratio;
    }
    // At the loosest filter the submatrix method wins outright.
    assert!(
        prev_ratio < 1.0,
        "SM must win on sparse patterns: {prev_ratio}"
    );
}

#[test]
fn claim_dzvp_submatrices_larger_than_szv() {
    // Paper Fig. 4's basis-set ordering.
    let water = WaterBox::cubic(3, 42);
    let szv = BasisSet::szv();
    let dzvp = BasisSet::dzvp();
    let p_szv = block_pattern(&water, &szv, 1e-5, 1.0);
    let p_dzvp = block_pattern(&water, &dzvp, 1e-5, 1.0);
    let d_szv = BlockedDims::uniform(water.n_molecules(), szv.n_per_molecule());
    let d_dzvp = BlockedDims::uniform(water.n_molecules(), dzvp.n_per_molecule());
    let plan_szv = one_per_column(&p_szv, &d_szv);
    let plan_dzvp = one_per_column(&p_dzvp, &d_dzvp);
    assert!(plan_dzvp.avg_dim > 2.0 * plan_szv.avg_dim);
}

/// Whole-run transfer counts of the engine's contiguous mapping per rank
/// count: the summed `TransferStats` of every rank's view of
/// `pattern_for(3, 1e-5)`, planned one submatrix per column. One pass of
/// rank views serves both transfer claims.
fn contiguous_transfers() -> &'static [(usize, TransferStats)] {
    static RUNS: OnceLock<Vec<(usize, TransferStats)>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let (pattern, dims) = pattern_for(3, 1e-5);
        let plan = one_per_column(&pattern, &dims);
        [4, 16, 64]
            .map(|ranks| {
                let stats = (0..ranks)
                    .map(|rank| plan.rank_view(rank, ranks).transfers)
                    .sum();
                (ranks, stats)
            })
            .to_vec()
    })
}

#[test]
fn claim_transfers_are_deduplicated() {
    // Paper Sec. IV-B1: neighbouring block columns share most of their
    // blocks, so fetching each block once per rank moves far fewer bytes
    // than a per-submatrix exchange. The saving shrinks as each rank owns
    // fewer columns.
    let mut prev_factor = f64::INFINITY;
    for (ranks, stats) in contiguous_transfers() {
        assert!(
            stats.unique_bytes < stats.naive_bytes,
            "{ranks} ranks: deduplication saved nothing ({stats:?})"
        );
        let factor = stats.total_references as f64 / stats.unique_blocks as f64;
        assert!(
            factor > 1.0 && factor < prev_factor,
            "{ranks} ranks: dedup factor {factor} must exceed 1 and fall from {prev_factor}"
        );
        prev_factor = factor;
    }
}

#[test]
fn claim_contiguous_mapping_buffers_less() {
    // Paper Sec. IV-B2: consecutive submatrices share blocks, so one
    // contiguous chunk per rank buffers fewer bytes than dealing the
    // submatrices round-robin, and the gap widens with the rank count.
    let (pattern, dims) = pattern_for(3, 1e-5);
    let blocks: Vec<Vec<usize>> = (0..pattern.nb())
        .map(|c| {
            let mut ids = Vec::new();
            SubmatrixSpec::build(&pattern, &dims, &[c]).walk(&pattern, &dims, &mut ids, None);
            ids
        })
        .collect();
    let mut prev_ratio = 1.0;
    for (ranks, contiguous) in contiguous_transfers() {
        let round_robin: u64 = (0..*ranks)
            .map(|rank| {
                let dealt = blocks.iter().enumerate().filter(|(i, _)| i % ranks == rank);
                let mine: Vec<usize> = dealt.flat_map(|(_, b)| b).copied().collect();
                let unique = UniqueIds::default().of(&mine, pattern.nnz()).to_vec();
                TransferStats::of_rank(&unique, mine.len(), &pattern, &dims).unique_bytes
            })
            .sum();
        let ratio = round_robin as f64 / contiguous.unique_bytes as f64;
        assert!(
            ratio > prev_ratio,
            "{ranks} ranks: round-robin over contiguous buffered bytes {ratio} \
             must exceed {prev_ratio}"
        );
        prev_ratio = ratio;
    }
}
