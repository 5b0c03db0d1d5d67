//! Ablation studies of the method's design choices. Wall columns are
//! report-only; every deterministic claim is asserted before reporting.

use sm_chem::builder::build_system;
use sm_chem::energy::electron_count;
use sm_chem::{BasisSet, WaterBox};
use sm_comsim::SerialComm;
use sm_core::assembly::SubmatrixSpec;
use sm_core::engine::{
    EngineOptions, Ensemble, ExecutionPlan, Grouping, NumericOptions, SubmatrixEngine,
};
use sm_core::loadbalance::{greedy_contiguous, round_robin};
use sm_core::plan::estimated_speedup;
use sm_core::solver::{solve_sign, SignMethod, SolveOptions};
use sm_core::transfers::{RankTransferPlan, TransferStats};
use sm_core::SubmatrixPlan;
use sm_dbcsr::{ops, DbcsrMatrix};
use sm_linalg::sign::{sign_iteration, SignIterationOptions};
use sm_linalg::sparse::sparse_sign_iteration;

use super::Ctx;
use crate::output::Cell::{Fixed, Flag, Sci, Wall};
use crate::output::{Json, Report};
use crate::workloads::{
    accuracy_basis, assemble_columns, build_orthogonalized, filtered, same_bits, timed,
    water_pattern, water_system, SEED,
};

/// Sec. IV-C: does the Eq. 15 cost model predict the measured solve time
/// of consecutive column combination? Measured speedups should track the
/// estimate qualitatively, peaking at moderate group sizes.
pub fn combine_sweep(_: &Ctx) -> Report {
    let comm = SerialComm::new();
    let (_, sys, kt) = water_system(2);
    let kt_f = filtered(&kt, 1e-6);
    let pattern = kt_f.global_pattern(&comm);
    let singles = SubmatrixPlan::one_per_column(&pattern, kt_f.dims());
    let mut report = Report::new(
        "Ablation — column-combination sweep",
        &[
            "group_size",
            "n_submatrices",
            "estimated_S",
            "wall_s",
            "measured_speedup",
        ],
    );
    let mut t_single = 0.0;
    for group in [1usize, 2, 4, 8, 16, 32] {
        let plan = SubmatrixPlan::consecutive(&pattern, kt_f.dims(), group);
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping: Grouping::Consecutive(group),
            ..Default::default()
        });
        let (_, t) = timed(|| engine.density(&kt_f, sys.mu, &NumericOptions::default(), &comm));
        if group == 1 {
            t_single = t;
        }
        report.push(vec![
            group.into(),
            plan.len().into(),
            Fixed(estimated_speedup(&singles, &plan), 3),
            Wall(t),
            Fixed(t_single / t, 3),
        ]);
    }
    report
}

/// The NREP = 3 SZV plan at ε = 1e-5 with its per-submatrix costs — the
/// input of the two transfer ablations.
fn transfer_workload() -> (
    sm_dbcsr::CooPattern,
    sm_dbcsr::BlockedDims,
    SubmatrixPlan,
    Vec<f64>,
) {
    let (pattern, dims, plan) = water_pattern(&WaterBox::cubic(3, SEED), &BasisSet::szv(), 1e-5);
    let costs = plan.specs.iter().map(|s| s.cost()).collect();
    (pattern, dims, plan, costs)
}

/// Sec. IV-B1: neighbouring block columns share most of their blocks, so
/// a rank processing a consecutive chunk would transfer the same block
/// many times without deduplication.
pub fn dedup_transfers(_: &Ctx) -> Report {
    let (pattern, dims, plan, costs) = transfer_workload();
    println!(
        "{} submatrices, {} nonzero blocks",
        plan.len(),
        pattern.nnz()
    );
    let mut report = Report::new(
        "Ablation — transfer deduplication",
        &[
            "ranks",
            "unique_kib",
            "naive_kib",
            "dedup_factor",
            "saved_pct",
        ],
    );
    for n_ranks in [4usize, 16, 64, 256] {
        let mut stats = TransferStats::default();
        for range in greedy_contiguous(&costs, n_ranks).ranges {
            if !range.is_empty() {
                let specs: Vec<&SubmatrixSpec> = plan.specs[range].iter().collect();
                stats.add_rank(&RankTransferPlan::for_specs(&specs, &pattern), &dims);
            }
        }
        let saving = 1.0 - stats.unique_bytes as f64 / stats.naive_bytes.max(1) as f64;
        report.push(vec![
            n_ranks.into(),
            (stats.unique_bytes / 1024).into(),
            (stats.naive_bytes / 1024).into(),
            Fixed(stats.dedup_factor(), 2),
            Fixed(saving * 100.0, 1),
        ]);
    }
    report
}

/// Sec. IV-B2: consecutive submatrices share blocks, so a contiguous
/// chunk per rank minimizes the per-rank buffered data; round-robin
/// destroys that locality.
pub fn mapping_locality(_: &Ctx) -> Report {
    let (pattern, dims, plan, costs) = transfer_workload();
    let bytes_of = |specs: Vec<&SubmatrixSpec>| {
        RankTransferPlan::for_specs(&specs, &pattern).unique_bytes(&dims)
    };
    let mut report = Report::new(
        "Ablation — mapping locality (buffered bytes per scheme)",
        &[
            "ranks",
            "contiguous_kib",
            "round_robin_kib",
            "rr_over_contig",
        ],
    );
    for n_ranks in [4usize, 16, 64] {
        let contiguous: u64 = greedy_contiguous(&costs, n_ranks)
            .ranges
            .into_iter()
            .map(|range| bytes_of(plan.specs[range].iter().collect()))
            .sum();
        let rr: u64 = round_robin(plan.len(), n_ranks)
            .iter()
            .map(|indices| bytes_of(indices.iter().map(|&i| &plan.specs[i]).collect()))
            .sum();
        report.push(vec![
            n_ranks.into(),
            (contiguous / 1024).into(),
            (rr / 1024).into(),
            Fixed(rr as f64 / contiguous.max(1) as f64, 2),
        ]);
    }
    report
}

/// Sec. V-C future work: DZVP submatrices store ~50 % of their window as
/// blocks but hold < 20 % nonzero *elements*. Dense Newton–Schulz flop
/// count against the filtered CSR iteration's actual flops, with wall
/// times and the accuracy cost.
pub fn element_sparse(_: &Ctx) -> Report {
    let mut report = Report::new(
        "Ablation — dense vs element-wise sparse submatrix solve (Sec. V-C)",
        &[
            "basis",
            "dim",
            "dense_flops",
            "sparse_flops",
            "flop_saving",
            "dense_s",
            "sparse_s",
            "final_fill",
            "max_diff",
        ],
    );
    for (label, basis) in [
        ("SZV", BasisSet::szv().with_range_scale(0.55)),
        ("DZVP", BasisSet::dzvp().with_range_scale(0.45)),
    ] {
        let water = WaterBox::cubic(2, SEED);
        // K directly (symmetric, gapped at µ): the orthogonalized matrix
        // has the same element-fill structure.
        let sys = build_system(&water, &basis, 0, 1, 1e-8);
        let (spec, a) = assemble_columns(&sys.k, &[water.n_molecules() / 2]);
        let n = spec.dim as u64;

        let opts = SignIterationOptions {
            tol: 1e-8,
            max_iter: 100,
            prescale: true,
        };
        let (dense, t_dense) = timed(|| sign_iteration(&a, 2, opts).expect("dense iteration"));
        // Counted flops: ~2n³ per multiply, three multiplies per step.
        let dense_flops = dense.trace.len() as u64 * 3 * 2 * n * n * n;
        let (sparse, t_sparse) = timed(|| {
            sparse_sign_iteration(&a, sys.mu * 0.0, 2, 1e-8, 1e-6, 100).expect("sparse iteration")
        });
        report.push(vec![
            label.into(),
            spec.dim.into(),
            Sci(dense_flops as f64, 3),
            Sci(sparse.flops as f64, 3),
            Fixed(dense_flops as f64 / sparse.flops.max(1) as f64, 2),
            Wall(t_dense),
            Wall(t_sparse),
            Fixed(sparse.final_fill, 3),
            Sci(sparse.sign.max_abs_diff(&dense.sign), 3),
        ]);
    }
    report
}

/// Algorithm 1: the stored-decomposition path costs one decomposition
/// plus ~40 cheap occupancy evaluations; the naive path re-solves every
/// submatrix at every bisection step — slower by roughly the bisection
/// count.
pub fn mu_bisection(_: &Ctx) -> Report {
    let comm = SerialComm::new();
    let (water, sys, kt) = water_system(2);
    let kt_f = filtered(&kt, 1e-6);
    let target = 8.0 * water.n_molecules() as f64;

    let opts = NumericOptions {
        ensemble: Ensemble::Canonical {
            n_electrons: target,
            tol: 1e-8,
            max_iter: 100,
        },
        ..Default::default()
    };
    let ((d, alg1), t_alg1) =
        timed(|| SubmatrixEngine::default().density(&kt_f, sys.mu, &opts, &comm));

    // Naive: grand-canonical full solve per bisection step.
    let ((steps, n_naive, mu), t_naive) = timed(|| {
        let (mut lo, mut hi) = (sys.mu - 1.0, sys.mu + 1.0);
        let (mut steps, mut n, mut mu) = (0usize, 0.0, sys.mu);
        for _ in 0..alg1.bisect_iterations.max(8) {
            mu = 0.5 * (lo + hi);
            let (d, _) =
                SubmatrixEngine::default().density(&kt_f, mu, &NumericOptions::default(), &comm);
            n = electron_count(&d, &comm);
            if n > target {
                hi = mu;
            } else {
                lo = mu;
            }
            steps += 1;
            if (n - target).abs() < 1e-8 {
                break;
            }
        }
        (steps, n, mu)
    });

    let mut report = Report::new(
        &format!("Ablation — canonical mu adjustment (target {target} electrons)"),
        &["scheme", "wall_s", "bisect_steps", "electrons", "mu"],
    );
    report.push(vec![
        "algorithm-1".into(),
        Wall(t_alg1),
        alg1.bisect_iterations.into(),
        Fixed(electron_count(&d, &comm), 6),
        Fixed(alg1.mu, 6),
    ]);
    report.push(vec![
        "naive-recompute".into(),
        Wall(t_naive),
        steps.into(),
        Fixed(n_naive, 6),
        Fixed(mu, 6),
    ]);
    report.notes.push(format!(
        "Algorithm 1 speedup over naive: {:.1}x",
        t_naive / t_alg1.max(1e-9)
    ));
    report
}

/// The SCF/MD workload evaluates one sparsity pattern every iteration
/// with changing values: a throwaway engine per call repeats the whole
/// symbolic phase, one kept engine pays it once. The matrix is filtered
/// aggressively so the solves stay small and the symbolic-vs-numeric
/// overhead is the signal; each series keeps the fastest of five
/// interleaved repetitions.
pub fn plan_reuse(ctx: &Ctx) -> Report {
    const REPS: usize = 5;
    let eps_filter = 3e-2;
    let water = WaterBox::cubic(if ctx.paper { 3 } else { 2 }, SEED);
    let comm = SerialComm::new();
    let (sys, kt) = build_orthogonalized(&water, &accuracy_basis(), 1e-11, 1e-9);
    let kt = filtered(&kt, eps_filter);
    let numeric = NumericOptions::default();
    // Per-iteration value perturbation with a fixed pattern: a small
    // diagonal shift, the shape of an SCF potential update.
    let perturbed = |it: usize| {
        let mut m = kt.clone();
        ops::shift_diag(&mut m, 1e-4 * it as f64);
        m
    };

    let mut report = Report::new(
        "Ablation — cached-plan reuse vs replanning",
        &[
            "iters",
            "replan_total_s",
            "replan_per_iter_s",
            "cached_total_s",
            "cached_per_iter_s",
            "speedup_per_iter",
        ],
    );
    report.head.push((
        "system",
        Json::obj([
            ("molecules", Json::Num(water.n_molecules() as f64)),
            ("n", Json::Num(kt.n() as f64)),
            ("nnz_blocks", Json::Num(kt.local_nnz_blocks() as f64)),
            ("basis", Json::Str("szv(range_scale=0.55)".into())),
            ("eps_filter", Json::Num(eps_filter)),
            ("seed", Json::Num(SEED as f64)),
        ]),
    ));
    for iters in [1usize, 4, 16, 64] {
        // A fresh engine per call: full symbolic replanning every iteration.
        let replan_series = || -> f64 {
            (0..iters)
                .map(|it| {
                    let (d, _) =
                        SubmatrixEngine::default().density(&perturbed(it), sys.mu, &numeric, &comm);
                    ops::trace(&d, &comm)
                })
                .sum()
        };
        // One engine: symbolic phase once, numeric replay per iteration.
        let engine = sm_pipeline::SubmatrixEngine::default();
        let cached_series = || -> f64 {
            let plan = engine.plan_for_matrix(&kt, &comm);
            (0..iters)
                .map(|it| {
                    let (mut d, _) = engine.execute(&plan, &perturbed(it), sys.mu, &numeric, &comm);
                    ops::scale(&mut d, -0.5);
                    ops::shift_diag(&mut d, 0.5);
                    ops::trace(&d, &comm)
                })
                .sum()
        };

        // Warm both paths once, then interleave the timed repetitions so
        // slow drift in machine load hits both paths evenly.
        let (replan_checksum, cached_checksum) = (replan_series(), cached_series());
        let (mut replan_total, mut cached_total) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..REPS {
            replan_total = replan_total.min(timed(replan_series).1);
            cached_total = cached_total.min(timed(cached_series).1);
        }
        assert_eq!(
            engine.stats().symbolic_builds,
            1,
            "fixed pattern must be planned exactly once"
        );
        assert!(
            (replan_checksum - cached_checksum).abs() < 1e-9,
            "cached execution diverged from the re-planning engine"
        );
        let replan_per_iter = replan_total / iters as f64;
        let cached_per_iter = cached_total / iters as f64;
        if iters >= 4 {
            assert!(
                cached_per_iter < replan_per_iter,
                "cached plan must beat replanning from 4 iterations on \
                 ({cached_per_iter} vs {replan_per_iter} s/iter at {iters})"
            );
        }
        report.push(vec![
            iters.into(),
            Wall(replan_total),
            Wall(replan_per_iter),
            Wall(cached_total),
            Wall(cached_per_iter),
            Fixed(replan_per_iter / cached_per_iter, 3),
        ]);
    }
    report
}

/// The full back-transform, as smbench's layer walk runs it: per submatrix
/// of a one-rank plan, `solve_sign` forms all of `Q·diag(sgn λ)·Qᵀ` and
/// `ExtractionMap::extract` keeps the contributing columns.
fn full_back_transform(plan: &ExecutionPlan, m: &DbcsrMatrix, mu: f64) -> DbcsrMatrix {
    let mut result = DbcsrMatrix::new(plan.dims.clone(), 0, 1);
    for (assembly, extraction) in plan.assembly.iter().zip(&plan.extraction) {
        let a = assembly.assemble(|br, bc| m.block(br, bc));
        let sign = solve_sign(&a, mu, &SolveOptions::default()).expect("diagonalization");
        for ((br, bc), blk) in extraction.extract(&sign.sign) {
            result.insert_block(br, bc, blk);
        }
    }
    result
}

/// Sec. VII future work: the method only scatters the columns originating
/// from each spec's own block columns, so the full `Q·diag(sgn λ)·Qᵀ`
/// wastes an `O(n³)` GEMM per submatrix; the engine back-transforms only
/// the contributing columns at `O(n²·k)`. The same bits, solve-phase
/// speedup growing with n/k.
pub fn selected_columns(_: &Ctx) -> Report {
    let comm = SerialComm::new();
    let (_, sys, kt) = water_system(2);
    let mut report = Report::new(
        "Ablation — full back-transform vs selected columns",
        &["eps_filter", "avg_dim", "full_s", "selected_s", "speedup"],
    );
    let engine = SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..Default::default()
    });
    for eps in [1e-9, 1e-7, 1e-5] {
        let kt_f = filtered(&kt, eps);
        let plan = engine.plan_for_matrix(&kt_f, &comm);
        let (full, t_full) = timed(|| full_back_transform(&plan, &kt_f, sys.mu));
        let numeric = NumericOptions::default();
        let ((sel, run), t_sel) = timed(|| engine.execute(&plan, &kt_f, sys.mu, &numeric, &comm));
        assert!(
            same_bits(&full, &sel),
            "selected columns must equal the full back-transform"
        );
        report.push(vec![
            Sci(eps, 0),
            Fixed(run.avg_dim, 0),
            Wall(t_full),
            Wall(t_sel),
            Fixed(t_full / t_sel.max(1e-9), 2),
        ]);
    }
    report
}

/// Sec. IV-F: the paper found diagonalization superior for its dense
/// submatrices with vendor BLAS. Wall times of our kernels, and the
/// structural advantage independent of kernel tuning: only the
/// eigendecomposition enables canonical µ bisection without re-solving.
pub fn sign_solvers(_: &Ctx) -> Report {
    let (_, sys, kt) = water_system(2);
    let kt_f = filtered(&kt, 1e-6);
    let mut report = Report::new(
        "Ablation — per-submatrix sign solvers",
        &["dim", "solver", "wall_s", "iterations", "mu_reusable"],
    );
    for group_size in [1usize, 4, 16] {
        let group: Vec<usize> = (0..group_size).collect();
        let (spec, a) = assemble_columns(&kt_f, &group);
        for (name, method) in [
            ("diagonalization", SignMethod::Diagonalization),
            ("newton-schulz", SignMethod::NewtonSchulz),
            ("pade-3", SignMethod::Pade(3)),
            ("pade-5", SignMethod::Pade(5)),
        ] {
            let opts = SolveOptions {
                method,
                ..SolveOptions::default()
            };
            let (r, dt) = timed(|| solve_sign(&a, sys.mu, &opts).expect("solve"));
            report.push(vec![
                spec.dim.into(),
                name.into(),
                Wall(dt),
                r.iterations.into(),
                Flag(method == SignMethod::Diagonalization),
            ]);
        }
    }
    report
}
