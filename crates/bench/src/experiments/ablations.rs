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
use sm_core::loadbalance::round_robin;
use sm_core::plan::{estimated_speedup, PatternPlan};
use sm_core::solver::{
    decompose, sign_columns_from_decomposition, sign_from_decomposition, solve_sign, SignMethod,
    SolveBackend, SolveOptions,
};
use sm_core::transfers::{RankTransferPlan, TransferStats};
use sm_dbcsr::{ops, BlockedDims, CooPattern, DbcsrMatrix};
use sm_linalg::{LinalgError, Matrix, Precision};

use super::Ctx;
use crate::output::Cell::{self, Fixed, Sci, Wall};
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
    let singles = PatternPlan::new(
        pattern.clone(),
        kt_f.dims().clone(),
        &Grouping::OnePerColumn,
    );
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
        let grouping = Grouping::Consecutive(group);
        let plan = PatternPlan::new(pattern.clone(), kt_f.dims().clone(), &grouping);
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping,
            ..Default::default()
        });
        let (_, t) = timed(|| engine.density(&kt_f, sys.mu, &NumericOptions::default(), &comm));
        if group == 1 {
            t_single = t;
        }
        report.push(vec![
            group.into(),
            plan.n_submatrices().into(),
            Fixed(estimated_speedup(&singles, &plan), 3),
            Wall(t),
            Fixed(t_single / t, 3),
        ]);
    }
    report
}

/// The NREP = 3 SZV pattern at ε = 1e-5 — the input of the two transfer
/// ablations, which plan it one submatrix per column.
fn transfer_workload() -> (CooPattern, BlockedDims) {
    water_pattern(&WaterBox::cubic(3, SEED), &BasisSet::szv(), 1e-5)
}

/// Sec. IV-B1: neighbouring block columns share most of their blocks, so
/// a rank processing a consecutive chunk would transfer the same block
/// many times without deduplication. Each rank's counts are the engine's
/// own: its view of the plan.
pub fn dedup_transfers(_: &Ctx) -> Report {
    let (pattern, dims) = transfer_workload();
    let plan = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
    println!(
        "{} submatrices, {} nonzero blocks",
        plan.n_submatrices(),
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
        let stats: TransferStats = (0..n_ranks)
            .map(|rank| plan.rank_view(rank, n_ranks).transfers)
            .sum();
        let saving = 1.0 - stats.unique_bytes as f64 / stats.naive_bytes.max(1) as f64;
        report.push(vec![
            n_ranks.into(),
            (stats.unique_bytes / 1024).into(),
            (stats.naive_bytes / 1024).into(),
            Fixed(
                stats.total_references as f64 / stats.unique_blocks as f64,
                2,
            ),
            Fixed(saving * 100.0, 1),
        ]);
    }
    report
}

/// Sec. IV-B2: consecutive submatrices share blocks, so a contiguous
/// chunk per rank minimizes the per-rank buffered data; round-robin
/// destroys that locality.
pub fn mapping_locality(_: &Ctx) -> Report {
    let (pattern, dims) = transfer_workload();
    let plan = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
    // What each submatrix's walk lists, for the dealing the engine never uses.
    let blocks: Vec<Vec<(usize, usize)>> = (0..pattern.nb())
        .map(|c| {
            let mut blocks = Vec::new();
            SubmatrixSpec::build(&pattern, &dims, &[c]).walk(&pattern, &dims, &mut blocks);
            blocks
        })
        .collect();
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
        let contiguous: u64 = (0..n_ranks)
            .map(|rank| plan.rank_view(rank, n_ranks).transfers.unique_bytes)
            .sum();
        let rr: u64 = round_robin(blocks.len(), n_ranks)
            .iter()
            .map(|indices| {
                let mine = indices.iter().flat_map(|&i| &blocks[i]).copied();
                RankTransferPlan::from_blocks(mine.collect()).unique_bytes(&dims)
            })
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

/// The water submatrices the solve-path table measures, each with its µ
/// and its contributing columns (the walk's `contributing`): SZV single,
/// 4- and 16-column groups of the orthogonalized `K̃` filtered at 1e-6
/// (n = 132, 336, 636), and one molecule's column of the unorthogonalized
/// SZV and DZVP `K` (n = 204, 851; Sec. V-C's element-sparse regime).
fn solve_path_inputs() -> Vec<(&'static str, Matrix, f64, Vec<usize>)> {
    let (_, sys, kt) = water_system(2);
    let kt_f = filtered(&kt, 1e-6);
    let mut inputs: Vec<_> = [1usize, 4, 16]
        .into_iter()
        .map(|group_size| {
            let group: Vec<usize> = (0..group_size).collect();
            let (cols, a) = assemble_columns(&kt_f, &group);
            ("SZV", a, sys.mu, cols)
        })
        .collect();
    for (label, basis) in [
        ("SZV", BasisSet::szv().with_range_scale(0.55)),
        ("DZVP", BasisSet::dzvp().with_range_scale(0.45)),
    ] {
        let water = WaterBox::cubic(2, SEED);
        let sys = build_system(&water, &basis, 0, 1, 1e-8);
        let (cols, a) = assemble_columns(&sys.k, &[water.n_molecules() / 2]);
        inputs.push((label, a, sys.mu, cols));
    }
    inputs
}

/// Columns of the solve-path table.
const SOLVE_PATH_COLUMNS: [&str; 7] = [
    "basis",
    "n",
    "path",
    "wall_s",
    "iterations",
    "max_col_err",
    "wall_over_diag",
];

/// What one solve path returns: the contributing columns of
/// `sign(a − µI)` (`n × k`) and its iterations.
type PathOutcome = Result<(Matrix, usize), LinalgError>;

/// One solve path: its name, whether it keeps its code (and so must match
/// the reference), and the solve.
type SolvePath<'a> = (&'a str, bool, Box<dyn Fn() -> PathOutcome + 'a>);

/// The solve-path rows of one submatrix `a` (Secs. IV-F, V-C): per path
/// its median wall over `repeats` rounds, iterations, and max error on the
/// contributing columns `cols` against the full back-transform of the
/// diagonalization. A path that fails is a `failed` cell. Asserts that
/// every path that keeps its code — diagonalization, dense Padé-2 / -3 and
/// exact CSR Padé-3 — is within 1e-10 of the reference.
fn solve_path_rows(
    basis: &str,
    a: &Matrix,
    mu: f64,
    cols: &[usize],
    repeats: usize,
) -> Vec<Vec<Cell>> {
    let n = a.nrows();
    let all: &[usize] = &(0..n).collect::<Vec<_>>();
    let full = sign_from_decomposition(&decompose(a, Precision::Fp64).expect("eigh"), mu, 0.0);
    let reference = full.submatrix(all, cols);
    let iterative = |order, backend, sparse_eps, tol| {
        let opts = SolveOptions {
            method: SignMethod::Pade(order),
            backend,
            sparse_eps,
            tol,
            ..SolveOptions::default()
        };
        move || -> PathOutcome {
            let r = solve_sign(a, mu, &opts)?;
            Ok((r.sign.submatrix(all, cols), r.iterations))
        }
    };
    let (dense, csr) = (SolveBackend::Dense, SolveBackend::SparseCsr);
    let default_tol = SolveOptions::default().tol;
    // The filtered CSR path does not converge at the default `tol` (which
    // `solve_sign` raises to `sparse_eps`): the smallest decade above it at
    // which it does, if one up to 1e-5 does.
    let tol = [1e-7, 1e-6, 1e-5]
        .into_iter()
        .find(|&tol| iterative(3, csr, 1e-8, tol)().is_ok())
        .unwrap_or(1e-5);
    let probe = format!("csr pade-3, sparse_eps 1e-8, tol {tol:.0e}");
    let paths: [SolvePath; 6] = [
        (
            "diagonalization (k columns)",
            true,
            Box::new(|| {
                let dec = decompose(a, Precision::Fp64)?;
                Ok((sign_columns_from_decomposition(&dec, mu, 0.0, cols), 0))
            }),
        ),
        (
            "pade-2",
            true,
            Box::new(iterative(2, dense, 0.0, default_tol)),
        ),
        (
            "pade-3",
            true,
            Box::new(iterative(3, dense, 0.0, default_tol)),
        ),
        (
            "csr pade-3, sparse_eps 0",
            true,
            Box::new(iterative(3, csr, 0.0, default_tol)),
        ),
        (
            "csr pade-3, sparse_eps 1e-8",
            false,
            Box::new(iterative(3, csr, 1e-8, default_tol)),
        ),
        (&probe, false, Box::new(iterative(3, csr, 1e-8, tol))),
    ];
    // One run of every path per round, so a burst of host load lands on
    // all of them; a path that fails runs once.
    let mut runs: Vec<(PathOutcome, Vec<f64>)> = Vec::new();
    for round in 0..repeats {
        for (k, (_, _, solve)) in paths.iter().enumerate() {
            if round > 0 && runs[k].0.is_err() {
                continue;
            }
            let (outcome, wall) = timed(solve);
            match round {
                0 => runs.push((outcome, vec![wall])),
                _ => runs[k].1.push(wall),
            }
        }
    }
    let median = |walls: &mut Vec<f64>| {
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    };
    let t_diag = median(&mut runs[0].1);
    let rows = paths
        .iter()
        .zip(runs)
        .map(|((name, kept, _), (outcome, mut walls))| {
            let (iterations, err) = match outcome {
                Ok((columns, iterations)) => {
                    let err = columns.max_abs_diff(&reference);
                    assert!(
                        !kept || err <= 1e-10,
                        "{basis} n = {n}, {name}: column error {err:.2e} above 1e-10"
                    );
                    (iterations.into(), Sci(err, 1))
                }
                Err(e) => {
                    assert!(!kept, "{basis} n = {n}, {name} failed: {e}");
                    let iterations = match e {
                        LinalgError::NoConvergence { iterations, .. } => iterations.into(),
                        _ => Cell::from("-"),
                    };
                    (iterations, Cell::from("failed"))
                }
            };
            let wall = median(&mut walls);
            vec![
                basis.into(),
                n.into(),
                (*name).into(),
                Wall(wall),
                iterations,
                err,
                Fixed(wall / t_diag, 2),
            ]
        });
    rows.collect()
}

/// Secs. IV-F and V-C: which way of producing a submatrix's sign columns
/// earns its code — diagonalization, dense Padé or element-wise CSR Padé —
/// on the five water submatrices of [`solve_path_inputs`]. Walls are
/// medians of three interleaved rounds.
pub fn solve_paths(_: &Ctx) -> Report {
    let mut report = Report::new(
        "Ablation — submatrix solve paths (Secs. IV-F, V-C)",
        &SOLVE_PATH_COLUMNS,
    );
    for (basis, a, mu, cols) in solve_path_inputs() {
        for row in solve_path_rows(basis, &a, mu, &cols, 3) {
            report.push(row);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table's row builder on its smallest submatrix (SZV n = 132):
    /// every kept path within 1e-10 of the reference (asserted inside),
    /// one full row per path.
    #[test]
    fn solve_path_rows_hold_their_contract_at_n_132() {
        let (_, sys, kt) = water_system(2);
        let kt_f = filtered(&kt, 1e-6);
        let (cols, a) = assemble_columns(&kt_f, &[0]);
        assert_eq!(a.nrows(), 132);
        let rows = solve_path_rows("SZV", &a, sys.mu, &cols, 1);
        assert!(rows.iter().all(|r| r.len() == SOLVE_PATH_COLUMNS.len()));
        let paths: Vec<String> = rows.iter().map(|r| r[2].text()).collect();
        assert!(paths[0].starts_with("diagonalization"), "{paths:?}");
        assert_eq!(
            rows[0][5].text(),
            Sci(0.0, 1).text(),
            "k columns are the full bits"
        );
    }
}
