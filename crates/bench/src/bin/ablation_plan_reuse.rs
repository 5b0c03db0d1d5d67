//! Ablation: amortized speedup of cached-plan execution vs replanning.
//!
//! The SCF/MD workload (paper Sec. IV) evaluates the same sparsity pattern
//! every iteration with changing values. A throwaway engine per call
//! repeats the whole symbolic phase (pattern, grouping, load balance,
//! transfer plan, index maps) each time; one kept `SubmatrixEngine` pays it
//! once and replays numerically. This bench runs both over 1/4/16/64 simulated SCF
//! iterations and reports amortized per-iteration times, emitting the
//! standard CSV and JSON outputs.
//!
//! The Kohn–Sham matrix is filtered aggressively so the per-submatrix
//! solves stay small: this isolates the symbolic-vs-numeric overhead the
//! ablation is about (with laptop-sized dense solves the numeric phase
//! would drown the signal in measurement noise). Each series is run three
//! times and the fastest run is kept, the usual guard against scheduler
//! jitter on shared machines.

use std::time::Instant;

use sm_bench::output::{fixed, paper_scale, print_table, sci, write_csv, write_json, Json};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::engine::NumericOptions;
use sm_dbcsr::{ops, DbcsrMatrix};
use sm_pipeline::SubmatrixEngine;

/// Per-iteration value perturbation with a fixed pattern: a small diagonal
/// shift, the shape of an SCF potential update.
fn perturbed(kt: &DbcsrMatrix, it: usize) -> DbcsrMatrix {
    let mut m = kt.clone();
    ops::shift_diag(&mut m, 1e-4 * it as f64);
    m
}

/// Repetitions per series; the fastest is kept (the usual guard against
/// scheduler jitter on shared machines).
const REPS: usize = 5;

/// Time one run of `f`, returning (seconds, checksum).
fn timed(f: &mut impl FnMut() -> f64) -> (f64, f64) {
    let t = Instant::now();
    let checksum = f();
    (t.elapsed().as_secs_f64(), checksum)
}

fn main() {
    let nrep = if paper_scale() { 3 } else { 2 };
    let eps_filter = 3e-2;
    let water = WaterBox::cubic(nrep, SEED);
    let basis = accuracy_basis();
    let comm = SerialComm::new();
    let (sys, mut kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-9);
    kt.store_mut().filter(eps_filter);
    println!(
        "{} molecules, n = {}, {} nonzero blocks after filtering at {eps_filter:.0e}",
        water.n_molecules(),
        kt.n(),
        kt.local_nnz_blocks()
    );

    let numeric = NumericOptions::default();

    let mut rows = Vec::new();
    let mut series = Vec::new();
    for iters in [1usize, 4, 16, 64] {
        // A fresh engine per call: full symbolic replanning every iteration.
        let mut replan_series = || {
            let mut checksum = 0.0;
            for it in 0..iters {
                let m = perturbed(&kt, it);
                let (d, _) = SubmatrixEngine::default().density(&m, sys.mu, &numeric, &comm);
                checksum += ops::trace(&d, &comm);
            }
            checksum
        };

        // Engine: symbolic phase once, numeric replay per iteration.
        let engine = SubmatrixEngine::default();
        let mut cached_series = || {
            let plan = engine.plan_for_matrix(&kt, &comm);
            let mut checksum = 0.0;
            for it in 0..iters {
                let m = perturbed(&kt, it);
                let (mut d, _) = engine.execute(&plan, &m, sys.mu, &numeric, &comm);
                ops::scale(&mut d, -0.5);
                ops::shift_diag(&mut d, 0.5);
                checksum += ops::trace(&d, &comm);
            }
            checksum
        };

        // Warm both paths once, then interleave the timed repetitions so
        // slow drift in machine load hits both paths evenly.
        let replan_checksum = replan_series();
        let cached_checksum = cached_series();
        let mut replan_total = f64::INFINITY;
        let mut cached_total = f64::INFINITY;
        for _ in 0..REPS {
            replan_total = replan_total.min(timed(&mut replan_series).0);
            cached_total = cached_total.min(timed(&mut cached_series).0);
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
        let speedup = replan_per_iter / cached_per_iter;
        eprintln!(
            "{iters:>3} iters: replan {replan_per_iter:.5} s/iter, \
             cached {cached_per_iter:.5} s/iter ({speedup:.2}x)"
        );
        rows.push(vec![
            iters.to_string(),
            sci(replan_total),
            sci(replan_per_iter),
            sci(cached_total),
            sci(cached_per_iter),
            fixed(speedup, 3),
        ]);
        series.push(Json::obj([
            ("iters", Json::Num(iters as f64)),
            ("replan_total_s", Json::Num(replan_total)),
            ("replan_per_iter_s", Json::Num(replan_per_iter)),
            ("cached_total_s", Json::Num(cached_total)),
            ("cached_per_iter_s", Json::Num(cached_per_iter)),
            ("speedup_per_iter", Json::Num(speedup)),
        ]));
        if iters >= 4 {
            assert!(
                cached_per_iter < replan_per_iter,
                "cached plan must beat replanning from 4 iterations on \
                 ({cached_per_iter} vs {replan_per_iter} s/iter at {iters})"
            );
        }
    }

    println!("\nAblation — cached-plan reuse vs replanning");
    let header = [
        "iters",
        "replan_total_s",
        "replan_per_iter_s",
        "cached_total_s",
        "cached_per_iter_s",
        "speedup_per_iter",
    ];
    print_table(&header, &rows);
    write_csv("ablation_plan_reuse.csv", &header, &rows);
    write_json(
        "ablation_plan_reuse.json",
        &Json::obj([
            ("bench", Json::Str("ablation_plan_reuse".into())),
            (
                "system",
                Json::obj([
                    ("molecules", Json::Num(water.n_molecules() as f64)),
                    ("n", Json::Num(kt.n() as f64)),
                    ("basis", Json::Str("szv(range_scale=0.55)".into())),
                    ("eps_filter", Json::Num(eps_filter)),
                    ("seed", Json::Num(SEED as f64)),
                ]),
            ),
            ("series", Json::Arr(series)),
        ]),
    );
}
