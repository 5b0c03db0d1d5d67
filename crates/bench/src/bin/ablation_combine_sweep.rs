//! Ablation (paper Sec. IV-C): sweep of the consecutive-combination group
//! size — does the Eq. 15 cost model predict the measured solve time?
//!
//! For each group size: estimated speedup S (model) and measured wall time
//! of the full submatrix-method density computation. Expected: measured
//! speedups track S qualitatively, peaking at moderate group sizes.

use std::time::Instant;

use sm_bench::output::{fixed, print_table, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::engine::{EngineOptions, Grouping, NumericOptions, SubmatrixEngine};
use sm_core::plan::estimated_speedup;
use sm_core::SubmatrixPlan;

fn main() {
    let comm = SerialComm::new();
    let water = WaterBox::cubic(2, SEED);
    let basis = accuracy_basis();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);
    let mut kt_f = kt.clone();
    kt_f.store_mut().filter(1e-6);
    let pattern = kt_f.global_pattern(&comm);
    let dims = kt_f.dims().clone();
    let singles = SubmatrixPlan::one_per_column(&pattern, &dims);

    // Baseline wall time (group size 1).
    let t0 = Instant::now();
    let _ = SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm);
    let t_single = t0.elapsed().as_secs_f64();
    println!(
        "single-column baseline: {} submatrices, {t_single:.3}s wall",
        singles.len()
    );

    let mut rows = vec![vec![
        "1".to_string(),
        singles.len().to_string(),
        fixed(1.0, 3),
        fixed(t_single, 3),
        fixed(1.0, 3),
    ]];
    for group in [2usize, 4, 8, 16, 32] {
        let plan = SubmatrixPlan::consecutive(&pattern, &dims, group);
        let s_est = estimated_speedup(&singles, &plan);
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping: Grouping::Consecutive(group),
            ..Default::default()
        });
        let t0 = Instant::now();
        let _ = engine.density(&kt_f, sys.mu, &NumericOptions::default(), &comm);
        let t = t0.elapsed().as_secs_f64();
        rows.push(vec![
            group.to_string(),
            plan.len().to_string(),
            fixed(s_est, 3),
            fixed(t, 3),
            fixed(t_single / t, 3),
        ]);
        eprintln!(
            "group {group}: {} SMs, S_est {s_est:.3}, wall {t:.3}s (measured speedup {:.3})",
            plan.len(),
            t_single / t
        );
    }

    println!("\nAblation — column-combination sweep");
    let header = [
        "group_size",
        "n_submatrices",
        "estimated_S",
        "wall_s",
        "measured_speedup",
    ];
    print_table(&header, &rows);
    write_csv("ablation_combine_sweep.csv", &header, &rows);
}
