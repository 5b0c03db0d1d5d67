//! Paper Fig. 6: runtime of the submatrix method vs 2nd-order
//! Newton–Schulz for various ε_filter.
//!
//! Expected shape: both methods speed up as ε_filter grows (sparser
//! matrices); the submatrix method benefits much more strongly and
//! overtakes Newton–Schulz beyond a crossover filter (paper: ε > 1e-5).
//!
//! Two time columns per method: measured wall seconds on this machine
//! (laptop-scale system) and the analytic 80-core cluster model at the
//! same sparsity pattern (the substitution for the paper's testbed; see
//! DESIGN.md).

use std::time::Instant;

use sm_bench::output::{paper_scale, print_table, sci, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_comsim::{ClusterModel, SerialComm};
use sm_core::baseline::{newton_schulz_density, NewtonSchulzOptions};
use sm_core::engine::{NumericOptions, SubmatrixEngine};
use sm_core::model::{model_newton_schulz_run, model_submatrix_run, ns_iteration_estimate};
use sm_core::SubmatrixPlan;

fn main() {
    let comm = SerialComm::new();
    let nrep = if paper_scale() { 3 } else { 2 };
    let water = WaterBox::cubic(nrep, SEED);
    let basis = accuracy_basis();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);
    println!(
        "system: {} molecules ({} atoms), n = {}",
        water.n_molecules(),
        water.n_atoms(),
        kt.n()
    );

    let filters = [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    let cluster = ClusterModel::paper_testbed();
    let mut rows = Vec::new();

    for &eps in &filters {
        // Filter the input to this experiment's sparsity.
        let mut kt_f = kt.clone();
        kt_f.store_mut().filter(eps);
        let pattern = kt_f.global_pattern(&comm);

        // Submatrix method, measured.
        let t0 = Instant::now();
        let (_, report) =
            SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm);
        let t_sm = t0.elapsed().as_secs_f64();

        // Newton–Schulz, measured.
        let t0 = Instant::now();
        let (_, ns_report) = newton_schulz_density(
            &kt_f,
            sys.mu,
            &NewtonSchulzOptions {
                eps_filter: eps,
                max_iter: 200,
            },
            &comm,
        );
        let t_ns = t0.elapsed().as_secs_f64();

        // 80-core cluster model at the same pattern.
        let plan = SubmatrixPlan::one_per_column(&pattern, kt_f.dims());
        let sm_model = model_submatrix_run(&plan, &pattern, kt_f.dims(), 80, &cluster);
        let ns_iters = ns_iteration_estimate(0.05, eps.max(1e-12));
        let ns_model =
            model_newton_schulz_run(&pattern, kt_f.dims(), 80, 5, ns_iters, 2.0, &cluster);

        rows.push(vec![
            sci(eps),
            format!("{t_sm:.3}"),
            format!("{t_ns:.3}"),
            format!("{:.4}", sm_model.total()),
            format!("{:.4}", ns_model.total()),
            format!("{:.0}", report.avg_dim),
            ns_report.iterations.to_string(),
        ]);
        eprintln!(
            "eps {eps:>8.0e}: SM wall {t_sm:.3}s / NS wall {t_ns:.3}s | \
             model80 SM {:.4}s NS {:.4}s | avg dim {:.0}, NS iters {}",
            sm_model.total(),
            ns_model.total(),
            report.avg_dim,
            ns_report.iterations
        );
    }

    println!("\nFig. 6 — runtime vs eps_filter (crossover expected at moderate filters)");
    let header = [
        "eps_filter",
        "sm_wall_s",
        "ns_wall_s",
        "sm_model80_s",
        "ns_model80_s",
        "avg_sm_dim",
        "ns_iters",
    ];
    print_table(&header, &rows);
    write_csv("fig06_runtime_vs_filter.csv", &header, &rows);

    // Crossover check on the modeled 80-core times.
    let sm_last: f64 = rows.last().expect("rows")[3].parse().expect("numeric");
    let ns_last: f64 = rows.last().expect("rows")[4].parse().expect("numeric");
    println!(
        "\nat the loosest filter the submatrix method is {:.1}x {} than Newton-Schulz (model)",
        (ns_last / sm_last).max(sm_last / ns_last),
        if sm_last < ns_last {
            "faster"
        } else {
            "slower"
        }
    );
}
