//! Ablation (paper Sec. VII future work): full back-transform vs
//! selected-columns evaluation of the submatrix sign function.
//!
//! The submatrix method only scatters the columns originating from each
//! spec's own block columns; computing `Q·diag(sgn λ)·Q^T` in full wastes
//! an `O(n³)` GEMM per submatrix. The selected-columns path back-transforms
//! only the contributing columns at `O(n²·k)`. Expected: identical results,
//! solve-phase speedup growing with n/k.

use std::time::Instant;

use sm_bench::output::{fixed, print_table, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::engine::{NumericOptions, SubmatrixEngine};

fn main() {
    let comm = SerialComm::new();
    let water = WaterBox::cubic(2, SEED);
    let basis = accuracy_basis();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);

    let mut rows = Vec::new();
    for eps in [1e-9, 1e-7, 1e-5] {
        let mut kt_f = kt.clone();
        kt_f.store_mut().filter(eps);

        let t0 = Instant::now();
        let (full, report) =
            SubmatrixEngine::default().sign(&kt_f, sys.mu, &NumericOptions::default(), &comm);
        let t_full = t0.elapsed().as_secs_f64();

        let opts = NumericOptions {
            use_selected_columns: true,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (sel, _) = SubmatrixEngine::default().sign(&kt_f, sys.mu, &opts, &comm);
        let t_sel = t0.elapsed().as_secs_f64();

        let diff = full.to_dense(&comm).max_abs_diff(&sel.to_dense(&comm));
        assert!(diff < 1e-11, "paths must agree, diff {diff}");
        rows.push(vec![
            format!("{eps:.0e}"),
            format!("{:.0}", report.avg_dim),
            fixed(t_full, 3),
            fixed(t_sel, 3),
            fixed(t_full / t_sel.max(1e-9), 2),
        ]);
        eprintln!(
            "eps {eps:.0e}: avg dim {:.0}, full {t_full:.3}s vs selected {t_sel:.3}s \
             ({:.2}x), max diff {diff:.1e}",
            report.avg_dim,
            t_full / t_sel.max(1e-9)
        );
    }

    println!("\nAblation — full back-transform vs selected columns");
    let header = ["eps_filter", "avg_dim", "full_s", "selected_s", "speedup"];
    print_table(&header, &rows);
    write_csv("ablation_selected_columns.csv", &header, &rows);
}
