//! Paper Fig. 13: deviation from the involutority condition ‖Xₖ² − I‖_F in
//! every step of the 3rd-order sign iteration, per precision mode.
//!
//! Expected shape: FP64 plunges to ~1e-12; FP32 (GPU and FPGA, slightly
//! different trajectories) flattens around its rounding floor; FP16 and
//! FP16' flatten orders of magnitude higher — which is why involutority,
//! not energy, is the usable convergence criterion (Sec. VI-A).

use sm_accel::pade::{pade3_sign_traced, PadeTraceOptions};
use sm_accel::PrecisionMode;
use sm_bench::output::{paper_scale, print_table, sci, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_core::assembly::{AssemblyMap, SubmatrixSpec};

fn main() {
    let group_size = if paper_scale() { 32 } else { 8 };
    let water = WaterBox::cubic(2, SEED);
    let basis = accuracy_basis();
    let comm = sm_comsim::SerialComm::new();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);
    let mut kt_f = kt.clone();
    kt_f.store_mut().filter(1e-6);
    let pattern = kt_f.global_pattern(&comm);
    let dims = kt_f.dims().clone();
    let group: Vec<usize> = (0..group_size).collect();
    let spec = SubmatrixSpec::build(&pattern, &dims, &group);
    let a = AssemblyMap::build(&spec, &pattern).assemble(|r, c| kt_f.block(r, c));
    println!("combined submatrix dim {}", spec.dim);

    let opts = PadeTraceOptions {
        iterations: 15,
        n_atoms: 3 * group_size,
    };

    let mut rows = Vec::new();
    let mut floors = Vec::new();
    for mode in PrecisionMode::all() {
        let t = pade3_sign_traced(&a, sys.mu, mode, &opts);
        let floor = t
            .records
            .iter()
            .map(|r| r.involutority)
            .fold(f64::INFINITY, f64::min);
        floors.push((mode.label(), floor));
        for r in &t.records {
            rows.push(vec![
                mode.label().to_string(),
                r.iteration.to_string(),
                sci(r.involutority),
            ]);
        }
        eprintln!("{:<10}: involutority floor {floor:.3e}", mode.label());
    }

    println!("\nFig. 13 — ||X^2 - I||_F per iteration");
    let header = ["mode", "iteration", "involutority"];
    print_table(&header, &rows);
    write_csv("fig13_involutority.csv", &header, &rows);

    println!("\nnoise floors (expected ordering FP64 < FP32/FPGA << FP16'/FP16):");
    for (label, floor) in &floors {
        println!("  {label:<10} {floor:.3e}");
    }
}
