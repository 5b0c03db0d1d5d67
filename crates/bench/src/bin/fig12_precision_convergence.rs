//! Paper Fig. 12: convergence of the 3rd-order Padé sign iteration in
//! different precisions — energy difference from the converged FP64 result
//! for a combined submatrix of water molecules.
//!
//! Expected shape: all modes converge after ~6–8 iterations; the reduced-
//! precision energies land within a few meV/atom of FP64 but fluctuate at
//! their noise floor; GPU-FP32 and FPGA-FP32 differ slightly from each
//! other (summation order).

use sm_accel::pade::{energy_differences_mev_per_atom, pade3_sign_traced, PadeTraceOptions};
use sm_accel::PrecisionMode;
use sm_bench::output::{paper_scale, print_table, sci, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_core::assembly::{AssemblyMap, SubmatrixSpec};

fn main() {
    // Combined submatrix of a block of molecules (paper: 32 molecules of a
    // 4000-molecule system). Assemble from an NREP = 2 system by default.
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
    let n_atoms = 3 * group_size;
    println!(
        "combined submatrix of {group_size} molecules: dim {} ({} atoms)",
        spec.dim, n_atoms
    );

    let opts = PadeTraceOptions {
        iterations: 15,
        n_atoms,
    };
    let t64 = pade3_sign_traced(&a, sys.mu, PrecisionMode::Fp64, &opts);
    let e_ref = t64.records.last().expect("records").energy;
    println!("converged FP64 energy: {e_ref:.8}");

    let mut rows = Vec::new();
    for mode in PrecisionMode::all() {
        let t = pade3_sign_traced(&a, sys.mu, mode, &opts);
        let diffs = energy_differences_mev_per_atom(&t, e_ref, n_atoms);
        for (r, d) in t.records.iter().zip(&diffs) {
            rows.push(vec![
                mode.label().to_string(),
                r.iteration.to_string(),
                format!("{d:+.6e}"),
                sci(r.involutority),
            ]);
        }
        let tail: Vec<f64> = diffs.iter().rev().take(5).map(|d| d.abs()).collect();
        let tail_max = tail.iter().fold(0.0f64, |m, &v| m.max(v));
        eprintln!(
            "{:<10}: final |dE| over last 5 iters <= {tail_max:.3e} meV/atom",
            mode.label()
        );
    }

    println!("\nFig. 12 — energy difference from converged FP64 per iteration");
    let header = ["mode", "iteration", "dE_mev_per_atom", "involutority"];
    print_table(&header, &rows);
    write_csv("fig12_precision_convergence.csv", &header, &rows);
}
