//! Reduced-precision sign iteration on simulated accelerators (paper Sec. VI).
//!
//! Assembles a combined submatrix for a group of water molecules (the
//! paper offloads the 32-molecule combined submatrix), then runs the
//! 3rd-order Padé sign iteration (Eq. 19) in every emulated precision mode
//! and prints the convergence diagnostics of Figs. 12–13 plus the modelled
//! Table I throughputs.
//!
//! Run with: `cargo run --release --example accelerator_precision`

use cp2k_submatrix::prelude::*;
use sm_accel::pade::{energy_differences_mev_per_atom, pade3_sign_traced, PadeTraceOptions};
use sm_accel::perfmodel::{fpga_row, gpu_table, DeviceModel};
use sm_accel::PrecisionMode;
use sm_core::assembly::SubmatrixSpec;

fn main() {
    // Build a water system and carve out the combined submatrix of the
    // first 8 molecules (a scaled-down version of the paper's 32-molecule
    // offload target; pass --full for 32).
    let full = std::env::args().any(|a| a == "--full");
    let group: Vec<usize> = (0..if full { 32 } else { 8 }).collect();
    let water = WaterBox::cubic(2, 42);
    let basis = BasisSet::szv();
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-8);
    let (k_tilde, _, _) = orthogonalize_sparse(
        &sys.s,
        &sys.k,
        &NewtonSchulzOptions {
            eps_filter: 1e-9,
            max_iter: 100,
        },
        &comm,
    );
    let pattern = k_tilde.global_pattern(&comm);
    let dims = k_tilde.dims().clone();
    let spec = SubmatrixSpec::build(&pattern, &dims, &group);
    let a =
        (spec.walk(&pattern, &dims, &mut Vec::new()).assembly).assemble(|r, c| k_tilde.block(r, c));
    let n_atoms = 3 * group.len();
    println!(
        "combined submatrix of {} molecules: dim {}",
        group.len(),
        spec.dim
    );

    let opts = PadeTraceOptions {
        iterations: 14,
        n_atoms,
    };

    // FP64 reference energy (converged).
    let t64 = pade3_sign_traced(&a, sys.mu, PrecisionMode::Fp64, &opts);
    let e_ref = t64.records.last().expect("iterations > 0").energy;

    println!("\n=== Fig. 12/13 analogue: per-iteration diagnostics ===");
    println!(
        "{:<10} {:>5} {:>14} {:>18}",
        "mode", "iter", "||X^2-I||_F", "dE [meV/atom]"
    );
    for mode in PrecisionMode::all() {
        let t = pade3_sign_traced(&a, sys.mu, mode, &opts);
        let de = energy_differences_mev_per_atom(&t, e_ref, n_atoms);
        for (r, d) in t.records.iter().zip(&de).skip(4) {
            println!(
                "{:<10} {:>5} {:>14.4e} {:>18.6}",
                mode.label(),
                r.iteration,
                r.involutority,
                d
            );
        }
        println!();
    }

    println!("=== Table I analogue (modelled throughputs, n = 3972) ===");
    println!(
        "{:<10} {:>12} {:>16} {:>14} {:>14}",
        "precision", "peak TF/s", "matmul TF/s", "sign TF/s", "GF/(W s)"
    );
    for row in gpu_table(&DeviceModel::rtx_2080_ti(), 3972, 7) {
        println!(
            "{:<10} {:>12.1} {:>16.1} {:>14.1} {:>14.0}",
            row.mode,
            row.peak_tflops,
            row.matmul_tflops,
            row.sign_tflops,
            row.gflops_per_watt()
        );
    }
    let f = fpga_row(&DeviceModel::stratix_10(), 3972);
    println!(
        "{:<10} {:>12.1} {:>16.1} {:>14.1} {:>14.0}",
        f.mode,
        f.peak_tflops,
        f.matmul_tflops,
        f.sign_tflops,
        f.gflops_per_watt()
    );
    println!("\nok");
}
