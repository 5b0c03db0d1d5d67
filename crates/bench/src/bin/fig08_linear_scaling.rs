//! Paper Fig. 8: runtime of the submatrix method for increasing system
//! sizes at fixed resources (80 cores, ε_filter = 1e-5).
//!
//! Expected shape: once the linear-scaling regime is reached the modeled
//! time grows linearly in the number of atoms (the paper fits a straight
//! line). Times come from the 80-core cluster model over the exact counted
//! work of each system's plan; small systems are additionally measured in
//! wall-clock on this machine.

use std::time::Instant;

use sm_bench::output::{fixed, paper_scale, print_table, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, pattern_basis_szv, SEED};
use sm_chem::builder::block_pattern;
use sm_chem::WaterBox;
use sm_comsim::{ClusterModel, SerialComm};
use sm_core::engine::{NumericOptions, SubmatrixEngine};
use sm_core::model::model_submatrix_run;
use sm_core::SubmatrixPlan;
use sm_dbcsr::BlockedDims;

fn main() {
    let cluster = ClusterModel::paper_testbed();
    let basis = pattern_basis_szv();
    let nreps: &[usize] = if paper_scale() {
        &[2, 3, 4, 5, 6, 7, 8]
    } else {
        &[2, 3, 4, 5, 6]
    };

    let mut rows = Vec::new();
    for &nrep in nreps {
        let water = WaterBox::cubic(nrep, SEED);
        let pattern = block_pattern(&water, &basis, 1e-5, 1.0);
        let dims = BlockedDims::uniform(water.n_molecules(), basis.n_per_molecule());
        let plan = SubmatrixPlan::one_per_column(&pattern, &dims);
        let t = model_submatrix_run(&plan, &pattern, &dims, 80, &cluster);
        rows.push(vec![
            water.n_atoms().to_string(),
            format!("{:.4}", t.total()),
            format!("{:.4}", t.compute),
            format!("{:.5}", t.init + t.writeback),
        ]);
        eprintln!(
            "NREP {nrep}: {} atoms, modeled 80-core time {:.3}s (compute {:.3}s)",
            water.n_atoms(),
            t.total(),
            t.compute
        );
    }

    println!("\nFig. 8 — modeled 80-core runtime vs system size (eps = 1e-5)");
    let header = ["atoms", "total_s", "compute_s", "comm_s"];
    print_table(&header, &rows);
    write_csv("fig08_linear_scaling.csv", &header, &rows);

    // Linearity check across the last three sizes.
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| {
            (
                r[0].parse::<f64>().expect("numeric"),
                r[1].parse::<f64>().expect("numeric"),
            )
        })
        .collect();
    if pts.len() >= 3 {
        let k = pts.len();
        let r1 = pts[k - 1].1 / pts[k - 2].1;
        let n1 = pts[k - 1].0 / pts[k - 2].0;
        println!(
            "\nlinearity: time ratio {:.2} vs size ratio {:.2} over the last step \
             (equal = perfectly linear)",
            r1, n1
        );
    }

    // Small measured wall-clock companion series (this machine, laptop
    // basis ranges).
    let comm = SerialComm::new();
    let mut wall_rows = Vec::new();
    for nrep in [1usize, 2] {
        let water = WaterBox::cubic(nrep, SEED);
        let (sys, kt) = build_orthogonalized(&water, &accuracy_basis(), 1e-11, 1e-11);
        let mut kt_f = kt.clone();
        kt_f.store_mut().filter(1e-5);
        let t0 = Instant::now();
        let _ =
            SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm);
        wall_rows.push(vec![
            water.n_atoms().to_string(),
            fixed(t0.elapsed().as_secs_f64(), 3),
        ]);
    }
    println!("\nmeasured wall-clock companion (this machine):");
    print_table(&["atoms", "wall_s"], &wall_rows);
    write_csv(
        "fig08_linear_scaling_wall.csv",
        &["atoms", "wall_s"],
        &wall_rows,
    );
}
