//! Ablation (paper Sec. IV-F): solving dense submatrices by
//! eigendecomposition vs Newton–Schulz vs 3rd/5th-order Padé iterations.
//!
//! The paper found diagonalization superior for its dense submatrices with
//! vendor BLAS. This harness reports wall times of our kernels *and* the
//! structural advantage that is independent of kernel tuning: only the
//! eigendecomposition enables canonical µ bisection without re-solving
//! (Algorithm 1).

use std::time::Instant;

use sm_bench::output::{fixed, print_table, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::assembly::{AssemblyMap, SubmatrixSpec};
use sm_core::solver::{solve_sign, SignMethod, SolveOptions};

fn main() {
    let water = WaterBox::cubic(2, SEED);
    let basis = accuracy_basis();
    let comm = SerialComm::new();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);
    let mut kt_f = kt.clone();
    kt_f.store_mut().filter(1e-6);
    let pattern = kt_f.global_pattern(&comm);
    let dims = kt_f.dims().clone();

    let mut rows = Vec::new();
    for group_size in [1usize, 4, 16] {
        let group: Vec<usize> = (0..group_size).collect();
        let spec = SubmatrixSpec::build(&pattern, &dims, &group);
        let a = AssemblyMap::build(&spec, &pattern).assemble(|r, c| kt_f.block(r, c));

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
            let t0 = Instant::now();
            let r = solve_sign(&a, sys.mu, &opts).expect("solve");
            let dt = t0.elapsed().as_secs_f64();
            rows.push(vec![
                spec.dim.to_string(),
                name.to_string(),
                fixed(dt, 4),
                r.iterations.to_string(),
                (r.decomposition.is_some()).to_string(),
            ]);
            eprintln!(
                "dim {}: {name:<16} {dt:.4}s, {} iterations, reusable for mu: {}",
                spec.dim,
                r.iterations,
                r.decomposition.is_some()
            );
        }
    }

    println!("\nAblation — per-submatrix sign solvers");
    let header = ["dim", "solver", "wall_s", "iterations", "mu_reusable"];
    print_table(&header, &rows);
    write_csv("ablation_sign_solvers.csv", &header, &rows);
}
