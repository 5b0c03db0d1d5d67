//! Ablation (paper Algorithm 1): canonical µ adjustment on stored
//! eigendecompositions vs naive re-solving per bisection step.
//!
//! Expected result: the stored-decomposition path costs one decomposition
//! plus ~40 cheap occupancy evaluations; the naive path re-solves every
//! submatrix at every bisection step — slower by roughly the bisection
//! count.

use std::time::Instant;

use sm_bench::output::{fixed, print_table, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::energy::electron_count;
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::engine::{Ensemble, NumericOptions, SubmatrixEngine};

fn main() {
    let comm = SerialComm::new();
    let water = WaterBox::cubic(2, SEED);
    let basis = accuracy_basis();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);
    let mut kt_f = kt.clone();
    kt_f.store_mut().filter(1e-6);
    let target = 8.0 * water.n_molecules() as f64;

    // Algorithm 1: one decomposition pass + bisection on stored Q rows.
    let t0 = Instant::now();
    let opts = NumericOptions {
        ensemble: Ensemble::Canonical {
            n_electrons: target,
            tol: 1e-8,
            max_iter: 100,
        },
        ..Default::default()
    };
    let (d, report) = SubmatrixEngine::default().density(&kt_f, sys.mu, &opts, &comm);
    let t_alg1 = t0.elapsed().as_secs_f64();
    let n_alg1 = electron_count(&d, &comm);

    // Naive: grand-canonical full solve per bisection step.
    let t0 = Instant::now();
    let mut lo = sys.mu - 1.0;
    let mut hi = sys.mu + 1.0;
    let mut steps = 0usize;
    let mut mu = sys.mu;
    let mut n_naive = 0.0;
    for _ in 0..report.bisect_iterations.max(8) {
        mu = 0.5 * (lo + hi);
        let (d, _) =
            SubmatrixEngine::default().density(&kt_f, mu, &NumericOptions::default(), &comm);
        n_naive = electron_count(&d, &comm);
        if n_naive > target {
            hi = mu;
        } else {
            lo = mu;
        }
        steps += 1;
        if (n_naive - target).abs() < 1e-8 {
            break;
        }
    }
    let t_naive = t0.elapsed().as_secs_f64();

    let rows = vec![
        vec![
            "algorithm-1".to_string(),
            fixed(t_alg1, 3),
            report.bisect_iterations.to_string(),
            format!("{n_alg1:.6}"),
            format!("{:.6}", report.mu),
        ],
        vec![
            "naive-recompute".to_string(),
            fixed(t_naive, 3),
            steps.to_string(),
            format!("{n_naive:.6}"),
            format!("{mu:.6}"),
        ],
    ];
    println!("Ablation — canonical mu adjustment (target {target} electrons)");
    let header = ["scheme", "wall_s", "bisect_steps", "electrons", "mu"];
    print_table(&header, &rows);
    write_csv("ablation_mu_bisection.csv", &header, &rows);
    println!(
        "\nAlgorithm 1 speedup over naive: {:.1}x",
        t_naive / t_alg1.max(1e-9)
    );
}
