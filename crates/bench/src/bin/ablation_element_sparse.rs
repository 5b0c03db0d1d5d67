//! Ablation (paper Sec. V-C future work): dense vs element-wise sparse
//! submatrix sign evaluation.
//!
//! DZVP submatrices store ~50% of their window as blocks but hold < 20%
//! nonzero *elements*; the paper proposes element-wise sparse kernels to
//! exploit the difference. This harness assembles real submatrices from
//! both basis sets and compares the dense Newton–Schulz flop count against
//! the filtered CSR iteration's actual flops (plus wall times and the
//! accuracy cost).

use std::time::Instant;

use sm_bench::output::{fixed, print_table, sci, write_csv};
use sm_bench::workloads::SEED;
use sm_chem::builder::build_system;
use sm_chem::{BasisSet, WaterBox};
use sm_comsim::SerialComm;
use sm_core::assembly::{AssemblyMap, SubmatrixSpec};
use sm_linalg::sign::{sign_iteration, SignIterationOptions};
use sm_linalg::sparse::sparse_sign_iteration;

fn main() {
    let comm = SerialComm::new();
    let mut rows = Vec::new();
    for (label, basis) in [
        ("SZV", BasisSet::szv().with_range_scale(0.55)),
        ("DZVP", BasisSet::dzvp().with_range_scale(0.45)),
    ] {
        let water = WaterBox::cubic(2, SEED);
        let sys = build_system(&water, &basis, 0, 1, 1e-8);
        let pattern = sys.k.global_pattern(&comm);
        let dims = sys.dims.clone();
        let mid = water.n_molecules() / 2;
        let spec = SubmatrixSpec::build(&pattern, &dims, &[mid]);
        // Use K directly (symmetric, gapped at µ) — the orthogonalized
        // matrix has the same element-fill structure.
        let a = AssemblyMap::build(&spec, &pattern).assemble(|r, c| sys.k.block(r, c));
        let n = spec.dim as u64;

        // Dense iteration (counted flops: ~2n³ per multiply, 2/iter + P).
        let t0 = Instant::now();
        let dense = sign_iteration(
            &a,
            2,
            SignIterationOptions {
                tol: 1e-8,
                max_iter: 100,
                prescale: true,
            },
        )
        .expect("dense iteration");
        let t_dense = t0.elapsed().as_secs_f64();
        let dense_flops = dense.trace.len() as u64 * 3 * 2 * n * n * n;

        // Element-sparse iteration.
        let t0 = Instant::now();
        let sparse =
            sparse_sign_iteration(&a, sys.mu * 0.0, 2, 1e-8, 1e-6, 100).expect("sparse iteration");
        let t_sparse = t0.elapsed().as_secs_f64();

        let err = sparse.sign.max_abs_diff(&dense.sign);
        rows.push(vec![
            label.to_string(),
            spec.dim.to_string(),
            sci(dense_flops as f64),
            sci(sparse.flops as f64),
            fixed(dense_flops as f64 / sparse.flops.max(1) as f64, 2),
            fixed(t_dense, 3),
            fixed(t_sparse, 3),
            fixed(sparse.final_fill, 3),
            sci(err),
        ]);
        eprintln!(
            "{label}: dim {}, dense {:.2e} flops vs sparse {:.2e} \
             ({:.2}x fewer), final fill {:.3}, max diff {err:.2e}",
            spec.dim,
            dense_flops as f64,
            sparse.flops as f64,
            dense_flops as f64 / sparse.flops.max(1) as f64,
            sparse.final_fill
        );
    }

    println!("\nAblation — dense vs element-wise sparse submatrix solve (Sec. V-C)");
    let header = [
        "basis",
        "dim",
        "dense_flops",
        "sparse_flops",
        "flop_saving",
        "dense_s",
        "sparse_s",
        "final_fill",
        "max_diff",
    ];
    print_table(&header, &rows);
    write_csv("ablation_element_sparse.csv", &header, &rows);
}
