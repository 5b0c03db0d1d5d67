//! The paper's future-work directions, implemented (Secs. V-C and VII).
//!
//! 1. **Selected columns** — the submatrix method only needs the columns of
//!    `sign(a − µI)` that originate from its own block columns; computing
//!    just those saves the O(n³) back-transform (paper conclusion:
//!    "selectively calculate selected elements of the sign function").
//! 2. **Element-wise sparse solving** — running the sign iteration in CSR
//!    with per-step filtering, exploiting that DZVP submatrices are < 20%
//!    full element-wise (Sec. V-C).
//!
//! Run with: `cargo run --release --example future_work`

use cp2k_submatrix::prelude::*;
use sm_core::assembly::SubmatrixSpec;
use sm_core::solver::SolveOptions as CoreSolveOptions;
use sm_linalg::sparse::sparse_sign_iteration;

fn main() {
    let water = WaterBox::cubic(2, 42);
    let basis = BasisSet::szv().with_range_scale(0.55);
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let (mut kt, _, _) = orthogonalize_sparse(
        &sys.s,
        &sys.k,
        &NewtonSchulzOptions {
            eps_filter: 1e-11,
            max_iter: 200,
        },
        &comm,
    );
    kt.store_mut().filter(1e-7);

    // --- 1. Full back-transform vs the engine's selected columns ---------
    // The full back-transform, as smbench's layer walk runs it: per
    // submatrix `solve_sign` forms all of `sign(a − µI)` and `extract`
    // keeps the contributing columns. The engine forms only those; both
    // run on one thread.
    let engine = SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..Default::default()
    });
    let plan = engine.plan_for_matrix(&kt, &comm);
    let t0 = std::time::Instant::now();
    let mut s_full = DbcsrMatrix::new(plan.dims.clone(), 0, 1);
    for (assembly, extraction) in plan.assembly.iter().zip(&plan.extraction) {
        let a = assembly.assemble(|br, bc| kt.block(br, bc));
        let sign = sm_core::solver::solve_sign(&a, sys.mu, &CoreSolveOptions::default())
            .expect("diagonalization");
        for ((br, bc), blk) in extraction.extract(&sign.sign) {
            s_full.insert_block(br, bc, blk);
        }
    }
    let t_full = t0.elapsed().as_secs_f64();
    let t0 = std::time::Instant::now();
    let (s_sel, _) = engine.execute(&plan, &kt, sys.mu, &NumericOptions::default(), &comm);
    let t_sel = t0.elapsed().as_secs_f64();
    let bits = |m: &DbcsrMatrix| -> Vec<u64> {
        let dense = m.to_dense(&comm);
        dense.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    println!(
        "selected columns: {t_full:.3}s -> {t_sel:.3}s ({:.2}x), same bits",
        t_full / t_sel.max(1e-12)
    );
    assert_eq!(bits(&s_full), bits(&s_sel));

    // --- 2. Element-wise sparse iteration on one assembled submatrix -----
    let pattern = kt.global_pattern(&comm);
    let mid = water.n_molecules() / 2;
    let spec = SubmatrixSpec::build(&pattern, kt.dims(), &[mid]);
    let a = (spec.maps(&pattern, kt.dims()).assembly).assemble(|r, c| kt.block(r, c));
    let sparse = sparse_sign_iteration(&a, sys.mu, 2, 1e-10, 1e-8, 100).expect("sparse");
    let dense_ref = sm_linalg::sign::sign_eig(&{
        let mut s = a.clone();
        s.shift_diag(-sys.mu);
        s
    })
    .expect("symmetric");
    println!(
        "element-sparse iteration: {} iterations, {:.2e} flops, final fill {:.2}, \
         max diff {:.2e}",
        sparse.iterations,
        sparse.flops as f64,
        sparse.final_fill,
        sparse.sign.max_abs_diff(&dense_ref)
    );
    println!("ok");
}
