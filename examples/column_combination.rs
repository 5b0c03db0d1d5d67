//! Combining block columns with clustering heuristics (paper Sec. IV-C2).
//!
//! Generating one submatrix per block column repeats work for columns with
//! overlapping neighborhoods. Combining spatially close columns into one
//! submatrix reduces the total `Σ n³` cost (Eq. 15's estimated speedup S).
//! This example compares the paper's two heuristics — k-means on molecule
//! centers and METIS-style partitioning of the sparsity graph — against
//! the naive consecutive grouping, then verifies the combined plan still
//! produces an accurate density matrix.
//!
//! Run with: `cargo run --release --example column_combination`

use cp2k_submatrix::prelude::*;
use sm_core::cluster::{graph, groups_from_assignment, kmeans};
use sm_core::plan::estimated_speedup;

fn main() {
    let water = WaterBox::cubic(2, 42);
    // Shortened decay ranges keep single-column submatrices genuinely
    // local at this laptop-scale box size (see DESIGN.md).
    let basis = BasisSet::szv().with_range_scale(0.55);
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-8);
    let (k_tilde_raw, _, _) = orthogonalize_sparse(
        &sys.s,
        &sys.k,
        &NewtonSchulzOptions {
            eps_filter: 1e-9,
            max_iter: 100,
        },
        &comm,
    );
    let mut k_tilde = k_tilde_raw;
    k_tilde.store_mut().filter(1e-6);
    let pattern = k_tilde.global_pattern(&comm);
    let dims = k_tilde.dims().clone();
    let singles = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
    println!(
        "{} molecules, single-column plan: {} submatrices, avg dim {:.0}, cost {:.3e}",
        water.n_molecules(),
        singles.n_submatrices(),
        singles.avg_dim,
        singles.total_cost
    );

    let n_clusters = water.n_molecules() / 8;

    // Heuristic 1: k-means on molecule centers in real space.
    let points: Vec<[f64; 3]> = water.centers().iter().map(|c| [c.x, c.y, c.z]).collect();
    let km = kmeans::kmeans(&points, n_clusters, 1, 200);
    let km_groups = Grouping::Explicit(groups_from_assignment(&km.assignment, n_clusters));
    let km_plan = PatternPlan::new(pattern.clone(), dims.clone(), &km_groups);
    let s_km = estimated_speedup(&singles, &km_plan);
    println!(
        "k-means ({} clusters): {} submatrices, S = {s_km:.3}",
        n_clusters,
        km_plan.n_submatrices()
    );

    // Heuristic 2: multilevel partitioning of the sparsity-pattern graph.
    let g = graph::Graph::from_pattern(&pattern);
    let part = graph::partition_kway(&g, n_clusters);
    let gp_groups = Grouping::Explicit(groups_from_assignment(&part, n_clusters));
    let gp_plan = PatternPlan::new(pattern.clone(), dims.clone(), &gp_groups);
    let s_gp = estimated_speedup(&singles, &gp_plan);
    println!(
        "graph partitioning: {} submatrices, S = {s_gp:.3}, edge cut {:.0}",
        gp_plan.n_submatrices(),
        g.edge_cut(&part)
    );

    // Naive consecutive grouping for contrast.
    let cons = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::Consecutive(8));
    let s_cons = estimated_speedup(&singles, &cons);
    println!(
        "consecutive (8): {} submatrices, S = {s_cons:.3}",
        cons.n_submatrices()
    );

    // The paper's observation (Fig. 5): both heuristics land close to each
    // other.
    println!(
        "k-means vs graph agreement: |S_km − S_gp| = {:.3}",
        (s_km - s_gp).abs()
    );

    // Accuracy check: the combined plan must match the single-column plan.
    let kt_dense = k_tilde.to_dense(&comm);
    let reference = sm_chem::reference::DenseReference::new(&kt_dense).expect("symmetric");
    let e_ref = reference.band_energy(sys.mu);
    for (name, grouping) in [("single", Grouping::OnePerColumn), ("k-means", km_groups)] {
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping,
            ..Default::default()
        });
        let (d, report) = engine.density(&k_tilde, sys.mu, &NumericOptions::default(), &comm);
        let e = sm_chem::energy::band_energy(&d, &k_tilde, &comm);
        println!(
            "{name:<8} plan: {} submatrices, energy error {:.4} meV/atom",
            report.n_submatrices,
            sm_chem::energy::error_mev_per_atom(e, e_ref, water.n_atoms())
        );
    }
    println!("ok");
}
