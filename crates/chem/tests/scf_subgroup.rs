//! SCF over scheduler subgroups: several independent SCF systems iterate
//! *concurrently* on disjoint subcommunicator groups of one rank world,
//! each driver reusing its own cached plan. Subgroup runs of any width
//! must agree with the serial driver bit for bit.

use std::sync::Arc;

use sm_chem::builder::build_system;
use sm_chem::{BasisSet, ScfDriver, ScfOptions, WaterBox};
use sm_comsim::{run_ranks, Comm, SerialComm};
use sm_core::baseline::{orthogonalize_sparse, NewtonSchulzOptions};
use sm_core::engine::{EngineOptions, SubmatrixEngine};
use sm_dbcsr::DbcsrMatrix;
use sm_linalg::Matrix;

/// Orthogonalized Kohn–Sham matrix of a small water system as a dense
/// reference every rank can redistribute from.
fn system(seed: u64) -> (Matrix, sm_dbcsr::BlockedDims, f64, f64) {
    let water = WaterBox::cubic(1, seed);
    let basis = BasisSet::szv();
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let ns = NewtonSchulzOptions {
        eps_filter: 1e-12,
        max_iter: 200,
    };
    let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &ns, &comm);
    let n_elec = 8.0 * water.n_molecules() as f64;
    (kt.to_dense(&comm), kt.dims().clone(), sys.mu, n_elec)
}

/// A six-iteration driver over a private engine with sequential solves.
fn driver() -> ScfDriver {
    let opts = ScfOptions {
        max_iter: 6,
        ..ScfOptions::default()
    };
    let engine = SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    });
    ScfDriver::with_engine(opts, Arc::new(engine))
}

#[test]
fn concurrent_scf_runs_on_subgroups_match_serial() {
    let systems: Vec<_> = [42u64, 7].iter().map(|&s| system(s)).collect();

    // Serial references.
    let serial: Vec<_> = systems
        .iter()
        .map(|(dense, dims, mu, ne)| {
            let comm = SerialComm::new();
            let kt = DbcsrMatrix::from_dense(dense, dims.clone(), 0, 1, 0.0);
            let r = driver().run(&kt, *mu, *ne, &comm);
            (r.iterations.clone(), r.density.to_dense(&comm), r.converged)
        })
        .collect();

    // A 6-rank world: system 0 on a 2-rank group, system 1 on a 4-rank
    // group, both SCF loops iterating concurrently.
    let systems_ref = &systems;
    let (results, _) = run_ranks(6, |c| {
        let which = usize::from(c.rank() >= 2);
        let sub = c.split(which as u64, c.rank() as u64);
        let (dense, dims, mu, ne) = &systems_ref[which];
        let kt = DbcsrMatrix::from_dense(dense, dims.clone(), sub.rank(), sub.size(), 0.0);
        let r = driver().run(&kt, *mu, *ne, &sub);
        (
            which,
            r.iterations.len(),
            r.converged,
            r.density.to_dense(&sub),
            r.symbolic_builds,
        )
    });

    for (which, n_iter, converged, density, builds) in results {
        let (ref_iters, ref_density, ref_converged) = &serial[which];
        assert_eq!(n_iter, ref_iters.len(), "system {which} iteration count");
        assert_eq!(converged, *ref_converged);
        assert!(
            density.allclose(ref_density, 0.0),
            "system {which} subgroup density deviates from serial"
        );
        // One plan per rank of the subgroup, reused across all iterations.
        assert_eq!(builds, 1, "system {which} replanned inside the SCF loop");
    }
}

#[test]
fn single_rank_subgroup_scf_is_bitwise_serial() {
    let (dense, dims, mu, ne) = system(42);
    let comm = SerialComm::new();
    let kt = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
    let reference = driver().run(&kt, mu, ne, &comm);
    let ref_density = reference.density.to_dense(&comm);
    let ref_energies: Vec<f64> = reference.iterations.iter().map(|i| i.energy).collect();

    let (dense_ref, dims_ref) = (&dense, &dims);
    let (results, _) = run_ranks(2, |c| {
        // Each rank its own color: two singleton groups running the same
        // system independently.
        let sub = c.split(c.rank() as u64, 0);
        let kt = DbcsrMatrix::from_dense(dense_ref, dims_ref.clone(), sub.rank(), sub.size(), 0.0);
        let r = driver().run(&kt, mu, ne, &sub);
        (
            r.density.to_dense(&sub),
            r.iterations.iter().map(|i| i.energy).collect::<Vec<_>>(),
        )
    });
    for (density, energies) in results {
        assert!(
            density.allclose(&ref_density, 0.0),
            "singleton-subgroup SCF must be bitwise-identical to serial"
        );
        assert_eq!(energies, ref_energies);
    }
}
