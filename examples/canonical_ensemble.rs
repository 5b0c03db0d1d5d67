//! Canonical ensembles and finite temperature (paper Sec. IV-F/G).
//!
//! The submatrix method is intrinsically grand canonical: µ is an input.
//! This example runs the canonical mode, where Algorithm 1 bisects µ on the
//! stored submatrix eigendecompositions until the electron count matches a
//! target — including a doped (non-neutral) system and a finite-temperature
//! run where the signum is replaced by the Fermi function.
//!
//! Run with: `cargo run --release --example canonical_ensemble`

use cp2k_submatrix::prelude::*;

fn main() {
    let water = WaterBox::cubic(1, 7);
    let basis = BasisSet::szv();
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let (k_tilde, _, _) = orthogonalize_sparse(
        &sys.s,
        &sys.k,
        &NewtonSchulzOptions {
            eps_filter: 1e-12,
            max_iter: 100,
        },
        &comm,
    );

    let neutral_electrons = 8.0 * water.n_molecules() as f64;
    // One engine: the three evaluations below share one pattern, so the
    // symbolic phase runs once.
    let engine = SubmatrixEngine::default();

    // 1) Canonical, neutral: µ must land inside the gap near the mid-gap
    //    guess.
    let opts = NumericOptions {
        ensemble: Ensemble::Canonical {
            n_electrons: neutral_electrons,
            tol: 1e-9,
            max_iter: 200,
        },
        ..Default::default()
    };
    let (d, report) = engine.density(&k_tilde, sys.mu, &opts, &comm);
    let n = sm_chem::energy::electron_count(&d, &comm);
    println!(
        "neutral canonical: target {neutral_electrons}, got {n:.6}, mu {:.5} \
         ({} bisection steps)",
        report.mu, report.bisect_iterations
    );

    // 2) Doped system: remove 8 electrons (two holes per 8 molecules).
    //    Grand-canonical at the neutral µ would be wrong; Algorithm 1
    //    shifts µ into the valence band edge.
    let doped = neutral_electrons - 8.0;
    let opts_doped = NumericOptions {
        ensemble: Ensemble::Canonical {
            n_electrons: doped,
            tol: 1e-9,
            max_iter: 200,
        },
        solve: SolveOptions {
            // A small electronic temperature smooths the fractional
            // occupation at the band edge (doped systems are metallic-ish).
            kt: 0.02,
            ..SolveOptions::default()
        },
        ..Default::default()
    };
    let (d_doped, report_doped) = engine.density(&k_tilde, sys.mu, &opts_doped, &comm);
    let n_doped = sm_chem::energy::electron_count(&d_doped, &comm);
    println!(
        "doped canonical (kT = 0.02): target {doped}, got {n_doped:.6}, mu {:.5}",
        report_doped.mu
    );
    assert!(
        report_doped.mu < report.mu,
        "removing electrons must lower the chemical potential"
    );

    // 3) Finite temperature, grand canonical: occupation stays at the
    //    neutral value because µ sits mid-gap (Fermi factors of HOMO/LUMO
    //    are symmetric to first order).
    let opts_hot = NumericOptions {
        solve: SolveOptions {
            kt: 0.01,
            ..SolveOptions::default()
        },
        ..Default::default()
    };
    let (d_hot, _) = engine.density(&k_tilde, sys.mu, &opts_hot, &comm);
    let n_hot = sm_chem::energy::electron_count(&d_hot, &comm);
    println!("finite-T grand canonical: {n_hot:.6} electrons at kT = 0.01");

    assert!((n - neutral_electrons).abs() < 1e-5);
    assert!((n_doped - doped).abs() < 1e-5);
    assert!((n_hot - neutral_electrons).abs() < 0.1);
    println!("ok");
}
