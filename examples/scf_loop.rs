//! A miniature self-consistent-field loop on the persistent submatrix
//! engine.
//!
//! Run with: `cargo run --release --example scf_loop`
//!
//! Second walkthrough (after `quickstart`, before `scheduler_batch` and
//! `scf_service_batch`). In CP2K the density matrix is recomputed every
//! SCF step (and every MD step) — purification is the inner kernel of a
//! fixed-point iteration in which the Kohn–Sham matrix depends on the
//! density. The key structural fact: the **sparsity pattern stays fixed
//! while values change**, so all pattern-dependent work can be done once.
//!
//! The walkthrough:
//!
//! 1. **Build + orthogonalize** a water system exactly as in
//!    `quickstart`, yielding `K̃₀` and the electron target.
//! 2. **Run the driver.** [`sm_chem::ScfDriver`] closes the
//!    self-consistency loop with a damped model feedback: each iteration
//!    evaluates the density on the engine (canonical ensemble — µ is
//!    bisected to hold the electron count), shifts the onsite potential
//!    by the local-charge deviation, and mixes linearly for stability.
//!    The driver's engine plans the submatrix method **once**, in
//!    iteration 1; every later density build is a pure numeric-phase
//!    replay of that cached plan.
//! 3. **Read the table.** The `plan` column prints `build` exactly once,
//!    then `cache` forever — the amortization the engine's
//!    symbolic/numeric phase split exists for. The run asserts
//!    `symbolic_builds == 1` and electron conservation at the end.
//!
//! Where to next: `scf_service_batch` runs many of these loops
//! concurrently on one rank world through `sm_pipeline::Scheduler`.

use cp2k_submatrix::prelude::*;
use sm_chem::{ScfDriver, ScfOptions};

fn main() {
    let water = WaterBox::cubic(1, 42);
    let basis = BasisSet::szv();
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let ns = NewtonSchulzOptions {
        eps_filter: 1e-12,
        max_iter: 200,
    };
    let (kt0, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &ns, &comm);
    let n_elec = 8.0 * water.n_molecules() as f64;

    let driver = ScfDriver::new(ScfOptions::default());
    let result = driver.run(&kt0, sys.mu, n_elec, &comm);

    println!(
        "{:>4} {:>16} {:>14} {:>12} {:>6}",
        "iter", "band energy", "dE", "electrons", "plan"
    );
    for (i, it) in result.iterations.iter().enumerate() {
        println!(
            "{:>4} {:>16.8} {:>14.2e} {:>12.6} {:>6}",
            i + 1,
            it.energy,
            it.de,
            it.electrons,
            if it.plan_cached { "cache" } else { "build" }
        );
    }
    let last = result.iterations.last().expect("at least one iteration");
    if result.converged {
        println!(
            "\nconverged after {} SCF iterations (mu = {:.5})",
            result.iterations.len(),
            last.mu
        );
    } else {
        println!("\nnot converged within the budget (dE = {:.2e})", last.de);
    }
    println!(
        "symbolic plans built: {} ({} cache hits across {} iterations)",
        result.symbolic_builds,
        result.cache_hits,
        result.iterations.len()
    );

    // Final sanity: electrons conserved through the whole loop.
    let final_electrons = sm_chem::energy::electron_count(&result.density, &comm);
    assert!((final_electrons - n_elec).abs() < 1e-5);
    assert_eq!(result.symbolic_builds, 1, "pattern is fixed: one plan");
    println!("final electron count: {final_electrons:.6} (target {n_elec})");
    println!("ok");
}
