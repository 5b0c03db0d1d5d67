//! Quickstart: compute a density matrix with the submatrix method.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! This is the first of the walkthroughs referenced from the README
//! (`quickstart` → `scf_loop` → `scheduler_batch` →
//! `scf_service_batch`). It traces one density-matrix evaluation end to
//! end, in five steps that mirror the paper's pipeline:
//!
//! 1. **Build a system.** `WaterBox::cubic(nrep, seed)` generates the
//!    paper's benchmark family — a 32-molecule periodic cell replicated
//!    `nrep³` times — and `build_system` assembles the overlap matrix `S`
//!    and a gapped Kohn–Sham matrix `K` directly in block-sparse (DBCSR)
//!    form, one block per molecule. `sys.mu` is the mid-gap chemical
//!    potential.
//! 2. **Orthogonalize.** The submatrix method needs the orthogonalized
//!    operator `K̃ = S^{-1/2} K S^{-1/2}`; `orthogonalize_sparse` computes
//!    `S^{-1/2}` with the sparse Newton–Schulz inverse square root,
//!    filtering small blocks at `eps_filter`.
//! 3. **Purify.** `SubmatrixEngine::density` evaluates `D̃ = (I − sign(K̃ − µI))/2`
//!    (paper Eq. 16): for each block column it assembles the dense
//!    principal submatrix induced by the column's sparsity pattern, runs a
//!    dense sign solve on it, and keeps the result's relevant columns.
//!    The report tells how many submatrices were built and how large.
//! 4. **Check observables.** The electron count `2·Tr(D̃)` must hit the
//!    system's electron number; the band energy `2·Tr(D̃K̃)` is the paper's
//!    accuracy metric, compared in meV/atom against a dense
//!    diagonalization reference.
//! 5. **Baseline.** The same density via Newton–Schulz sign iteration —
//!    the method CP2K used before — for an error/effort comparison.
//!
//! Where to next: `scf_loop` wraps step 3 in a self-consistency loop and
//! shows why the persistent engine's plan caching matters.

use cp2k_submatrix::prelude::*;

fn main() {
    // The paper's benchmark family: a 32-molecule cell replicated NREP³
    // times. NREP = 1 keeps the dense cross-check cheap.
    let water = WaterBox::cubic(1, 42);
    let basis = BasisSet::szv();
    println!(
        "system: {} H2O molecules, {} atoms, {} basis functions",
        water.n_molecules(),
        water.n_atoms(),
        water.n_molecules() * basis.n_per_molecule()
    );

    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    println!("chemical potential (mid-gap): mu = {:.4}", sys.mu);

    // Löwdin orthogonalization K̃ = S^{-1/2} K S^{-1/2} with the sparse
    // Newton–Schulz inverse square root.
    let ns_opts = NewtonSchulzOptions {
        eps_filter: 1e-12,
        max_iter: 100,
    };
    let (k_tilde, _, ortho_report) = orthogonalize_sparse(&sys.s, &sys.k, &ns_opts, &comm);
    println!(
        "orthogonalization: {} NS iterations, residual {:.2e}",
        ortho_report.iterations, ortho_report.residual
    );

    // The submatrix method.
    let (density, report) =
        SubmatrixEngine::default().density(&k_tilde, sys.mu, &NumericOptions::default(), &comm);
    println!(
        "submatrix method: {} submatrices, dims avg {:.0} / max {}",
        report.n_submatrices, report.avg_dim, report.max_dim
    );

    // Observables.
    let n_elec = sm_chem::energy::electron_count(&density, &comm);
    let e_band = sm_chem::energy::band_energy(&density, &k_tilde, &comm);
    println!(
        "electrons: {n_elec:.6} (expected {})",
        8 * water.n_molecules()
    );
    println!("band energy: {e_band:.6} Ha");

    // Dense reference for comparison.
    let kt_dense = k_tilde.to_dense(&comm);
    let reference = sm_chem::reference::DenseReference::new(&kt_dense).expect("symmetric");
    let e_ref = reference.band_energy(sys.mu);
    let err = sm_chem::energy::error_mev_per_atom(e_band, e_ref, water.n_atoms());
    println!("error vs dense reference: {err:.4} meV/atom");

    // Newton–Schulz baseline on the same matrix.
    let (d_ns, ns_report) = newton_schulz_density(
        &k_tilde,
        sys.mu,
        &NewtonSchulzOptions {
            eps_filter: 1e-10,
            max_iter: 100,
        },
        &comm,
    );
    let e_ns = sm_chem::energy::band_energy(&d_ns, &k_tilde, &comm);
    println!(
        "newton-schulz baseline: {} iterations, error {:.4} meV/atom",
        ns_report.iterations,
        sm_chem::energy::error_mev_per_atom(e_ns, e_ref, water.n_atoms())
    );

    assert!(err < 50.0, "submatrix energy error unexpectedly large");
    println!("ok");
}
