//! Paper Fig. 7: energy error of the submatrix method and Newton–Schulz
//! for different ε_filter (same system as Fig. 6).
//!
//! Expected shape: both errors grow with ε_filter and stay within roughly
//! an order of magnitude of each other — the approximation inherent to the
//! submatrix method does not dominate the truncation error. The sign of
//! the error can flip (the paper marks positive/negative separately).

use sm_bench::output::{paper_scale, print_table, sci, write_csv};
use sm_bench::workloads::{accuracy_basis, build_orthogonalized, SEED};
use sm_chem::energy::{band_energy, signed_error_mev_per_atom};
use sm_chem::WaterBox;
use sm_comsim::SerialComm;
use sm_core::baseline::{newton_schulz_density, NewtonSchulzOptions};
use sm_core::engine::{NumericOptions, SubmatrixEngine};

fn main() {
    let comm = SerialComm::new();
    let nrep = if paper_scale() { 3 } else { 2 };
    let water = WaterBox::cubic(nrep, SEED);
    let basis = accuracy_basis();
    let (sys, kt) = build_orthogonalized(&water, &basis, 1e-11, 1e-11);
    let n_atoms = water.n_atoms();
    println!("system: {} molecules, n = {}", water.n_molecules(), kt.n());

    // Reference: Newton–Schulz at a near-build-precision filter (the paper
    // uses eps = 1e-15 against its 1e-9..1e-2 sweep).
    let (d_ref, _) = newton_schulz_density(
        &kt,
        sys.mu,
        &NewtonSchulzOptions {
            eps_filter: 1e-11,
            max_iter: 200,
        },
        &comm,
    );
    let e_ref = band_energy(&d_ref, &kt, &comm);
    println!("reference band energy: {e_ref:.8} Ha");

    let filters = [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];
    let mut rows = Vec::new();
    for &eps in &filters {
        let mut kt_f = kt.clone();
        kt_f.store_mut().filter(eps);

        let (d_sm, _) =
            SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm);
        let e_sm = band_energy(&d_sm, &kt, &comm);
        let err_sm = signed_error_mev_per_atom(e_sm, e_ref, n_atoms);

        let (d_ns, _) = newton_schulz_density(
            &kt_f,
            sys.mu,
            &NewtonSchulzOptions {
                eps_filter: eps,
                max_iter: 200,
            },
            &comm,
        );
        let e_ns = band_energy(&d_ns, &kt, &comm);
        let err_ns = signed_error_mev_per_atom(e_ns, e_ref, n_atoms);

        rows.push(vec![
            sci(eps),
            format!("{err_sm:+.6e}"),
            format!("{err_ns:+.6e}"),
        ]);
        eprintln!("eps {eps:>8.0e}: SM {err_sm:+.4e} meV/atom, NS {err_ns:+.4e} meV/atom");
    }

    println!("\nFig. 7 — signed energy error vs eps_filter");
    let header = [
        "eps_filter",
        "submatrix_mev_per_atom",
        "newton_schulz_mev_per_atom",
    ];
    print_table(&header, &rows);
    write_csv("fig07_error_vs_filter.csv", &header, &rows);

    // Shape check: errors grow toward loose filters for both methods.
    let first_sm: f64 = rows[0][1].parse::<f64>().expect("numeric").abs();
    let last_sm: f64 = rows.last().expect("rows")[1]
        .parse::<f64>()
        .expect("numeric")
        .abs();
    println!(
        "\nsubmatrix error grows {:.1e} -> {:.1e} meV/atom across the sweep",
        first_sm, last_sm
    );
}
