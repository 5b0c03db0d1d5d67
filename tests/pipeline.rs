//! End-to-end integration tests: water box → S, K → Löwdin
//! orthogonalization → purification → observables, cross-checking the
//! submatrix method against the dense reference and the Newton–Schulz
//! baseline (the paper's Sec. V workflow at laptop scale).

use cp2k_submatrix::prelude::*;
use sm_chem::energy::{band_energy, electron_count, error_mev_per_atom};
use sm_chem::reference::DenseReference;

fn setup(nrep: usize, range_scale: f64, eps: f64) -> (WaterBox, SystemMatrices, DbcsrMatrix, f64) {
    let water = WaterBox::cubic(nrep, 42);
    let basis = BasisSet::szv().with_range_scale(range_scale);
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-11);
    let (mut kt, _, report) = orthogonalize_sparse(
        &sys.s,
        &sys.k,
        &NewtonSchulzOptions {
            eps_filter: 1e-12,
            max_iter: 200,
        },
        &comm,
    );
    assert!(report.converged);
    kt.store_mut().filter(eps);
    let mu = sys.mu;
    (water, sys, kt, mu)
}

#[test]
fn full_pipeline_matches_dense_reference() {
    let (water, _, kt, mu) = setup(1, 1.0, 1e-9);
    let comm = SerialComm::new();

    let (d, report) =
        SubmatrixEngine::default().density(&kt, mu, &NumericOptions::default(), &comm);
    let e = band_energy(&d, &kt, &comm);
    let n = electron_count(&d, &comm);

    let kt_dense = kt.to_dense(&comm);
    let reference = DenseReference::new(&kt_dense).expect("symmetric");
    let e_ref = reference.band_energy(mu);
    let n_ref = reference.electron_count(mu, 0.0);

    assert!((n - n_ref).abs() < 1e-6, "electron count {n} vs {n_ref}");
    let err = error_mev_per_atom(e, e_ref, water.n_atoms());
    assert!(err < 1.0, "energy error {err} meV/atom too large");
    assert_eq!(report.n_submatrices, water.n_molecules());
}

#[test]
fn submatrix_and_newton_schulz_agree() {
    let (water, _, kt, mu) = setup(2, 0.55, 1e-7);
    let comm = SerialComm::new();

    let (d_sm, _) = SubmatrixEngine::default().density(&kt, mu, &NumericOptions::default(), &comm);
    let (d_ns, ns_report) = newton_schulz_density(
        &kt,
        mu,
        &NewtonSchulzOptions {
            eps_filter: 1e-9,
            max_iter: 200,
        },
        &comm,
    );
    assert!(ns_report.converged);

    let e_sm = band_energy(&d_sm, &kt, &comm);
    let e_ns = band_energy(&d_ns, &kt, &comm);
    let err = error_mev_per_atom(e_sm, e_ns, water.n_atoms());
    assert!(err < 0.5, "methods disagree by {err} meV/atom");

    // Electron counts agree too.
    let n_sm = electron_count(&d_sm, &comm);
    let n_ns = electron_count(&d_ns, &comm);
    assert!((n_sm - n_ns).abs() < 0.01, "{n_sm} vs {n_ns}");
}

#[test]
fn density_from_submatrix_method_is_nearly_idempotent() {
    let (_, _, kt, mu) = setup(2, 0.55, 1e-8);
    let comm = SerialComm::new();
    let (d, _) = SubmatrixEngine::default().density(&kt, mu, &NumericOptions::default(), &comm);
    let dd = d.to_dense(&comm);
    let d2 = sm_linalg::gemm::matmul(&dd, &dd).expect("square");
    // D² ≈ D within the submatrix-method approximation error.
    let dev = d2.max_abs_diff(&dd);
    assert!(dev < 0.05, "idempotency deviation {dev}");
}

#[test]
fn error_decreases_with_tighter_filter() {
    let comm = SerialComm::new();
    let (water, _, kt_raw, mu) = setup(2, 0.55, 1e-11);
    // Reference at the tightest filter.
    let (d_ref, _) =
        SubmatrixEngine::default().density(&kt_raw, mu, &NumericOptions::default(), &comm);
    let e_ref = band_energy(&d_ref, &kt_raw, &comm);

    let mut errors = Vec::new();
    for eps in [1e-3, 1e-5, 1e-7] {
        let mut kt = kt_raw.clone();
        kt.store_mut().filter(eps);
        let (d, _) = SubmatrixEngine::default().density(&kt, mu, &NumericOptions::default(), &comm);
        let e = band_energy(&d, &kt_raw, &comm);
        errors.push(error_mev_per_atom(e, e_ref, water.n_atoms()));
    }
    assert!(
        errors[0] > errors[2],
        "tighter filter must reduce the error: {errors:?}"
    );
}

#[test]
fn canonical_run_matches_grand_canonical_at_neutral_filling() {
    let (water, _, kt, mu) = setup(1, 1.0, 1e-9);
    let comm = SerialComm::new();
    let target = 8.0 * water.n_molecules() as f64;

    let (d_gc, _) = SubmatrixEngine::default().density(&kt, mu, &NumericOptions::default(), &comm);
    let opts = NumericOptions {
        ensemble: Ensemble::Canonical {
            n_electrons: target,
            tol: 1e-9,
            max_iter: 200,
        },
        ..Default::default()
    };
    // Start one hartree above `mu`, outside the gap: Algorithm 1 has to
    // bisect back into it.
    let (d_c, report) = SubmatrixEngine::default().density(&kt, mu + 1.0, &opts, &comm);

    // Same filling ⇒ same density (µ anywhere in the gap gives the same D).
    let diff = d_gc.to_dense(&comm).max_abs_diff(&d_c.to_dense(&comm));
    assert!(diff < 1e-9, "canonical/grand-canonical mismatch {diff}");
    assert!((electron_count(&d_c, &comm) - target).abs() < 1e-6);
    assert!(report.mu.is_finite());
    // Algorithm 1: several µ steps on the stored decompositions inside
    // this one execute, where a naive bisection re-solves per step.
    assert!(
        report.bisect_iterations >= 2,
        "{} bisection steps",
        report.bisect_iterations
    );
}

#[test]
fn finite_temperature_pipeline_increases_entropy_like_smearing() {
    let (_, _, kt, mu) = setup(1, 1.0, 1e-9);
    let comm = SerialComm::new();
    let (d_cold, _) =
        SubmatrixEngine::default().density(&kt, mu, &NumericOptions::default(), &comm);
    let opts_hot = NumericOptions {
        solve: SolveOptions {
            kt: 0.05,
            ..SolveOptions::default()
        },
        ..Default::default()
    };
    let (d_hot, _) = SubmatrixEngine::default().density(&kt, mu, &opts_hot, &comm);
    // Warm density has strictly smaller idempotency (fractional
    // occupations) but an almost unchanged trace.
    let cold_dense = d_cold.to_dense(&comm);
    let hot_dense = d_hot.to_dense(&comm);
    let cold_gap = {
        let d2 = sm_linalg::gemm::matmul(&cold_dense, &cold_dense).expect("square");
        sm_linalg::norms::fro_norm(&d2.sub(&cold_dense).expect("shape"))
    };
    let hot_gap = {
        let d2 = sm_linalg::gemm::matmul(&hot_dense, &hot_dense).expect("square");
        sm_linalg::norms::fro_norm(&d2.sub(&hot_dense).expect("shape"))
    };
    assert!(hot_gap > cold_gap, "smearing must break idempotency");
    assert!((cold_dense.trace() - hot_dense.trace()).abs() < 0.5);
}

#[test]
fn grouping_strategies_all_conserve_electrons() {
    let (water, _, kt, mu) = setup(2, 0.55, 1e-6);
    let comm = SerialComm::new();
    let expected = 8.0 * water.n_molecules() as f64;
    for grouping in [
        Grouping::OnePerColumn,
        Grouping::Consecutive(4),
        Grouping::Consecutive(32),
    ] {
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping: grouping.clone(),
            ..Default::default()
        });
        let (d, _) = engine.density(&kt, mu, &NumericOptions::default(), &comm);
        let n = electron_count(&d, &comm);
        assert!(
            (n - expected).abs() < 0.1,
            "{grouping:?}: electron count {n} vs {expected}"
        );
    }
}
