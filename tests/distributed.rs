//! Distributed-equivalence integration tests: every collective pipeline
//! stage must produce bitwise-identical (or tolerance-identical) results on
//! 1, 4 and 9 simulated ranks.

use cp2k_submatrix::prelude::*;

fn serial_reference() -> (WaterBox, BasisSet, sm_linalg::Matrix, f64) {
    let water = WaterBox::cubic(1, 42);
    let basis = BasisSet::szv();
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let (kt, _, _) = orthogonalize_sparse(
        &sys.s,
        &sys.k,
        &NewtonSchulzOptions {
            eps_filter: 1e-12,
            max_iter: 200,
        },
        &comm,
    );
    let dense = kt.to_dense(&comm);
    (water, basis, dense, sys.mu)
}

#[test]
fn orthogonalization_is_rank_count_invariant() {
    let (water, basis, kt_ref, _) = serial_reference();
    for ranks in [4usize, 9] {
        let (results, _) = run_ranks(ranks, |c| {
            let sys = build_system(&water, &basis, c.rank(), c.size(), 1e-10);
            let (kt, _, _) = orthogonalize_sparse(
                &sys.s,
                &sys.k,
                &NewtonSchulzOptions {
                    eps_filter: 1e-12,
                    max_iter: 200,
                },
                c,
            );
            kt.to_dense(c)
        });
        for r in results {
            assert!(
                r.allclose(&kt_ref, 1e-11),
                "orthogonalization differs on {ranks} ranks"
            );
        }
    }
}

#[test]
fn engine_density_is_rank_count_invariant() {
    let (water, basis, _, mu) = serial_reference();
    let comm = SerialComm::new();
    let d_ref = {
        let sys = build_system(&water, &basis, 0, 1, 1e-10);
        let (kt, _, _) = orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: 1e-12,
                max_iter: 200,
            },
            &comm,
        );
        SubmatrixEngine::default()
            .density(&kt, mu, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm)
    };
    let (results, _) = run_ranks(4, |c| {
        let sys = build_system(&water, &basis, c.rank(), c.size(), 1e-10);
        let (kt, _, _) = orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: 1e-12,
                max_iter: 200,
            },
            c,
        );
        SubmatrixEngine::default()
            .density(&kt, mu, &NumericOptions::default(), c)
            .0
            .to_dense(c)
    });
    for r in results {
        assert!(r.allclose(&d_ref, 1e-10), "distributed density deviates");
    }
}

#[test]
fn canonical_mu_is_rank_count_invariant() {
    let (water, basis, _, mu0) = serial_reference();
    let target = 8.0 * water.n_molecules() as f64 - 4.0;
    let opts = NumericOptions {
        ensemble: Ensemble::Canonical {
            n_electrons: target,
            tol: 1e-8,
            max_iter: 200,
        },
        solve: SolveOptions {
            kt: 0.02,
            ..SolveOptions::default()
        },
        ..Default::default()
    };
    let comm = SerialComm::new();
    let mu_serial = {
        let sys = build_system(&water, &basis, 0, 1, 1e-10);
        let (kt, _, _) = orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: 1e-12,
                max_iter: 200,
            },
            &comm,
        );
        SubmatrixEngine::default()
            .density(&kt, mu0, &opts, &comm)
            .1
            .mu
    };
    let opts_ref = &opts;
    let (results, _) = run_ranks(4, move |c| {
        let sys = build_system(&water, &basis, c.rank(), c.size(), 1e-10);
        let (kt, _, _) = orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: 1e-12,
                max_iter: 200,
            },
            c,
        );
        SubmatrixEngine::default()
            .density(&kt, mu0, opts_ref, c)
            .1
            .mu
    });
    for mu in results {
        assert!(
            (mu - mu_serial).abs() < 1e-10,
            "rank-dependent canonical mu: {mu} vs {mu_serial}"
        );
    }
}

#[test]
fn transfer_accounting_shows_deduplication_in_flight() {
    // The distributed run's actual byte traffic stays below what naive
    // per-submatrix transfers would require.
    let (water, basis, _, mu) = serial_reference();
    let (reports, stats) = run_ranks(4, |c| {
        let sys = build_system(&water, &basis, c.rank(), c.size(), 1e-10);
        let (kt, _, _) = orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: 1e-12,
                max_iter: 200,
            },
            c,
        );
        // Zero the counters so only the submatrix-method phase is measured
        // (system build and orthogonalization traffic excluded).
        c.barrier();
        if c.rank() == 0 {
            c.stats().reset();
        }
        c.barrier();
        SubmatrixEngine::default()
            .density(&kt, mu, &NumericOptions::default(), c)
            .1
    });
    let wire_bytes = stats.total_bytes();
    let naive_bytes: u64 = reports.iter().map(|r| r.transfers.naive_bytes).sum();
    assert!(
        wire_bytes < naive_bytes,
        "wire traffic {wire_bytes} should undercut naive estimate {naive_bytes}"
    );
    for r in &reports {
        assert!(r.transfers.total_references > r.transfers.unique_blocks);
    }
}

#[test]
fn newton_schulz_baseline_is_rank_count_invariant() {
    let (water, basis, _, mu) = serial_reference();
    let comm = SerialComm::new();
    let opts = NewtonSchulzOptions {
        eps_filter: 1e-10,
        max_iter: 200,
    };
    let d_ref = {
        let sys = build_system(&water, &basis, 0, 1, 1e-10);
        let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &opts, &comm);
        newton_schulz_density(&kt, mu, &opts, &comm)
            .0
            .to_dense(&comm)
    };
    let (results, _) = run_ranks(4, |c| {
        let sys = build_system(&water, &basis, c.rank(), c.size(), 1e-10);
        let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &opts, c);
        newton_schulz_density(&kt, mu, &opts, c).0.to_dense(c)
    });
    for r in results {
        assert!(r.allclose(&d_ref, 1e-9));
    }
}
