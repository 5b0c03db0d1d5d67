//! Property tests pinning the engine's numeric phase on a cached plan to a
//! fresh engine that re-plans every call: plan once, execute N times with
//! varying values, and demand
//! **bitwise-identical** density matrices — across serial and
//! thread-distributed executions — while the engine performs zero symbolic
//! work after the first call.

use proptest::prelude::*;

use sm_comsim::{run_ranks, Comm, SerialComm};
use sm_core::engine::{NumericOptions, SubmatrixEngine};
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;

/// Deterministic banded symmetric matrix with a gap at 0; `seed` varies
/// the entries, `iter` perturbs the values without touching the pattern.
fn banded_values(nb: usize, bs: usize, half: usize, seed: u64, iter: u64) -> Matrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let bi = (i / bs) as isize;
        let bj = (j / bs) as isize;
        if (bi - bj).unsigned_abs() > half {
            0.0
        } else if i == j {
            let base = if i % 2 == 0 { 1.0 } else { -1.0 };
            base + ((seed % 7) as f64) * 0.01 + (iter as f64) * 0.003
        } else {
            // Strictly positive so no entry (and hence no block) can cancel
            // to zero under symmetrization: the pattern must stay fixed
            // across iterations for the plan-reuse contract to hold.
            let w = 0.6 + ((i * 31 + j * 17 + seed as usize) % 11) as f64 / 11.0;
            0.05 * w / (1.0 + (i as f64 - j as f64).abs()) + (iter as f64) * 1e-4
        }
    });
    dense.symmetrize();
    dense
}

/// Pattern-shape parameters of one generated system.
#[derive(Debug, Clone, Copy)]
struct Shape {
    nb: usize,
    bs: usize,
    half: usize,
    seed: u64,
}

fn engine_density_series<C: Comm>(
    engine: &SubmatrixEngine,
    dims: &BlockedDims,
    shape: Shape,
    iters: u64,
    comm: &C,
) -> Vec<Matrix> {
    let Shape { nb, bs, half, seed } = shape;
    (0..iters)
        .map(|it| {
            let dense = banded_values(nb, bs, half, seed, it);
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), comm.rank(), comm.size(), 0.0);
            let plan = engine.plan_for_matrix(&m, comm);
            let (mut d, _) = engine.execute(&plan, &m, 0.05, &NumericOptions::default(), comm);
            sm_dbcsr::ops::scale(&mut d, -0.5);
            sm_dbcsr::ops::shift_diag(&mut d, 0.5);
            d.to_dense(comm)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cached_plan_execution_is_bitwise_identical_to_a_replanning_engine(
        nb in 3usize..9,
        bs in 1usize..4,
        half in 1usize..3,
        seed in 0u64..1000,
    ) {
        let dims = BlockedDims::uniform(nb, bs);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let iters = 4u64;

        let engine_series =
            engine_density_series(&engine, &dims, Shape { nb, bs, half, seed }, iters, &comm);

        // The engine planned exactly once across all iterations.
        prop_assert_eq!(engine.stats().symbolic_builds, 1);
        prop_assert_eq!(engine.stats().cache_hits, iters as usize - 1);

        // A throwaway engine, re-planning every iteration, must agree
        // *bitwise* (tolerance 0.0).
        for it in 0..iters {
            let dense = banded_values(nb, bs, half, seed, it);
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            let (d, _) =
                SubmatrixEngine::default().density(&m, 0.05, &NumericOptions::default(), &comm);
            prop_assert!(
                engine_series[it as usize].allclose(&d.to_dense(&comm), 0.0),
                "iteration {} deviates from a fresh engine", it
            );
        }
    }

    #[test]
    fn thread_comm_execution_matches_serial_bitwise(
        nb in 3usize..8,
        bs in 1usize..3,
        seed in 0u64..1000,
    ) {
        let dims = BlockedDims::uniform(nb, bs);
        let comm = SerialComm::new();
        let iters = 3u64;

        let serial_engine = SubmatrixEngine::default();
        let serial =
            engine_density_series(
                &serial_engine,
                &dims,
                Shape {
                    nb,
                    bs,
                    half: 1,
                    seed,
                },
                iters,
                &comm,
            );

        // One shared engine across 4 rank threads; per-rank plans, each
        // built once.
        let engine = SubmatrixEngine::default();
        let engine_ref = &engine;
        let dims_ref = &dims;
        let (rank_series, _) = run_ranks(4, move |c| {
            engine_density_series(
                engine_ref,
                dims_ref,
                Shape {
                    nb,
                    bs,
                    half: 1,
                    seed,
                },
                iters,
                c,
            )
        });
        prop_assert_eq!(engine.stats().symbolic_builds, 4);
        prop_assert_eq!(
            engine.stats().executions,
            4 * iters as usize
        );

        for series in rank_series {
            for (it, dense) in series.iter().enumerate() {
                prop_assert!(
                    dense.allclose(&serial[it], 1e-13),
                    "distributed iteration {} deviates from serial", it
                );
            }
        }
    }
}
