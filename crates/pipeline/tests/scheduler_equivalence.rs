//! Equivalence suite pinning the distributed [`Scheduler`] to the serial
//! [`JobQueue`]: mixed job batches run through subcommunicator groups of
//! 1, 2 and 4 ranks must produce **bitwise-identical** `JobOutput`s, and a
//! canonical job the same density and µ bits on groups of 2, 3, 4 and 6.

use proptest::prelude::*;

use sm_chem::ScfEnsemble;
use sm_comsim::SerialComm;
use sm_core::engine::{Ensemble, NumericOptions};
use sm_core::solver::{SignMethod, SolveBackend, SolveOptions};
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::{Matrix, Precision};
use sm_pipeline::{
    BatchJob, JobOutput, JobQueue, JobResult, MatrixJob, RankBudget, ScfJobSpec, SchedError,
    Scheduler, StealPolicy,
};

mod common;
use common::with_watchdog;

/// Deterministic banded symmetric matrix with a spectral gap at 0.
fn banded(nb: usize, bs: usize, half: usize, seed: u64) -> DbcsrMatrix {
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let bi = (i / bs) as isize;
        let bj = (j / bs) as isize;
        if (bi - bj).unsigned_abs() > half {
            0.0
        } else if i == j {
            let base = if i % 2 == 0 { 1.0 } else { -1.0 };
            base + ((seed % 13) as f64) * 0.011
        } else {
            let w = 0.6 + ((i * 29 + j * 13 + seed as usize) % 7) as f64 / 7.0;
            0.05 * w / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

/// A mixed grand-canonical batch: sign and density jobs, two solvers,
/// several sizes, one recurring pattern.
fn mixed_batch(seed: u64) -> Vec<MatrixJob> {
    vec![
        MatrixJob::density("density-small", banded(4, 2, 1, seed), 0.0),
        MatrixJob {
            name: "sign-large".into(),
            matrix: banded(8, 2, 1, seed.wrapping_add(1)),
            mu0: 0.05,
            numeric: NumericOptions::default(),
            output: JobOutput::Sign,
        },
        MatrixJob {
            name: "newton-schulz".into(),
            matrix: banded(6, 2, 1, seed.wrapping_add(2)),
            mu0: 0.0,
            numeric: NumericOptions {
                solve: SolveOptions {
                    method: SignMethod::Pade(2),
                    ..SolveOptions::default()
                },
                ..NumericOptions::default()
            },
            output: JobOutput::Sign,
        },
        // Same pattern as density-small, different values: exercises the
        // shared plan cache across groups.
        MatrixJob::density(
            "density-small-again",
            banded(4, 2, 1, seed.wrapping_add(3)),
            0.0,
        ),
    ]
}

fn assert_batches_bitwise_equal(
    scheduled: &[sm_pipeline::JobResult],
    serial: &[sm_pipeline::JobResult],
    ranks_per_job: usize,
) {
    let comm = SerialComm::new();
    assert_eq!(scheduled.len(), serial.len());
    for (s, q) in scheduled.iter().zip(serial) {
        assert_eq!(s.name, q.name, "results must come back in submission order");
        assert!(
            s.result
                .to_dense(&comm)
                .allclose(&q.result.to_dense(&comm), 0.0),
            "job '{}' deviates from the serial queue at {} ranks/job",
            s.name,
            ranks_per_job
        );
        assert_eq!(s.report.mu, q.report.mu, "job '{}' µ deviates", s.name);
    }
}

#[test]
fn scheduler_matches_queue_bitwise_at_1_2_4_ranks_per_job() {
    let jobs = mixed_batch(17);
    let serial = JobQueue::default().run(jobs.clone());
    for ranks_per_job in [1usize, 2, 4] {
        let world = jobs.len() * ranks_per_job;
        let sched = Scheduler::new(
            std::sync::Arc::new(sm_pipeline::SubmatrixEngine::new(
                sm_pipeline::EngineOptions {
                    parallel: false,
                    ..sm_pipeline::EngineOptions::default()
                },
            )),
            RankBudget {
                max_group_size: Some(ranks_per_job),
                max_groups: None,
            },
        );
        let outcome = sched.run(world, jobs.clone());
        // The budget cap and world size pin every group to the requested
        // width.
        for g in &outcome.schedule.static_plan.groups {
            assert_eq!(g.ranks.len(), ranks_per_job);
        }
        assert_batches_bitwise_equal(&outcome.results, &serial, ranks_per_job);
        // Telemetry: group sizes reported, and multi-rank groups moved
        // real subgroup traffic.
        for r in &outcome.results {
            assert_eq!(r.group_size, ranks_per_job);
            assert!(r.seconds >= 0.0);
            if ranks_per_job > 1 {
                assert!(
                    r.comm_bytes > 0,
                    "job '{}' on {} ranks moved no subgroup bytes",
                    r.name,
                    ranks_per_job
                );
            } else {
                assert_eq!(r.comm_bytes, 0);
            }
        }
    }
}

#[test]
fn scheduler_handles_more_jobs_than_ranks() {
    // 4 jobs under the default rank budget at the world sizes of the
    // former scheduler ablation: fewer ranks than jobs (groups run several
    // jobs in turn) up to two ranks per job.
    let jobs = mixed_batch(3);
    let serial = JobQueue::default().run(jobs.clone());
    for world in [1usize, 2, 4, 8] {
        let outcome = Scheduler::default().run(world, jobs.clone());
        if world == 2 {
            assert_eq!(outcome.schedule.static_plan.groups.len(), 2);
        }
        assert_batches_bitwise_equal(&outcome.results, &serial, (world / jobs.len()).max(1));
    }
}

#[test]
fn scheduler_shares_plan_cache_across_groups() {
    // Two jobs with the same pattern scheduled on two 1-rank groups: the
    // second group hits the plan the first built (same (fp, rank, size)
    // key), so the engine builds exactly one plan.
    let jobs = vec![
        MatrixJob::density("a", banded(5, 2, 1, 1), 0.0),
        MatrixJob::density("b", banded(5, 2, 1, 2), 0.0),
    ];
    let sched = Scheduler::default();
    let outcome = sched.run(2, jobs);
    assert_eq!(outcome.results.len(), 2);
    let stats = sched.engine().stats();
    // Concurrent same-pattern groups may race to build (both miss), but
    // at least one execution path must exist and the cache holds one plan.
    assert!(stats.symbolic_builds >= 1);
    assert_eq!(sched.engine().cached_plans(), 1);
    assert_eq!(stats.executions, 2);
}

#[test]
fn scheduler_with_capacity_one_cache_still_correct() {
    // The acceptance scenario: a capacity-1 plan cache under a
    // multi-pattern batch must evict (recorded) and never reuse a wrong
    // plan.
    let jobs = mixed_batch(9);
    let serial = JobQueue::default().run(jobs.clone());
    let engine = std::sync::Arc::new(sm_pipeline::SubmatrixEngine::new(
        sm_pipeline::EngineOptions {
            parallel: false,
            plan_cache_capacity: Some(1),
            ..sm_pipeline::EngineOptions::default()
        },
    ));
    let sched = Scheduler::new(engine, RankBudget::default());
    let outcome = sched.run(2, jobs);
    assert_batches_bitwise_equal(&outcome.results, &serial, 1);
    let stats = sched.engine().stats();
    assert!(
        stats.evictions > 0,
        "three distinct patterns through a capacity-1 cache must evict"
    );
    assert_eq!(sched.engine().cached_plans(), 1);
}

#[test]
fn canonical_jobs_are_bitwise_serial() {
    // Algorithm 1 bisects the one gathered spectrum on every rank, so the
    // canonical µ and density do not depend on the group size either.
    let comm = SerialComm::new();
    let jobs = vec![MatrixJob {
        name: "canonical".into(),
        matrix: banded(6, 2, 1, 5),
        mu0: 0.0,
        numeric: NumericOptions {
            ensemble: Ensemble::Canonical {
                n_electrons: 8.0,
                tol: 1e-9,
                max_iter: 200,
            },
            ..NumericOptions::default()
        },
        output: JobOutput::Density,
    }];
    let serial = JobQueue::default().run(jobs.clone());
    let b = serial[0].result.to_dense(&comm);
    for world in [2usize, 3, 4, 6] {
        let outcome = Scheduler::default().run(world, jobs.clone());
        let r = &outcome.results[0];
        assert_eq!(r.group_size, world);
        assert!(
            r.result.to_dense(&comm).allclose(&b, 0.0),
            "canonical density deviates bitwise at world {world}"
        );
        assert_eq!(
            r.report.mu.to_bits(),
            serial[0].report.mu.to_bits(),
            "canonical µ deviates at world {world}"
        );
    }
}

/// One job of every kind the result path distinguishes — `f64` and `f32`
/// wire formats, the refined precision, the sparse backend's extra
/// counters, an SCF job's telemetry extension — plus fillers, every
/// pattern distinct so no two groups race on one plan.
fn every_kind_batch() -> Vec<BatchJob> {
    let with = |precision, method| NumericOptions {
        precision,
        solve: SolveOptions {
            method,
            ..SolveOptions::default()
        },
        ..NumericOptions::default()
    };
    let matrix_job = |name: &str, nb, numeric, output| MatrixJob {
        name: name.into(),
        matrix: banded(nb, 2, 1, nb as u64),
        mu0: 0.0,
        numeric,
        output,
    };
    let (diag, ns) = (SignMethod::Diagonalization, SignMethod::Pade(2));
    let mut jobs: Vec<BatchJob> = [
        matrix_job("fp64", 4, with(Precision::Fp64, diag), JobOutput::Density),
        matrix_job("fp32", 5, with(Precision::Fp32, diag), JobOutput::Sign),
        matrix_job(
            "refined",
            6,
            with(Precision::Fp32Refined, diag),
            JobOutput::Density,
        ),
        // Element fill 46/256 < 0.2: `BackendPolicy::Auto` picks CSR.
        matrix_job(
            "sparse-auto",
            16,
            with(Precision::Fp64, ns),
            JobOutput::Sign,
        ),
        matrix_job("filler-7", 7, with(Precision::Fp64, diag), JobOutput::Sign),
        matrix_job("filler-8", 8, with(Precision::Fp32, ns), JobOutput::Density),
        matrix_job(
            "filler-9",
            9,
            with(Precision::Fp64, diag),
            JobOutput::Density,
        ),
    ]
    .into_iter()
    .map(BatchJob::Matrix)
    .collect();
    let kt0 = banded(10, 2, 1, 3);
    let n_electrons = kt0.n() as f64;
    let mut scf = ScfJobSpec::new("scf", kt0, 0.0, n_electrons);
    scf.scf.max_iter = 3;
    scf.scf.ensemble = ScfEnsemble::GrandCanonical;
    jobs.insert(2, BatchJob::Scf(scf));
    jobs
}

/// Everything a [`JobResult`] holds with its wall-clock fields zeroed, as
/// its `Debug` rendering: every field by name, floats in their shortest
/// round-tripping form, so equal strings are equal bits — and a field
/// added later is compared without this suite being edited.
fn deterministic_fields(r: &JobResult) -> String {
    let mut r = r.clone();
    r.seconds = 0.0;
    r.report.symbolic_seconds = 0.0;
    r.report.gather_seconds = 0.0;
    r.report.solve_seconds = 0.0;
    r.report.scatter_seconds = 0.0;
    format!("{r:#?}")
}

#[test]
fn a_job_result_does_not_depend_on_who_rooted_the_job() {
    // World rank 0 keeps the results it roots in memory; every other root
    // ships its own over the wire codec. Under the static policy every
    // group of a batch with at least as many jobs as ranks is one rank
    // wide in epoch 0, so across worlds 1–4 nothing about a job changes
    // except which rank roots it — and no deterministic field of its
    // result may. (World 1 keeps every job; world 4 ships three in four.)
    let jobs = every_kind_batch();
    let run = |world: usize, policy: StealPolicy| {
        Scheduler::default()
            .with_policy(policy)
            .run(world, jobs.clone())
    };
    let kept = run(1, StealPolicy::Disabled);
    assert!((0..jobs.len()).all(|j| kept.schedule.root_of_job(j) == 0));
    let by_name = |name: &str| kept.results.iter().find(|r| r.name == name).unwrap();
    assert_eq!(by_name("fp32").report.precision, Precision::Fp32);
    assert_eq!(
        by_name("sparse-auto").report.backend,
        SolveBackend::SparseCsr
    );
    assert!(by_name("sparse-auto").report.sparse_flops > 0);
    assert_eq!(by_name("scf").scf.as_ref().unwrap().iterations, 3);
    for world in [2usize, 3, 4] {
        let outcome = run(world, StealPolicy::Disabled);
        let remote = (0..jobs.len()).filter(|&j| outcome.schedule.root_of_job(j) != 0);
        assert!(
            (1..jobs.len()).contains(&remote.count()),
            "world {world}: some jobs must root at rank 0 and some must not"
        );
        for (r, k) in outcome.results.iter().zip(&kept.results) {
            assert_eq!(
                deterministic_fields(r),
                deterministic_fields(k),
                "job '{}' at world {world} differs from the all-kept world 1",
                r.name
            );
        }
    }

    // Under the default policy stolen jobs run on wider groups, so the
    // counters legitimately differ; the matrix — handle included — may
    // not, whichever rank rooted the job and however wide its group.
    let serial: Vec<MatrixJob> = jobs
        .iter()
        .filter_map(|j| match j {
            BatchJob::Matrix(m) => Some(m.clone()),
            BatchJob::Scf(_) => None,
        })
        .collect();
    let serial = JobQueue::default().run(serial);
    for world in [1usize, 2, 3, 4] {
        let outcome = run(world, StealPolicy::default());
        for (j, (r, k)) in outcome.results.iter().zip(&kept.results).enumerate() {
            assert_eq!(r.result, k.result, "job '{}' at world {world}", r.name);
            assert_eq!(r.group_size, outcome.schedule.ranks_of_job(j).len());
            assert_eq!(r.epoch, outcome.schedule.job_epoch[j]);
        }
        for q in &serial {
            let r = outcome.results.iter().find(|r| r.name == q.name).unwrap();
            assert_eq!(r.result, q.result, "job '{}' differs from JobQueue", r.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property form of the equivalence: random shapes and seeds, random
    /// world widths, grand-canonical density jobs — always bitwise equal
    /// to the serial queue.
    #[test]
    fn random_batches_match_serial_queue_bitwise(
        nb in 3usize..7,
        bs in 1usize..3,
        seed in 0u64..1000,
        ranks_per_job in 1usize..3,
    ) {
        let jobs = vec![
            MatrixJob::density("p", banded(nb, bs, 1, seed), 0.0),
            MatrixJob::density("q", banded(nb + 1, bs, 1, seed.wrapping_add(7)), 0.02),
        ];
        let serial = JobQueue::default().run(jobs.clone());
        let sched = Scheduler::new(
            std::sync::Arc::new(sm_pipeline::SubmatrixEngine::new(
                sm_pipeline::EngineOptions {
                    parallel: false,
                    ..sm_pipeline::EngineOptions::default()
                },
            )),
            RankBudget { max_group_size: Some(ranks_per_job), max_groups: None },
        );
        let outcome = sched.run(jobs.len() * ranks_per_job, jobs);
        let comm = SerialComm::new();
        for (s, q) in outcome.results.iter().zip(&serial) {
            prop_assert!(
                s.result.to_dense(&comm).allclose(&q.result.to_dense(&comm), 0.0),
                "job '{}' deviates at {} ranks/job", s.name, ranks_per_job
            );
        }
    }
}

/// A job whose diagonal block is exactly zero — `from_dense` stores no
/// block there — is refused at admission with a typed error naming the
/// block column, as a matrix job and as an SCF job, beside 60 valid jobs:
/// never a panic in the rank that builds its submatrix and in the peer
/// waiting on it. So is a Padé job its engine would assert on: order
/// below 2, kt > 0, or (matrix jobs) a canonical ensemble.
#[test]
fn a_job_without_a_diagonal_block_is_refused_at_admission() {
    let mut dense = Matrix::from_fn(6, 6, |i, j| match i.abs_diff(j) {
        0 if i % 2 == 0 => 1.0,
        0 => -1.0,
        1 => 0.05,
        _ => 0.0,
    });
    for i in 4..6 {
        for j in 4..6 {
            dense[(i, j)] = 0.0;
        }
    }
    let broken = DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(3, 2), 0, 1, 0.0);
    assert!(broken.block(2, 2).is_none() && broken.block(1, 2).is_some());
    let no_diagonal = "block column 2 has no diagonal block";
    let matrix_job = |order, kt, ensemble| {
        let mut job = MatrixJob::density("bad-numeric", banded(4, 2, 1, 7), 0.0);
        job.numeric.solve = SolveOptions {
            method: SignMethod::Pade(order),
            kt,
            ..SolveOptions::default()
        };
        job.numeric.ensemble = ensemble;
        BatchJob::Matrix(job)
    };
    let scf_job = |order, kt| {
        let mut spec = ScfJobSpec::new("bad-numeric", banded(4, 2, 1, 7), 0.0, 8.0);
        spec.scf.ensemble = ScfEnsemble::GrandCanonical;
        spec.scf.numeric.solve.method = SignMethod::Pade(order);
        spec.scf.numeric.solve.kt = kt;
        BatchJob::Scf(spec)
    };
    let canonical = Ensemble::Canonical {
        n_electrons: 8.0,
        tol: 1e-8,
        max_iter: 100,
    };
    let gc = Ensemble::GrandCanonical;
    let bad = [
        (
            BatchJob::Matrix(MatrixJob::density("no-diagonal", broken.clone(), 0.0)),
            no_diagonal,
        ),
        (
            BatchJob::Scf(ScfJobSpec::new("no-diagonal", broken, 0.0, 2.0)),
            no_diagonal,
        ),
        (
            matrix_job(3, 0.0, canonical),
            "Pade(3): a canonical ensemble needs Diagonalization (Algorithm 1)",
        ),
        (
            matrix_job(2, 0.1, gc),
            "Pade(2): kt = 0.1, but only Diagonalization smears",
        ),
        (
            scf_job(3, 0.1),
            "Pade(3): kt = 0.1, but only Diagonalization smears",
        ),
        (
            matrix_job(1, 0.0, gc),
            "Pade(1): the sign iteration needs order >= 2",
        ),
        (
            scf_job(1, 0.0),
            "Pade(1): the sign iteration needs order >= 2",
        ),
    ];
    for (bad, expected) in bad {
        let expected_name = bad.name().to_string();
        let mut batch: Vec<BatchJob> = (0..60)
            .map(|k| {
                BatchJob::Matrix(MatrixJob::density(
                    format!("valid-{k}"),
                    banded(4, 2, 1, k),
                    0.0,
                ))
            })
            .collect();
        batch.push(bad);
        let outcome = with_watchdog(120, move || {
            Scheduler::default()
                .try_run(2, batch)
                .map(|o| o.results.len())
        });
        match outcome {
            Err(SchedError::InvalidJob { name, reason }) => {
                assert_eq!(name, expected_name);
                assert_eq!(reason, expected);
            }
            other => panic!("'{expected}' was admitted: {other:?}"),
        }
    }
}
