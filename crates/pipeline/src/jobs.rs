//! Batched multi-job execution over one shared engine.
//!
//! A production density-matrix service sees many concurrent requests:
//! different systems, different sizes, different ensembles and solvers —
//! often with *recurring* sparsity patterns (the same system resubmitted
//! every SCF/MD step). [`JobQueue`] runs such a batch through a single
//! [`SubmatrixEngine`]:
//!
//! 1. **Symbolic pass**: every job's pattern is fingerprinted and planned
//!    through the shared cache, so recurring patterns are planned once for
//!    the whole batch (and for all future batches on the same queue).
//! 2. **Numeric pass**: jobs execute over the shared pool, scheduled
//!    longest-plan-first (LPT) so a trailing giant job cannot serialize
//!    the batch tail.
//!
//! Results return in submission order with per-job [`EngineReport`]s.
//!
//! This module also defines the scheduler's **job-kind abstraction**:
//! [`BatchJob`] generalizes "one engine execute" ([`MatrixJob`]) to
//! "iterative job with per-iteration cost re-estimation"
//! ([`ScfJobSpec`], a whole SCF loop), and [`ScfTelemetry`] carries the
//! per-iteration observables back through [`JobResult::scf`].

use std::sync::Arc;
use std::time::Instant;

use rayon::prelude::*;

use sm_chem::ScfOptions;
use sm_comsim::SerialComm;
use sm_core::engine::{EngineOptions, EngineReport, NumericOptions, SubmatrixEngine};
use sm_dbcsr::{ops, DbcsrMatrix};

use crate::sched::admit;

/// Which matrix function a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutput {
    /// `sign(K̃ − µI)`.
    Sign,
    /// `D̃ = (I − sign(K̃ − µI)) / 2`.
    Density,
}

impl JobOutput {
    /// Turn the engine's sign output into this job's requested function,
    /// in place. The single definition both the serial queue and the
    /// distributed scheduler apply — the bitwise-equivalence contract
    /// between the two paths depends on them sharing it.
    ///
    /// A plain-`Fp32` job's deliverable is single-precision end to end:
    /// the finalized blocks are rounded back through `f32` storage, on the
    /// serial queue and the scheduler alike. (`Fp32Refined` results stay
    /// `f64` — the refinement's accuracy is the product.)
    pub fn finalize(&self, sign: &mut DbcsrMatrix, precision: sm_linalg::Precision) {
        if *self == JobOutput::Density {
            ops::scale(sign, -0.5);
            ops::shift_diag(sign, 0.5);
        }
        if precision == sm_linalg::Precision::Fp32 {
            for (_, blk) in sign.store_mut().iter_mut() {
                blk.round_f32_storage_in_place();
            }
        }
    }
}

/// One matrix-function request.
#[derive(Debug, Clone)]
pub struct MatrixJob {
    /// Caller-chosen identifier, echoed in the result.
    pub name: String,
    /// The (single-rank) input matrix.
    pub matrix: DbcsrMatrix,
    /// Chemical potential the evaluation starts from.
    pub mu0: f64,
    /// Numeric-phase options (solver, ensemble, selected columns).
    pub numeric: NumericOptions,
    /// Requested function.
    pub output: JobOutput,
}

impl MatrixJob {
    /// Convenience constructor for a density job with default numerics.
    pub fn density(name: impl Into<String>, matrix: DbcsrMatrix, mu0: f64) -> Self {
        MatrixJob {
            name: name.into(),
            matrix,
            mu0,
            numeric: NumericOptions::default(),
            output: JobOutput::Density,
        }
    }
}

/// One self-consistent-field problem submitted to the
/// [`Scheduler`](crate::sched::Scheduler) or the streaming service: the
/// system (its orthogonalized Kohn–Sham matrix), the chemical data, and
/// the full SCF configuration. The scheduler runs the whole multi-iteration
/// [`sm_chem::ScfDriver`] loop as one job on a per-job subcommunicator.
#[derive(Debug, Clone)]
pub struct ScfJobSpec {
    /// Caller-chosen identifier, echoed in the result.
    pub name: String,
    /// The system: its orthogonalized Kohn–Sham matrix `K̃₀` as a
    /// (single-rank, replicated) handle; the scheduler redistributes it
    /// over the job's group.
    pub kt0: DbcsrMatrix,
    /// Seed chemical potential (the *fixed* µ for grand-canonical specs).
    pub mu0: f64,
    /// Electron target of the canonical ensemble (and of the model
    /// feedback's average occupation in both ensembles).
    pub n_electrons: f64,
    /// Full SCF configuration: convergence knobs, model feedback, the
    /// driver-level [`sm_chem::ScfEnsemble`] selector, and
    /// [`NumericOptions`] (solver, precision).
    pub scf: ScfOptions,
}

impl ScfJobSpec {
    /// Convenience constructor with default SCF options.
    pub fn new(name: impl Into<String>, kt0: DbcsrMatrix, mu0: f64, n_electrons: f64) -> Self {
        ScfJobSpec {
            name: name.into(),
            kt0,
            mu0,
            n_electrons,
            scf: ScfOptions::default(),
        }
    }
}

/// The scheduler's job abstraction: either a single engine execution
/// (one matrix-function evaluation) or an iterative multi-evaluation job
/// (a whole SCF loop). Cost estimation, group placement, epoch stealing
/// and the merge of results and telemetry are shared; only the per-group
/// execution body differs.
#[derive(Debug, Clone)]
pub enum BatchJob {
    /// One matrix-function evaluation (`sign`/`density`).
    Matrix(MatrixJob),
    /// One multi-iteration SCF run driven by [`sm_chem::ScfDriver`] on
    /// the job's subcommunicator group.
    Scf(ScfJobSpec),
}

impl BatchJob {
    /// The job's identifier.
    pub fn name(&self) -> &str {
        match self {
            BatchJob::Matrix(j) => &j.name,
            BatchJob::Scf(j) => &j.name,
        }
    }

    /// The (single-rank, replicated) input matrix handle — the source of
    /// the sparsity pattern the cost model estimates from, and of the
    /// blocks the scheduler scatters over the job's group.
    pub fn input(&self) -> &DbcsrMatrix {
        match self {
            BatchJob::Matrix(j) => &j.matrix,
            BatchJob::Scf(j) => &j.kt0,
        }
    }

    /// How many engine evaluations the cost model should assume: 1 for a
    /// one-shot matrix job, `scf.max_iter` for an SCF job (each
    /// iteration replays the same cached plan, so total cost scales
    /// linearly in the iteration count).
    pub fn iteration_budget(&self) -> usize {
        match self {
            BatchJob::Matrix(_) => 1,
            BatchJob::Scf(j) => j.scf.max_iter.max(1),
        }
    }
}

impl From<MatrixJob> for BatchJob {
    fn from(job: MatrixJob) -> Self {
        BatchJob::Matrix(job)
    }
}

impl From<ScfJobSpec> for BatchJob {
    fn from(spec: ScfJobSpec) -> Self {
        BatchJob::Scf(spec)
    }
}

/// Per-iteration SCF telemetry of one [`BatchJob::Scf`] job, returned by
/// the ranks that ran the loop alongside their engine reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScfTelemetry {
    /// SCF iterations performed.
    pub iterations: usize,
    /// True if `|ΔE|` dropped below the spec's tolerance in budget.
    pub converged: bool,
    /// Band-structure energy of the final iteration.
    pub final_energy: f64,
    /// Electron count of the final iteration.
    pub final_electrons: f64,
    /// Group-summed gather value-payload bytes, per iteration (length =
    /// `iterations`; deterministic, halves under the `Fp32*` wire).
    pub gather_value_bytes: Vec<u64>,
    /// Group-summed scatter value-payload bytes, per iteration.
    pub scatter_value_bytes: Vec<u64>,
}

/// Outcome of one job. Produced by both the serial [`JobQueue`] and the
/// distributed [`Scheduler`](crate::sched::Scheduler) with the same
/// telemetry semantics, so the two paths are directly comparable.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's identifier.
    pub name: String,
    /// The computed matrix (input pattern preserved).
    pub result: DbcsrMatrix,
    /// Numeric-phase instrumentation; `plan_cached` tells whether this
    /// job's symbolic phase was amortized.
    pub report: EngineReport,
    /// Wall-clock seconds of this job end to end: symbolic phase (zero on
    /// a cache hit) and numeric phase — on the distributed path, those of
    /// the slowest rank of its group.
    pub seconds: f64,
    /// Ranks that executed this job (1 on the serial queue).
    pub group_size: usize,
    /// Bytes the job's ranks sent each other while computing it, summed
    /// over its group (0 on the serial queue — a single rank sends
    /// nothing). Results reach the caller as the ranks' return values,
    /// not as messages, so they add nothing here.
    pub comm_bytes: u64,
    /// Messages the job's ranks sent each other, summed like
    /// [`comm_bytes`](Self::comm_bytes).
    pub comm_msgs: u64,
    /// Scheduler epoch this job executed in (0 on the serial queue and on
    /// single-epoch schedules).
    pub epoch: usize,
    /// Ranks of this job's executing group that were re-dealt from other
    /// groups' static allocations by the epoch steal plan (0 = the job ran
    /// on its home group; always 0 on the serial queue).
    pub stolen_ranks: usize,
    /// Execution attempts this job consumed (1 = the first attempt
    /// succeeded; always 1 on the serial queue and the fault-free
    /// scheduler; > 1 only when fault injection poisoned earlier
    /// attempts).
    pub attempts: usize,
    /// True when the job exhausted its retry budget under fault injection
    /// and was quarantined instead of completed: [`result`](Self::result)
    /// is then an empty matrix and [`report`](Self::report) carries no
    /// work. Never true on the serial queue.
    pub quarantined: bool,
    /// Per-iteration SCF telemetry — `Some` exactly for [`BatchJob::Scf`]
    /// jobs, whose [`report`](JobResult::report) is then the whole-run
    /// aggregate across iterations.
    pub scf: Option<ScfTelemetry>,
}

/// What one rank computed for one job: its result blocks and its own
/// telemetry. A rank returns its shares to the caller, which merges the
/// shares of a job's group into one [`JobResult`] with
/// [`JobResult::from_shares`].
pub(crate) struct Share {
    /// The blocks this rank owns of the job's result.
    pub(crate) result: DbcsrMatrix,
    /// This rank's report; `plan_cached` is false if it built the plan.
    pub(crate) report: EngineReport,
    /// Wall seconds this rank spent on the job.
    pub(crate) seconds: f64,
    /// Bytes this rank sent within the job's group.
    pub(crate) comm_bytes: u64,
    /// Messages this rank sent within the job's group.
    pub(crate) comm_msgs: u64,
    /// SCF telemetry, with this rank's per-iteration value bytes.
    pub(crate) scf: Option<ScfTelemetry>,
}

impl JobResult {
    /// Merge the shares of the ranks that ran a job, its group root's
    /// first: the blocks move into one single-rank matrix; bytes,
    /// messages, value bytes, transfer statistics and the SCF
    /// per-iteration bytes are summed; phase and job seconds take the
    /// maximum; the plan counts as cached when no rank built it; every
    /// other field is the root's. The result is of the first epoch and
    /// attempt, with no stolen ranks: the scheduler sets those from its
    /// schedule.
    pub(crate) fn from_shares(
        name: String,
        root: Share,
        others: impl IntoIterator<Item = Share>,
    ) -> JobResult {
        let mut others = others.into_iter().peekable();
        let mut done = JobResult {
            name,
            result: root.result,
            report: root.report,
            seconds: root.seconds,
            group_size: 1,
            comm_bytes: root.comm_bytes,
            comm_msgs: root.comm_msgs,
            epoch: 0,
            stolen_ranks: 0,
            attempts: 1,
            quarantined: false,
            scf: root.scf,
        };
        if others.peek().is_some() {
            let mut whole = DbcsrMatrix::new(done.result.dims().clone(), 0, 1);
            *whole.store_mut() = std::mem::take(done.result.store_mut());
            done.result = whole;
        }
        for mut share in others {
            for ((br, bc), blk) in share.result.store_mut().drain() {
                done.result.insert_block(br, bc, blk);
            }
            let (r, s) = (&mut done.report, &share.report);
            r.transfers += s.transfers;
            r.gather_value_bytes += s.gather_value_bytes;
            r.scatter_value_bytes += s.scatter_value_bytes;
            r.symbolic_seconds = r.symbolic_seconds.max(s.symbolic_seconds);
            r.gather_seconds = r.gather_seconds.max(s.gather_seconds);
            r.solve_seconds = r.solve_seconds.max(s.solve_seconds);
            r.scatter_seconds = r.scatter_seconds.max(s.scatter_seconds);
            r.plan_cached &= s.plan_cached;
            done.seconds = done.seconds.max(share.seconds);
            done.group_size += 1;
            done.comm_bytes += share.comm_bytes;
            done.comm_msgs += share.comm_msgs;
            if let (Some(t), Some(s)) = (&mut done.scf, &share.scf) {
                let sum =
                    |a: &mut Vec<u64>, b: &[u64]| a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
                sum(&mut t.gather_value_bytes, &s.gather_value_bytes);
                sum(&mut t.scatter_value_bytes, &s.scatter_value_bytes);
            }
        }
        done
    }

    /// Whether this job's plan came from the shared cache (no symbolic
    /// work was performed on its behalf).
    pub fn plan_cached(&self) -> bool {
        self.report.plan_cached
    }

    /// The numeric precision this job ran in (from the engine report).
    pub fn precision(&self) -> sm_linalg::Precision {
        self.report.precision
    }

    /// Whether this job executed on rank capacity stolen from another
    /// group's static allocation (never true on the serial queue).
    pub fn was_stolen(&self) -> bool {
        self.stolen_ranks > 0
    }

    /// Deterministic value-payload bytes this job moved over the wire
    /// (group-summed gather + scatter; 0 on the serial queue). Under
    /// `Precision::Fp32` this is exactly half the `Fp64` figure for the
    /// same job on the same group — the mixed-precision bandwidth win,
    /// measurable without wall clocks.
    pub fn value_bytes(&self) -> u64 {
        self.report.gather_value_bytes + self.report.scatter_value_bytes
    }
}

/// Batch executor over one shared [`SubmatrixEngine`].
pub struct JobQueue {
    engine: Arc<SubmatrixEngine>,
}

impl Default for JobQueue {
    fn default() -> Self {
        // Job-level parallelism supplies the concurrency; keep per-job
        // solves sequential to avoid nested-pool oversubscription.
        JobQueue::new(Arc::new(SubmatrixEngine::new(EngineOptions {
            parallel: false,
            ..EngineOptions::default()
        })))
    }
}

impl JobQueue {
    /// Build a queue over an existing engine (sharing its plan cache).
    pub fn new(engine: Arc<SubmatrixEngine>) -> Self {
        JobQueue { engine }
    }

    /// The shared engine (e.g. to inspect [`SubmatrixEngine::stats`]).
    pub fn engine(&self) -> &Arc<SubmatrixEngine> {
        &self.engine
    }

    /// Run a batch. Jobs execute concurrently over the shared pool in
    /// longest-plan-first order; results return in submission order.
    /// Panics with the refusal if the scheduler's admission check refuses
    /// a job.
    pub fn run(&self, jobs: Vec<MatrixJob>) -> Vec<JobResult> {
        // The check takes a `BatchJob`: wrap, check and unwrap again, which
        // moves the jobs and copies no matrix.
        let jobs: Vec<BatchJob> = jobs.into_iter().map(BatchJob::from).collect();
        if let Some(refusal) = jobs.iter().find_map(|j| admit(j).err()) {
            panic!("{refusal}");
        }
        let jobs: Vec<MatrixJob> = jobs
            .into_iter()
            .filter_map(|j| match j {
                BatchJob::Matrix(j) => Some(j),
                BatchJob::Scf(_) => None,
            })
            .collect();
        // Symbolic pass (sequential): fingerprint + plan through the
        // shared cache. Recurring patterns plan once; each job remembers
        // whether it was the one that paid for the build, and what the
        // planning (or cache probe) cost it in wall time.
        let comm = SerialComm::new();
        let plans: Vec<_> = jobs
            .iter()
            .map(|j| {
                let t = Instant::now();
                let (plan, planning) = self.engine.plan_for_matrix_traced(&j.matrix, &comm);
                (plan, planning, t.elapsed().as_secs_f64())
            })
            .collect();

        // LPT schedule: heaviest plans first. `total_cmp` keeps the sort
        // total even if a degenerate pattern produced a NaN cost.
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| plans[b].0.total_cost.total_cmp(&plans[a].0.total_cost));

        // Numeric pass. Exactly one level supplies the parallelism: if the
        // engine's per-job solves are parallel, jobs run sequentially;
        // otherwise jobs fan out over the shared pool. This keeps either
        // configuration from nesting pools and oversubscribing the
        // machine.
        let engine = &self.engine;
        let jobs_ref = &jobs;
        let plans_ref = &plans;
        let run_one = |&i: &usize| {
            let job = &jobs_ref[i];
            let (plan, planning, plan_seconds) = &plans_ref[i];
            let comm = SerialComm::new();
            let t = Instant::now();
            let (mut result, mut report) =
                engine.execute(plan, &job.matrix, job.mu0, &job.numeric, &comm);
            job.output.finalize(&mut result, job.numeric.precision);
            report.record_planning(*planning);
            let share = Share {
                result,
                report,
                seconds: plan_seconds + t.elapsed().as_secs_f64(),
                comm_bytes: 0,
                comm_msgs: 0,
                scf: None,
            };
            (i, JobResult::from_shares(job.name.clone(), share, []))
        };
        let mut finished: Vec<(usize, JobResult)> = if engine.options().parallel {
            order.iter().map(run_one).collect()
        } else {
            order.par_iter().map(run_one).collect()
        };
        finished.sort_by_key(|(i, _)| *i);
        finished.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_core::engine::{BackendPolicy, EngineOptions, Ensemble};
    use sm_core::solver::{SignMethod, SolveOptions};
    use sm_dbcsr::BlockedDims;
    use sm_linalg::Matrix;

    fn banded(nb: usize, bs: usize, scale: f64) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            let bi = (i / bs) as isize;
            let bj = (j / bs) as isize;
            if (bi - bj).abs() > 1 {
                0.0
            } else if i == j {
                if i % 2 == 0 {
                    scale
                } else {
                    -scale
                }
            } else {
                0.05 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        (dense, dims)
    }

    fn job_matrix(nb: usize, bs: usize, scale: f64) -> DbcsrMatrix {
        let (dense, dims) = banded(nb, bs, scale);
        DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0)
    }

    #[test]
    fn mixed_batch_matches_a_fresh_sequential_engine() {
        let comm = SerialComm::new();
        let queue = JobQueue::default();
        let jobs = vec![
            MatrixJob::density("small-density", job_matrix(4, 2, 1.0), 0.0),
            MatrixJob {
                name: "large-sign".into(),
                matrix: job_matrix(10, 3, 1.2),
                mu0: 0.1,
                numeric: NumericOptions::default(),
                output: JobOutput::Sign,
            },
            MatrixJob {
                name: "newton-schulz".into(),
                matrix: job_matrix(6, 2, 1.4),
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
            MatrixJob {
                name: "canonical".into(),
                matrix: job_matrix(6, 2, 1.0),
                mu0: 0.0,
                numeric: NumericOptions {
                    ensemble: Ensemble::Canonical {
                        n_electrons: 8.0,
                        tol: 1e-8,
                        max_iter: 200,
                    },
                    ..NumericOptions::default()
                },
                output: JobOutput::Density,
            },
        ];
        let inputs = jobs.clone();
        let results = queue.run(jobs);
        assert_eq!(results.len(), 4);
        // Results come back in submission order under LPT scheduling.
        for (job, res) in inputs.iter().zip(&results) {
            assert_eq!(job.name, res.name);
            let fresh = SubmatrixEngine::new(EngineOptions {
                parallel: false,
                ..EngineOptions::default()
            });
            let numeric = NumericOptions {
                backend: BackendPolicy::Dense,
                ..job.numeric
            };
            let expect = match job.output {
                JobOutput::Sign => fresh.sign(&job.matrix, job.mu0, &numeric, &comm).0,
                JobOutput::Density => fresh.density(&job.matrix, job.mu0, &numeric, &comm).0,
            };
            assert!(
                res.result
                    .to_dense(&comm)
                    .allclose(&expect.to_dense(&comm), 0.0),
                "job '{}' deviates from a fresh engine",
                res.name
            );
        }
    }

    #[test]
    fn recurring_patterns_plan_once_per_batch_and_across_batches() {
        let queue = JobQueue::default();
        let batch = |scale: f64| {
            vec![
                MatrixJob::density("a", job_matrix(5, 2, scale), 0.0),
                MatrixJob::density("b", job_matrix(5, 2, scale * 1.1), 0.0),
                MatrixJob::density("c", job_matrix(8, 2, scale), 0.0),
            ]
        };
        queue.run(batch(1.0));
        let stats = queue.engine().stats();
        assert_eq!(stats.symbolic_builds, 2, "two distinct patterns");
        assert_eq!(stats.cache_hits, 1, "same-pattern job reuses the plan");
        // Second batch with new values, same patterns: zero new plans.
        queue.run(batch(1.3));
        let stats = queue.engine().stats();
        assert_eq!(stats.symbolic_builds, 2);
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.executions, 6);
    }

    #[test]
    fn per_job_reports_expose_amortization() {
        let queue = JobQueue::default();
        let r1 = queue.run(vec![MatrixJob::density("x", job_matrix(4, 2, 1.0), 0.0)]);
        // First sighting of the pattern: this job paid for the plan.
        assert!(!r1[0].report.plan_cached);
        assert!(r1[0].report.symbolic_seconds > 0.0);
        assert!(r1[0].seconds >= 0.0);
        // Same pattern resubmitted (new values): fully amortized.
        let r2 = queue.run(vec![MatrixJob::density("y", job_matrix(4, 2, 1.3), 0.0)]);
        assert!(r2[0].report.plan_cached);
        assert_eq!(r2[0].report.symbolic_seconds, 0.0);
        assert_eq!(queue.engine().stats().symbolic_builds, 1);
    }

    #[test]
    fn empty_batch_is_fine() {
        let queue = JobQueue::default();
        assert!(queue.run(Vec::new()).is_empty());
    }

    #[test]
    fn shares_merge_into_the_whole_result() {
        // A two-rank group's shares: each rank's owned blocks of one
        // matrix and its own counters, the root's first.
        let whole = job_matrix(5, 2, 1.0);
        let share = |rank: usize, built: bool, seconds: f64| {
            let mut result = DbcsrMatrix::new(whole.dims().clone(), rank, 2);
            for (&(br, bc), blk) in whole.store().iter() {
                if result.is_mine(br, bc) {
                    result.insert_block(br, bc, blk.clone());
                }
            }
            let x = rank as u64 + 1;
            let report = EngineReport {
                n_submatrices: 10 + rank,
                gather_value_bytes: 100 * x,
                scatter_value_bytes: 10 * x,
                plan_cached: !built,
                solve_seconds: seconds,
                ..EngineReport::default()
            };
            let scf = ScfTelemetry {
                iterations: 2,
                final_energy: -(x as f64),
                gather_value_bytes: vec![x, 2 * x],
                scatter_value_bytes: vec![3 * x, 4 * x],
                ..ScfTelemetry::default()
            };
            Share {
                result,
                report,
                seconds,
                comm_bytes: 1000 * x,
                comm_msgs: x,
                scf: Some(scf),
            }
        };
        let root = share(0, false, 0.5);
        assert!(root.result.store().len() < whole.store().len());
        let r = JobResult::from_shares("j".into(), root, [share(1, true, 2.0)]);
        assert_eq!(r.result, whole, "blocks and single-rank handle");
        assert_eq!(r.group_size, 2);
        assert_eq!((r.comm_bytes, r.comm_msgs), (3000, 3));
        assert_eq!(r.value_bytes(), 300 + 30);
        assert_eq!((r.seconds, r.report.solve_seconds), (2.0, 2.0));
        assert!(!r.plan_cached(), "one rank built the plan");
        assert_eq!(r.report.n_submatrices, 10, "the root's");
        let scf = r.scf.expect("SCF telemetry");
        assert_eq!(scf.final_energy, -1.0, "the root's");
        assert_eq!(scf.gather_value_bytes, [3, 6]);
        assert_eq!(scf.scatter_value_bytes, [9, 12]);
        // A lone share's matrix is the result, moved as it is.
        let root = share(0, false, 1.0);
        let computed = root.result.clone();
        let alone = JobResult::from_shares("k".into(), root, []);
        assert_eq!(alone.result, computed);
        assert_eq!(alone.group_size, 1);
        assert!(alone.plan_cached());
    }
}
