//! # cp2k-submatrix — reproduction of the submatrix method (Lass et al., SC 2020)
//!
//! A from-scratch Rust implementation of *"A Submatrix-Based Method for
//! Approximate Matrix Function Evaluation in the Quantum Chemistry Code
//! CP2K"*, including every substrate the paper builds on:
//!
//! | Crate | Role |
//! |---|---|
//! | [`linalg`] | dense BLAS/LAPACK subset: GEMM, symmetric eigensolver, sign function, inverse roots |
//! | [`comsim`] | simulated MPI: rank-per-thread communicator + analytic cluster-time model |
//! | [`dbcsr`] | distributed block-compressed sparse matrices with Cannon multiplication (libDBCSR) |
//! | [`chem`] | synthetic liquid-water systems, SZV/DZVP basis models, S and K builders, SCF driver |
//! | [`core`] | **the submatrix method**: assembly, clustering, load balancing, µ adjustment, engine |
//! | [`pipeline`] | persistent `SubmatrixEngine` facade, `JobQueue`, distributed `Scheduler` (matrix and SCF batches), `StreamingScfService` |
//! | [`accel`] | emulated FP16/FP32 tensor-core & FPGA kernels, Padé iteration traces, Table I model |
//! | [`trace`] | deterministic structured spans and events (the `smdoctor` CLI's substrate) |
//!
//! ## Quickstart
//!
//! ```
//! use cp2k_submatrix::prelude::*;
//!
//! // A small periodic water box with the SZV basis model.
//! let water = WaterBox::cubic(1, 42);
//! let basis = BasisSet::szv();
//! let sys = build_system(&water, &basis, 0, 1, 1e-10);
//!
//! // Löwdin-orthogonalize and purify with the submatrix method.
//! let comm = SerialComm::new();
//! let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &Default::default(), &comm);
//! let (density, report) =
//!     SubmatrixEngine::default().density(&kt, sys.mu, &NumericOptions::default(), &comm);
//!
//! let n_electrons = 2.0 * sm_dbcsr::ops::trace(&density, &comm);
//! assert!((n_electrons - 8.0 * water.n_molecules() as f64).abs() < 0.5);
//! assert_eq!(report.n_submatrices, water.n_molecules());
//! ```
//!
//! ## Repeated evaluation: keep the engine
//!
//! The throwaway engine above plans from scratch. Workloads that evaluate a
//! *fixed* sparsity pattern repeatedly — SCF and MD loops, batched
//! services — hold one [`SubmatrixEngine`](prelude::SubmatrixEngine), which
//! splits each evaluation into a one-time cached **symbolic phase** (plan,
//! load balance, deduplicated transfers, assembly/extraction index maps,
//! keyed by a pattern fingerprint) and a cheap per-call **numeric phase**:
//!
//! ```
//! use cp2k_submatrix::prelude::*;
//!
//! let water = WaterBox::cubic(1, 42);
//! let sys = build_system(&water, &BasisSet::szv(), 0, 1, 1e-10);
//! let comm = SerialComm::new();
//! let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &Default::default(), &comm);
//!
//! let engine = SubmatrixEngine::default();
//! let plan = engine.plan_for_matrix(&kt, &comm);       // symbolic, once
//! let (sign, _) = engine.execute(&plan, &kt, sys.mu,   // numeric, per call
//!                                &NumericOptions::default(), &comm);
//! assert_eq!(engine.stats().symbolic_builds, 1);
//! # let _ = sign;
//! ```
//!
//! `sm_chem::ScfDriver` runs a damped SCF loop on one cached plan, and
//! [`pipeline`]'s `JobQueue` batches many mixed jobs over a shared engine.
//!
//! ## Scaling out: scheduler and SCF service
//!
//! [`pipeline`]'s `Scheduler` distributes a batch over a simulated rank
//! world — per-job subcommunicator groups sized by estimated cost, with
//! epoch-based work stealing — and runs whole chemical systems the same
//! way: each `ScfJobSpec` a multi-iteration SCF loop, all sharing one
//! plan cache; `StreamingScfService` admits a stream of them into
//! windows. See `examples/scheduler_batch.rs` and
//! `examples/scf_service_batch.rs` for worked walkthroughs, and
//! `ARCHITECTURE.md` for the invariants that keep every path
//! bitwise-equivalent to its serial baseline.

pub use sm_accel as accel;
pub use sm_chem as chem;
pub use sm_comsim as comsim;
pub use sm_core as core;
pub use sm_dbcsr as dbcsr;
pub use sm_linalg as linalg;
pub use sm_pipeline as pipeline;
pub use sm_trace as trace;

/// Everything a typical application needs in scope.
pub mod prelude {
    pub use sm_chem::builder::{build_system, molecular_gap, molecular_mu};
    pub use sm_chem::{
        BasisKind, BasisSet, ScfDriver, ScfEnsemble, ScfOptions, SystemMatrices, WaterBox,
    };
    pub use sm_comsim::{run_ranks, ClusterModel, Comm, SerialComm};
    pub use sm_core::baseline::{newton_schulz_density, orthogonalize_sparse, NewtonSchulzOptions};
    pub use sm_core::engine::{
        BackendPolicy, EngineOptions, EngineReport, EngineStats, Ensemble, ExecutionPlan, Grouping,
        NumericOptions, SubmatrixEngine,
    };
    pub use sm_core::solver::{SignMethod, SolveOptions};
    pub use sm_core::PatternPlan;
    pub use sm_dbcsr::{BlockedDims, CooPattern, DbcsrMatrix, PatternFingerprint};
    pub use sm_linalg::Matrix;
    pub use sm_pipeline::{
        BatchJob, EpochSchedule, JobOutput, JobQueue, JobResult, MatrixJob, RankBudget, ScfJobSpec,
        ScfTelemetry, SchedulePlan, Scheduler, SchedulerOutcome, StealPolicy, StealStats,
    };
}
