//! # sm-pipeline — the persistent submatrix-method subsystem
//!
//! Public home of the engine-centric execution model that turns the
//! submatrix method into a service-shaped component:
//!
//! * [`SubmatrixEngine`] (re-exported from `sm_core::engine`) splits every
//!   evaluation into a one-time **symbolic phase** — group dimensions →
//!   greedy load balance → one walk per own group: flat assembly/extraction
//!   index maps and the deduplicated [`RankTransferPlan`] — cached under a cheap
//!   [`PatternFingerprint`], and a per-call **numeric phase** that only
//!   gathers values, assembles through the cached maps, solves, adjusts µ,
//!   and scatters. In SCF/MD-style workloads (paper Sec. IV) the pattern is
//!   fixed across iterations, so all symbolic work amortizes to zero. The
//!   plan cache holds one entry per pattern, keeps every pattern it has
//!   planned, and counts hits and builds in `EngineStats`.
//! * [`JobQueue`] batches many independent matrix-function jobs — mixed
//!   sizes, ensembles and sign methods — over one shared pool with
//!   longest-job-first scheduling and per-job reports, sharing one plan
//!   cache so identical patterns are planned once across the whole batch.
//! * [`Scheduler`] (module [`sched`]) is the distributed counterpart: it
//!   carves a world of `N` ranks into per-job **subcommunicator groups**
//!   (`sm_comsim::split_known`), sizes each group proportionally to the
//!   job's estimated submatrix work (via `sm_accel::perfmodel`), runs each
//!   job's plan/execute collectively on its group over the *same* shared
//!   engine, and builds each job's result plus its comm/compute telemetry
//!   on the caller from what the group's ranks return (no message carries
//!   a result). Batches run in **epochs**: each wave re-deals the
//!   surviving world over the still-pending jobs, so ranks whose group
//!   drained land on straggler groups' remaining jobs — deterministic,
//!   estimate-driven work stealing, reported through `StealStats` and
//!   per-job `epoch`/`stolen_ranks` fields (`StealPolicy::Disabled`
//!   restores the static single-epoch schedule). One planner
//!   ([`plan_epochs_with_faults`]) and one rank executor serve every
//!   batch: a fault-free run is the run under the empty
//!   `sm_comsim::FaultPlan`. Jobs of either ensemble are bitwise-identical
//!   to the serial queue at any group size and any steal schedule.
//!   Its one entry point, [`Scheduler::run`], takes [`MatrixJob`]s and
//!   [`ScfJobSpec`]s alike: each spec runs as an iterative
//!   [`BatchJob::Scf`] job — a full multi-iteration
//!   [`sm_chem::ScfDriver`] loop on the job's subcommunicator — with its
//!   group sized by *per-iteration* pattern cost times iteration budget,
//!   per-iteration SCF telemetry in [`JobResult::scf`], and batches
//!   bitwise-identical to a serial loop of driver runs
//!   (`scf_service_equivalence` suite; module [`scf_service`] keeps that
//!   serial reference and the name [`ScfService`]). Every front-end —
//!   [`Scheduler::try_run`], [`StreamingScfService::submit`] and
//!   [`JobQueue::run`] — admits jobs through the scheduler's one check.
//! * [`StreamingScfService`] (module [`service`]) puts a bounded priority
//!   queue in front of a scheduler and closes it into one batch per
//!   admission window.
//! * **Fault injection & epoch-level recovery** (the same planner and
//!   executor, under a non-empty seeded `FaultPlan`): rank deaths commit at
//!   epoch boundaries through a collective fault consensus, survivors
//!   re-deal the deferred queue, poisoned attempts retry with
//!   deterministic backoff-in-epochs and quarantine at the retry budget
//!   ([`JobResult::attempts`]/[`JobResult::quarantined`],
//!   [`SchedulerOutcome`]`::fault_stats`). The schedule is a pure function
//!   of (admitted jobs, perfmodel estimates, fault plan), so every
//!   non-quarantined job stays bitwise-identical to the fault-free serial
//!   queue under any admitted plan (`fault_equivalence` suite).
//!
//! ## Mixed precision
//!
//! A job's `NumericOptions::precision` (`Fp64`/`Fp32`/`Fp32Refined`)
//! selects the dense solve kernels' scalar type *and* the wire encoding of
//! its rank transfers: `Fp32*` gathers (and plain-`Fp32` result scatters)
//! move `f32` value payloads — exactly half the bytes, reported by the
//! deterministic `gather_value_bytes`/`scatter_value_bytes` counters in
//! every [`JobResult`]'s report. Precision is numeric-phase-only: it never
//! enters a plan fingerprint or cache key, so jobs at different precisions
//! share one cached plan, and plain-`Fp32` batches remain bitwise-identical
//! between the serial queue and the scheduler at any world size (the
//! `precision_equivalence` suite pins all three properties).
//!
//! ## Phase contract
//!
//! `plan*` performs **all** pattern-dependent work; `execute` performs
//! **none**. Concretely, `execute` never touches [`CooPattern`] queries,
//! never rebuilds transfer plans, and allocates only the dense scratch the
//! solve itself needs. The `engine_equivalence` property tests pin the
//! numeric phase on a cached plan to a re-planning engine bitwise, and the
//! equivalence suites count the plan cache's `hits + builds`.
//!
//! ## Subcommunicator contract
//!
//! Inside a scheduler group every collective is entered by the group's
//! ranks only; the subgroup's traffic rides a reserved parent-tag
//! namespace (`sm_comsim::SUBGROUP_BIT`), and the wire module's
//! reserved-tag guard (`sm_dbcsr::wire::user_tag`) applies unchanged
//! inside subgroups — user tags must keep both reserved bits clear.
//! Subgroups cannot be split again (the namespace is one level deep).
//!
//! [`RankTransferPlan`]: sm_core::transfers::RankTransferPlan
//! [`PatternFingerprint`]: sm_dbcsr::wire::PatternFingerprint
//! [`CooPattern`]: sm_dbcsr::CooPattern

pub mod jobs;
pub mod scf_service;
pub mod sched;
pub mod service;

pub use jobs::{BatchJob, JobOutput, JobQueue, JobResult, MatrixJob, ScfJobSpec, ScfTelemetry};
pub use scf_service::{serial_scf_loop, ScfOutcomeExt, ScfService};
pub use sched::{
    estimate_batch_job_cost, partition, plan_epochs, plan_epochs_with_faults, steal_horizon,
    Attempt, Epoch, EpochGroup, EpochSchedule, FaultStats, GroupPlan, RankBudget, SchedError,
    SchedulePlan, Scheduler, SchedulerOutcome, StealPolicy, StealStats, DEFAULT_RETRY_BUDGET,
};
pub use service::{
    Priority, ServiceConfig, ServiceError, ServiceStats, StreamingScfService, WindowOutcome,
};
pub use sm_core::engine::{
    AssemblyMap, EngineOptions, EngineReport, EngineStats, Ensemble, ExecutionPlan, ExtractionMap,
    Grouping, NumericOptions, SubmatrixEngine,
};
