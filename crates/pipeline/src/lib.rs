//! # sm-pipeline — the persistent submatrix-method subsystem
//!
//! The batch front-ends over one shared [`SubmatrixEngine`] (re-exported
//! from `sm_core::engine`), whose symbolic phase is cached per pattern and
//! whose numeric phase only gathers, assembles, solves, adjusts µ and
//! scatters. ARCHITECTURE.md has the design; its sections are named below.
//!
//! * [`Scheduler`] (module [`sched`]) carves a world of ranks into per-job
//!   subcommunicator groups sized by estimated submatrix work and runs the
//!   batch in epochs that re-deal drained ranks onto straggler groups
//!   ([`StealStats`]), under one planner ([`plan_epochs_with_faults`]) and
//!   one rank executor. [`Scheduler::run`] takes [`MatrixJob`]s and
//!   [`ScfJobSpec`]s alike (an SCF spec runs a whole [`sm_chem::ScfDriver`]
//!   loop on its group). Schedules are pure functions of the estimates
//!   ("Invariant 3"); results leave a rank through its return value.
//! * [`JobQueue`] (one rank, longest job first over a shared pool) and
//!   [`serial_scf_loop`] are the serial references: every scheduled job,
//!   of either ensemble and at any precision, is bitwise-identical to them
//!   at any group size, steal schedule and admitted fault plan (the
//!   `*_equivalence` suites). All front-ends admit jobs through one check.
//! * [`StreamingScfService`] (module [`service`]) puts a bounded priority
//!   queue in front of a scheduler, one batch per admission window
//!   ("Streaming service").
//! * Under a seeded `sm_comsim::FaultPlan`, rank deaths commit at epoch
//!   boundaries and poisoned attempts retry or quarantine
//!   ([`JobResult::attempts`], [`SchedulerOutcome`]`::fault_stats`; "Fault
//!   model & recovery").
//!
//! The plan cache's hit/miss decision is a per-group, per-epoch consensus,
//! and subgroup traffic rides the reserved `sm_comsim::SUBGROUP_BIT` tag
//! namespace ("Invariant 1"). Precision and the solve backend are
//! numeric-phase-only: jobs at any precision share one cached plan, and
//! `f32` wires move half the value bytes ("Invariant 2").

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
