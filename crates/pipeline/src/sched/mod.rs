//! Distributed job scheduler: per-job subcommunicators with epoch-based
//! work stealing between groups, and epoch-level fault recovery — one
//! planner, one rank executor.
//!
//! [`JobQueue`](crate::jobs::JobQueue) runs every job of a batch on a
//! single process; the world's other ranks idle. [`Scheduler`] instead
//! carves a world of `N` ranks into per-job **groups** — subcommunicators
//! formed with [`sm_comsim::split_known`] — and runs each job's
//! plan/execute collectively on its group, so independent matrix
//! evaluations proceed concurrently *and* each one can itself be
//! rank-parallel:
//!
//! 1. **Admit and estimate** ([`estimate_batch_job_cost`]): one check,
//!    shared with the streaming service and the serial queue, refuses a
//!    job that would fail inside its group and returns every other job's
//!    submatrix work, estimated from its sparsity pattern and weighted by
//!    `sm_accel::perfmodel`'s utilization curve.
//! 2. **Partition** ([`partition`]): jobs are packed longest-first onto
//!    `min(world, jobs)` groups (classic LPT) and the ranks dealt to
//!    groups proportionally to estimated load, within the [`RankBudget`].
//! 3. **Epoch plan** ([`plan_epochs_with_faults`]; [`plan_epochs`] is its
//!    call under the empty [`sm_comsim::FaultPlan`]): the batch is cut
//!    into **epochs** — waves of jobs. Each epoch commits the ranks the
//!    plan fails at its boundary, re-partitions the still-pending jobs
//!    over the **survivors**, and every group commits its queue up to the
//!    [`steal_horizon`], deferring the rest. So ranks whose group's queue
//!    has drained are re-dealt onto the straggler groups' remaining jobs:
//!    a job that thereby runs on ranks outside its original (static)
//!    group counts as **stolen** ([`StealStats`]). A batch the static
//!    partition already balances collapses to a single epoch identical to
//!    the static schedule ([`StealPolicy::Disabled`] forces that shape
//!    when nothing fails). Poisoned attempts retry after a deterministic
//!    backoff in epochs or quarantine the job ([`FaultStats`]).
//! 4. **Execute**: each epoch, each group's ranks form their
//!    subcommunicator from the schedule's member list — no world
//!    collective, so a fault-free batch pays nothing per epoch and dead
//!    ranks are never waited on — scatter the replicated input across the
//!    group (one rank: borrow it) and run the shared engine's plan +
//!    execute; each rank keeps its result blocks where the engine filled
//!    them. Poisoned attempts are skipped by the whole group from the
//!    pure schedule alone.
//! 5. **Return**: results leave a rank through its return value, never
//!    a message. Each rank returns one share per attempt it executed —
//!    its blocks, its report, its seconds and the subgroup traffic it
//!    sent — a dying rank the shares it finished, and the caller merges
//!    each job's shares into its `JobResult`, returning the batch in
//!    submission order (quarantined jobs as empty placeholders).
//!
//! The engine is shared across groups, so its plan cache is the contended
//! resource: recurring patterns hit the entry built by *any* group (one
//! per pattern; a new `(rank, size)` derives its view locally). The
//! cache's collective **consensus** is per-group **per-epoch**: an
//! allreduce on the group's current subcommunicator at every planning
//! call decides whether any rank lacks the pattern, so neither another
//! group's insert nor regrouping between epochs can leave two ranks of
//! one group disagreeing about entering the collective pattern gather.
//!
//! ## Determinism
//!
//! Everything pattern- and schedule-shaping is deterministic — the epoch
//! plan is a pure function of the estimated costs, the world size, the
//! budget, the policy and the fault plan, never of measured wall time —
//! and the numeric path performs the same per-submatrix solves with the
//! same inputs regardless of the group size, so jobs of either ensemble
//! produce **bitwise-identical** results to the serial
//! [`JobQueue`](crate::jobs::JobQueue) for any world size, any steal
//! schedule *and any admitted fault plan* (every non-quarantined job;
//! pinned by the `scheduler_equivalence`, `stealing_equivalence` and
//! `fault_equivalence` suites).
//!
//! ## Faults
//!
//! A batch always runs under a `FaultPlan`; [`Scheduler::new`] installs
//! the empty one, which installs nothing on the communicator
//! (`comm.fault_plan()` is `None`). Exactly when the communicator carries
//! a plan, every epoch opens with a **fault consensus** — survivors
//! heartbeat world rank 0 (which never fails), rank 0 commits the failed
//! set from deadline receives (a dead peer surfaces as a typed
//! [`sm_comsim::CommError`], never a hang) and fans the committed view
//! out, which every survivor checks against the precomputed schedule.
//! Without a plan
//! nothing can die, so there is no consensus and receives block: a
//! paper-scale job may run for minutes.
//!
//! ## Tags
//!
//! Subgroup traffic rides the parent tag namespace reserved by
//! `sm_comsim::SUBGROUP_BIT`; each epoch's groups form with a color that
//! mixes the epoch index, so successive epochs salt their tag namespaces
//! differently. The only parent-level user traffic is the fault
//! consensus (`1 << 41`), under a fault plan. The
//! `sm_dbcsr::wire::user_tag` guard applies unchanged inside subgroups.

mod exec;
mod plan;

pub use exec::{Scheduler, SchedulerOutcome};
pub(crate) use plan::admit;
pub use plan::{
    estimate_batch_job_cost, estimate_pattern_cost, partition, plan_epochs,
    plan_epochs_with_faults, steal_horizon, Attempt, Epoch, EpochGroup, EpochSchedule, FaultStats,
    GroupPlan, RankBudget, SchedError, SchedulePlan, StealPolicy, StealStats, DEFAULT_RETRY_BUDGET,
};
