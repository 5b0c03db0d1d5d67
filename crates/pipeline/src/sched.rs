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
//! 1. **Estimate**: every job's submatrix work is estimated from its
//!    sparsity pattern, weighted by `sm_accel::perfmodel`'s utilization
//!    curve (small solves run further from peak, so their FLOPs count for
//!    more wall time).
//! 2. **Partition** ([`partition`]): jobs are packed longest-first onto
//!    `G = min(world, jobs)` groups (classic LPT), then the world's ranks
//!    are dealt to groups proportionally to estimated load (every group
//!    gets at least one rank; [`RankBudget`] can cap group size or count —
//!    leftover ranks that no cap-respecting group may take are folded into
//!    the largest group rather than idling).
//! 3. **Epoch plan** ([`plan_epochs_with_faults`]; [`plan_epochs`] is its
//!    call under the empty [`FaultPlan`]): the batch is cut into
//!    **epochs** — waves of jobs. Each epoch commits the ranks the plan
//!    fails at its boundary, re-partitions the still-pending jobs over
//!    the **survivors**, and every group commits a greedy fill of its LPT
//!    queue up to the *steal horizon* (the longest single-job commitment
//!    any group must make, by the same perfmodel estimates); jobs beyond
//!    the horizon are deferred. So ranks whose group's queue has drained
//!    are re-dealt onto the straggler groups' remaining jobs: a job that
//!    thereby runs on ranks outside its original (static) group counts as
//!    **stolen**; [`StealStats`] reports epochs, steals, and the idle-rank
//!    time the re-deal recovers. A batch the static partition already
//!    balances collapses to a single epoch identical to the static
//!    schedule ([`StealPolicy::Disabled`] lifts the horizon, which forces
//!    that shape when nothing fails). Every committed attempt is resolved
//!    against the plan at planning time: a poisoned attempt re-enters the
//!    queue after a deterministic backoff in epochs, or the job is
//!    quarantined once [`Scheduler::with_retry_budget`] attempts are
//!    spent ([`FaultStats`]).
//! 4. **Execute**: each epoch, each group's ranks form their
//!    subcommunicator from the schedule's member list — no world
//!    collective, so a fault-free batch pays nothing per epoch and dead
//!    ranks are never waited on (fresh per-group [`CommStats`], so traffic
//!    is attributed per epoch) — scatter the replicated input across the
//!    group, run the shared [`SubmatrixEngine`]'s plan + execute on it,
//!    and gather the result to the group root. Poisoned attempts are
//!    skipped by the whole group from the pure schedule alone.
//! 5. **Gather**: group roots ship each finished job — result blocks in
//!    the `sm_dbcsr::wire` format plus an encoded telemetry record — to
//!    world rank 0, which returns the batch in submission order
//!    (quarantined jobs as empty placeholders).
//!
//! The engine is shared across groups, so its plan cache is the contended
//! resource: recurring patterns hit plans built by *other* groups (same
//! `(fingerprint, rank, size)` key), and a bounded cache
//! (`EngineOptions::plan_cache_capacity`) evicts cold plans under
//! multi-tenant traffic. The cache's collective hit/miss **consensus** is
//! per-group **per-epoch**: it is decided by an allreduce on the group's
//! current subcommunicator at every planning call, so regrouping between
//! epochs (which changes every `(rank, size)` key) can never leave two
//! ranks of one group disagreeing about entering the collective pattern
//! gather.
//!
//! ## Determinism
//!
//! Everything pattern- and schedule-shaping is deterministic — the epoch
//! plan is a pure function of the estimated costs, the world size, the
//! budget, the policy and the fault plan, never of measured wall time —
//! and the numeric path performs the same per-submatrix solves with the
//! same inputs regardless of the group size, so grand-canonical jobs
//! produce **bitwise-identical** results to the serial
//! [`JobQueue`](crate::jobs::JobQueue) for any world size, any steal
//! schedule *and any admitted fault plan* (every non-quarantined job;
//! pinned by the `scheduler_equivalence`, `stealing_equivalence` and
//! `fault_equivalence` suites). Canonical-ensemble jobs bisect µ through a
//! cross-rank reduction whose summation order depends on the group size,
//! so they match to floating-point reduction accuracy instead.
//!
//! ## Faults
//!
//! A batch always runs under a [`FaultPlan`]; [`Scheduler::new`] installs
//! the empty one, which installs nothing on the communicator
//! (`comm.fault_plan()` is `None`). Exactly when the communicator carries
//! a plan, every epoch opens with a **fault consensus** — survivors
//! heartbeat world rank 0 (which never fails), rank 0 commits the failed
//! set from deadline receives (a dead peer surfaces as a typed
//! [`sm_comsim::CommError`], never a hang) and fans the committed view
//! out, which every survivor checks against the precomputed schedule —
//! and rank 0's receives are bounded by a deadline. Without a plan
//! nothing can die, so there is no consensus and receives block: a
//! paper-scale job may run for minutes.
//!
//! ## Tags
//!
//! Subgroup traffic rides the parent tag namespace reserved by
//! `sm_comsim::SUBGROUP_BIT`; each epoch's groups form with a color that
//! mixes the epoch index, so successive epochs salt their tag namespaces
//! differently. Parent-level user traffic is the root gather, on tags
//! derived from the job index (see the private `result_tag`), the
//! end-of-batch idle reports (`1 << 42`) and — under a fault plan — the
//! consensus (`1 << 41`). The `sm_dbcsr::wire::user_tag` guard applies
//! unchanged inside subgroups.

use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_accel::perfmodel;
use sm_chem::ScfDriver;
use sm_comsim::{
    run_ranks_with_faults, split_known, Comm, CommError, CommStats, FaultPlan, Payload, ReduceOp,
    SerialComm, SubComm, ThreadComm,
};
use sm_core::engine::{EngineOptions, EngineReport, NumericOptions, SubmatrixEngine};
use sm_core::solver::{SignMethod, SolveBackend};
use sm_core::transfers::TransferStats;
use sm_dbcsr::wire::{tele, TelemetryRecord, ValueFormat};
use sm_dbcsr::{wire, DbcsrMatrix};
use sm_linalg::Precision;
use sm_trace::SpanKind;

use crate::jobs::{BatchJob, JobResult, MatrixJob, ScfTelemetry};

/// Subgroup user tags of the per-job result gather to the group root.
/// Safe to reuse across a group's sequential jobs: every send is matched
/// by a blocking recv before the next job starts, and `(src, tag)` order
/// is preserved.
const GATHER_META_TAG: u64 = 11;
const GATHER_DATA_TAG: u64 = 12;

/// Parent-level tag namespace of the per-epoch fault consensus
/// (heartbeats to rank 0 and the committed-view fan-out), well clear of
/// the result gather's `1 << 40` namespace.
const CONSENSUS_NS: u64 = 1 << 41;
/// Distinguishes the committed-view fan-out from the heartbeats within
/// [`CONSENSUS_NS`] (epoch indices stay far below this bit).
const CONSENSUS_VIEW_BIT: u64 = 1 << 20;
/// Parent-level tag namespace of the end-of-batch survivor idle reports.
const IDLE_NS: u64 = 1 << 42;
/// Deadline for rank 0's and the consensus's receives under a fault plan.
/// Failure detection does not rely on it — a dying rank poisons its
/// channels, so the matching receive fails in milliseconds — it is only
/// the backstop that bounds how long a pathological straggler can stall
/// the batch.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// Default per-job attempt budget under fault injection (first attempt +
/// two retries), overridable via [`Scheduler::with_retry_budget`].
pub const DEFAULT_RETRY_BUDGET: usize = 3;

/// Rank-budget policy: how many groups to form and how large each may
/// grow. The default is uncapped — `min(world, jobs)` groups, ranks dealt
/// proportionally to estimated load.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankBudget {
    /// Upper bound on ranks per group (`None` = no cap). With
    /// `world = jobs × k` and a cap of `k`, every group gets exactly `k`
    /// ranks — the knob the equivalence suite uses to pin group sizes.
    /// The cap is *soft* in one case: when every group is capped and
    /// spare ranks remain, the leftovers fold into the largest group
    /// instead of idling for the whole batch.
    pub max_group_size: Option<usize>,
    /// Upper bound on the number of concurrent groups (`None` = no cap).
    pub max_groups: Option<usize>,
}

/// Whether the scheduler may rebalance between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StealPolicy {
    /// Epoch-based work stealing (the default): each epoch commits only up
    /// to the steal horizon and re-deals the world over the deferred jobs,
    /// so drained ranks land on straggler groups' queues.
    #[default]
    EpochRebalance,
    /// No horizon: every epoch commits all its eligible jobs, so a batch
    /// in which nothing fails is one epoch of static groups — the
    /// pre-stealing behavior, kept as the ablation baseline — and only
    /// rank deaths and retry backoff open further epochs.
    Disabled,
}

/// One group of the schedule: which jobs it runs (longest first) on which
/// contiguous world ranks.
#[derive(Debug, Clone)]
pub struct GroupPlan {
    /// Job indices in execution order (descending estimated cost,
    /// submission order breaking ties).
    pub jobs: Vec<usize>,
    /// World ranks forming this group's subcommunicator; `ranks.start` is
    /// the group root.
    pub ranks: Range<usize>,
    /// Total estimated cost of the group's jobs.
    pub est_cost: f64,
}

/// Deterministic work partition produced by [`partition`].
#[derive(Debug, Clone)]
pub struct SchedulePlan {
    /// World size the plan was built for.
    pub world_size: usize,
    /// The groups, in world-rank order.
    pub groups: Vec<GroupPlan>,
    /// Per-job estimated costs (submission order).
    pub job_costs: Vec<f64>,
}

/// Estimate the submatrix work of **one engine evaluation** of a sparsity
/// pattern under `numeric`: for each block column, the induced submatrix
/// dimension `n` costs `2n³` FLOPs (one dense solve), inflated by the
/// perfmodel utilization curve — small matrices run far from peak, so
/// their FLOPs buy more wall time. When the job's
/// [`BackendPolicy`](sm_core::engine::BackendPolicy) resolves to the
/// sparse-CSR solve for this pattern's element fill (and the configured
/// sign method honors the backend at all), the dense estimate is scaled
/// by [`perfmodel::sparse_solve_cost_factor`]. Pattern-only and cheap; no
/// plan is built.
///
/// The fill is computed from the same replicated pattern walk the
/// engine's symbolic phase performs, and the resolution goes through the
/// same shared [`resolve`](sm_core::engine::BackendPolicy::resolve) rule
/// — scheduler and engine can never disagree about which backend a job
/// runs, so the schedule stays a pure function of the estimates.
pub fn estimate_pattern_cost_for(matrix: &DbcsrMatrix, numeric: &NumericOptions) -> f64 {
    let comm = SerialComm::new();
    let pattern = matrix.global_pattern(&comm);
    let dims = matrix.dims();
    let mut cost = 0.0;
    let mut nnz_elems = 0.0;
    for bc in 0..dims.nb() {
        let n: usize = pattern.rows_in_col(bc).map(|br| dims.size(br)).sum();
        if n > 0 {
            let flops = 2.0 * (n as f64).powi(3);
            cost += flops / perfmodel::matmul_utilization(1.0, n);
        }
        nnz_elems += pattern
            .rows_in_col(bc)
            .map(|br| (dims.size(br) * dims.size(bc)) as f64)
            .sum::<f64>();
    }
    let n_elems = (dims.n() * dims.n()) as f64;
    let fill = if n_elems > 0.0 {
        nnz_elems / n_elems
    } else {
        0.0
    };
    let backend_honored = matches!(
        numeric.solve.method,
        SignMethod::NewtonSchulz | SignMethod::Pade(_)
    );
    if backend_honored && numeric.backend.resolve(fill) == SolveBackend::SparseCsr {
        cost *= perfmodel::sparse_solve_cost_factor(fill);
    }
    cost
}

/// Estimate a [`BatchJob`]'s total work: the **per-iteration** pattern
/// cost times the job's iteration budget. A one-shot matrix job is one
/// iteration; an SCF job re-evaluates the same pattern every iteration
/// (on the same cached plan), so its commitment scales linearly with the
/// expected iteration count — this is the cost-model generalization that
/// lets iterative jobs ride the same LPT/steal machinery as one-shot
/// evaluations.
pub fn estimate_batch_job_cost(job: &BatchJob) -> f64 {
    estimate_pattern_cost_for(job.input(), job_numeric(job)) * job.iteration_budget() as f64
}

/// The numeric options a job will execute under (matrix jobs carry them
/// directly; SCF jobs nest them inside their [`ScfOptions`]).
fn job_numeric(job: &BatchJob) -> &NumericOptions {
    match job {
        BatchJob::Matrix(j) => &j.numeric,
        BatchJob::Scf(j) => &j.scf.numeric,
    }
}

/// Admission gate on the perfmodel estimates: every cost must be finite,
/// or the schedule (a pure function of the estimates) is undefined. The
/// first offender is reported as [`SchedError::BadEstimate`].
fn check_estimates(jobs: &[BatchJob], costs: &[f64]) -> Result<(), SchedError> {
    for (job, &cost) in jobs.iter().zip(costs) {
        if !cost.is_finite() {
            return Err(SchedError::BadEstimate {
                name: job.name().to_string(),
                cost,
            });
        }
    }
    Ok(())
}

/// Deterministically partition `costs.len()` jobs over `world_size` ranks:
/// longest-job-first packing onto `min(world, jobs)` groups (respecting
/// `budget.max_groups`), then proportional rank allocation (respecting
/// `budget.max_group_size`; every group gets at least one rank; ranks no
/// group may take under the cap are folded into the largest group so no
/// rank sits idle for the whole batch).
pub fn partition(costs: &[f64], world_size: usize, budget: &RankBudget) -> SchedulePlan {
    assert!(world_size >= 1, "need at least one rank");
    let n = costs.len();
    if n == 0 {
        return SchedulePlan {
            world_size,
            groups: Vec::new(),
            job_costs: Vec::new(),
        };
    }
    let mut n_groups = world_size.min(n);
    if let Some(mg) = budget.max_groups {
        n_groups = n_groups.min(mg.max(1));
    }

    // Longest job first, submission order breaking ties. `total_cmp`
    // keeps the sort total even on non-finite estimates (the scheduler
    // rejects those at admission, but `partition` is a public entry point
    // and a NaN must not panic mid-schedule).
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));

    // LPT packing onto the least-loaded group.
    let mut group_jobs: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
    let mut loads = vec![0.0f64; n_groups];
    for &j in &order {
        let g = (0..n_groups)
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("n_groups >= 1");
        group_jobs[g].push(j);
        loads[g] += costs[j];
    }

    // Proportional rank allocation: start at one rank each, then hand the
    // remaining ranks one at a time to the group with the highest load per
    // rank (lowest index breaking ties), respecting the size cap.
    let cap = budget.max_group_size.unwrap_or(usize::MAX).max(1);
    let mut sizes = vec![1usize; n_groups];
    let mut spare = world_size.saturating_sub(n_groups);
    while spare > 0 {
        let candidate = (0..n_groups).filter(|&g| sizes[g] < cap).max_by(|&a, &b| {
            (loads[a] / sizes[a] as f64)
                .total_cmp(&(loads[b] / sizes[b] as f64))
                .then(b.cmp(&a)) // prefer the lower group index
        });
        match candidate {
            Some(g) => {
                sizes[g] += 1;
                spare -= 1;
            }
            None => {
                // Every group is capped. Fold the leftovers into the
                // largest group (lowest index breaking ties) instead of
                // leaving them idle for the whole batch.
                let g = (0..n_groups)
                    .max_by(|&a, &b| sizes[a].cmp(&sizes[b]).then(b.cmp(&a)))
                    .expect("n_groups >= 1");
                sizes[g] += spare;
                spare = 0;
            }
        }
    }

    let mut groups = Vec::with_capacity(n_groups);
    let mut start = 0usize;
    for g in 0..n_groups {
        groups.push(GroupPlan {
            jobs: std::mem::take(&mut group_jobs[g]),
            ranks: start..start + sizes[g],
            est_cost: loads[g],
        });
        start += sizes[g];
    }
    SchedulePlan {
        world_size,
        groups,
        job_costs: costs.to_vec(),
    }
}

/// The **steal horizon** of one epoch's partition: the longest single-job
/// wall-clock commitment any group's *leading* job imposes, in estimated
/// cost units —
///
/// ```text
/// horizon = max over non-empty groups g of  cost(g.jobs[0]) / |g.ranks|
/// ```
///
/// A job cannot be split across epochs, so no re-deal can finish the
/// epoch faster than the largest leading job runs on its own group; any
/// queue a group holds *beyond* that horizon is pure straggler tail that
/// later epochs can re-deal over drained ranks. Groups that LPT left
/// empty (possible when zero-cost jobs all pile onto the first zero-load
/// group) impose no commitment and are skipped. The
/// `steal_horizon_is_max_leading_cost_per_ranks` regression test pins
/// this formula directly against [`plan_epochs`]'s commit/defer behavior.
pub fn steal_horizon(plan: &SchedulePlan) -> f64 {
    plan.groups
        .iter()
        .filter(|g| !g.jobs.is_empty())
        .map(|g| plan.job_costs[g.jobs[0]] / g.ranks.len() as f64)
        .fold(0.0f64, f64::max)
}

/// Work-stealing telemetry of one scheduled batch: how many epochs the
/// planner cut, how much rank capacity moved between groups, and how much
/// idle-rank time the re-deal recovers. The `est_*` figures are in the
/// perfmodel's deterministic cost units (a pure function of the batch, so
/// tests can assert them exactly); the `measured_*` figures are wall-clock
/// seconds observed on this run (reported, never asserted — thread ranks
/// share cores).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StealStats {
    /// Number of epochs (1 = the static schedule; no re-split happened).
    pub epochs: usize,
    /// Jobs that executed on at least one rank outside their static
    /// (epoch-0) group.
    pub stolen_jobs: usize,
    /// Total foreign ranks across all stolen jobs.
    pub stolen_ranks: usize,
    /// Σ over ranks of estimated idle time under the static schedule.
    pub est_idle_cost_static: f64,
    /// Σ over ranks of estimated idle time under the epoch schedule.
    pub est_idle_cost_epochs: f64,
    /// Estimated idle time of the *most idle* rank, static schedule.
    pub est_max_rank_idle_static: f64,
    /// Estimated idle time of the *most idle* rank, epoch schedule.
    pub est_max_rank_idle_epochs: f64,
    /// Measured Σ over ranks of (batch wall − rank busy) seconds.
    pub measured_idle_seconds: f64,
    /// Measured idle seconds of the most idle rank.
    pub measured_max_rank_idle_seconds: f64,
}

impl StealStats {
    /// Estimated idle-rank time the epoch re-deal recovers over the static
    /// schedule (cost units; ≥ 0 exactly when the re-deal shortens the
    /// estimated makespan).
    pub fn est_idle_cost_recovered(&self) -> f64 {
        self.est_idle_cost_static - self.est_idle_cost_epochs
    }
}

/// One committed execution attempt in an [`EpochGroup`]'s queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attempt {
    /// Job index (submission order).
    pub job: usize,
    /// 1-based attempt number this commitment represents.
    pub attempt: usize,
    /// True when the fault plan poisons this attempt: the whole group
    /// skips it (fail-stop detection at the attempt boundary) and the job
    /// either retries after backoff or is quarantined.
    pub poisoned: bool,
}

/// One group of an [`Epoch`]: a queue of committed attempts on an explicit
/// world-rank list.
#[derive(Debug, Clone)]
pub struct EpochGroup {
    /// Committed attempts in execution order (descending estimated cost,
    /// submission order breaking ties).
    pub jobs: Vec<Attempt>,
    /// World ranks forming this group's subcommunicator, ascending;
    /// `ranks[0]` is the group root. Contiguous while the whole world is
    /// alive; survivor sets have holes where ranks died.
    pub ranks: Vec<usize>,
    /// Total estimated cost of the committed attempts.
    pub est_cost: f64,
}

/// One epoch of the schedule: the failures committed at its boundary, the
/// surviving world, and the groups formed over it, each committing a wave
/// of jobs.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Ranks whose failure this epoch's consensus commits (they died at
    /// the epoch boundary, before taking part in the consensus).
    pub newly_failed: Vec<usize>,
    /// Ranks alive through this epoch, ascending (always contains 0).
    pub survivors: Vec<usize>,
    /// The [`steal_horizon`] the epoch's groups filled their queues to
    /// (0 for a backoff-wait epoch).
    pub horizon: f64,
    /// The epoch's groups, in world-rank order; their ranks cover the
    /// survivors (empty during pure backoff-wait epochs).
    pub groups: Vec<EpochGroup>,
}

impl Epoch {
    /// The group index a world rank belongs to in this epoch.
    pub fn group_of_rank(&self, rank: usize) -> Option<usize> {
        self.groups.iter().position(|g| g.ranks.contains(&rank))
    }

    /// The group index **executing** a job in this epoch (`None` if the
    /// job runs in another epoch, or only a poisoned attempt of it is
    /// queued here).
    pub fn group_of_job(&self, job: usize) -> Option<usize> {
        self.groups
            .iter()
            .position(|g| g.jobs.iter().any(|a| a.job == job && !a.poisoned))
    }
}

/// The deterministic schedule of one batch, produced by
/// [`plan_epochs_with_faults`]: the static partition plus the epoch waves
/// actually executed, with per-job steal attribution, the planned
/// [`StealStats`], and the fault bookkeeping (attempts, quarantines,
/// [`FaultStats`]). A pure function of the estimates, the world size, the
/// budget, the policy and the fault plan — never of measured time — so
/// every rank derives the identical schedule without coordination, reruns
/// of the same seed reproduce every counter exactly, and the equivalence
/// suites can assert on it.
#[derive(Debug, Clone)]
pub struct EpochSchedule {
    /// World size the schedule was built for.
    pub world_size: usize,
    /// Per-job attempt budget the schedule was built under.
    pub retry_budget: usize,
    /// The static (single-epoch, fault-free) partition — the baseline the
    /// steal telemetry is measured against; it also holds the per-job
    /// estimated costs.
    pub static_plan: SchedulePlan,
    /// The epochs, in execution order.
    pub epochs: Vec<Epoch>,
    /// Each job's static group index (its "home" group).
    pub home_group: Vec<usize>,
    /// The epoch of each job's final attempt (the executing one, or the
    /// quarantining one).
    pub job_epoch: Vec<usize>,
    /// Per job: ranks of its executing group that are outside its home
    /// group's static allocation (0 = no stealing, or quarantined).
    pub job_stolen_ranks: Vec<usize>,
    /// Attempts each job consumed.
    pub job_attempts: Vec<usize>,
    /// Whether each job was quarantined.
    pub quarantined: Vec<bool>,
    /// Planned steal telemetry (`measured_*` fields are zero until the
    /// scheduler fills them from an actual run).
    pub planned: StealStats,
    /// Planner-side fault telemetry (injection counters zero; the
    /// scheduler fills them from the run).
    pub fault_stats: FaultStats,
}

impl EpochSchedule {
    fn executing_group(&self, job: usize) -> &EpochGroup {
        let ep = &self.epochs[self.job_epoch[job]];
        let g = ep
            .group_of_job(job)
            .unwrap_or_else(|| panic!("job {job} was quarantined and has no executing group"));
        &ep.groups[g]
    }

    /// The world rank acting as a job's group root on its executing
    /// attempt. Panics for quarantined jobs (they have none).
    pub fn root_of_job(&self, job: usize) -> usize {
        self.executing_group(job).ranks[0]
    }

    /// The ranks executing a job. Panics for quarantined jobs.
    pub fn ranks_of_job(&self, job: usize) -> &[usize] {
        &self.executing_group(job).ranks
    }
}

/// [`plan_epochs_with_faults`] under the empty [`FaultPlan`]: the schedule
/// of a batch in which nothing fails.
pub fn plan_epochs(
    costs: &[f64],
    world_size: usize,
    budget: &RankBudget,
    policy: StealPolicy,
) -> EpochSchedule {
    plan_epochs_with_faults(
        costs,
        world_size,
        budget,
        policy,
        &FaultPlan::new(),
        DEFAULT_RETRY_BUDGET,
    )
}

/// Cut a batch into epochs (see the module docs, phase 3). Pure and
/// deterministic: a function of the estimated costs, the world size, the
/// budget, the policy, the fault plan and the retry budget only.
///
/// Per epoch `e`: commit every rank the plan fails at an epoch `<= e` that
/// is not yet committed; re-[`partition`] the eligible pending jobs
/// (deterministic backoff can push a retry past `e`) over the survivors
/// (LPT within the epoch); each group then commits a greedy fill of its
/// queue up to the epoch's [`steal_horizon`] — the largest single-job wall
/// estimate `cost / ranks` any group's leading job imposes (that job
/// cannot be split, so no re-deal can beat its commitment) — or its whole
/// queue under [`StealPolicy::Disabled`]; then resolve each committed
/// attempt against the plan — a poisoned attempt re-enters the pending
/// queue with its next eligible epoch at `e + 2^(attempt-1)` (bounded
/// exponential backoff in epochs), or is quarantined once `retry_budget`
/// attempts are spent. Deferred jobs form the next epoch's input; epochs
/// whose eligible set is empty (all pending jobs backing off) form
/// survivor-idle wait epochs. Terminates because every non-wait epoch
/// resolves at least one attempt per group and attempts are bounded by
/// `jobs × retry_budget`.
pub fn plan_epochs_with_faults(
    costs: &[f64],
    world_size: usize,
    budget: &RankBudget,
    policy: StealPolicy,
    plan: &FaultPlan,
    retry_budget: usize,
) -> EpochSchedule {
    assert!(retry_budget >= 1, "retry budget must allow one attempt");
    assert!(
        plan.fails_at(0).is_none(),
        "rank 0 is the coordinator and must not fail"
    );
    let static_plan = partition(costs, world_size, budget);
    let n = costs.len();
    let mut home_group = vec![0usize; n];
    for (g, grp) in static_plan.groups.iter().enumerate() {
        for &j in &grp.jobs {
            home_group[j] = g;
        }
    }

    let mut alive: Vec<usize> = (0..world_size).collect();
    // (job, attempts so far, first epoch the job may run in) — kept in
    // ascending job order so re-partitions see a deterministic input.
    let mut pending: Vec<(usize, usize, usize)> = (0..n).map(|j| (j, 0, 0)).collect();
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut job_epoch = vec![0usize; n];
    let mut job_stolen_ranks = vec![0usize; n];
    let mut job_attempts = vec![0usize; n];
    let mut quarantined = vec![false; n];
    let (mut poisoned_attempts, mut retries) = (0usize, 0usize);
    // Generous convergence bound: attempts are capped at n × retry_budget
    // and each backoff gap at 2^(retry_budget-1) wait epochs.
    let bound = 4 + world_size + n * retry_budget * (1 + (1usize << retry_budget.min(20)));
    while !pending.is_empty() {
        let e = epochs.len();
        assert!(e <= bound, "epoch planner failed to converge");
        let dies_by = |r: &usize| plan.fails_at(*r).is_some_and(|at| at <= e);
        let newly_failed: Vec<usize> = alive.iter().copied().filter(dies_by).collect();
        alive.retain(|r| !dies_by(r));
        let survivors = alive.clone();

        let eligible: Vec<(usize, usize)> = pending
            .iter()
            .filter(|&&(_, _, from)| from <= e)
            .map(|&(j, a, _)| (j, a))
            .collect();
        if eligible.is_empty() {
            // Every pending job is backing off: survivors idle one epoch.
            epochs.push(Epoch {
                newly_failed,
                survivors,
                horizon: 0.0,
                groups: Vec::new(),
            });
            continue;
        }

        // Re-partition the eligible jobs over the survivors only — the
        // graceful-degradation step: a failed group's jobs re-enter this
        // deal automatically because their epochs were never recorded.
        let ecosts: Vec<f64> = eligible.iter().map(|&(j, _)| costs[j]).collect();
        let p = partition(&ecosts, survivors.len(), budget);
        // A horizon that is zero (all-zero-cost batch) or non-finite
        // carries no ordering information — treat it as unbounded so the
        // epoch commits everything instead of deferring pathologically.
        let horizon = steal_horizon(&p);
        let unbounded = policy == StealPolicy::Disabled || !(horizon.is_finite() && horizon > 0.0);
        let mut groups = Vec::with_capacity(p.groups.len());
        let mut requeue: Vec<(usize, usize, usize)> = Vec::new();
        for grp in &p.groups {
            let ranks: Vec<usize> = grp.ranks.clone().map(|i| survivors[i]).collect();
            let ranks_f = ranks.len() as f64;
            let mut committed = Vec::with_capacity(grp.jobs.len());
            let mut cum = 0.0f64;
            for (pos, &k) in grp.jobs.iter().enumerate() {
                // Greedy fill to the horizon (LPT order, so later jobs are
                // smaller and may still fit); the leading job is always
                // committed, the rest defer to the next epoch.
                if pos > 0 && !unbounded && (cum + ecosts[k]) / ranks_f > horizon * (1.0 + 1e-9) {
                    continue;
                }
                cum += ecosts[k];
                let (j, prev) = eligible[k];
                let attempt = prev + 1;
                let poisoned = plan.is_poisoned(j, attempt);
                committed.push(Attempt {
                    job: j,
                    attempt,
                    poisoned,
                });
                job_attempts[j] = attempt;
                job_epoch[j] = e;
                if !poisoned {
                    let home = &static_plan.groups[home_group[j]].ranks;
                    job_stolen_ranks[j] = ranks.iter().filter(|r| !home.contains(r)).count();
                } else {
                    poisoned_attempts += 1;
                    if attempt >= retry_budget {
                        quarantined[j] = true;
                    } else {
                        retries += 1;
                        requeue.push((j, attempt, e + (1usize << (attempt - 1))));
                    }
                }
            }
            groups.push(EpochGroup {
                jobs: committed,
                ranks,
                est_cost: cum,
            });
        }
        // Whatever this epoch committed has consumed one more attempt.
        pending.retain(|&(j, attempts, _)| job_attempts[j] == attempts);
        pending.extend(requeue);
        pending.sort_unstable();
        epochs.push(Epoch {
            newly_failed,
            survivors,
            horizon,
            groups,
        });
    }

    let planned = steal_stats_for(&static_plan, &epochs, &job_stolen_ranks);
    let fault_stats = FaultStats {
        rank_failures: world_size - alive.len(),
        poisoned_attempts,
        retries,
        quarantined_jobs: quarantined.iter().filter(|&&q| q).count(),
        recovery_epochs: epochs.len(),
        final_world_size: alive.len(),
        ..FaultStats::default()
    };
    EpochSchedule {
        world_size,
        retry_budget,
        static_plan,
        epochs,
        home_group,
        job_epoch,
        job_stolen_ranks,
        job_attempts,
        quarantined,
        planned,
        fault_stats,
    }
}

/// Planned steal telemetry: per-rank estimated idle under the static plan
/// (every rank waits for the slowest group) versus under the epoch plan
/// (per epoch, every surviving rank waits for the slowest committed
/// group).
fn steal_stats_for(
    static_plan: &SchedulePlan,
    epochs: &[Epoch],
    job_stolen_ranks: &[usize],
) -> StealStats {
    let world_size = static_plan.world_size;
    let rank_idle = |wave: &Epoch| -> Vec<f64> {
        let wall = |g: &EpochGroup| g.est_cost / g.ranks.len() as f64;
        let makespan = wave.groups.iter().map(wall).fold(0.0f64, f64::max);
        let mut idle = vec![0.0f64; world_size];
        for &r in &wave.survivors {
            idle[r] = makespan;
        }
        for g in &wave.groups {
            for &r in &g.ranks {
                idle[r] = makespan - wall(g);
            }
        }
        idle
    };
    let static_groups = static_plan.groups.iter().map(|g| EpochGroup {
        jobs: Vec::new(),
        ranks: g.ranks.clone().collect(),
        est_cost: g.est_cost,
    });
    let static_idle = rank_idle(&Epoch {
        newly_failed: Vec::new(),
        survivors: (0..world_size).collect(),
        horizon: 0.0,
        groups: static_groups.collect(),
    });
    let mut epoch_idle = vec![0.0f64; world_size];
    for wave in epochs {
        for (r, idle) in rank_idle(wave).into_iter().enumerate() {
            epoch_idle[r] += idle;
        }
    }
    StealStats {
        epochs: epochs.len(),
        stolen_jobs: job_stolen_ranks.iter().filter(|&&s| s > 0).count(),
        stolen_ranks: job_stolen_ranks.iter().sum(),
        est_idle_cost_static: static_idle.iter().sum(),
        est_idle_cost_epochs: epoch_idle.iter().sum(),
        est_max_rank_idle_static: static_idle.iter().fold(0.0f64, |a, &b| a.max(b)),
        est_max_rank_idle_epochs: epoch_idle.iter().fold(0.0f64, |a, &b| a.max(b)),
        measured_idle_seconds: 0.0,
        measured_max_rank_idle_seconds: 0.0,
    }
}

/// Typed scheduler failure, returned by [`Scheduler::try_run_batch`]
/// instead of a panic. Programmer errors (protocol violations, consensus
/// divergence under a deterministic plan) still panic; `SchedError` is
/// reserved for conditions a robust caller is expected to handle.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// A submitted job failed admission validation.
    InvalidJob {
        /// The job's identifier.
        name: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A job's perfmodel estimate is NaN or infinite (e.g. a degenerate
    /// zero-dim pattern). Schedules are pure functions of the estimates
    /// (ARCHITECTURE.md invariant 3), so a non-finite cost cannot be
    /// ordered deterministically — the job is rejected at admission
    /// instead of panicking inside the hot partitioning path.
    BadEstimate {
        /// The job's identifier.
        name: String,
        /// The offending estimate.
        cost: f64,
    },
    /// A communication failure the recovery protocol could not absorb
    /// (e.g. the coordinator timed out collecting a result).
    Comm(CommError),
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::InvalidJob { name, reason } => {
                write!(f, "invalid job '{name}': {reason}")
            }
            SchedError::BadEstimate { name, cost } => write!(
                f,
                "job '{name}' has a non-finite cost estimate ({cost}); \
                 schedules are pure functions of the estimates, so it cannot be admitted"
            ),
            SchedError::Comm(e) => write!(f, "communication failure: {e}"),
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Comm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CommError> for SchedError {
    fn from(e: CommError) -> Self {
        SchedError::Comm(e)
    }
}

/// Fault-handling telemetry of one scheduled batch. All planner-derived
/// fields are **deterministic** — exact functions of (fault plan, job
/// set, world size, budget), reproducible across reruns of the same seed
/// — and the injection counters are deterministic for a fixed protocol.
/// Under the empty plan everything is zero except `recovery_epochs` and
/// `final_world_size`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Ranks that failed during the batch (committed by consensus).
    pub rank_failures: usize,
    /// Job attempts discarded as poisoned (corrupt-execution model).
    pub poisoned_attempts: usize,
    /// Poisoned attempts that re-entered the deferred queue (each later
    /// re-runs after a deterministic backoff in epochs).
    pub retries: usize,
    /// Jobs quarantined after exhausting their retry budget.
    pub quarantined_jobs: usize,
    /// Epochs the recovery schedule executed.
    pub recovery_epochs: usize,
    /// Surviving ranks after the last epoch.
    pub final_world_size: usize,
    /// Messages lost to the plan's drop rules.
    pub dropped_messages: u64,
    /// Messages stalled by the plan's delay rules.
    pub delayed_messages: u64,
    /// Sends stalled by the plan's slow-rank rules.
    pub slow_stalls: u64,
}

/// Outcome of one scheduled batch.
pub struct SchedulerOutcome {
    /// Per-job results in submission order (gathered on world rank 0).
    pub results: Vec<JobResult>,
    /// The schedule the batch ran under (its `static_plan` is the steal
    /// baseline; per-job epochs, attempts and quarantines are in it and
    /// in the results).
    pub schedule: EpochSchedule,
    /// Steal telemetry: planned figures plus measured idle seconds.
    pub steal_stats: StealStats,
    /// World-level transfer counters (includes all subgroup traffic).
    pub world_stats: Arc<CommStats>,
    /// Fault-handling telemetry: the schedule's planned figures plus the
    /// injection counters that fired during the run.
    pub fault_stats: FaultStats,
}

/// Distributed batch executor: a rank world carved into per-job
/// subcommunicator groups over one shared [`SubmatrixEngine`], rebalanced
/// between epochs. See the module docs for the five phases.
pub struct Scheduler {
    engine: Arc<SubmatrixEngine>,
    budget: RankBudget,
    policy: StealPolicy,
    trace_label: String,
    fault_plan: FaultPlan,
    retry_budget: usize,
}

impl Default for Scheduler {
    fn default() -> Self {
        // Group ranks supply the per-job concurrency; keep per-rank solves
        // sequential to avoid nested-pool oversubscription (the same
        // choice JobQueue::default makes for job-level parallelism).
        Scheduler::new(
            Arc::new(SubmatrixEngine::new(EngineOptions {
                parallel: false,
                ..EngineOptions::default()
            })),
            RankBudget::default(),
        )
    }
}

impl Scheduler {
    /// Build a scheduler over an existing engine (sharing its plan cache,
    /// e.g. with a serial [`JobQueue`](crate::jobs::JobQueue)). Epoch
    /// stealing is on by default (see [`Scheduler::with_policy`]) and the
    /// fault plan is empty (see [`Scheduler::with_fault_plan`]).
    pub fn new(engine: Arc<SubmatrixEngine>, budget: RankBudget) -> Self {
        Scheduler {
            engine,
            budget,
            policy: StealPolicy::default(),
            trace_label: "batch".to_string(),
            fault_plan: FaultPlan::new(),
            retry_budget: DEFAULT_RETRY_BUDGET,
        }
    }

    /// Set the steal policy (builder style).
    pub fn with_policy(mut self, policy: StealPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Install a deterministic fault plan (builder style): batches are
    /// then planned around its rank deaths and poisoned attempts and run
    /// with the per-epoch fault consensus (see the module docs). The plan
    /// must not fail rank 0 — it is the coordinator that commits the
    /// consensus and gathers results. The empty plan is the fault-free
    /// run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        assert!(
            plan.fails_at(0).is_none(),
            "rank 0 is the coordinator and must not fail"
        );
        self.fault_plan = plan;
        self
    }

    /// Set the per-job attempt budget used under fault injection
    /// (builder style; default [`DEFAULT_RETRY_BUDGET`]). A job whose
    /// every attempt up to the budget is poisoned is quarantined instead
    /// of retried forever.
    pub fn with_retry_budget(mut self, retry_budget: usize) -> Self {
        assert!(retry_budget >= 1, "retry budget must allow one attempt");
        self.retry_budget = retry_budget;
        self
    }

    /// Set the batch label used as the root `batch:<label>` span of every
    /// trace this scheduler records (builder style). Sessions asserting
    /// on span trees should pick a unique label and filter with
    /// `sm_trace::TraceSession::span_tree_under`, so unrelated concurrent
    /// batches cannot pollute the view. Purely observational: the label
    /// never influences scheduling.
    pub fn with_trace_label(mut self, label: &str) -> Self {
        self.trace_label = label.to_string();
        self
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<SubmatrixEngine> {
        &self.engine
    }

    /// Run a batch of one-shot matrix jobs over a `world_size`-rank world
    /// and gather the results (in submission order) on world rank 0.
    /// Convenience wrapper over [`Scheduler::run_batch`].
    pub fn run(&self, world_size: usize, jobs: Vec<MatrixJob>) -> SchedulerOutcome {
        self.run_batch(world_size, jobs.into_iter().map(BatchJob::Matrix).collect())
    }

    /// Run a mixed batch of [`BatchJob`]s — one-shot matrix evaluations
    /// and/or multi-iteration SCF jobs — over a `world_size`-rank world
    /// and gather the results (in submission order) on world rank 0.
    ///
    /// Every job kind rides the same machinery: perfmodel cost estimation
    /// (scaled by the job's iteration budget, see
    /// [`estimate_batch_job_cost`]), LPT group packing, epoch stealing,
    /// the shared plan cache with its per-group per-epoch hit/miss
    /// consensus, and the telemetry gather to world rank 0. SCF jobs
    /// additionally return per-iteration telemetry in
    /// [`JobResult::scf`].
    pub fn run_batch(&self, world_size: usize, jobs: Vec<BatchJob>) -> SchedulerOutcome {
        self.try_run_batch(world_size, jobs)
            .unwrap_or_else(|e| panic!("scheduled batch failed: {e}"))
    }

    /// Fallible [`Scheduler::run_batch`]: admission failures and
    /// unrecoverable communication errors surface as a typed
    /// [`SchedError`] instead of a panic.
    pub fn try_run_batch(
        &self,
        world_size: usize,
        jobs: Vec<BatchJob>,
    ) -> Result<SchedulerOutcome, SchedError> {
        for j in &jobs {
            // Validate on the caller thread: a bad job would otherwise
            // panic deep inside a rank thread (e.g. ScfDriver::run with a
            // zero iteration budget produces no density) and strand its
            // group's peers in their collectives.
            if j.input().grid().size() != 1 {
                return Err(SchedError::InvalidJob {
                    name: j.name().to_string(),
                    reason: "job matrices must be single-rank (replicated) handles".to_string(),
                });
            }
            if let BatchJob::Scf(spec) = j {
                if spec.scf.max_iter < 1 {
                    return Err(SchedError::InvalidJob {
                        name: spec.name.clone(),
                        reason: "max_iter == 0 (needs at least one iteration)".to_string(),
                    });
                }
            }
        }
        let costs: Vec<f64> = jobs.iter().map(estimate_batch_job_cost).collect();
        check_estimates(&jobs, &costs)?;
        let schedule = plan_epochs_with_faults(
            &costs,
            world_size,
            &self.budget,
            self.policy,
            &self.fault_plan,
            self.retry_budget,
        );
        {
            // Narrate the (already fixed) schedule on the caller thread,
            // under the batch root span: planning stays a pure function
            // of the estimates and the fault plan, the trace only
            // observes its output.
            let _batch = sm_trace::span(SpanKind::Batch, &self.trace_label);
            trace_schedule(&schedule);
        }
        let engine = &self.engine;
        let label = self.trace_label.as_str();
        let (jobs_ref, sched_ref) = (&jobs, &schedule);
        let (mut per_rank, world_stats, injected) =
            run_ranks_with_faults(world_size, self.fault_plan.clone(), |comm| {
                run_rank(engine, jobs_ref, sched_ref, label, comm)
            });
        let (results, (measured_idle, measured_max_idle)) = per_rank[0]
            .take()
            .expect("rank 0 never fails")?
            .expect("world rank 0 gathers every job result");
        debug_assert_eq!(
            injected.rank_failures as usize, schedule.fault_stats.rank_failures,
            "runtime rank failures diverged from the committed plan"
        );
        let steal_stats = StealStats {
            measured_idle_seconds: measured_idle,
            measured_max_rank_idle_seconds: measured_max_idle,
            ..schedule.planned
        };
        let fault_stats = FaultStats {
            dropped_messages: injected.dropped_messages,
            delayed_messages: injected.delayed_messages,
            slow_stalls: injected.slow_stalls,
            ..schedule.fault_stats
        };
        Ok(SchedulerOutcome {
            results,
            schedule,
            steal_stats,
            world_stats,
            fault_stats,
        })
    }
}

/// Parent-level tag of one result stream (`part` 0 = block meta, 1 = block
/// data, 2 = telemetry) of job `job`, in a namespace well clear of the
/// small constants the wire module uses elsewhere.
fn result_tag(job: usize, part: u64) -> u64 {
    wire::user_tag((1 << 40) | ((job as u64) * 4 + part))
}

/// Narrate a finished schedule into the active trace (no-op when tracing
/// is disabled): per epoch one `fault.injected` per committed rank
/// failure and one `sched.epoch` event (cost = the epoch's steal horizon,
/// with committed/deferred queue snapshots and the survivor count), one
/// `sched.queue` per group (cost = committed estimated cost), one
/// `sched.job` per committed queue entry **in execution order** (cost =
/// the job's static estimate; fields carry queue position, rank count,
/// steal attribution and the attempt — the dependency edges
/// `sm_trace::analyze`'s critical-path walker reconstructs), one
/// `sched.steal` per stolen job at its decision point, one `sched.retry`
/// per poisoned attempt that re-enters the queue (with its backoff target
/// epoch) and one `job.quarantined` per exhausted retry budget.
/// Everything emitted here is a pure function of the schedule, so traced
/// span trees stay deterministic across reruns of the same seed.
fn trace_schedule(s: &EpochSchedule) {
    if !sm_trace::enabled() {
        return;
    }
    let costs = &s.static_plan.job_costs;
    for (e, ep) in s.epochs.iter().enumerate() {
        let _epoch = sm_trace::span(SpanKind::Epoch, e);
        for &rank in &ep.newly_failed {
            sm_trace::emit(
                "fault.injected",
                0.0,
                0.0,
                &[("rank", rank as f64), ("epoch", e as f64)],
            );
        }
        let committed: usize = ep.groups.iter().map(|g| g.jobs.len()).sum();
        let deferred = s.job_epoch.iter().filter(|&&je| je > e).count();
        sm_trace::emit(
            "sched.epoch",
            ep.horizon,
            0.0,
            &[
                ("groups", ep.groups.len() as f64),
                ("committed", committed as f64),
                ("deferred", deferred as f64),
                ("survivors", ep.survivors.len() as f64),
                ("failed", ep.newly_failed.len() as f64),
            ],
        );
        for (g, grp) in ep.groups.iter().enumerate() {
            let _group = sm_trace::span(SpanKind::Group, g);
            sm_trace::emit(
                "sched.queue",
                grp.est_cost,
                0.0,
                &[
                    ("jobs", grp.jobs.len() as f64),
                    ("ranks", grp.ranks.len() as f64),
                    ("rank_start", grp.ranks[0] as f64),
                ],
            );
            for (pos, att) in grp.jobs.iter().enumerate() {
                let j = att.job;
                // A poisoned attempt never executes, so it steals nothing.
                let stolen = if att.poisoned {
                    0
                } else {
                    s.job_stolen_ranks[j]
                };
                sm_trace::emit(
                    "sched.job",
                    costs[j],
                    0.0,
                    &[
                        ("job", j as f64),
                        ("pos", pos as f64),
                        ("ranks", grp.ranks.len() as f64),
                        ("stolen_ranks", stolen as f64),
                        ("attempt", att.attempt as f64),
                        ("poisoned", att.poisoned as u64 as f64),
                    ],
                );
                if stolen > 0 {
                    sm_trace::emit(
                        "sched.steal",
                        costs[j],
                        0.0,
                        &[
                            ("job", j as f64),
                            ("home_group", s.home_group[j] as f64),
                            ("stolen_ranks", stolen as f64),
                        ],
                    );
                }
                if att.poisoned && att.attempt >= s.retry_budget {
                    sm_trace::emit(
                        "job.quarantined",
                        costs[j],
                        0.0,
                        &[("job", j as f64), ("attempts", att.attempt as f64)],
                    );
                } else if att.poisoned {
                    sm_trace::emit(
                        "sched.retry",
                        costs[j],
                        0.0,
                        &[
                            ("job", j as f64),
                            ("attempt", att.attempt as f64),
                            ("next_epoch", (e + (1usize << (att.attempt - 1))) as f64),
                        ],
                    );
                }
            }
        }
    }
}

/// One epoch's **fault consensus** — the plan-cache-consensus trick lifted
/// to the world level: every survivor commits an identical failed-set
/// view before any group forms. Rank 0 collects heartbeats from the
/// previous epoch's survivors (`alive`) with deadline receives — a dead
/// peer surfaces as a typed error, never a hang — and fans the committed
/// view out to the survivors of *this* epoch; every survivor asserts it
/// equals the schedule's view (the schedule is a function of that view,
/// so divergence is a protocol bug, not a handleable condition).
fn fault_consensus(
    comm: &ThreadComm,
    e: usize,
    alive: &[usize],
    ep: &Epoch,
) -> Result<(), CommError> {
    let hb = wire::user_tag(CONSENSUS_NS | e as u64);
    let view = wire::user_tag(CONSENSUS_NS | CONSENSUS_VIEW_BIT | e as u64);
    let dead_outside = |alive: &[usize]| -> Vec<u64> {
        (0..comm.size())
            .filter(|r| !alive.contains(r))
            .map(|r| r as u64)
            .collect()
    };
    let committed: Vec<u64> = if comm.rank() == 0 {
        let mut dead = dead_outside(alive);
        for &r in alive.iter().filter(|&&r| r != 0) {
            if comm.recv_deadline(r, hb, CONTROL_TIMEOUT).is_err() {
                dead.push(r as u64);
            }
        }
        dead.sort_unstable();
        for &r in ep.survivors.iter().filter(|&&r| r != 0) {
            comm.send(r, view, Payload::U64(dead.clone()));
        }
        dead
    } else {
        comm.send(0, hb, Payload::U64(Vec::new()));
        comm.recv_deadline(0, view, CONTROL_TIMEOUT)?.into_u64()
    };
    // Deterministic plans observed through poison-backed failure detection
    // must commit exactly the planned view (user plans that drop
    // control-tag messages void this).
    assert_eq!(
        committed,
        dead_outside(&ep.survivors),
        "rank {}: epoch {e} fault consensus diverged from the plan",
        comm.rank()
    );
    Ok(())
}

/// One world rank's share of a scheduled batch. Per epoch: a rank whose
/// [`FaultPlan`] death fires at this boundary poisons its peers and leaves
/// (the poison is what lets every pending receive on it fail fast instead
/// of hanging); if the communicator carries a plan — the executor's only
/// switch, read off its input — the survivors run the [`fault_consensus`];
/// then groups form with [`split_known`] from the schedule's member lists
/// and run their committed attempts through [`execute_job_on_group`].
///
/// With no world collective anywhere, ranks run through their epochs
/// unsynchronised. That is safe because every rank executes its epochs,
/// and the jobs within them, in schedule order, each send is matched by
/// exactly one receive, and the mailbox is FIFO per `(source, tag)`: a
/// message a fast rank sends for epoch `e + 1` queues behind everything it
/// sent the same peer for epoch `e`.
///
/// Dead ranks and non-root survivors return `Ok(None)`; world rank 0
/// returns every job's result (quarantined placeholders synthesized
/// locally — their groups never shipped anything) plus the measured
/// `(total, max)` idle seconds over the final survivors, or a typed
/// [`SchedError`] if collection fails unrecoverably.
#[allow(clippy::type_complexity)]
fn run_rank(
    engine: &Arc<SubmatrixEngine>,
    jobs: &[BatchJob],
    schedule: &EpochSchedule,
    label: &str,
    comm: &ThreadComm,
) -> Result<Option<(Vec<JobResult>, (f64, f64))>, SchedError> {
    // Root span of everything this rank does for the batch: rank threads
    // are created fresh per batch, so the context stack starts empty and
    // every nested span/metric lands under `batch:<label>/...`.
    let _batch_span = sm_trace::span(SpanKind::Batch, label);
    let me = comm.rank();
    let plan = comm.fault_plan();
    let my_death = plan.and_then(|p| p.fails_at(me));
    let recv = |src: usize, tag: u64| match plan {
        Some(_) => comm.recv_deadline(src, tag, CONTROL_TIMEOUT),
        None => Ok(comm.recv(src, tag)),
    };
    let world: Vec<usize> = (0..comm.size()).collect();
    let t_start = Instant::now();
    let mut busy = 0.0f64;

    for (e, ep) in schedule.epochs.iter().enumerate() {
        // A planned death fires at the epoch boundary, before the
        // consensus — which is exactly how the survivors find out.
        if my_death == Some(e) {
            comm.poison_peers();
            return Ok(None);
        }
        if plan.is_some() {
            let alive = e
                .checked_sub(1)
                .map_or(&world, |p| &schedule.epochs[p].survivors);
            fault_consensus(comm, e, alive, ep)?;
        }
        let Some(g) = ep.group_of_rank(me) else {
            continue;
        };
        let grp = &ep.groups[g];
        let _epoch_span = sm_trace::span(SpanKind::Epoch, e);
        let _group_span = sm_trace::span(SpanKind::Group, g);
        // Mixing the epoch into the color gives every epoch's groups a
        // fresh tag-namespace salt.
        let sub = split_known(comm, ((e as u64) << 32) | g as u64, grp.ranks.clone());
        // Retry/quarantine bookkeeping happened at planning time; at run
        // time the whole group just skips a poisoned attempt.
        for att in grp.jobs.iter().filter(|a| !a.poisoned) {
            busy += execute_job_on_group(engine, jobs, schedule, att, &sub, comm, e);
        }
    }

    // Measured idle accounting: no world collective may follow the last
    // epoch (the dead would never join it), so survivors report
    // point-to-point and rank 0 aggregates — emitting `rank.idle` for the
    // final survivors only keeps the event count deterministic.
    let wall = t_start.elapsed().as_secs_f64();
    if me != 0 {
        comm.send(
            0,
            wire::user_tag(IDLE_NS | me as u64),
            Payload::F64(vec![busy, wall]),
        );
        return Ok(None);
    }
    let final_survivors = schedule.epochs.last().map_or(&world, |ep| &ep.survivors);
    let mut per_rank: Vec<(usize, f64, f64)> = vec![(0, busy, wall)];
    for &r in final_survivors.iter().filter(|&&r| r != 0) {
        let v = recv(r, wire::user_tag(IDLE_NS | r as u64))?.into_f64();
        per_rank.push((r, v[0], v[1]));
    }
    let wall_max = per_rank.iter().map(|&(_, _, w)| w).fold(0.0f64, f64::max);
    let mut idle_total = 0.0f64;
    let mut idle_max = 0.0f64;
    for &(r, b, w) in &per_rank {
        let idle = (wall_max - b).max(0.0);
        idle_total += idle;
        idle_max = idle_max.max(idle);
        // One `rank.idle` per surviving rank, emitted by rank 0 under the
        // batch root: deterministic count, wall-derived values confined
        // to annotations (wall_s/fields), cost pinned at 0.
        sm_trace::emit(
            "rank.idle",
            0.0,
            idle,
            &[("rank", r as f64), ("busy_s", b), ("wall_s", w)],
        );
    }

    // Result collection: every executed job's root is read off the
    // schedule (its own sends arrive through the local mailbox);
    // quarantined jobs keep the empty placeholder, carrying only the
    // fault bookkeeping (their groups never executed, so nothing was
    // sent).
    let results = (0..jobs.len())
        .map(|j| {
            let mut r = placeholder(&jobs[j]);
            if schedule.quarantined[j] {
                r.epoch = schedule.job_epoch[j];
                r.attempts = schedule.job_attempts[j];
                r.quarantined = true;
                return Ok(r);
            }
            let root = schedule.root_of_job(j);
            let meta = recv(root, result_tag(j, 0))?.into_u64();
            let data = recv(root, result_tag(j, 1))?;
            decode_telemetry(&recv(root, result_tag(j, 2))?.into_f64(), &mut r);
            // The meta header self-describes the value format (f32 for
            // plain-Fp32 jobs), so the unpack needs no job context.
            for ((br, bc), blk) in wire::unpack_blocks_prec(jobs[j].input().dims(), &meta, data) {
                r.result.insert_block(br, bc, blk);
            }
            Ok(r)
        })
        .collect::<Result<Vec<_>, SchedError>>()?;
    Ok(Some((results, (idle_total, idle_max))))
}

/// Execute one committed attempt collectively on its group
/// subcommunicator and — from the group root — ship the packed result and
/// telemetry to world rank 0 over the job's reserved tags. The
/// bitwise-equivalence contract (recovered job ≡ serial queue) holds
/// precisely because a retried attempt re-enters this one body with only
/// the group membership changed. Returns the wall seconds this rank spent
/// on the job.
fn execute_job_on_group(
    engine: &Arc<SubmatrixEngine>,
    jobs: &[BatchJob],
    schedule: &EpochSchedule,
    att: &Attempt,
    sub: &SubComm<'_, ThreadComm>,
    comm: &ThreadComm,
    epoch: usize,
) -> f64 {
    let j = att.job;
    let job = &jobs[j];
    let est_cost = schedule.static_plan.job_costs[j];
    let stolen_ranks = schedule.job_stolen_ranks[j];
    let _job_span = sm_trace::span(SpanKind::Job, j);
    let bytes0 = sub.stats().total_bytes();
    let msgs0 = sub.stats().total_msgs();
    let t = Instant::now();

    // Scatter the replicated input: each rank keeps the blocks it
    // owns under the group-sized process grid (a local selection —
    // the single-rank handle is replicated shared memory, the
    // simulator's stand-in for an MPI_COMM_SELF matrix every rank
    // holds).
    let input = job.input();
    let mut local = DbcsrMatrix::new(input.dims().clone(), sub.rank(), sub.size());
    for (&(br, bc), blk) in input.store().iter() {
        if local.is_mine(br, bc) {
            local.insert_block(br, bc, blk.clone());
        }
    }

    // Execute collectively on the subgroup — one engine
    // evaluation for a matrix job, the whole multi-iteration SCF
    // loop for an SCF job. Either way every plan goes through the
    // shared, contended cache, whose hit/miss consensus runs on
    // `sub`, i.e. per-group per-epoch — exactly the ranks that
    // must agree on entering the collective pattern gather (SCF
    // jobs re-run that consensus every iteration, still on `sub`).
    let (mut result, mut report, built_now, result_format, scf_local) = match job {
        BatchJob::Matrix(mjob) => {
            let (eplan, built_now) = engine.plan_for_matrix_traced(&local, sub);
            let (mut result, mut report) =
                engine.execute(&eplan, &local, mjob.mu0, &mjob.numeric, sub);
            mjob.output.finalize(&mut result, mjob.numeric.precision);
            report.record_planning(built_now, &eplan);
            // The value encoding of the result gather follows the
            // job's precision: plain-Fp32 results are
            // f32-representable, so the f32 wire is lossless and
            // halves the result-gather bytes too.
            let format = if mjob.numeric.precision.scatter_is_f32() {
                ValueFormat::F32
            } else {
                ValueFormat::F64
            };
            (result, report, built_now, format, None)
        }
        BatchJob::Scf(spec) => {
            // The driver shares the scheduler's engine (and its
            // bounded plan cache) across every concurrent system.
            let driver = ScfDriver::with_engine(spec.scf.clone(), engine.clone());
            let r = driver.run(&local, spec.mu0, spec.n_electrons, sub);
            // Group-sum the per-iteration byte telemetry: the
            // iteration count is group-collective (the convergence
            // decision is made on a reduced energy every rank
            // holds), so the flattened vectors line up and the
            // per-rank shares sum to whole-group traffic.
            let mut bytes: Vec<f64> = r
                .iterations
                .iter()
                .flat_map(|i| [i.gather_value_bytes as f64, i.scatter_value_bytes as f64])
                .collect();
            sub.allreduce_f64(ReduceOp::Sum, &mut bytes);
            let last = r.iterations.last().expect("SCF runs ≥ 1 iteration");
            let scf = ScfTelemetry {
                iterations: r.iterations.len(),
                converged: r.converged,
                final_energy: last.energy,
                final_electrons: last.electrons,
                gather_value_bytes: bytes.iter().step_by(2).map(|&b| b as u64).collect(),
                scatter_value_bytes: bytes.iter().skip(1).step_by(2).map(|&b| b as u64).collect(),
            };
            // SCF densities stay f64 under every precision (the
            // driver never applies the plain-Fp32 result
            // rounding), so the result gather always rides the
            // f64 wire — losslessly.
            (
                r.density,
                r.report,
                r.symbolic_builds > 0,
                ValueFormat::F64,
                Some(scf),
            )
        }
    };

    // Gather result blocks to the group root: plain point-to-point
    // sends (an alltoallv here would move O(group²) empty
    // payloads and pollute the per-job traffic telemetry).
    let mut gathered: Vec<((usize, usize), sm_linalg::Matrix)> = result.store_mut().drain();
    if sub.rank() != 0 {
        let (meta, data) =
            wire::pack_blocks_prec(gathered.iter().map(|(c, b)| (c, b)), result_format);
        sub.send(0, GATHER_META_TAG, Payload::U64(meta));
        sub.send(0, GATHER_DATA_TAG, data);
        gathered.clear();
    } else {
        for src in 1..sub.size() {
            let meta = sub.recv(src, GATHER_META_TAG).into_u64();
            let data = sub.recv(src, GATHER_DATA_TAG);
            gathered.extend(wire::unpack_blocks_prec(input.dims(), &meta, data));
        }
    }
    let seconds = t.elapsed().as_secs_f64();
    if sm_trace::enabled() {
        // Deterministic cost = the job's perfmodel estimate; wall
        // seconds and stolen ranks ride as annotations only.
        sm_trace::emit(
            "job.done",
            est_cost,
            seconds,
            &[
                ("group_size", sub.size() as f64),
                ("stolen_ranks", stolen_ranks as f64),
            ],
        );
        sm_trace::hist_seconds(&sm_trace::scoped_root("job.seconds"), seconds);
    }

    // Group-wide telemetry: total subgroup traffic this job moved
    // (Sum), the critical-path phase timings, and the symbolic
    // work — any rank may have rebuilt an evicted plan while the
    // root hit, so plan_cached/symbolic_seconds must be reduced
    // too, not taken from the root alone (Max doubles as OR for
    // the 0/1 built flag). The plan's TransferStats are per-rank
    // shares and are Sum-reduced to whole-run numbers, matching
    // what the serial queue reports for the same job.
    let mut traffic = [
        (sub.stats().total_bytes() - bytes0) as f64,
        (sub.stats().total_msgs() - msgs0) as f64,
        report.transfers.unique_bytes as f64,
        report.transfers.naive_bytes as f64,
        report.transfers.unique_blocks as f64,
        report.transfers.total_references as f64,
        report.gather_value_bytes as f64,
        report.scatter_value_bytes as f64,
    ];
    sub.allreduce_f64(ReduceOp::Sum, &mut traffic);
    report.transfers = TransferStats {
        unique_bytes: traffic[2] as u64,
        naive_bytes: traffic[3] as u64,
        unique_blocks: traffic[4] as u64,
        total_references: traffic[5] as u64,
    };
    report.gather_value_bytes = traffic[6] as u64;
    report.scatter_value_bytes = traffic[7] as u64;
    let mut phases = [
        report.gather_seconds,
        report.solve_seconds,
        report.scatter_seconds,
        seconds,
        report.symbolic_seconds,
        if built_now { 1.0 } else { 0.0 },
    ];
    sub.allreduce_f64(ReduceOp::Max, &mut phases);
    report.gather_seconds = phases[0];
    report.solve_seconds = phases[1];
    report.scatter_seconds = phases[2];
    report.symbolic_seconds = phases[4];
    report.plan_cached = phases[5] == 0.0;

    // Group root ships the finished job to world rank 0 — in the
    // job's result format too: the largest per-job message also
    // halves for plain-Fp32 jobs, still losslessly.
    if sub.rank() == 0 {
        let mut root_mat = DbcsrMatrix::new(input.dims().clone(), 0, 1);
        for ((br, bc), blk) in gathered {
            root_mat.insert_block(br, bc, blk);
        }
        let done = JobResult {
            name: job.name().to_string(),
            result: root_mat,
            report,
            seconds: phases[3],
            group_size: sub.size(),
            comm_bytes: traffic[0] as u64,
            comm_msgs: traffic[1] as u64,
            epoch,
            stolen_ranks,
            attempts: att.attempt,
            quarantined: false,
            scf: scf_local,
        };
        let (meta, data) = wire::pack_blocks_prec(done.result.store().iter(), result_format);
        comm.send(0, result_tag(j, 0), Payload::U64(meta));
        comm.send(0, result_tag(j, 1), data);
        comm.send(0, result_tag(j, 2), Payload::F64(encode_telemetry(&done)));
    }
    t.elapsed().as_secs_f64()
}

/// The result of a job nothing has run yet: its name, an empty matrix of
/// its shape, and an all-zero report at its configured precision. Rank 0
/// decodes a gathered job's telemetry into it; a quarantined job keeps it.
fn placeholder(job: &BatchJob) -> JobResult {
    JobResult {
        name: job.name().to_string(),
        result: DbcsrMatrix::new(job.input().dims().clone(), 0, 1),
        report: EngineReport {
            precision: job_numeric(job).precision,
            ..EngineReport::default()
        },
        seconds: 0.0,
        group_size: 0,
        comm_bytes: 0,
        comm_msgs: 0,
        epoch: 0,
        stolen_ranks: 0,
        attempts: 0,
        quarantined: false,
        scf: None,
    }
}

/// Stable wire codes of the enums a telemetry record carries: a value's
/// code is its index here.
const PRECISION_CODES: [Precision; 3] = [Precision::Fp64, Precision::Fp32, Precision::Fp32Refined];
const BACKEND_CODES: [SolveBackend; 2] = [SolveBackend::Dense, SolveBackend::SparseCsr];

fn code_of<T: PartialEq>(codes: &[T], value: &T) -> f64 {
    let code = codes.iter().position(|c| c == value);
    code.expect("every enum value has a wire code") as f64
}

fn from_code<T: Copy>(codes: &[T], x: f64, what: &str) -> T {
    *codes
        .get(x as usize)
        .unwrap_or_else(|| panic!("unknown {what} code {x}"))
}

/// One field of a job's telemetry record: its [`tele`] wire id, how the
/// group root reads its value(s) off the finished [`JobResult`] (none for
/// an SCF field of a matrix job, one per iteration for the repeatable
/// `SCF_ITER_*` ids), and how world rank 0 writes one decoded value back.
struct TelemetryField {
    id: u32,
    read: fn(&JobResult, &mut dyn FnMut(f64)),
    write: fn(&mut JobResult, f64),
}

/// A counter or measurement stored as `$ty` at `JobResult::$path`.
/// Counters ride as `f64` (exact up to 2⁵³, far beyond any simulated run).
macro_rules! number {
    ($id:ident, $ty:ty, $($path:ident).+) => {
        TelemetryField {
            id: tele::$id,
            read: |r, put| put(r.$($path).+ as f64),
            write: |r, x| r.$($path).+ = x as $ty,
        }
    };
}

/// A boolean at `JobResult::$path`, on the wire as 0.0 / 1.0.
macro_rules! flag {
    ($id:ident, $($path:ident).+) => {
        TelemetryField {
            id: tele::$id,
            read: |r, put| put(r.$($path).+ as u64 as f64),
            write: |r, x| r.$($path).+ = x != 0.0,
        }
    };
}

/// An SCF extension field: `$read` yields its values from the job's
/// [`ScfTelemetry`] (nothing for a matrix job), `$write` stores one into
/// it (created on the first SCF field decoded).
macro_rules! scf {
    ($id:ident, |$s:ident| $read:expr, |$t:ident, $x:ident| $write:expr) => {
        TelemetryField {
            id: tele::$id,
            read: |r, put| {
                if let Some($s) = &r.scf {
                    $read.into_iter().for_each(put)
                }
            },
            write: |r, $x| {
                let $t = r.scf.get_or_insert_with(ScfTelemetry::default);
                $write
            },
        }
    };
}

/// The telemetry record's fields, **in wire order**: the base fields
/// every job ships, then the SCF extension — one wire format carries both
/// job kinds, distinguished by the presence of [`tele::SCF_ITERATIONS`].
/// This table is the whole codec: [`encode_telemetry`] walks it reading,
/// [`decode_telemetry`] dispatches each wire entry to its writer.
const TELEMETRY_FIELDS: [TelemetryField; 35] = [
    number!(N_SUBMATRICES, usize, report.n_submatrices),
    number!(MAX_DIM, usize, report.max_dim),
    number!(AVG_DIM, f64, report.avg_dim),
    number!(TOTAL_COST, f64, report.total_cost),
    number!(UNIQUE_BYTES, u64, report.transfers.unique_bytes),
    number!(NAIVE_BYTES, u64, report.transfers.naive_bytes),
    number!(UNIQUE_BLOCKS, u64, report.transfers.unique_blocks),
    number!(TOTAL_REFERENCES, u64, report.transfers.total_references),
    number!(MU, f64, report.mu),
    number!(BISECT_ITERATIONS, usize, report.bisect_iterations),
    flag!(PLAN_CACHED, report.plan_cached),
    number!(SYMBOLIC_SECONDS, f64, report.symbolic_seconds),
    number!(GATHER_SECONDS, f64, report.gather_seconds),
    number!(SOLVE_SECONDS, f64, report.solve_seconds),
    number!(SCATTER_SECONDS, f64, report.scatter_seconds),
    number!(SECONDS, f64, seconds),
    number!(GROUP_SIZE, usize, group_size),
    number!(COMM_BYTES, u64, comm_bytes),
    number!(COMM_MSGS, u64, comm_msgs),
    TelemetryField {
        id: tele::PRECISION_CODE,
        read: |r, put| put(code_of(&PRECISION_CODES, &r.report.precision)),
        write: |r, x| r.report.precision = from_code(&PRECISION_CODES, x, "precision"),
    },
    number!(GATHER_VALUE_BYTES, u64, report.gather_value_bytes),
    number!(SCATTER_VALUE_BYTES, u64, report.scatter_value_bytes),
    number!(EPOCH, usize, epoch),
    number!(STOLEN_RANKS, usize, stolen_ranks),
    number!(ATTEMPTS, usize, attempts),
    flag!(QUARANTINED, quarantined),
    TelemetryField {
        id: tele::SOLVE_BACKEND_CODE,
        read: |r, put| put(code_of(&BACKEND_CODES, &r.report.backend)),
        write: |r, x| r.report.backend = from_code(&BACKEND_CODES, x, "solve-backend"),
    },
    number!(SPARSE_FILTERED_NNZ, u64, report.sparse_filtered_nnz),
    number!(SPARSE_FLOPS, u64, report.sparse_flops),
    scf!(SCF_ITERATIONS, |s| [s.iterations as f64], |s, x| s
        .iterations =
        x as usize),
    scf!(SCF_CONVERGED, |s| [s.converged as u64 as f64], |s, x| s
        .converged =
        x != 0.0),
    scf!(SCF_FINAL_ENERGY, |s| [s.final_energy], |s, x| s
        .final_energy =
        x),
    scf!(SCF_FINAL_ELECTRONS, |s| [s.final_electrons], |s, x| s
        .final_electrons =
        x),
    scf!(
        SCF_ITER_GATHER_BYTES,
        |s| s.gather_value_bytes.iter().map(|&b| b as f64),
        |s, x| s.gather_value_bytes.push(x as u64)
    ),
    scf!(
        SCF_ITER_SCATTER_BYTES,
        |s| s.scatter_value_bytes.iter().map(|&b| b as f64),
        |s, x| s.scatter_value_bytes.push(x as u64)
    ),
];

/// The leading [`TELEMETRY_FIELDS`] every record must carry.
const N_BASE_FIELDS: usize = 29;

/// Flatten a finished job's telemetry — the group root's [`EngineReport`]
/// plus wall-time, group size, subgroup traffic, steal and fault
/// attribution — into a versioned self-describing [`TelemetryRecord`]
/// (`sm_dbcsr::wire::TELEMETRY_SCHEMA_VERSION`) for the root gather.
fn encode_telemetry(done: &JobResult) -> Vec<f64> {
    let mut rec = TelemetryRecord::new();
    for f in &TELEMETRY_FIELDS {
        (f.read)(done, &mut |x| rec.push(f.id, x));
    }
    rec.encode()
}

/// Inverse of [`encode_telemetry`], writing into `into` (a job's
/// [`placeholder`]). Field ids this build does not know are skipped.
/// Panics (with the decoder's own clear message) on schema-version
/// mismatch, truncation or a missing base field — inside one process both
/// ends are compiled together, so a mismatch here is a bug, not an input
/// error.
fn decode_telemetry(x: &[f64], into: &mut JobResult) {
    let rec = TelemetryRecord::decode(x).unwrap_or_else(|e| panic!("result-gather {e}"));
    let mut seen = 0u64;
    for &(id, value) in rec.entries() {
        if let Some(f) = TELEMETRY_FIELDS.iter().find(|f| f.id == id) {
            (f.write)(into, value);
            seen |= 1 << id;
        }
    }
    for f in &TELEMETRY_FIELDS[..N_BASE_FIELDS] {
        assert!(
            seen & (1 << f.id) != 0,
            "telemetry record missing field id {}",
            f.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_of_rank(p: &SchedulePlan, rank: usize) -> Option<usize> {
        p.groups.iter().position(|g| g.ranks.contains(&rank))
    }

    fn group_of_job(p: &SchedulePlan, job: usize) -> usize {
        let g = p.groups.iter().position(|g| g.jobs.contains(&job));
        g.expect("every job is scheduled on exactly one group")
    }

    fn job_ids(g: &EpochGroup) -> Vec<usize> {
        g.jobs.iter().map(|a| a.job).collect()
    }

    /// [`plan_epochs_with_faults`] at the defaults the recovery tests share.
    fn plan_under(costs: &[f64], world: usize, plan: &FaultPlan, retries: usize) -> EpochSchedule {
        let (budget, policy) = (RankBudget::default(), StealPolicy::default());
        plan_epochs_with_faults(costs, world, &budget, policy, plan, retries)
    }

    #[test]
    fn partition_empty_and_single() {
        let p = partition(&[], 4, &RankBudget::default());
        assert!(p.groups.is_empty());
        let p = partition(&[5.0], 4, &RankBudget::default());
        assert_eq!(p.groups.len(), 1);
        assert_eq!(p.groups[0].ranks, 0..4);
        assert_eq!(p.groups[0].jobs, vec![0]);
    }

    #[test]
    fn partition_allocates_ranks_proportionally() {
        // Job 0 is 3x the work of each of jobs 1..3; world of 6 ranks,
        // 4 jobs -> 4 groups, the heavy job's group gets the spare ranks.
        let p = partition(&[9.0, 3.0, 3.0, 3.0], 6, &RankBudget::default());
        assert_eq!(p.groups.len(), 4);
        let g0 = group_of_job(&p, 0);
        assert_eq!(p.groups[g0].ranks.len(), 3);
        let total: usize = p.groups.iter().map(|g| g.ranks.len()).sum();
        assert_eq!(total, 6);
        // Ranges are contiguous and disjoint.
        let mut next = 0;
        for g in &p.groups {
            assert_eq!(g.ranks.start, next);
            next = g.ranks.end;
        }
    }

    #[test]
    fn partition_folds_leftover_ranks_into_largest_group() {
        // Regression: with every group capped, spare ranks used to sit
        // idle for the whole batch; they now fold into the largest group
        // (lowest index breaking ties).
        let budget = RankBudget {
            max_group_size: Some(2),
            max_groups: Some(2),
        };
        let p = partition(&[1.0, 1.0, 1.0, 1.0], 8, &budget);
        assert_eq!(p.groups.len(), 2);
        // Both groups reach the cap (2), then the 4 leftover ranks fold
        // into group 0.
        assert_eq!(p.groups[0].ranks, 0..6);
        assert_eq!(p.groups[1].ranks, 6..8);
        // No rank is idle.
        for r in 0..8 {
            assert!(group_of_rank(&p, r).is_some(), "rank {r} left idle");
        }
    }

    #[test]
    fn partition_respects_caps() {
        let budget = RankBudget {
            max_group_size: Some(2),
            max_groups: Some(2),
        };
        // World exactly covered by the caps: no folding needed.
        let p = partition(&[1.0, 1.0, 1.0, 1.0], 4, &budget);
        assert_eq!(p.groups.len(), 2);
        for g in &p.groups {
            assert_eq!(g.ranks.len(), 2);
            assert_eq!(g.jobs.len(), 2);
        }
        assert_eq!(group_of_rank(&p, 3), Some(1));
    }

    #[test]
    fn partition_is_longest_job_first() {
        let p = partition(&[1.0, 8.0, 2.0], 2, &RankBudget::default());
        // Heaviest job (1) alone on one group; 2 and 0 share the other,
        // heavier first.
        let g1 = group_of_job(&p, 1);
        assert_eq!(p.groups[g1].jobs, vec![1]);
        let other = 1 - g1;
        assert_eq!(p.groups[other].jobs, vec![2, 0]);
    }

    #[test]
    fn balanced_batch_collapses_to_one_epoch() {
        // 4 equal jobs on 4 groups: nothing to steal, the epoch plan IS
        // the static plan.
        let s = plan_epochs(&[1.0; 4], 4, &RankBudget::default(), StealPolicy::default());
        assert_eq!(s.epochs.len(), 1);
        assert_eq!(s.planned.epochs, 1);
        assert_eq!(s.planned.stolen_jobs, 0);
        assert_eq!(s.planned.stolen_ranks, 0);
        assert_eq!(
            s.planned.est_idle_cost_epochs,
            s.planned.est_idle_cost_static
        );
        for (g, grp) in s.epochs[0].groups.iter().enumerate() {
            assert_eq!(job_ids(grp), s.static_plan.groups[g].jobs);
            let static_ranks: Vec<usize> = s.static_plan.groups[g].ranks.clone().collect();
            assert_eq!(grp.ranks, static_ranks);
        }
    }

    #[test]
    fn disabled_policy_is_the_static_schedule() {
        let costs = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let s = plan_epochs(&costs, 4, &RankBudget::default(), StealPolicy::Disabled);
        assert_eq!(s.epochs.len(), 1);
        assert_eq!(s.planned.stolen_jobs, 0);
        assert_eq!(s.planned.est_idle_cost_recovered(), 0.0);
        for (g, grp) in s.epochs[0].groups.iter().enumerate() {
            assert_eq!(job_ids(grp), s.static_plan.groups[g].jobs);
        }
    }

    #[test]
    fn straggler_batch_steals_and_recovers_idle_time() {
        // 1 large (3x) + 18 small jobs on 6 ranks: LPT leaves three
        // groups with a 4-cost queue against a 3-cost horizon, so three
        // smalls defer to epoch 1 and run on re-dealt 2-rank groups.
        let mut costs = vec![3.0];
        costs.extend(std::iter::repeat_n(1.0, 18));
        let s = plan_epochs(&costs, 6, &RankBudget::default(), StealPolicy::default());
        assert_eq!(s.epochs.len(), 2);
        assert_eq!(s.planned.stolen_jobs, 3);
        assert!(s.planned.stolen_ranks >= 3);
        // Epoch 0 commits the large job plus 3-cost small queues (walls
        // all 3); epoch 1 spreads the 3 deferred smalls over 2-rank
        // groups (walls 0.5) — the estimated makespan drops from 4 to
        // 3.5, recovering idle time and flattening the worst rank.
        assert!(s.planned.est_idle_cost_recovered() > 0.0);
        assert!(s.planned.est_max_rank_idle_epochs < s.planned.est_max_rank_idle_static);
        // Every job runs exactly once, in the epoch the plan records.
        for j in 0..costs.len() {
            let runs: usize = s
                .epochs
                .iter()
                .map(|e| e.groups.iter().filter(|g| job_ids(g).contains(&j)).count())
                .sum();
            assert_eq!(runs, 1, "job {j} scheduled {runs} times");
            assert!(s.epochs[s.job_epoch[j]].group_of_job(j).is_some());
        }
        // Stolen jobs all run in epoch 1.
        for j in 0..costs.len() {
            if s.job_stolen_ranks[j] > 0 {
                assert_eq!(s.job_epoch[j], 1);
            }
        }
    }

    #[test]
    fn seven_equal_jobs_on_six_ranks_steal_the_odd_job() {
        // The minimal integer-granularity straggler: LPT gives one group
        // two jobs; the second defers and runs on the whole world.
        let s = plan_epochs(&[1.0; 7], 6, &RankBudget::default(), StealPolicy::default());
        assert_eq!(s.epochs.len(), 2);
        assert_eq!(s.epochs[1].groups.len(), 1);
        assert_eq!(s.epochs[1].groups[0].ranks, (0..6).collect::<Vec<_>>());
        assert_eq!(s.planned.stolen_jobs, 1);
        assert_eq!(s.planned.stolen_ranks, 5);
        assert!(s.planned.est_idle_cost_recovered() > 0.0);
    }

    #[test]
    fn zero_cost_jobs_do_not_break_the_planner() {
        // Regression: LPT piles every zero-cost job onto the first
        // zero-load group, leaving later groups empty; the steal-horizon
        // scan must skip them instead of indexing an empty queue. (A zero
        // cost is real — any matrix with all-empty block columns.)
        for policy in [StealPolicy::EpochRebalance, StealPolicy::Disabled] {
            let s = plan_epochs(&[1.0, 0.0, 0.0], 3, &RankBudget::default(), policy);
            let scheduled: usize = s
                .epochs
                .iter()
                .flat_map(|e| e.groups.iter())
                .map(|g| g.jobs.len())
                .sum();
            assert_eq!(scheduled, 3, "every job scheduled exactly once");
            for j in 0..3 {
                assert!(s.epochs[s.job_epoch[j]].group_of_job(j).is_some());
            }
        }
        // All-zero batches collapse to a single epoch.
        let s = plan_epochs(&[0.0; 4], 2, &RankBudget::default(), StealPolicy::default());
        assert_eq!(s.epochs.len(), 1);
    }

    #[test]
    fn epoch_planner_terminates_on_adversarial_costs() {
        // Geometric cost spread: every epoch defers something, but the
        // planner is bounded by the job count.
        let costs: Vec<f64> = (0..20).map(|i| 1.5f64.powi(i)).collect();
        let s = plan_epochs(&costs, 3, &RankBudget::default(), StealPolicy::default());
        assert!(s.epochs.len() <= costs.len());
        let scheduled: usize = s
            .epochs
            .iter()
            .flat_map(|e| e.groups.iter())
            .map(|g| g.jobs.len())
            .sum();
        assert_eq!(scheduled, costs.len());
    }

    /// A one-block job (the shape every decode target below comes from)
    /// and a finished result for it carrying `report`.
    fn finished(report: EngineReport) -> (BatchJob, JobResult) {
        let dims = sm_dbcsr::BlockedDims::uniform(1, 2);
        let eye = sm_linalg::Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let matrix = DbcsrMatrix::from_dense(&eye, dims, 0, 1, 0.0);
        let job = BatchJob::Matrix(MatrixJob::density("t", matrix, 0.0));
        let done = JobResult {
            report,
            ..placeholder(&job)
        };
        (job, done)
    }

    #[test]
    fn telemetry_roundtrip() {
        let report = EngineReport {
            n_submatrices: 7,
            max_dim: 12,
            avg_dim: 9.5,
            total_cost: 1234.0,
            transfers: TransferStats {
                unique_bytes: 100,
                naive_bytes: 300,
                unique_blocks: 10,
                total_references: 30,
            },
            precision: Precision::Fp32Refined,
            gather_value_bytes: 2048,
            scatter_value_bytes: 512,
            mu: -0.25,
            bisect_iterations: 3,
            plan_cached: true,
            symbolic_seconds: 0.5,
            gather_seconds: 0.1,
            solve_seconds: 0.2,
            scatter_seconds: 0.3,
            backend: SolveBackend::SparseCsr,
            sparse_filtered_nnz: 42,
            sparse_flops: 9000,
        };
        let (job, done) = finished(report.clone());
        let mut done = JobResult {
            seconds: 1.5,
            group_size: 4,
            comm_bytes: 4096,
            comm_msgs: 17,
            epoch: 2,
            stolen_ranks: 3,
            attempts: 1,
            ..done
        };
        let enc = encode_telemetry(&done);
        // Self-describing layout: version + entry-count header, then
        // (field_id, value) pairs — 29 base fields.
        assert_eq!(enc[0], wire::TELEMETRY_SCHEMA_VERSION as f64);
        assert_eq!(enc.len(), 2 + 2 * 29, "base record is 29 entries");
        let mut d = placeholder(&job);
        decode_telemetry(&enc, &mut d);
        assert_eq!(d.report.n_submatrices, 7);
        assert_eq!(d.report.transfers, report.transfers);
        assert_eq!(d.report.mu, report.mu);
        assert!(d.report.plan_cached);
        assert_eq!(d.report.precision, Precision::Fp32Refined);
        assert_eq!(d.report.gather_value_bytes, 2048);
        assert_eq!(d.report.scatter_value_bytes, 512);
        assert_eq!(d.report.backend, SolveBackend::SparseCsr);
        assert_eq!(d.report.sparse_filtered_nnz, 42);
        assert_eq!(d.report.sparse_flops, 9000);
        assert_eq!(
            (d.seconds, d.group_size, d.comm_bytes, d.comm_msgs),
            (1.5, 4, 4096, 17)
        );
        assert_eq!((d.epoch, d.stolen_ranks), (2, 3));
        assert_eq!((d.attempts, d.quarantined), (1, false));
        assert!(d.scf.is_none());

        // The SCF extension rides the same record, distinguished by
        // length, and roundtrips exactly.
        let scf_in = ScfTelemetry {
            iterations: 3,
            converged: true,
            final_energy: -4.25,
            final_electrons: 16.0,
            gather_value_bytes: vec![100, 200, 300],
            scatter_value_bytes: vec![10, 20, 30],
        };
        done.attempts = 2;
        done.scf = Some(scf_in.clone());
        let enc = encode_telemetry(&done);
        assert_eq!(enc.len(), 2 + 2 * (33 + 2 * 3));
        let mut d = placeholder(&job);
        decode_telemetry(&enc, &mut d);
        assert_eq!(d.attempts, 2);
        assert_eq!(d.scf, Some(scf_in));
    }

    #[test]
    #[should_panic(expected = "schema version mismatch")]
    fn telemetry_decode_rejects_foreign_schema_version() {
        let (job, done) = finished(EngineReport::default());
        let mut enc = encode_telemetry(&done);
        enc[0] += 1.0; // a future schema version
        decode_telemetry(&enc, &mut placeholder(&job));
    }

    #[test]
    fn telemetry_table_lists_every_field_id_once() {
        // `tele`'s ids are contiguous from 0 to its last one; the table
        // (which is the whole codec) must name each exactly once, base
        // fields first.
        let mut ids: Vec<u32> = TELEMETRY_FIELDS.iter().map(|f| f.id).collect();
        assert!(ids[..N_BASE_FIELDS]
            .iter()
            .all(|id| !(tele::SCF_ITERATIONS..=tele::SCF_ITER_SCATTER_BYTES).contains(id)));
        ids.sort_unstable();
        assert_eq!(ids, (0..=tele::SPARSE_FLOPS).collect::<Vec<_>>());
    }

    #[test]
    fn steal_horizon_is_max_leading_cost_per_ranks() {
        // The documented horizon formula, asserted directly: horizon =
        // max over non-empty groups of (leading-job cost / group ranks).
        let costs = [3.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let p = partition(&costs, 6, &RankBudget::default());
        let expected = p
            .groups
            .iter()
            .filter(|g| !g.jobs.is_empty())
            .map(|g| costs[g.jobs[0]] / g.ranks.len() as f64)
            .fold(0.0f64, f64::max);
        assert_eq!(steal_horizon(&p), expected);

        // And the planner honors it: every epoch-0 group's committed
        // queue fits within the horizon (the leading job is exempt — it
        // *defines* the commitment), and every deferred job would have
        // overflowed it.
        let s = plan_epochs(&costs, 6, &RankBudget::default(), StealPolicy::default());
        let h = steal_horizon(&s.static_plan);
        for grp in &s.epochs[0].groups {
            let mut cum = 0.0;
            for (pos, j) in job_ids(grp).into_iter().enumerate() {
                cum += costs[j];
                if pos > 0 {
                    assert!(
                        cum / grp.ranks.len() as f64 <= h * (1.0 + 1e-9),
                        "group committed past the steal horizon"
                    );
                }
            }
        }
        for j in 0..costs.len() {
            if s.job_epoch[j] > 0 {
                let home = &s.static_plan.groups[s.home_group[j]];
                let committed: f64 = home
                    .jobs
                    .iter()
                    .filter(|&&k| s.job_epoch[k] == 0)
                    .map(|&k| costs[k])
                    .sum();
                assert!(
                    (committed + costs[j]) / home.ranks.len() as f64 > h,
                    "job {j} was deferred although it fit the horizon"
                );
            }
        }

        // Empty batch: no commitment.
        assert_eq!(
            steal_horizon(&partition(&[], 4, &RankBudget::default())),
            0.0
        );
    }

    #[test]
    fn degenerate_horizon_commits_in_a_single_epoch() {
        // An all-zero-cost batch makes `steal_horizon` return 0.0 — a
        // horizon with no ordering information. The planner must treat it
        // as unbounded (commit everything, one epoch) instead of letting
        // the greedy fill defer on it.
        for world in [1usize, 2, 3, 6] {
            let s = plan_epochs(
                &[0.0; 9],
                world,
                &RankBudget::default(),
                StealPolicy::default(),
            );
            assert_eq!(s.epochs.len(), 1, "world {world}: zero-cost batch split");
            let scheduled: usize = s.epochs[0].groups.iter().map(|g| g.jobs.len()).sum();
            assert_eq!(scheduled, 9);
            assert!(s.job_attempts.iter().all(|&a| a == 1));
        }
    }

    #[test]
    fn partition_is_total_on_non_finite_costs() {
        // `partition` is a public entry point: a NaN estimate must yield a
        // deterministic (if meaningless) schedule, never a comparator
        // panic. Admission (`try_run_batch`) rejects such jobs up front.
        let costs = [f64::NAN, 2.0, f64::INFINITY, 0.0];
        let p = partition(&costs, 3, &RankBudget::default());
        let mut seen: Vec<usize> = p.groups.iter().flat_map(|g| g.jobs.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3], "every job placed exactly once");
        let p2 = partition(&costs, 3, &RankBudget::default());
        let jobs: Vec<_> = p.groups.iter().map(|g| g.jobs.clone()).collect();
        let jobs2: Vec<_> = p2.groups.iter().map(|g| g.jobs.clone()).collect();
        assert_eq!(jobs, jobs2, "NaN placement is deterministic");
    }

    #[test]
    fn non_finite_estimates_are_rejected_at_admission() {
        let dims = sm_dbcsr::BlockedDims::uniform(2, 2);
        let dense = sm_linalg::Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { 0.0 });
        let job = BatchJob::Matrix(MatrixJob {
            name: "nan-cost".to_string(),
            matrix: DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0),
            mu0: 0.0,
            numeric: sm_core::engine::NumericOptions::default(),
            output: crate::jobs::JobOutput::Density,
        });
        let err = check_estimates(std::slice::from_ref(&job), &[f64::NAN]).unwrap_err();
        match &err {
            SchedError::BadEstimate { name, cost } => {
                assert_eq!(name, "nan-cost");
                assert!(cost.is_nan());
            }
            other => panic!("expected BadEstimate, got {other:?}"),
        }
        assert!(err.to_string().contains("non-finite cost estimate"));
        assert!(check_estimates(std::slice::from_ref(&job), &[1.0]).is_ok());
    }

    #[test]
    fn precision_codes_roundtrip() {
        for p in Precision::all() {
            let code = code_of(&PRECISION_CODES, &p);
            assert_eq!(from_code(&PRECISION_CODES, code, "precision"), p);
        }
    }

    #[test]
    fn backend_codes_roundtrip() {
        for b in [SolveBackend::Dense, SolveBackend::SparseCsr] {
            let code = code_of(&BACKEND_CODES, &b);
            assert_eq!(from_code(&BACKEND_CODES, code, "solve-backend"), b);
        }
    }

    #[test]
    fn sparse_backend_lowers_iterative_cost_estimates() {
        // A low-fill pattern under Auto policy resolves to the sparse-CSR
        // backend for iterative sign methods, and the perfmodel must
        // price that in — otherwise LPT packing would misplace sparse
        // jobs. Diagonalization ignores the backend, so its estimate
        // must not move (the schedule stays a pure function of what the
        // engine will actually run).
        let dims = sm_dbcsr::BlockedDims::uniform(12, 4);
        let diag = sm_linalg::Matrix::from_fn(48, 48, |i, j| if i == j { 2.0 } else { 0.0 });
        let matrix = DbcsrMatrix::from_dense(&diag, dims, 0, 1, 0.0);
        let dense = estimate_pattern_cost_for(
            &matrix,
            &NumericOptions {
                backend: sm_core::engine::BackendPolicy::Dense,
                ..Default::default()
            },
        );
        let mut numeric = NumericOptions {
            solve: sm_core::solver::SolveOptions {
                method: SignMethod::NewtonSchulz,
                ..Default::default()
            },
            ..Default::default()
        };
        let sparse = estimate_pattern_cost_for(&matrix, &numeric);
        assert!(
            sparse < dense,
            "low-fill iterative estimate should shrink: {sparse} vs {dense}"
        );
        numeric.solve.method = SignMethod::Diagonalization;
        assert_eq!(estimate_pattern_cost_for(&matrix, &numeric), dense);
        // Forcing the dense backend restores the dense estimate even for
        // iterative methods.
        numeric.solve.method = SignMethod::NewtonSchulz;
        numeric.backend = sm_core::engine::BackendPolicy::Dense;
        assert_eq!(estimate_pattern_cost_for(&matrix, &numeric), dense);
    }

    #[test]
    fn recovery_plan_without_faults_resolves_every_job_first_try() {
        let costs = [5.0, 3.0, 2.0, 2.0];
        let r = plan_under(&costs, 4, &FaultPlan::new(), 3);
        assert!(r.quarantined.iter().all(|&q| !q));
        assert!(r.job_attempts.iter().all(|&a| a == 1));
        assert_eq!(r.fault_stats.rank_failures, 0);
        assert_eq!(r.fault_stats.poisoned_attempts, 0);
        assert_eq!(r.fault_stats.retries, 0);
        assert_eq!(r.fault_stats.final_world_size, 4);
        // Every epoch keeps the full world and every job has a root.
        for ep in &r.epochs {
            assert_eq!(ep.survivors, vec![0, 1, 2, 3]);
            assert!(ep.newly_failed.is_empty());
        }
        for j in 0..costs.len() {
            let _ = r.root_of_job(j);
        }
    }

    #[test]
    fn recovery_plan_shrinks_world_at_the_failure_epoch() {
        let costs = [4.0; 6];
        let plan = FaultPlan::new().fail_rank(2, 1);
        let r = plan_under(&costs, 4, &plan, 3);
        assert_eq!(r.fault_stats.rank_failures, 1);
        assert_eq!(r.fault_stats.final_world_size, 3);
        // The world shrinks exactly at the committed epoch and stays
        // strictly smaller afterwards — never to grow back.
        for (e, ep) in r.epochs.iter().enumerate() {
            if e < 1 {
                assert_eq!(ep.survivors, vec![0, 1, 2, 3]);
            } else {
                assert_eq!(ep.survivors, vec![0, 1, 3]);
                assert!(!ep.groups.iter().any(|g| g.ranks.contains(&2)));
            }
        }
        assert_eq!(r.epochs[1].newly_failed, vec![2]);
        // Every job still lands on a surviving root.
        for j in 0..costs.len() {
            assert!(r.root_of_job(j) != 2 || r.job_epoch[j] < 1);
        }
    }

    #[test]
    fn recovery_plan_retries_with_backoff_and_quarantines() {
        let costs = [2.0, 2.0];
        // Job 1 poisoned on attempts 1 and 2 with budget 3: two retries
        // (backing off 1 then 2 epochs), third attempt clean.
        let plan = FaultPlan::new().poison_job(1, 1).poison_job(1, 2);
        let r = plan_under(&costs, 2, &plan, 3);
        assert_eq!(r.job_attempts[1], 3);
        assert!(!r.quarantined[1]);
        assert_eq!(r.fault_stats.poisoned_attempts, 2);
        assert_eq!(r.fault_stats.retries, 2);
        assert_eq!(r.fault_stats.quarantined_jobs, 0);
        // Attempt 1 at epoch 0, retry at 0+2^0=1, then at 1+2^1=3 with a
        // pure wait epoch in between.
        assert_eq!(r.job_epoch[1], 3);
        assert!(r.epochs[2].groups.iter().all(|g| g.jobs.is_empty()));

        // Budget 2 quarantines instead of running the third attempt.
        let r = plan_under(&costs, 2, &plan, 2);
        assert!(r.quarantined[1]);
        assert_eq!(r.job_attempts[1], 2);
        assert_eq!(r.fault_stats.quarantined_jobs, 1);
        assert_eq!(r.fault_stats.retries, 1);
        assert!(!r.quarantined[0]);
    }

    #[test]
    fn disabled_policy_under_a_poison_commits_every_eligible_job() {
        // `Disabled` lifts the horizon with or without faults: each epoch
        // commits everything eligible, so only backoff creates epochs. The
        // straggler batch (which defers three jobs under the default
        // policy, see `straggler_batch_steals_and_recovers_idle_time`).
        let mut costs = vec![3.0];
        costs.extend(std::iter::repeat_n(1.0, 18));
        let plan = FaultPlan::new().poison_job(5, 1);
        let budget = RankBudget::default();
        let s = plan_epochs_with_faults(&costs, 6, &budget, StealPolicy::Disabled, &plan, 3);
        assert_eq!(s.epochs.len(), 2, "epoch 0, then job 5's retry");
        for (g, grp) in s.epochs[0].groups.iter().enumerate() {
            assert_eq!(job_ids(grp), s.static_plan.groups[g].jobs);
        }
        let retry: Vec<_> = s.epochs[1].groups.iter().flat_map(|g| &g.jobs).collect();
        let expected = Attempt {
            job: 5,
            attempt: 2,
            poisoned: false,
        };
        assert_eq!(retry, [&expected]);
        let rebalanced = plan_under(&costs, 6, &plan, 3);
        let committed: usize = rebalanced.epochs[0]
            .groups
            .iter()
            .map(|g| g.jobs.len())
            .sum();
        assert!(committed < costs.len(), "the default policy still defers");
    }

    #[test]
    fn recovery_plan_is_deterministic_per_seed() {
        let costs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let plan = FaultPlan::random(42, 4, costs.len());
        let a = plan_under(&costs, 4, &plan, 3);
        let b = plan_under(&costs, 4, &plan, 3);
        assert_eq!(a.job_epoch, b.job_epoch);
        assert_eq!(a.job_attempts, b.job_attempts);
        assert_eq!(a.quarantined, b.quarantined);
        assert_eq!(a.fault_stats, b.fault_stats);
    }
}
