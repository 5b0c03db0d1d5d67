//! The pure half of the scheduler: the one admission check and the cost
//! estimates it returns, the LPT partition, the steal horizon, the one
//! epoch planner and the schedule types it builds.
//! Everything here is a function of its arguments alone (Invariant 3) —
//! CI greps this file for any clock, communicator handle or tracer.

use std::ops::Range;

use sm_accel::perfmodel;
use sm_chem::ScfEnsemble;
use sm_comsim::{CommError, FaultPlan};
use sm_core::engine::{Ensemble, NumericOptions};
use sm_core::solver::SignMethod;
use sm_dbcsr::DbcsrMatrix;

use crate::jobs::BatchJob;

/// Per-job attempt budget under fault injection (first attempt + two
/// retries): a [`Scheduler`](super::Scheduler) plans every batch with it.
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
#[derive(Debug, Clone, Default)]
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
/// pattern: for each block column, the induced submatrix dimension `n`
/// costs `2n³` FLOPs (one dense solve), inflated by the perfmodel
/// utilization curve — small matrices run far from peak, so their FLOPs
/// buy more wall time. Pattern-only and cheap: one pass over the block
/// keys (exact integer sums), and no plan is built.
///
/// The estimate prices the pattern, never the solve backend or the
/// precision a job's `NumericOptions` select: a schedule is a symbolic
/// decision (CI keeps the numeric-phase types out of this file).
pub fn estimate_pattern_cost(matrix: &DbcsrMatrix) -> f64 {
    let dims = matrix.dims();
    let mut col_dim = vec![0usize; dims.nb()];
    for (&(br, bc), _) in matrix.store().iter() {
        col_dim[bc] += dims.size(br);
    }
    // The float terms are added in ascending block column.
    let mut cost = 0.0;
    for &n in col_dim.iter().filter(|&&n| n > 0) {
        let flops = 2.0 * (n as f64).powi(3);
        cost += flops / perfmodel::matmul_utilization(1.0, n);
    }
    cost
}

/// Estimate a [`BatchJob`]'s total work: the **per-iteration** pattern
/// cost times the job's iteration budget. A one-shot matrix job is one
/// iteration; an SCF job re-evaluates the same pattern every iteration
/// (on the same cached plan) and is priced at its whole `scf.max_iter`
/// budget — this is the cost-model generalization that lets iterative
/// jobs ride the same LPT/steal machinery as one-shot evaluations.
pub fn estimate_batch_job_cost(job: &BatchJob) -> f64 {
    estimate_pattern_cost(job.input()) * job.iteration_budget() as f64
}

/// The numeric options a job will execute under (matrix jobs carry them
/// directly; SCF jobs nest them inside their [`ScfOptions`]).
pub(super) fn job_numeric(job: &BatchJob) -> &NumericOptions {
    match job {
        BatchJob::Matrix(j) => &j.numeric,
        BatchJob::Scf(j) => &j.scf.numeric,
    }
}

/// Why a job's numeric options would panic in its rank threads, if they
/// would: a Padé iteration needs order ≥ 2, zero temperature and a fixed
/// µ. An SCF job's ensemble is `ScfOptions::ensemble`, and a canonical
/// SCF run always diagonalizes.
fn numeric_refusal(job: &BatchJob) -> Option<String> {
    let numeric = job_numeric(job);
    let SignMethod::Pade(order) = numeric.solve.method else {
        return None;
    };
    let canonical = match job {
        BatchJob::Matrix(j) => matches!(j.numeric.ensemble, Ensemble::Canonical { .. }),
        BatchJob::Scf(j) if j.scf.ensemble == ScfEnsemble::Canonical => return None,
        BatchJob::Scf(_) => false,
    };
    let kt = numeric.solve.kt;
    let why = if order < 2 {
        "the sign iteration needs order >= 2".to_string()
    } else if kt != 0.0 {
        format!("kt = {kt}, but only Diagonalization smears")
    } else if canonical {
        "a canonical ensemble needs Diagonalization (Algorithm 1)".to_string()
    } else {
        return None;
    };
    Some(format!("Pade({order}): {why}"))
}

/// The one admission check, shared by [`Scheduler::try_run`](super::Scheduler::try_run),
/// the streaming service's `submit` and the serial `JobQueue`: the job's
/// cost estimate, or why it may not run. A refused job would otherwise
/// panic deep inside a rank thread (an SCF run with no iteration produces
/// no density, a Padé solve at `kt > 0` asserts) and strand its group's
/// peers in their collectives, or make the schedule undefined.
pub(crate) fn admit(job: &BatchJob) -> Result<f64, SchedError> {
    let m = job.input();
    // Extraction needs every column's diagonal block; a zero one is not stored.
    let no_diagonal = (0..m.dims().nb()).find(|&c| m.block(c, c).is_none());
    let reason = match (job, no_diagonal) {
        _ if m.grid().size() != 1 => {
            Some("job matrices must be single-rank (replicated) handles".to_string())
        }
        (BatchJob::Scf(spec), _) if spec.scf.max_iter < 1 => {
            Some("max_iter == 0 (needs at least one iteration)".to_string())
        }
        (_, Some(c)) => Some(format!("block column {c} has no diagonal block")),
        (_, None) => numeric_refusal(job),
    };
    if let Some(reason) = reason {
        let name = job.name().to_string();
        return Err(SchedError::InvalidJob { name, reason });
    }
    finite_estimate(job, estimate_batch_job_cost(job))
}

/// [`admit`]'s gate on the estimate: a schedule is a pure function of the
/// estimates, so a non-finite one is refused as [`SchedError::BadEstimate`].
fn finite_estimate(job: &BatchJob, cost: f64) -> Result<f64, SchedError> {
    if cost.is_finite() {
        Ok(cost)
    } else {
        let name = job.name().to_string();
        Err(SchedError::BadEstimate { name, cost })
    }
}

/// Deterministically partition `costs.len()` jobs over `world_size` ranks:
/// longest-job-first packing onto `min(world, jobs)` groups (respecting
/// `budget.max_groups`), then proportional rank allocation (respecting
/// `budget.max_group_size`; every group gets at least one rank; ranks no
/// group may take under the cap are folded into the largest group so no
/// rank sits idle for the whole batch).
pub fn partition(costs: &[f64], world_size: usize, budget: &RankBudget) -> SchedulePlan {
    dealt(costs, &lpt_order(costs), world_size, budget)
}

/// Longest job first, submission order breaking ties; `total_cmp` keeps
/// the sort total on a NaN (`partition` is public, so admission's check
/// may not have run). A subset keeps its own order in it.
fn lpt_order(costs: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]).then(a.cmp(&b)));
    order
}

/// [`partition`] of the jobs `order` lists, in [`lpt_order`].
fn dealt(costs: &[f64], order: &[usize], world_size: usize, budget: &RankBudget) -> SchedulePlan {
    let (groups, job_costs) = (Vec::new(), costs.to_vec());
    let mut plan = SchedulePlan {
        world_size,
        groups,
        job_costs,
    };
    deal(&mut plan, order, budget);
    plan
}

/// The one LPT packing and rank allocation (see [`partition`]): deal the
/// jobs `order` lists, in [`lpt_order`], over `plan.world_size` ranks into
/// `plan.groups`, reusing their buffers (the epoch planner deals every
/// epoch into one plan).
fn deal(plan: &mut SchedulePlan, order: &[usize], budget: &RankBudget) {
    assert!(plan.world_size >= 1, "need at least one rank");
    let mut n_groups = plan.world_size.min(order.len());
    if let Some(mg) = budget.max_groups {
        n_groups = n_groups.min(mg.max(1));
    }
    let (costs, groups) = (&plan.job_costs, &mut plan.groups);
    groups.truncate(n_groups);
    groups.resize_with(n_groups, GroupPlan::default);
    for g in groups.iter_mut() {
        (g.ranks, g.est_cost) = (0..1, 0.0);
        g.jobs.clear();
    }

    // LPT packing onto the least-loaded group.
    for &j in order {
        let g = (0..n_groups)
            .min_by(|&a, &b| groups[a].est_cost.total_cmp(&groups[b].est_cost))
            .expect("n_groups >= 1");
        groups[g].jobs.push(j);
        groups[g].est_cost += costs[j];
    }

    // Proportional rank allocation: start at one rank each, then hand the
    // remaining ranks one at a time to the group with the highest load per
    // rank (lowest index breaking ties), respecting the size cap. A group
    // holds `0..size` until the ranges are laid end to end below.
    let cap = budget.max_group_size.unwrap_or(usize::MAX).max(1);
    let mut spare = plan.world_size - n_groups;
    while n_groups > 0 && spare > 0 {
        let per_rank = |g: usize| groups[g].est_cost / groups[g].ranks.len() as f64;
        let open = (0..n_groups).filter(|&g| groups[g].ranks.len() < cap);
        let candidate = open.max_by(|&a, &b| per_rank(a).total_cmp(&per_rank(b)).then(b.cmp(&a)));
        match candidate {
            Some(g) => {
                groups[g].ranks.end += 1;
                spare -= 1;
            }
            None => {
                // Every group is capped. Fold the leftovers into the
                // largest group (lowest index breaking ties) instead of
                // leaving them idle for the whole batch.
                let g = (0..n_groups)
                    .max_by_key(|&g| (groups[g].ranks.len(), std::cmp::Reverse(g)))
                    .expect("n_groups >= 1");
                groups[g].ranks.end += spare;
                spare = 0;
            }
        }
    }
    let mut start = 0usize;
    for g in groups.iter_mut() {
        g.ranks = start..start + g.ranks.len();
        start = g.ranks.end;
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
    /// Per world rank, the index in `groups` of the group it belongs to
    /// (`None` for the dead, and for everyone in a backoff-wait epoch).
    pub rank_group: Vec<Option<usize>>,
}

impl Epoch {
    /// The group index a world rank belongs to in this epoch.
    pub fn group_of_rank(&self, rank: usize) -> Option<usize> {
        self.rank_group.get(rank).copied().flatten()
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
    /// Per job, the index within `epochs[job_epoch[job]].groups` of the
    /// group executing it (`None` exactly for quarantined jobs).
    pub job_group: Vec<Option<usize>>,
    /// Planned steal telemetry (`measured_*` fields are zero until the
    /// scheduler fills them from an actual run).
    pub planned: StealStats,
    /// Planner-side fault telemetry (injection counters zero; the
    /// scheduler fills them from the run).
    pub fault_stats: FaultStats,
}

impl EpochSchedule {
    /// The world rank acting as a job's group root on its executing
    /// attempt. Panics for quarantined jobs (they have none).
    pub fn root_of_job(&self, job: usize) -> usize {
        self.ranks_of_job(job)[0]
    }

    /// The ranks executing a job. Panics for quarantined jobs.
    pub fn ranks_of_job(&self, job: usize) -> &[usize] {
        let g = self.job_group[job]
            .unwrap_or_else(|| panic!("job {job} was quarantined and has no executing group"));
        &self.epochs[self.job_epoch[job]].groups[g].ranks
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
    // The one sort: `order` keeps the pending jobs in LPT order, so each
    // epoch deals its eligible jobs in the order `partition` would sort.
    let mut order = lpt_order(costs);
    let static_plan = dealt(costs, &order, world_size, budget);
    let mut p = dealt(costs, &[], world_size, budget);
    let n = costs.len();
    let mut home_group = vec![0usize; n];
    for (g, grp) in static_plan.groups.iter().enumerate() {
        for &j in &grp.jobs {
            home_group[j] = g;
        }
    }

    let mut alive: Vec<usize> = (0..world_size).collect();
    // The first epoch each job may run in (retries back off).
    let (mut from, mut ready) = (vec![0usize; n], Vec::new());
    let mut epochs: Vec<Epoch> = Vec::new();
    let mut job_epoch = vec![0usize; n];
    let mut job_stolen_ranks = vec![0usize; n];
    let mut job_attempts = vec![0usize; n];
    let mut quarantined = vec![false; n];
    let mut job_group = vec![None; n];
    let (mut poisoned_attempts, mut retries) = (0usize, 0usize);
    // Generous convergence bound: attempts are capped at n × retry_budget
    // and each backoff gap at 2^(retry_budget-1) wait epochs.
    let bound = 4 + world_size + n * retry_budget * (1 + (1usize << retry_budget.min(20)));
    while !order.is_empty() {
        let e = epochs.len();
        assert!(e <= bound, "epoch planner failed to converge");
        let dies_by = |r: &usize| plan.fails_at(*r).is_some_and(|at| at <= e);
        let newly_failed: Vec<usize> = alive.iter().copied().filter(dies_by).collect();
        alive.retain(|r| !dies_by(r));
        let survivors = alive.clone();

        if retries > 0 {
            // Requeued attempts back off: deal only the jobs due by now.
            ready.clear();
            ready.extend(order.iter().filter(|&&j| from[j] <= e));
        }
        let eligible = if retries > 0 { &ready } else { &order };
        if eligible.is_empty() {
            // Every pending job is backing off: survivors idle one epoch.
            epochs.push(Epoch {
                newly_failed,
                survivors,
                horizon: 0.0,
                groups: Vec::new(),
                rank_group: Vec::new(),
            });
            continue;
        }

        // Re-partition the eligible jobs over the survivors only — the
        // graceful-degradation step: a failed group's jobs re-enter this
        // deal automatically because their epochs were never recorded.
        p.world_size = survivors.len();
        deal(&mut p, eligible, budget);
        // A horizon that is zero (all-zero-cost batch) or non-finite
        // carries no ordering information — treat it as unbounded so the
        // epoch commits everything instead of deferring pathologically.
        let horizon = steal_horizon(&p);
        let unbounded = policy == StealPolicy::Disabled || !(horizon.is_finite() && horizon > 0.0);
        let mut groups = Vec::with_capacity(p.groups.len());
        let mut rank_group = vec![None; world_size];
        for grp in &p.groups {
            let ranks: Vec<usize> = grp.ranks.clone().map(|i| survivors[i]).collect();
            for &r in &ranks {
                rank_group[r] = Some(groups.len());
            }
            let ranks_f = ranks.len() as f64;
            let mut committed = Vec::with_capacity(grp.jobs.len());
            let mut cum = 0.0f64;
            for (pos, &j) in grp.jobs.iter().enumerate() {
                // Greedy fill to the horizon (LPT order, so later jobs are
                // smaller and may still fit); the leading job is always
                // committed, the rest defer to the next epoch.
                if pos > 0 && !unbounded && (cum + costs[j]) / ranks_f > horizon * (1.0 + 1e-9) {
                    continue;
                }
                cum += costs[j];
                let attempt = job_attempts[j] + 1;
                let poisoned = plan.is_poisoned(j, attempt);
                committed.push(Attempt {
                    job: j,
                    attempt,
                    poisoned,
                });
                job_attempts[j] = attempt;
                job_epoch[j] = e;
                if !poisoned {
                    job_group[j] = Some(groups.len());
                    let home = &static_plan.groups[home_group[j]].ranks;
                    job_stolen_ranks[j] = ranks.iter().filter(|r| !home.contains(r)).count();
                } else {
                    poisoned_attempts += 1;
                    if attempt >= retry_budget {
                        quarantined[j] = true;
                    } else {
                        retries += 1;
                        from[j] = e + (1usize << (attempt - 1));
                    }
                }
            }
            groups.push(EpochGroup {
                jobs: committed,
                ranks,
                est_cost: cum,
            });
        }
        // A job leaves the queue once it ran or was quarantined.
        order.retain(|&j| job_group[j].is_none() && !quarantined[j]);
        epochs.push(Epoch {
            newly_failed,
            survivors,
            horizon,
            groups,
            rank_group,
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
        job_group,
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
    let wall = |est_cost: f64, ranks: usize| est_cost / ranks as f64;
    let groups = &static_plan.groups;
    let makespan = groups.iter().map(|g| wall(g.est_cost, g.ranks.len()));
    let makespan = makespan.fold(0.0f64, f64::max);
    let mut static_idle = vec![makespan; static_plan.world_size];
    for g in groups {
        static_idle[g.ranks.clone()].fill(makespan - wall(g.est_cost, g.ranks.len()));
    }
    // Per epoch a survivor idles for the makespan less its group's wall.
    let mut epoch_idle = vec![0.0f64; static_plan.world_size];
    for wave in epochs {
        let walls = wave.groups.iter().map(|g| wall(g.est_cost, g.ranks.len()));
        let makespan = walls.fold(0.0f64, f64::max);
        for &r in &wave.survivors {
            let grp = wave.group_of_rank(r).map(|g| &wave.groups[g]);
            epoch_idle[r] += grp.map_or(makespan, |g| makespan - wall(g.est_cost, g.ranks.len()));
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

/// Typed scheduler failure, returned by [`Scheduler::try_run`](super::Scheduler::try_run)
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
    /// (a survivor timed out in the per-epoch fault consensus).
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
    /// Sends stalled by the plan's slow-rank rules.
    pub slow_stalls: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::MatrixJob;

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

    /// The group **executing** a job in an epoch, by scanning its queues
    /// (`None` if only a poisoned attempt of it is queued there) — what
    /// `EpochSchedule::job_group` tabulates.
    fn scan_group_of_job(ep: &Epoch, job: usize) -> Option<usize> {
        ep.groups
            .iter()
            .position(|g| g.jobs.iter().any(|a| a.job == job && !a.poisoned))
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
            assert!(scan_group_of_job(&s.epochs[s.job_epoch[j]], j).is_some());
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
                assert!(scan_group_of_job(&s.epochs[s.job_epoch[j]], j).is_some());
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
        // panic. Admission (`admit`) rejects such jobs up front.
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
        let err = finite_estimate(&job, f64::NAN).unwrap_err();
        match &err {
            SchedError::BadEstimate { name, cost } => {
                assert_eq!(name, "nan-cost");
                assert!(cost.is_nan());
            }
            other => panic!("expected BadEstimate, got {other:?}"),
        }
        assert!(err.to_string().contains("non-finite cost estimate"));
        assert_eq!(finite_estimate(&job, 1.0), Ok(1.0));
        assert_eq!(admit(&job), Ok(estimate_batch_job_cost(&job)));
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

    #[test]
    fn lookup_tables_agree_with_a_scan_of_the_schedule() {
        // `job_group` and every epoch's `rank_group` are filled while the
        // planner commits attempts; under steals, a rank death, retries
        // and a quarantine they must say what scanning the queues and the
        // member lists says.
        let mut costs = vec![3.0];
        costs.extend(std::iter::repeat_n(1.0, 18));
        let faulty = FaultPlan::new()
            .fail_rank(2, 1)
            .poison_job(5, 1)
            .poison_job(7, 1)
            .poison_job(7, 2);
        for (plan, retries) in [(FaultPlan::new(), 3), (faulty.clone(), 3), (faulty, 2)] {
            let s = plan_under(&costs, 6, &plan, retries);
            for j in 0..costs.len() {
                let scanned = scan_group_of_job(&s.epochs[s.job_epoch[j]], j);
                assert_eq!(s.job_group[j], scanned, "job {j}");
                assert_eq!(s.quarantined[j], scanned.is_none(), "job {j}");
                if let Some(g) = scanned {
                    let grp = &s.epochs[s.job_epoch[j]].groups[g];
                    assert_eq!(s.root_of_job(j), grp.ranks[0]);
                    assert_eq!(s.ranks_of_job(j), grp.ranks);
                }
            }
            for ep in &s.epochs {
                for r in 0..s.world_size + 1 {
                    let scanned = ep.groups.iter().position(|g| g.ranks.contains(&r));
                    assert_eq!(ep.group_of_rank(r), scanned, "rank {r}");
                }
            }
        }
        let quarantining = plan_under(&costs, 6, &FaultPlan::new().poison_job(7, 1), 1);
        assert!(quarantining.quarantined[7]);
        let no_root = std::panic::catch_unwind(|| quarantining.root_of_job(7));
        assert!(no_root.is_err(), "a quarantined job has no root");
    }

    // The planner as it was before it sorted once and dealt into reused
    // buffers: one `partition` per epoch over the eligible jobs' costs.
    // Kept verbatim as the oracle the rewrite must match schedule for
    // schedule.
    fn reference_partition(costs: &[f64], world_size: usize, budget: &RankBudget) -> SchedulePlan {
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

    fn reference_plan_epochs(
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
        let static_plan = reference_partition(costs, world_size, budget);
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
        let mut job_group = vec![None; n];
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
                    rank_group: Vec::new(),
                });
                continue;
            }

            // Re-partition the eligible jobs over the survivors only — the
            // graceful-degradation step: a failed group's jobs re-enter this
            // deal automatically because their epochs were never recorded.
            let ecosts: Vec<f64> = eligible.iter().map(|&(j, _)| costs[j]).collect();
            let p = reference_partition(&ecosts, survivors.len(), budget);
            // A horizon that is zero (all-zero-cost batch) or non-finite
            // carries no ordering information — treat it as unbounded so the
            // epoch commits everything instead of deferring pathologically.
            let horizon = steal_horizon(&p);
            let unbounded =
                policy == StealPolicy::Disabled || !(horizon.is_finite() && horizon > 0.0);
            let mut groups = Vec::with_capacity(p.groups.len());
            let mut rank_group = vec![None; world_size];
            let mut requeue: Vec<(usize, usize, usize)> = Vec::new();
            for grp in &p.groups {
                let ranks: Vec<usize> = grp.ranks.clone().map(|i| survivors[i]).collect();
                for &r in &ranks {
                    rank_group[r] = Some(groups.len());
                }
                let ranks_f = ranks.len() as f64;
                let mut committed = Vec::with_capacity(grp.jobs.len());
                let mut cum = 0.0f64;
                for (pos, &k) in grp.jobs.iter().enumerate() {
                    // Greedy fill to the horizon (LPT order, so later jobs are
                    // smaller and may still fit); the leading job is always
                    // committed, the rest defer to the next epoch.
                    if pos > 0 && !unbounded && (cum + ecosts[k]) / ranks_f > horizon * (1.0 + 1e-9)
                    {
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
                        job_group[j] = Some(groups.len());
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
                rank_group,
            });
        }

        let planned = reference_steal_stats_for(&static_plan, &epochs, &job_stolen_ranks);
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
            job_group,
            planned,
            fault_stats,
        }
    }

    fn reference_steal_stats_for(
        static_plan: &SchedulePlan,
        epochs: &[Epoch],
        job_stolen_ranks: &[usize],
    ) -> StealStats {
        let world_size = static_plan.world_size;
        let rank_idle = |survivors: &[usize], groups: &[EpochGroup]| -> Vec<f64> {
            let wall = |g: &EpochGroup| g.est_cost / g.ranks.len() as f64;
            let makespan = groups.iter().map(wall).fold(0.0f64, f64::max);
            let mut idle = vec![0.0f64; world_size];
            for &r in survivors {
                idle[r] = makespan;
            }
            for g in groups {
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
        let world: Vec<usize> = (0..world_size).collect();
        let static_idle = rank_idle(&world, &static_groups.collect::<Vec<_>>());
        let mut epoch_idle = vec![0.0f64; world_size];
        for wave in epochs {
            let idle = rank_idle(&wave.survivors, &wave.groups);
            for (r, idle) in idle.into_iter().enumerate() {
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

    /// SplitMix64, for the oracle's inputs.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        sm_dbcsr::wire::mix64(*state)
    }

    /// `n` costs with ties and zeros: most from a small set, the rest
    /// arbitrary.
    fn oracle_costs(n: usize, state: &mut u64) -> Vec<f64> {
        (0..n)
            .map(|_| match next(state) % 8 {
                0 => 0.0,
                1 | 2 => 1.0,
                3 => 2.5,
                _ => (next(state) % 1000) as f64 / 64.0,
            })
            .collect()
    }

    #[test]
    fn planner_matches_its_reference_schedule_for_schedule() {
        let budgets = [
            RankBudget::default(),
            RankBudget {
                max_group_size: Some(2),
                max_groups: None,
            },
            RankBudget {
                max_group_size: Some(1),
                max_groups: Some(3),
            },
            RankBudget {
                max_group_size: None,
                max_groups: Some(2),
            },
        ];
        let mut state = 2020u64;
        let mut cases = 0usize;
        for round in 0..24 {
            let n = (next(&mut state) % 40) as usize + usize::from(round % 6 != 0);
            let costs = oracle_costs(n, &mut state);
            for world in 1..=8 {
                for budget in &budgets {
                    let new = format!("{:?}", partition(&costs, world, budget));
                    let old = format!("{:?}", reference_partition(&costs, world, budget));
                    assert_eq!(new, old, "partition: costs {costs:?}, world {world}");
                    for policy in [StealPolicy::EpochRebalance, StealPolicy::Disabled] {
                        for retries in 1..=4 {
                            let seed = next(&mut state);
                            for plan in [FaultPlan::new(), FaultPlan::random(seed, world, n)] {
                                let new = plan_epochs_with_faults(
                                    &costs, world, budget, policy, &plan, retries,
                                );
                                let old = reference_plan_epochs(
                                    &costs, world, budget, policy, &plan, retries,
                                );
                                assert_eq!(
                                    format!("{new:?}"),
                                    format!("{old:?}"),
                                    "costs {costs:?}, world {world}, {budget:?}, {policy:?}, \
                                     retries {retries}, plan seed {seed}"
                                );
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 24 * 8 * 4 * 2 * 4 * 2);
    }

    /// The estimate as it was computed before the one-pass rewrite: through
    /// a materialised global pattern, per-column sums accumulated as `f64`.
    fn estimate_via_global_pattern(matrix: &DbcsrMatrix) -> f64 {
        let pattern = matrix.global_pattern(&sm_comsim::SerialComm::new());
        let dims = matrix.dims();
        let mut cost = 0.0;
        for bc in 0..dims.nb() {
            let n: usize = pattern.rows_in_col(bc).map(|br| dims.size(br)).sum();
            if n > 0 {
                let flops = 2.0 * (n as f64).powi(3);
                cost += flops / perfmodel::matmul_utilization(1.0, n);
            }
        }
        cost
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A one-ulp change of an estimate re-orders LPT ties and with them
        /// every committed schedule, so the one-pass estimate must be the
        /// same `f64` bit pattern as the pattern-walking one: on the banded
        /// shapes the equivalence suites draw, with non-uniform block
        /// sizes and emptied block columns.
        #[test]
        fn one_pass_estimate_is_bit_identical_to_the_pattern_walk(
            nb in 1usize..12,
            half in 0usize..4,
            seed in 0u64..1000,
        ) {
            let sizes: Vec<usize> = (0..nb).map(|b| 1 + (seed as usize + 3 * b) % 4).collect();
            let dims = sm_dbcsr::BlockedDims::new(sizes);
            let mut matrix = DbcsrMatrix::new(dims.clone(), 0, 1);
            for br in 0..nb {
                for bc in 0..nb {
                    // A band with pseudo-random holes; some seeds empty a
                    // whole block column.
                    let hole = (br * 31 + bc * 17 + seed as usize) % 5 == 1;
                    let emptied = seed % 3 == 1 && bc == seed as usize % nb;
                    if br.abs_diff(bc) <= half && !hole && !emptied {
                        let blk = sm_linalg::Matrix::zeros(dims.size(br), dims.size(bc));
                        matrix.insert_block(br, bc, blk);
                    }
                }
            }
            let new = estimate_pattern_cost(&matrix);
            let old = estimate_via_global_pattern(&matrix);
            proptest::prop_assert_eq!(new.to_bits(), old.to_bits());
        }
    }
}
