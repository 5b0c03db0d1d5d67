//! The running half of the scheduler: the [`Scheduler`] front-end, the
//! trace narrator, the one rank executor and the one job body.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_chem::ScfDriver;
use sm_comsim::{
    split_known, Comm, CommError, CommStats, FaultPlan, Payload, RankWorld, SubComm, ThreadComm,
};
use sm_core::engine::{EngineOptions, EngineReport, SubmatrixEngine};
use sm_dbcsr::{wire, DbcsrMatrix};
use sm_trace::SpanKind;

use super::plan::*;
use crate::jobs::{BatchJob, JobResult, ScfTelemetry, Share};

/// Parent-level tag namespace of the per-epoch fault consensus
/// (heartbeats to rank 0 and the committed-view fan-out).
const CONSENSUS_NS: u64 = 1 << 41;
/// Distinguishes the committed-view fan-out from the heartbeats within
/// [`CONSENSUS_NS`] (epoch indices stay far below this bit).
const CONSENSUS_VIEW_BIT: u64 = 1 << 20;
/// Deadline for the consensus's receives under a fault plan. Failure
/// detection does not rely on it — a dying rank poisons its channels, so
/// the matching receive fails in milliseconds — it is only the backstop
/// that bounds how long a pathological straggler can stall the batch.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// Outcome of one scheduled batch.
pub struct SchedulerOutcome {
    /// Per-job results in submission order.
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
/// between epochs (see the module docs for the five phases). Its batches
/// run on the one [`RankWorld`] it owns: a rank body must not start one.
pub struct Scheduler {
    engine: Arc<SubmatrixEngine>,
    budget: RankBudget,
    policy: StealPolicy,
    pub(crate) trace_label: String,
    fault_plan: FaultPlan,
    world: RankWorld,
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
            world: RankWorld::default(),
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
    /// consensus. The empty plan is the fault-free run.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        assert!(
            plan.fails_at(0).is_none(),
            "rank 0 is the coordinator and must not fail"
        );
        self.fault_plan = plan;
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

    /// The rank world every batch of this scheduler runs on.
    pub fn world(&self) -> &RankWorld {
        &self.world
    }

    /// Run a batch — one-shot [`MatrixJob`](crate::jobs::MatrixJob)s,
    /// multi-iteration [`ScfJobSpec`](crate::jobs::ScfJobSpec)s or a mix
    /// as [`BatchJob`]s — over a `world_size`-rank world and return the
    /// results in submission order; panics where [`Scheduler::try_run`]
    /// returns an error.
    ///
    /// Every job kind rides the same machinery: perfmodel cost estimation
    /// (scaled by the job's iteration budget, see
    /// [`estimate_batch_job_cost`]), LPT group packing, epoch stealing,
    /// the shared plan cache with its per-group per-epoch hit/miss
    /// consensus, and the merge of each job's per-rank shares into its
    /// [`JobResult`]. SCF jobs additionally return per-iteration telemetry
    /// in [`JobResult::scf`].
    pub fn run<J: Into<BatchJob>>(&self, world_size: usize, jobs: Vec<J>) -> SchedulerOutcome {
        self.try_run(world_size, jobs)
            .unwrap_or_else(|e| panic!("scheduled batch failed: {e}"))
    }

    /// Fallible [`Scheduler::run`]: a job the one admission check refuses
    /// and an unrecoverable communication error surface as a typed
    /// [`SchedError`] instead of a panic.
    pub fn try_run<J: Into<BatchJob>>(
        &self,
        world_size: usize,
        jobs: Vec<J>,
    ) -> Result<SchedulerOutcome, SchedError> {
        let jobs = jobs.into_iter().map(Into::into).collect();
        self.run_as(world_size, jobs, &self.trace_label)
    }

    /// [`Scheduler::try_run`] under the root span `batch:<label>` (the
    /// streaming service labels each window).
    pub(crate) fn run_as(
        &self,
        world_size: usize,
        jobs: Vec<BatchJob>,
        label: &str,
    ) -> Result<SchedulerOutcome, SchedError> {
        // Admit on the caller thread, before any rank starts.
        let costs = jobs.iter().map(admit).collect::<Result<Vec<f64>, _>>()?;
        let schedule = Arc::new(plan_epochs_with_faults(
            &costs,
            world_size,
            &self.budget,
            self.policy,
            &self.fault_plan,
            DEFAULT_RETRY_BUDGET,
        ));
        // Narrate the (already fixed) schedule on the caller thread, under
        // the batch root span: planning stays a pure function of the
        // estimates and the fault plan, the trace only observes its output.
        trace_schedule(&schedule, label);
        let (engine, jobs) = (Arc::clone(&self.engine), Arc::new(jobs));
        let (rank_jobs, shared) = (Arc::clone(&jobs), Arc::clone(&schedule));
        let (plan, rank_label) = (self.fault_plan.clone(), label.to_string());
        let (per_rank, world_stats, injected) = self.world.run(world_size, plan, move |comm| {
            run_rank(&engine, &rank_jobs, &shared, &rank_label, comm)
        });
        // Every rank has returned, and with it every other handle. A rank
        // whose planned death unwound returned nothing.
        let schedule = Arc::unwrap_or_clone(schedule);
        let mut ranks = per_rank
            .into_iter()
            .map(Option::transpose)
            .collect::<Result<Vec<_>, _>>()?;
        // Each job's result is built here from its group's shares, root
        // first; a quarantined job, which no group ran, is a placeholder.
        let results = (0..jobs.len())
            .map(|j| {
                let mut r = if schedule.quarantined[j] {
                    placeholder(&jobs[j])
                } else {
                    let group = schedule.ranks_of_job(j).iter();
                    let mut shares = group.filter_map(|&r| ranks[r].as_mut()?.shares[j].take());
                    let root = shares.next().expect("a job's root returns its share");
                    let mut r = JobResult::from_shares(jobs[j].name().to_string(), root, shares);
                    r.stolen_ranks = schedule.job_stolen_ranks[j];
                    r
                };
                r.epoch = schedule.job_epoch[j];
                r.attempts = schedule.job_attempts[j];
                r
            })
            .collect();
        let (measured_idle, measured_max_idle) = measured_idle(&ranks, &schedule, label);
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
fn trace_schedule(s: &EpochSchedule, label: &str) {
    if !sm_trace::enabled() {
        return;
    }
    let _batch = sm_trace::span(SpanKind::Batch, label);
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
    let dead_outside = |live: &[usize]| -> Vec<u64> {
        (0..comm.size())
            .filter(|r| !live.contains(r))
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

/// The result of a quarantined job, which no group ran: its name, an
/// empty matrix of its shape, and an all-zero report at its configured
/// precision.
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
        quarantined: true,
        scf: None,
    }
}

/// The measured idle seconds `(total, max)` over the final survivors: each
/// rank's idle is the slowest survivor's wall less its own busy seconds.
/// One `rank.idle` event per survivor, under the batch root span: a
/// deterministic count, wall-derived values confined to annotations, cost
/// pinned at 0.
fn measured_idle(
    ranks: &[Option<RankOutcome>],
    schedule: &EpochSchedule,
    label: &str,
) -> (f64, f64) {
    let survives = |r: &usize| {
        schedule
            .epochs
            .last()
            .is_none_or(|ep| ep.survivors.contains(r))
    };
    let survivors: Vec<(usize, &RankOutcome)> = (0..ranks.len())
        .filter(survives)
        .filter_map(|r| Some((r, ranks[r].as_ref()?)))
        .collect();
    let wall_max = survivors.iter().map(|(_, o)| o.wall).fold(0.0f64, f64::max);
    let _batch = sm_trace::span(SpanKind::Batch, label);
    let (mut total, mut max) = (0.0f64, 0.0f64);
    for (r, o) in survivors {
        let idle = (wall_max - o.busy).max(0.0);
        total += idle;
        max = max.max(idle);
        sm_trace::emit(
            "rank.idle",
            0.0,
            idle,
            &[("rank", r as f64), ("busy_s", o.busy), ("wall_s", o.wall)],
        );
    }
    (total, max)
}

/// What one world rank returns from a batch: its [`Share`] of every
/// attempt it executed, by job index, and its busy and wall seconds.
struct RankOutcome {
    shares: Vec<Option<Share>>,
    busy: f64,
    wall: f64,
}

/// One world rank's part of a scheduled batch. Per epoch: a rank whose
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
/// Every rank, a dying one included, returns the shares it finished; a
/// failed consensus is a typed [`SchedError`].
fn run_rank(
    engine: &Arc<SubmatrixEngine>,
    jobs: &[BatchJob],
    schedule: &EpochSchedule,
    label: &str,
    comm: &ThreadComm,
) -> Result<RankOutcome, SchedError> {
    // Root span of everything this rank does for the batch: spans are RAII
    // guards, so the rank thread's context stack starts empty at every
    // batch and every nested span and event lands under `batch:<label>/...`.
    let _batch_span = sm_trace::span(SpanKind::Batch, label);
    let me = comm.rank();
    let plan = comm.fault_plan();
    let my_death = plan.and_then(|p| p.fails_at(me));
    let world: Vec<usize> = (0..comm.size()).collect();
    let t_start = Instant::now();
    let mut out = RankOutcome {
        shares: (0..jobs.len()).map(|_| None).collect(),
        busy: 0.0,
        wall: 0.0,
    };

    for (e, ep) in schedule.epochs.iter().enumerate() {
        // A planned death fires at the epoch boundary, before the
        // consensus — which is exactly how the survivors find out.
        if my_death == Some(e) {
            comm.poison_peers();
            break;
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
            let share = execute_job_on_group(engine, jobs, schedule, att.job, &sub);
            out.busy += share.seconds;
            out.shares[att.job] = Some(share);
        }
    }
    out.wall = t_start.elapsed().as_secs_f64();
    Ok(out)
}

/// Execute one committed attempt of job `j` collectively on its group
/// subcommunicator and return this rank's [`Share`] of it: the result
/// blocks it owns, stored where the engine filled them, and its own
/// telemetry. The bitwise-equivalence contract (recovered job ≡ serial
/// queue) holds precisely because a retried attempt re-enters this one
/// body with only the group membership changed.
fn execute_job_on_group(
    engine: &Arc<SubmatrixEngine>,
    jobs: &[BatchJob],
    schedule: &EpochSchedule,
    j: usize,
    sub: &SubComm<'_, ThreadComm>,
) -> Share {
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
    // holds); a one-rank group's selection is that whole handle, borrowed.
    let input = job.input();
    let mut local = Cow::Borrowed(input);
    if sub.size() > 1 {
        let mut share = DbcsrMatrix::new(input.dims().clone(), sub.rank(), sub.size());
        for (&(br, bc), blk) in input.store().iter() {
            if share.is_mine(br, bc) {
                share.insert_block(br, bc, blk.clone());
            }
        }
        local = Cow::Owned(share);
    }

    // Execute collectively on the subgroup — one engine
    // evaluation for a matrix job, the whole multi-iteration SCF
    // loop for an SCF job. Either way every plan goes through the
    // shared, contended cache, whose hit/miss consensus runs on
    // `sub`, i.e. per-group per-epoch — exactly the ranks that
    // must agree on entering the collective pattern gather (SCF
    // jobs re-run that consensus every iteration, still on `sub`).
    let (result, report, scf) = match job {
        BatchJob::Matrix(mjob) => {
            let (eplan, planning) = engine.plan_for_matrix_traced(&local, sub);
            let (mut result, mut report) =
                engine.execute(&eplan, &local, mjob.mu0, &mjob.numeric, sub);
            mjob.output.finalize(&mut result, mjob.numeric.precision);
            report.record_planning(planning);
            (result, report, None)
        }
        BatchJob::Scf(spec) => {
            // The driver shares the scheduler's engine (and its plan
            // cache) across every concurrent system. Its
            // report is cached exactly when no iteration built a plan.
            let driver = ScfDriver::with_engine(spec.scf.clone(), engine.clone());
            let r = driver.run(&local, spec.mu0, spec.n_electrons, sub);
            // The iteration count is group-collective (the convergence
            // decision is made on a reduced energy every rank holds), so
            // the ranks' per-iteration byte vectors line up when the
            // caller sums them.
            let last = r.iterations.last().expect("SCF runs ≥ 1 iteration");
            let scf = ScfTelemetry {
                iterations: r.iterations.len(),
                converged: r.converged,
                final_energy: last.energy,
                final_electrons: last.electrons,
                gather_value_bytes: r.iterations.iter().map(|i| i.gather_value_bytes).collect(),
                scatter_value_bytes: r.iterations.iter().map(|i| i.scatter_value_bytes).collect(),
            };
            (r.density, r.report, Some(scf))
        }
    };
    let seconds = t.elapsed().as_secs_f64();
    let comm_bytes = sub.stats().total_bytes() - bytes0;
    let comm_msgs = sub.stats().total_msgs() - msgs0;
    // Deterministic cost = the job's perfmodel estimate; wall seconds,
    // stolen ranks and what this rank sent its group ride as annotations.
    sm_trace::emit(
        "job.done",
        est_cost,
        seconds,
        &[
            ("group_size", sub.size() as f64),
            ("stolen_ranks", stolen_ranks as f64),
            ("comm_bytes", comm_bytes as f64),
            ("comm_msgs", comm_msgs as f64),
        ],
    );
    Share {
        result,
        report,
        seconds,
        comm_bytes,
        comm_msgs,
        scf,
    }
}
