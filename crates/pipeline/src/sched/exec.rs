//! The running half of the scheduler: the [`Scheduler`] front-end, the
//! trace narrator, the one rank executor and the one job body.

use std::borrow::Cow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sm_chem::ScfDriver;
use sm_comsim::{
    split_known, Comm, CommError, CommStats, FaultPlan, Payload, RankWorld, ReduceOp, SubComm,
    ThreadComm,
};
use sm_core::engine::{EngineOptions, SubmatrixEngine};
use sm_core::transfers::TransferStats;
use sm_dbcsr::wire::ValueFormat;
use sm_dbcsr::{wire, DbcsrMatrix};
use sm_trace::SpanKind;

use super::plan::*;
use super::telemetry::{decode_telemetry, encode_telemetry, placeholder};
use crate::jobs::{BatchJob, JobResult, ScfTelemetry};

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
    /// as [`BatchJob`]s — over a `world_size`-rank world and gather the
    /// results (in submission order) on world rank 0; panics where
    /// [`Scheduler::try_run`] returns an error.
    ///
    /// Every job kind rides the same machinery: perfmodel cost estimation
    /// (scaled by the job's iteration budget, see
    /// [`estimate_batch_job_cost`]), LPT group packing, epoch stealing,
    /// the shared plan cache with its per-group per-epoch hit/miss
    /// consensus, and the telemetry gather to world rank 0. SCF jobs
    /// additionally return per-iteration telemetry in
    /// [`JobResult::scf`].
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
        let (engine, label) = (Arc::clone(&self.engine), label.to_string());
        let (jobs, shared) = (Arc::new(jobs), Arc::clone(&schedule));
        let plan = self.fault_plan.clone();
        let (mut per_rank, world_stats, injected) = self.world.run(world_size, plan, move |comm| {
            run_rank(&engine, &jobs, &shared, &label, comm)
        });
        // Every rank has returned, and with it every other handle.
        let schedule = Arc::unwrap_or_clone(schedule);
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
/// returns every job's result (kept in memory if it rooted the job, else
/// received from the root; quarantined placeholders synthesized locally)
/// plus the measured `(total, max)` idle seconds over the final
/// survivors, or a typed [`SchedError`] if collection fails unrecoverably.
#[allow(clippy::type_complexity)]
fn run_rank(
    engine: &Arc<SubmatrixEngine>,
    jobs: &[BatchJob],
    schedule: &EpochSchedule,
    label: &str,
    comm: &ThreadComm,
) -> Result<Option<(Vec<JobResult>, (f64, f64))>, SchedError> {
    // Root span of everything this rank does for the batch: spans are RAII
    // guards, so the rank thread's context stack starts empty at every
    // batch and every nested span/metric lands under `batch:<label>/...`.
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
    // By job index: what this rank rooted as world rank 0.
    let mut kept: Vec<Option<JobResult>> = vec![None; jobs.len()];

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
            let (seconds, done) = execute_job_on_group(engine, jobs, schedule, att, &sub, comm, e);
            busy += seconds;
            kept[att.job] = done;
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

    // Result collection: a job rank 0 rooted is taken from `kept`, any
    // other executed job is received from the root the schedule names;
    // quarantined jobs keep the empty placeholder, carrying only the fault
    // bookkeeping (their groups never executed, so nothing was sent).
    let results = (0..jobs.len())
        .map(|j| {
            if let Some(done) = kept[j].take() {
                return Ok(done);
            }
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
/// subcommunicator; the group root finishes the [`JobResult`] and either
/// returns it (it is world rank 0: what stays on a rank is moved) or ships
/// it there, packed, over the job's reserved tags. The bitwise-equivalence
/// contract (recovered job ≡ serial queue) holds precisely because a
/// retried attempt re-enters this one body with only the group membership
/// changed. Also returns the wall seconds this rank spent on the job.
fn execute_job_on_group(
    engine: &Arc<SubmatrixEngine>,
    jobs: &[BatchJob],
    schedule: &EpochSchedule,
    att: &Attempt,
    sub: &SubComm<'_, ThreadComm>,
    comm: &ThreadComm,
    epoch: usize,
) -> (f64, Option<JobResult>) {
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
    let (mut result, mut report, built_now, scf_local) = match job {
        BatchJob::Matrix(mjob) => {
            let (eplan, planning) = engine.plan_for_matrix_traced(&local, sub);
            let (mut result, mut report) =
                engine.execute(&eplan, &local, mjob.mu0, &mjob.numeric, sub);
            mjob.output.finalize(&mut result, mjob.numeric.precision);
            report.record_planning(planning);
            (result, report, planning.built, None)
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
            (r.density, r.report, r.symbolic_builds > 0, Some(scf))
        }
    };
    // The value encoding of both result gathers follows the job's
    // precision: plain-Fp32 matrix results are f32-representable, so the
    // f32 wire is lossless and halves the bytes. SCF densities stay f64
    // under every precision (the driver never applies that rounding).
    let result_format = match job {
        BatchJob::Matrix(m) if m.numeric.precision.scatter_is_f32() => ValueFormat::F32,
        _ => ValueFormat::F64,
    };

    // Gather result blocks to the group root: plain point-to-point
    // sends (an alltoallv here would move O(group²) empty
    // payloads and pollute the per-job traffic telemetry). The root's
    // own blocks stay in the store the engine filled.
    if sub.rank() != 0 {
        let (meta, data) = wire::pack_blocks_prec(result.store().iter(), result_format);
        sub.send(0, GATHER_META_TAG, Payload::U64(meta));
        sub.send(0, GATHER_DATA_TAG, data);
    } else if sub.size() > 1 {
        let mut whole = DbcsrMatrix::new(input.dims().clone(), 0, 1);
        *whole.store_mut() = std::mem::take(result.store_mut());
        for src in 1..sub.size() {
            let meta = sub.recv(src, GATHER_META_TAG).into_u64();
            let data = sub.recv(src, GATHER_DATA_TAG);
            for ((br, bc), blk) in wire::unpack_blocks_prec(input.dims(), &meta, data) {
                whole.insert_block(br, bc, blk);
            }
        }
        result = whole;
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

    // The group root finishes the job: world rank 0 keeps what it rooted,
    // any other root ships it there — in the job's result format too: the
    // largest per-job message also halves for plain-Fp32 jobs, losslessly.
    let mut kept = None;
    if sub.rank() == 0 {
        let done = JobResult {
            name: job.name().to_string(),
            result,
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
        if comm.rank() == 0 {
            kept = Some(done);
        } else {
            let (meta, data) = wire::pack_blocks_prec(done.result.store().iter(), result_format);
            comm.send(0, result_tag(j, 0), Payload::U64(meta));
            comm.send(0, result_tag(j, 1), data);
            comm.send(0, result_tag(j, 2), Payload::F64(encode_telemetry(&done)));
        }
    }
    (t.elapsed().as_secs_f64(), kept)
}
