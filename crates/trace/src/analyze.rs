//! Trace analysis: span-forest reconstruction, per-epoch **critical
//! path**, per-rank idle attribution, and model-vs-measured phase skew.
//!
//! The raw `TRACE_*.jsonl` stream (one line per event/metric) is enough
//! to answer the operational questions PR 6 left open — *which job chain
//! bounds an epoch*, *which ranks idle how long*, *how wrong is the
//! perfmodel per phase* — but nobody wants to read JSONL by hand. This
//! module parses a trace back into a [`TraceDoc`], reconstructs the
//! epoch/group/job schedule from the scheduler's narration events
//! (`sched.epoch` / `sched.queue` / `sched.job`), and computes:
//!
//! * [`critical_path`] — the longest chain of job executions through the
//!   epoch barriers, in **perfmodel cost units** (deterministic: a pure
//!   function of the schedule narration, so [`CriticalPath::render`] is
//!   bit-identical across reruns and safe to assert on) and in wall-clock
//!   seconds (annotation only, per the two-clock rule);
//! * [`idle_attribution`] — per-rank idle time in cost units (from the
//!   schedule) and measured busy/wall seconds (from `rank.idle` events);
//! * [`phase_samples`] / [`phase_skew`] / [`calibrate`] — `(cost, wall)`
//!   sample pairs per engine phase (gather/solve/scatter), the per-job
//!   skew against the batch mean ("this job ran 3× slower per cost unit
//!   than the batch") and the least-squares seconds-per-unit fit;
//! * [`audit`], [`faults_by_epoch`], [`service_windows`] — the folds
//!   behind `smdoctor`'s trace audit, `faults <trace>` and `serve-report`.
//!
//! Every view is a function from a [`TraceDoc`] to a report and returns a
//! typed [`TraceError`] — never a panic, a hang or a silent zero — on a
//! trace whose lines parse but whose values make no sense.
//!
//! ## The barrier model
//!
//! Within an epoch each group executes its committed queue sequentially;
//! between epochs the scheduler re-splits the **world** communicator, a
//! collective every rank joins — a barrier. The dependency forest is
//! therefore: job `k+1` of a group's queue depends on job `k`, and every
//! job of epoch `e+1` depends on all of epoch `e`. The critical path is
//! the concatenation, over epochs, of the longest group chain, where a
//! job's cost-unit duration is `cost / ranks` (the same convention as
//! `sm_pipeline::sched::steal_horizon`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::{Event, Histogram, Metric, TRACE_SCHEMA_VERSION};

/// Largest count or index (`ranks`, `rank_start`, `job`, `pos`, an epoch
/// or group number) [`reconstruct`] accepts from a trace. The analyzers
/// allocate and loop over these, so an unbounded one from a damaged file
/// is an allocation failure or a hang; no batch this workspace can run
/// has 65536 ranks or jobs.
pub const MAX_TRACE_INDEX: usize = 1 << 16;

/// Failure while parsing or analyzing a trace — for `smdoctor`, a
/// malformed input (exit 1) whichever variant it is.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The trace file has no lines at all.
    Empty,
    /// The header line is missing, malformed, or not an `sm-trace` header.
    BadHeader(String),
    /// The header speaks a different [`TRACE_SCHEMA_VERSION`].
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this analyzer speaks.
        expected: u32,
    },
    /// A record line failed to parse (1-based line number).
    Line {
        /// 1-based line number in the file.
        line: usize,
        /// Parser message.
        msg: String,
    },
    /// The trace carries no scheduler narration to reconstruct from
    /// (traced outside a scheduler run), or that of several batches.
    NoSchedule(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Empty => write!(f, "empty trace file"),
            TraceError::BadHeader(msg) => write!(f, "bad trace header: {msg}"),
            TraceError::VersionMismatch { found, expected } => write!(
                f,
                "trace schema version mismatch: file is v{found}, analyzer speaks v{expected}"
            ),
            TraceError::Line { line, msg } => write!(f, "line {line}: {msg}"),
            TraceError::NoSchedule(msg) => write!(f, "no schedule narration: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// A trace: the session label plus every event and metric, in file
/// order. [`crate::TraceSession::to_doc`] snapshots one from a live
/// session, [`TraceDoc::parse`] reads one from JSONL text, and
/// [`TraceDoc::render`] writes that text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceDoc {
    /// Session label from the header.
    pub label: String,
    /// All events, in file/arrival order (not deterministic across rank
    /// threads — analyzers sort by deterministic keys).
    pub events: Vec<Event>,
    /// All metrics by key (the session keeps them sorted).
    pub metrics: Vec<(String, Metric)>,
}

/// Largest integer an `f64` — the only JSON number — holds exactly.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// A number. `null` is what a non-finite value is written as, and reads
/// back as NaN.
fn as_num(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::Null => Some(f64::NAN),
        _ => None,
    }
}

/// A non-negative integer.
fn as_count(v: &Json) -> Option<u64> {
    let x = v.as_f64()?;
    (x.fract() == 0.0 && (0.0..=MAX_EXACT_INT).contains(&x)).then_some(x as u64)
}

/// Member `key` of a record as `read` reads it; an absent or mistyped
/// member is an error, never a default value.
fn member<'j, T>(
    rec: &'j Json,
    key: &str,
    read: impl Fn(&'j Json) -> Option<T>,
) -> Result<T, String> {
    let found = rec.get(key).and_then(read);
    found.ok_or_else(|| format!("missing or malformed \"{key}\""))
}

/// Member `key` as an object whose every value `read` reads.
fn members<T>(
    rec: &Json,
    key: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Vec<(String, T)>, String> {
    let pairs = member(rec, key, Json::as_obj)?.iter();
    let read = pairs.map(|(k, v)| Some((k.clone(), read(v)?)));
    let all: Option<Vec<_>> = read.collect();
    all.ok_or_else(|| format!("malformed value in \"{key}\""))
}

fn parse_event(rec: &Json) -> Result<Event, String> {
    let fields = members(rec, "fields", as_num)?;
    Ok(Event {
        path: member(rec, "path", Json::as_str)?.to_string(),
        name: member(rec, "name", Json::as_str)?.to_string().into(),
        seq: member(rec, "seq", as_count)?,
        cost: member(rec, "cost", as_num)?,
        wall_s: member(rec, "wall_s", as_num)?,
        fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
    })
}

fn parse_metric(rec: &Json) -> Result<(String, Metric), String> {
    let histogram = || -> Result<Histogram, String> {
        let mut buckets = BTreeMap::new();
        for (bucket, n) in members(rec, "buckets", as_count)? {
            let bucket = bucket.parse::<i32>();
            buckets.insert(bucket.map_err(|e| format!("bucket key: {e}"))?, n);
        }
        Ok(Histogram {
            count: member(rec, "count", as_count)?,
            sum: member(rec, "sum", as_num)?,
            buckets,
        })
    };
    let metric = match member(rec, "kind", Json::as_str)? {
        "counter" => Metric::Counter(member(rec, "value", as_count)?),
        "gauge" => Metric::Gauge(member(rec, "value", as_num)?),
        "bytes_hist" => Metric::BytesHistogram(histogram()?),
        "seconds_hist" => Metric::SecondsHistogram(histogram()?),
        other => return Err(format!("unknown metric kind {other:?}")),
    };
    Ok((member(rec, "name", Json::as_str)?.to_string(), metric))
}

impl TraceDoc {
    /// Parse an exported JSONL trace stream — the exact inverse of
    /// [`render`](Self::render), except that JSON has one spelling
    /// (`null`) for every non-finite number and it reads back as NaN.
    /// Rejects foreign header versions with
    /// [`TraceError::VersionMismatch`]; a record without one of its
    /// members is a [`TraceError::Line`], never a default value.
    pub fn parse(text: &str) -> Result<TraceDoc, TraceError> {
        let mut lines = text.lines();
        let header_line = lines.next().ok_or(TraceError::Empty)?;
        let header = Json::parse(header_line).map_err(TraceError::BadHeader)?;
        if header.get("schema").and_then(Json::as_str) != Some("sm-trace") {
            return Err(TraceError::BadHeader(
                "not an sm-trace header (missing \"schema\":\"sm-trace\")".into(),
            ));
        }
        let version = member(&header, "version", as_count).map_err(TraceError::BadHeader)?;
        if version != u64::from(TRACE_SCHEMA_VERSION) {
            return Err(TraceError::VersionMismatch {
                found: u32::try_from(version).unwrap_or(u32::MAX),
                expected: TRACE_SCHEMA_VERSION,
            });
        }
        let mut doc = TraceDoc {
            label: member(&header, "label", Json::as_str)
                .map_err(TraceError::BadHeader)?
                .to_string(),
            ..TraceDoc::default()
        };
        for (i, line) in lines.enumerate() {
            let record = Json::parse(line).and_then(|rec| {
                match rec.get("type").and_then(Json::as_str) {
                    Some("event") => doc.events.push(parse_event(&rec)?),
                    Some("metric") => doc.metrics.push(parse_metric(&rec)?),
                    other => return Err(format!("unknown record type {other:?}")),
                }
                Ok(())
            });
            record.map_err(|msg| TraceError::Line { line: i + 2, msg })?;
        }
        Ok(doc)
    }

    /// The JSONL text of the trace: the header line, one line per event,
    /// one line per metric.
    pub fn render(&self) -> String {
        let header = Json::obj([
            ("schema", Json::Str("sm-trace".into())),
            ("version", Json::Num(f64::from(TRACE_SCHEMA_VERSION))),
            ("label", Json::Str(self.label.clone())),
            ("events", Json::Num(self.events.len() as f64)),
            ("metrics", Json::Num(self.metrics.len() as f64)),
        ]);
        let mut out = format!("{header}\n");
        for ev in &self.events {
            let _ = writeln!(out, "{}", ev.to_json());
        }
        for (name, metric) in &self.metrics {
            let _ = writeln!(out, "{}", metric.to_json(name));
        }
        out
    }

    /// Every event with the line [`render`](Self::render) puts it on
    /// (events follow the header in order) — what the analyzers name in
    /// a [`TraceError::Line`].
    fn numbered(&self) -> impl Iterator<Item = (usize, &Event)> {
        self.events.iter().enumerate().map(|(i, ev)| (i + 2, ev))
    }

    /// Sum of the counters whose key ends in `suffix`.
    fn counter_sum(&self, suffix: &str) -> u64 {
        let named = self.metrics.iter().filter(|(k, _)| k.ends_with(suffix));
        let values = named.filter_map(|(_, m)| match m {
            Metric::Counter(c) => Some(*c),
            _ => None,
        });
        values.sum()
    }

    /// The batch labels present in the document (from `batch:` roots of
    /// scheduler narration events), sorted.
    pub fn batch_labels(&self) -> Vec<String> {
        let mut labels: Vec<String> = self
            .events
            .iter()
            .filter(|e| e.name.starts_with("sched."))
            .filter_map(|e| path_seg(&e.path, "batch").map(str::to_string))
            .collect();
        labels.sort();
        labels.dedup();
        labels
    }
}

/// Extract the value of a `kind:` segment from a span path
/// (`path_seg("batch:svc/epoch:2", "epoch") == Some("2")`).
pub fn path_seg<'p>(path: &'p str, kind: &str) -> Option<&'p str> {
    path.split('/').find_map(|seg| {
        seg.strip_prefix(kind)
            .and_then(|rest| rest.strip_prefix(':'))
    })
}

fn path_idx(path: &str, kind: &str) -> Option<usize> {
    path_seg(path, kind).and_then(|v| v.parse().ok())
}

fn at_line(line: usize, msg: String) -> TraceError {
    TraceError::Line { line, msg }
}

/// Field `key` of the event on `line`; an event without it is malformed.
fn required(line: usize, ev: &Event, key: &str) -> Result<f64, TraceError> {
    let missing = || at_line(line, format!("{} event has no field \"{key}\"", ev.name));
    ev.field(key).ok_or_else(missing)
}

/// `value` as a count or index no larger than [`MAX_TRACE_INDEX`].
fn bounded(line: usize, what: &str, value: f64) -> Result<usize, TraceError> {
    if value.fract() == 0.0 && (0.0..=MAX_TRACE_INDEX as f64).contains(&value) {
        Ok(value as usize)
    } else {
        let msg = format!("{what} {value} is not an integer in 0..={MAX_TRACE_INDEX}");
        Err(at_line(line, msg))
    }
}

/// Field `key` of the event on `line` as a bounded count.
fn index_field(line: usize, ev: &Event, key: &str) -> Result<usize, TraceError> {
    bounded(line, key, required(line, ev, key)?)
}

/// The `kind:` segment of the event's path as a bounded index.
fn path_index(line: usize, ev: &Event, kind: &str) -> Result<usize, TraceError> {
    let seg = path_seg(&ev.path, kind).and_then(|v| v.parse::<f64>().ok());
    let missing = || at_line(line, format!("{} event outside any {kind} span", ev.name));
    bounded(line, kind, seg.ok_or_else(missing)?)
}

/// One job execution reconstructed from the schedule narration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobExec {
    /// Job submission index.
    pub job: usize,
    /// Epoch it executed in.
    pub epoch: usize,
    /// Group index within the epoch.
    pub group: usize,
    /// Position in the group's committed queue.
    pub pos: usize,
    /// Estimated job cost (perfmodel units; whole job, all ranks).
    pub cost: f64,
    /// Ranks of the executing group.
    pub ranks: usize,
    /// Measured wall seconds (max over the group's per-rank `job.done`
    /// reports; 0 when the trace has no `job.done` events). Annotation
    /// only.
    pub wall_s: f64,
    /// Ranks outside the job's static home group (0 = not stolen).
    pub stolen_ranks: usize,
}

impl JobExec {
    /// Cost-unit duration of this execution: `cost / ranks` — the same
    /// convention as the scheduler's steal horizon.
    pub fn duration_units(&self) -> f64 {
        self.cost / self.ranks.max(1) as f64
    }
}

/// One group of one epoch, reconstructed from `sched.queue`/`sched.job`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupExec {
    /// Group index within the epoch.
    pub group: usize,
    /// First world rank of the group.
    pub rank_start: usize,
    /// Number of ranks.
    pub ranks: usize,
    /// Committed estimated cost of the group's queue.
    pub est_cost: f64,
    /// The committed queue, in execution order (job submission indices).
    pub jobs: Vec<usize>,
}

/// The reconstructed epoch/group/job schedule of one traced batch.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Batch label the schedule was reconstructed under.
    pub label: String,
    /// Groups per epoch, in epoch order (group order by index).
    pub epochs: Vec<Vec<GroupExec>>,
    /// Every job execution, keyed by submission index.
    pub jobs: BTreeMap<usize, JobExec>,
    /// World size (ranks covered by epoch 0's groups).
    pub world_size: usize,
}

impl Schedule {
    /// Cost-unit length of a group's committed queue.
    fn queue_units(&self, grp: &GroupExec) -> f64 {
        let durations = grp.jobs.iter().map(|j| self.jobs[j].duration_units());
        durations.sum()
    }
}

/// Reconstruct the schedule of the batch labelled `label` (or the only
/// traced batch when `None`) from the scheduler narration events. Every
/// count it reads is checked against [`MAX_TRACE_INDEX`]: a missing,
/// negative, fractional, non-finite or larger one is a
/// [`TraceError::Line`].
pub fn reconstruct(doc: &TraceDoc, label: Option<&str>) -> Result<Schedule, TraceError> {
    let label = match label {
        Some(l) => l.to_string(),
        None => {
            let labels = doc.batch_labels();
            match labels.as_slice() {
                [] => {
                    return Err(TraceError::NoSchedule(
                        "no sched.* events in the trace".into(),
                    ))
                }
                [one] => one.clone(),
                many => {
                    return Err(TraceError::NoSchedule(format!(
                        "multiple traced batches {many:?}; pick one"
                    )))
                }
            }
        }
    };
    let root = format!("batch:{label}/");

    // sched.queue gives each (epoch, group) its rank range and committed
    // cost; sched.job (one per queued job, in queue order) the per-job
    // cost/ranks/steal attribution. Both are emitted by the caller thread
    // before execution, so they are pure functions of the schedule.
    let mut epochs: BTreeMap<usize, BTreeMap<usize, GroupExec>> = BTreeMap::new();
    let mut queue_jobs: BTreeMap<(usize, usize), Vec<JobExec>> = BTreeMap::new();
    for (line, ev) in doc.numbered() {
        if !ev.path.starts_with(&root) || !matches!(&*ev.name, "sched.queue" | "sched.job") {
            continue;
        }
        let (e, g) = (
            path_index(line, ev, "epoch")?,
            path_index(line, ev, "group")?,
        );
        let ranks = index_field(line, ev, "ranks")?;
        if ranks == 0 {
            return Err(at_line(line, format!("{} event with 0 ranks", ev.name)));
        }
        if ev.name == "sched.queue" {
            let grp = GroupExec {
                group: g,
                rank_start: index_field(line, ev, "rank_start")?,
                ranks,
                est_cost: ev.cost,
                jobs: Vec::new(),
            };
            epochs.entry(e).or_default().insert(g, grp);
        } else {
            queue_jobs.entry((e, g)).or_default().push(JobExec {
                job: index_field(line, ev, "job")?,
                epoch: e,
                group: g,
                pos: index_field(line, ev, "pos")?,
                cost: ev.cost,
                ranks,
                wall_s: 0.0,
                stolen_ranks: index_field(line, ev, "stolen_ranks")?,
            });
        }
    }
    if epochs.is_empty() {
        return Err(TraceError::NoSchedule(format!(
            "no sched.queue events under batch:{label}"
        )));
    }
    if queue_jobs.is_empty()
        && epochs
            .values()
            .any(|gs| gs.values().any(|g| g.est_cost > 0.0))
    {
        return Err(TraceError::NoSchedule(
            "no sched.job events — cannot order group queues".into(),
        ));
    }

    // Wall annotations: the max over the group's per-rank job.done events.
    let mut job_wall: BTreeMap<usize, f64> = BTreeMap::new();
    for ev in &doc.events {
        if ev.name == "job.done" && ev.path.starts_with(&root) {
            if let Some(j) = path_idx(&ev.path, "job") {
                let slot = job_wall.entry(j).or_insert(0.0);
                *slot = slot.max(ev.wall_s);
            }
        }
    }

    let mut schedule = Schedule {
        label,
        epochs: Vec::new(),
        jobs: BTreeMap::new(),
        world_size: 0,
    };
    for (e, groups) in &epochs {
        let mut level: Vec<GroupExec> = Vec::new();
        for (g, mut grp) in groups.clone() {
            let mut queued = queue_jobs.remove(&(*e, g)).unwrap_or_default();
            queued.sort_by_key(|je| je.pos);
            for mut je in queued {
                je.wall_s = job_wall.get(&je.job).copied().unwrap_or(0.0);
                grp.jobs.push(je.job);
                schedule.jobs.insert(je.job, je);
            }
            level.push(grp);
        }
        if *e == 0 {
            schedule.world_size = level
                .iter()
                .map(|g| g.rank_start + g.ranks)
                .max()
                .unwrap_or(0);
        }
        schedule.epochs.push(level);
    }
    Ok(schedule)
}

/// One step of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Job submission index.
    pub job: usize,
    /// Cost-unit duration (`cost / ranks`; deterministic).
    pub units: f64,
    /// Measured wall seconds (annotation only).
    pub wall_s: f64,
    /// Ranks the job executed on.
    pub ranks: usize,
    /// Ranks stolen from other groups (0 = none).
    pub stolen_ranks: usize,
}

/// The critical chain through one epoch: the group whose committed queue
/// bounds the epoch, with its jobs in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCritical {
    /// Epoch index.
    pub epoch: usize,
    /// Bounding group index.
    pub group: usize,
    /// Ranks of the bounding group.
    pub ranks: usize,
    /// Cost-unit length of the chain (deterministic).
    pub units: f64,
    /// Wall-clock length of the chain in seconds (annotation only).
    pub wall_s: f64,
    /// The chain's jobs.
    pub steps: Vec<PathStep>,
}

/// The critical path of one traced batch: the longest chain of job
/// executions through the epoch barriers. Cost-unit figures are
/// deterministic (assertable); wall figures are annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Batch label.
    pub label: String,
    /// World size of the traced run.
    pub world_size: usize,
    /// Per-epoch critical chains, in epoch order.
    pub epochs: Vec<EpochCritical>,
    /// Total cost-unit length (Σ over epochs; deterministic).
    pub total_units: f64,
    /// Total wall seconds along the path (annotation only).
    pub total_wall_s: f64,
    /// The job contributing the largest single cost-unit step on the
    /// path — the straggler that bounds the batch.
    pub straggler_job: Option<usize>,
    /// That job's cost-unit duration.
    pub straggler_units: f64,
}

impl CriticalPath {
    /// Deterministic rendering: epochs, bounding groups, job chains and
    /// cost-unit durations only — no wall-clock values — so two traced
    /// reruns of the same schedule render **bit-identically** (pinned by
    /// the `critical_path` test suite).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "critical path [batch:{}] world={} epochs={} total={:.6e} units",
            self.label,
            self.world_size,
            self.epochs.len(),
            self.total_units
        );
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "  epoch {} bound by group {} ({} rank(s)): {:.6e} units over {} job(s)",
                e.epoch,
                e.group,
                e.ranks,
                e.units,
                e.steps.len()
            );
            for s in &e.steps {
                let stolen = if s.stolen_ranks > 0 {
                    format!(" stolen_ranks={}", s.stolen_ranks)
                } else {
                    String::new()
                };
                let _ = writeln!(
                    out,
                    "    job {} {:.6e} units on {} rank(s){stolen}",
                    s.job, s.units, s.ranks
                );
            }
        }
        match self.straggler_job {
            Some(j) => {
                let _ = writeln!(
                    out,
                    "  straggler: job {} ({:.6e} of {:.6e} units on the path)",
                    j, self.straggler_units, self.total_units
                );
            }
            None => {
                let _ = writeln!(out, "  straggler: none (empty path)");
            }
        }
        out
    }
}

/// Compute the critical path of the batch labelled `label` (or the only
/// traced batch when `None`). See the module docs for the barrier model.
pub fn critical_path(doc: &TraceDoc, label: Option<&str>) -> Result<CriticalPath, TraceError> {
    let schedule = reconstruct(doc, label)?;
    let mut cp = CriticalPath {
        label: schedule.label.clone(),
        world_size: schedule.world_size,
        epochs: Vec::new(),
        total_units: 0.0,
        total_wall_s: 0.0,
        straggler_job: None,
        straggler_units: 0.0,
    };
    for (e, groups) in schedule.epochs.iter().enumerate() {
        // The epoch's bounding group: max Σ cost/ranks over its queue
        // (lowest group index breaking ties — deterministic).
        let mut best: Option<(&GroupExec, f64)> = None;
        for grp in groups {
            let units = schedule.queue_units(grp);
            if best.is_none_or(|(_, b)| units > b) {
                best = Some((grp, units));
            }
        }
        let Some((grp, units)) = best else { continue };
        let steps = grp.jobs.iter().map(|j| {
            let je = &schedule.jobs[j];
            PathStep {
                job: je.job,
                units: je.duration_units(),
                wall_s: je.wall_s,
                ranks: je.ranks,
                stolen_ranks: je.stolen_ranks,
            }
        });
        let steps: Vec<PathStep> = steps.collect();
        let wall_s: f64 = steps.iter().map(|s| s.wall_s).sum();
        for s in &steps {
            if cp.straggler_job.is_none() || s.units > cp.straggler_units {
                cp.straggler_job = Some(s.job);
                cp.straggler_units = s.units;
            }
        }
        cp.total_units += units;
        cp.total_wall_s += wall_s;
        cp.epochs.push(EpochCritical {
            epoch: e,
            group: grp.group,
            ranks: grp.ranks,
            units,
            wall_s,
            steps,
        });
    }
    Ok(cp)
}

/// Per-rank idle attribution of one traced batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdleReport {
    /// Estimated idle per world rank, in cost units (deterministic:
    /// per epoch, `makespan − group duration` for every rank of each
    /// group, summed over epochs).
    pub est_idle_units: Vec<f64>,
    /// Estimated makespan in cost units (Σ over epochs of the epoch
    /// bound — identical to the critical path total).
    pub est_makespan_units: f64,
    /// Measured `(busy, wall)` seconds per rank, from the `rank.idle`
    /// events (empty when the trace has none). Annotation only.
    pub measured_busy_wall_s: Vec<(f64, f64)>,
}

/// Attribute idle time to ranks. Cost-unit figures come from the
/// schedule narration (deterministic); measured figures from `rank.idle`
/// events (annotations).
pub fn idle_attribution(doc: &TraceDoc, label: Option<&str>) -> Result<IdleReport, TraceError> {
    let schedule = reconstruct(doc, label)?;
    let root = format!("batch:{}/", schedule.label);
    let world = schedule.world_size;
    let mut report = IdleReport {
        est_idle_units: vec![0.0; world],
        ..IdleReport::default()
    };
    for groups in &schedule.epochs {
        let dur = |g: &GroupExec| schedule.queue_units(g);
        let makespan = groups.iter().map(dur).fold(0.0f64, f64::max);
        report.est_makespan_units += makespan;
        for g in groups {
            let idle = makespan - dur(g);
            for r in g.rank_start..(g.rank_start + g.ranks).min(world) {
                report.est_idle_units[r] += idle;
            }
        }
    }
    let batch_root = format!("batch:{}", schedule.label);
    let mut measured: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for (line, ev) in doc.numbered() {
        if ev.name == "rank.idle" && (ev.path.starts_with(&root) || ev.path == batch_root) {
            let seconds = (required(line, ev, "busy_s")?, required(line, ev, "wall_s")?);
            measured.insert(index_field(line, ev, "rank")?, seconds);
        }
    }
    report.measured_busy_wall_s = measured.into_values().collect();
    Ok(report)
}

/// `(cost, wall_seconds)` sample pairs per engine phase
/// (`gather`/`solve`/`scatter`), from the `engine.phase` events. Gather
/// and scatter costs are planned value bytes; solve costs are perfmodel
/// cost units — each phase fits its own coefficient.
pub fn phase_samples(doc: &TraceDoc, label: &str) -> BTreeMap<String, Vec<(f64, f64)>> {
    let root = format!("batch:{label}/");
    let mut out: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for ev in &doc.events {
        if ev.name != "engine.phase" || !ev.path.starts_with(&root) {
            continue;
        }
        if let Some(phase) = path_seg(&ev.path, "phase") {
            out.entry(phase.to_string())
                .or_default()
                .push((ev.cost, ev.wall_s));
        }
    }
    out
}

/// Model-vs-measured skew per job: for each engine phase the job ran,
/// its cost-units-per-second against the batch-wide mean for the same
/// phase (1.00 = the perfmodel's relative estimate matched; below 1 =
/// slower than the model expected). Phases without measured wall time
/// are left out. Report-only — never fed back into scheduling.
pub fn phase_skew(doc: &TraceDoc, label: &str) -> BTreeMap<usize, Vec<(String, f64)>> {
    let rate = |(cost, wall): (f64, f64)| (wall > 0.0).then_some(cost / wall);
    let total = |pairs: &Vec<(f64, f64)>| {
        let sum = |(c, w), &(pc, pw)| (c + pc, w + pw);
        pairs.iter().fold((0.0, 0.0), sum)
    };
    let batch = phase_samples(doc, label);
    let root = format!("batch:{label}/");
    let mut per_job: BTreeMap<(usize, &str), (f64, f64)> = BTreeMap::new();
    for ev in &doc.events {
        if ev.name != "engine.phase" || !ev.path.starts_with(&root) {
            continue;
        }
        if let (Some(job), Some(phase)) = (path_idx(&ev.path, "job"), path_seg(&ev.path, "phase")) {
            let slot = per_job.entry((job, phase)).or_insert((0.0, 0.0));
            *slot = (slot.0 + ev.cost, slot.1 + ev.wall_s);
        }
    }
    let mut out: BTreeMap<usize, Vec<(String, f64)>> = BTreeMap::new();
    for ((job, phase), sums) in per_job {
        let mean = batch.get(phase).and_then(|pairs| rate(total(pairs)));
        if let (Some(own), Some(mean)) = (rate(sums), mean.filter(|m| *m > 0.0)) {
            out.entry(job)
                .or_default()
                .push((phase.to_string(), own / mean));
        }
    }
    out
}

/// One fitted phase coefficient: measured seconds per perfmodel cost
/// unit for one engine phase (gather/scatter costs are planned value
/// bytes, solve costs are plan cost units — each phase fits its own
/// coefficient and unit).
///
/// **Report-only.** A fit is printed by `smdoctor calibrate` and stored
/// nowhere; nothing in the scheduler or engine reads one — schedules stay
/// pure functions of the static estimates (ROADMAP invariant 3).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCoeff {
    /// Phase name (`gather` / `solve` / `scatter`).
    pub phase: String,
    /// Least-squares slope through the origin: seconds per cost unit.
    pub seconds_per_unit: f64,
    /// Coefficient of determination of the through-origin fit (1 = the
    /// model explains all variance; ≤ 0 = worse than predicting zero).
    pub r_squared: f64,
    /// Number of `(cost, seconds)` samples fitted.
    pub samples: usize,
    /// Total cost units observed.
    pub total_cost: f64,
    /// Total measured seconds observed.
    pub total_seconds: f64,
}

/// Least-squares fit of `seconds ≈ k · cost` through the origin over
/// `(cost, seconds)` samples of one phase: `k = Σ(cost·s) / Σ(cost²)`,
/// with R² measured against the mean-seconds baseline. Returns `None`
/// when the samples carry no usable signal (empty, or all costs zero).
fn fit_seconds_per_unit(phase: &str, samples: &[(f64, f64)]) -> Option<PhaseCoeff> {
    let mut sum_cs = 0.0;
    let mut sum_cc = 0.0;
    let mut sum_s = 0.0;
    let mut sum_c = 0.0;
    for &(cost, secs) in samples {
        sum_cs += cost * secs;
        sum_cc += cost * cost;
        sum_s += secs;
        sum_c += cost;
    }
    if samples.is_empty() || sum_cc <= 0.0 {
        return None;
    }
    let k = sum_cs / sum_cc;
    let mean_s = sum_s / samples.len() as f64;
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for &(cost, secs) in samples {
        ss_res += (secs - k * cost).powi(2);
        ss_tot += (secs - mean_s).powi(2);
    }
    let r_squared = if ss_tot > 0.0 {
        1.0 - ss_res / ss_tot
    } else if ss_res == 0.0 {
        1.0
    } else {
        0.0
    };
    Some(PhaseCoeff {
        phase: phase.to_string(),
        seconds_per_unit: k,
        r_squared,
        samples: samples.len(),
        total_cost: sum_c,
        total_seconds: sum_s,
    })
}

/// The per-phase fits of one traced batch, in sorted phase order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationReport {
    /// Batch label the samples were taken under.
    pub label: String,
    /// Per-phase fits.
    pub phases: Vec<PhaseCoeff>,
}

impl CalibrationReport {
    /// The report as one JSON object (deterministic key order).
    pub fn to_json(&self) -> Json {
        let phase_obj = |p: &PhaseCoeff| {
            Json::obj([
                ("phase", Json::Str(p.phase.clone())),
                ("seconds_per_unit", Json::Num(p.seconds_per_unit)),
                ("r_squared", Json::Num(p.r_squared)),
                ("samples", Json::Num(p.samples as f64)),
                ("total_cost", Json::Num(p.total_cost)),
                ("total_seconds", Json::Num(p.total_seconds)),
            ])
        };
        Json::obj([
            ("label", Json::Str(self.label.clone())),
            (
                "phases",
                Json::Arr(self.phases.iter().map(phase_obj).collect()),
            ),
        ])
    }
}

/// Fit per-phase coefficients from the `engine.phase` events of the
/// traced batch `label`. Phases with no usable signal (no samples, or
/// all costs zero) are omitted.
pub fn calibrate(doc: &TraceDoc, label: &str) -> CalibrationReport {
    let samples = phase_samples(doc, label);
    let fits = samples
        .iter()
        .filter_map(|(phase, pairs)| fit_seconds_per_unit(phase, pairs));
    CalibrationReport {
        label: label.to_string(),
        phases: fits.collect(),
    }
}

/// One epoch of [`TraceAudit::epochs`]: the committed/deferred split
/// `sched.epoch` narrated and the steals `sched.steal` listed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSplit {
    /// Groups of the epoch.
    pub groups: f64,
    /// Jobs committed to a queue.
    pub committed: f64,
    /// Jobs deferred to a later epoch.
    pub deferred: f64,
    /// Jobs that borrowed ranks.
    pub stolen_jobs: u64,
    /// Ranks borrowed, over all of them.
    pub stolen_ranks: u64,
}

/// Measured idle seconds over the `rank.idle` events of a trace (one per
/// world rank; the event's `wall_s` is the rank's idle time, its `wall_s`
/// *field* the batch makespan). Annotation only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdleSummary {
    /// Ranks reporting.
    pub ranks: usize,
    /// Batch makespan in seconds.
    pub makespan_s: f64,
    /// Idle seconds summed over ranks.
    pub total_idle_s: f64,
    /// The rank that idled longest, and for how long.
    pub worst: (f64, f64),
}

/// The ops report of one trace — the fold behind `smdoctor`'s audit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAudit {
    /// `label=… events=… metrics=…` of the document.
    pub header: String,
    /// Plan-cache hits, builds and evictions summed over engine roots.
    pub plan_cache: [u64; 3],
    /// Largest final plan-cache occupancy gauge.
    pub occupancy: f64,
    /// Steal effectiveness per epoch index.
    pub epochs: BTreeMap<usize, EpochSplit>,
    /// The measured idle breakdown, when the trace has `rank.idle` events.
    pub idle: Option<IdleSummary>,
    /// Engine value bytes by precision (non-zero ones).
    pub value_bytes: Vec<(&'static str, u64)>,
    /// Communicator `(class, bytes, messages)` (classes that sent).
    pub comm: Vec<(&'static str, u64, u64)>,
    /// The cost-unit critical path, when the trace narrates a schedule.
    pub critical: Option<CriticalPath>,
}

/// Fold a trace into its ops report. A `sched.epoch` or `rank.idle`
/// event without its fields and a batch [`reconstruct`] refuses are
/// errors; a trace that narrates no schedule, or several, just has no
/// critical path.
pub fn audit(doc: &TraceDoc) -> Result<TraceAudit, TraceError> {
    let mut report = TraceAudit {
        header: format!(
            "label={} events={} metrics={}",
            doc.label,
            doc.events.len(),
            doc.metrics.len()
        ),
        plan_cache: ["hits", "builds", "evictions"]
            .map(|what| doc.counter_sum(&format!("/plan_cache.{what}"))),
        ..TraceAudit::default()
    };
    for (name, metric) in &doc.metrics {
        if let (true, Metric::Gauge(g)) = (name.ends_with("/plan_cache.occupancy"), metric) {
            report.occupancy = report.occupancy.max(*g);
        }
    }
    for (line, ev) in doc.numbered() {
        let field = |key| required(line, ev, key);
        match (&*ev.name, path_idx(&ev.path, "epoch")) {
            ("sched.epoch", Some(e)) => {
                let split = report.epochs.entry(e).or_default();
                split.groups = field("groups")?;
                split.committed = field("committed")?;
                split.deferred = field("deferred")?;
            }
            ("sched.steal", Some(e)) => {
                let split = report.epochs.entry(e).or_default();
                split.stolen_jobs += 1;
                split.stolen_ranks += field("stolen_ranks")? as u64;
            }
            ("rank.idle", _) => {
                let (rank, makespan) = (field("rank")?, field("wall_s")?);
                let idle = report.idle.get_or_insert(IdleSummary {
                    worst: (rank, f64::NEG_INFINITY),
                    ..IdleSummary::default()
                });
                idle.ranks += 1;
                idle.makespan_s = idle.makespan_s.max(makespan);
                idle.total_idle_s += ev.wall_s;
                if ev.wall_s.total_cmp(&idle.worst.1).is_ge() {
                    idle.worst = (rank, ev.wall_s);
                }
            }
            _ => {}
        }
    }
    for prec in ["fp64", "fp32", "fp32_refined"] {
        let bytes = doc.counter_sum(&format!("/engine.value_bytes.{prec}"));
        report
            .value_bytes
            .extend((bytes > 0).then_some((prec, bytes)));
    }
    for class in ["collective", "p2p"] {
        let bytes = doc.counter_sum(&format!("/comm.{class}.bytes"));
        let msgs = doc.counter_sum(&format!("/comm.{class}.msgs"));
        report
            .comm
            .extend((msgs > 0).then_some((class, bytes, msgs)));
    }
    // Every narrated batch must reconstruct; the path of an only one is
    // reported.
    let mut paths = Vec::new();
    for label in doc.batch_labels() {
        match critical_path(doc, Some(&label)) {
            Ok(cp) => paths.push(cp),
            Err(TraceError::NoSchedule(_)) => {}
            Err(e) => return Err(e),
        }
    }
    report.critical = paths.pop().filter(|_| paths.is_empty());
    Ok(report)
}

impl TraceAudit {
    /// The report as `smdoctor` prints it, one indented line per finding.
    pub fn render(&self) -> String {
        let mut out = format!("  {}\n", self.header);
        let [hits, builds, evictions] = self.plan_cache;
        if builds + hits > 0 {
            let _ = writeln!(
                out,
                "  plan cache: {hits} hits / {builds} builds ({:.1}% hit rate), \
                 {evictions} evictions, occupancy {:.0}",
                100.0 * hits as f64 / (hits + builds) as f64,
                self.occupancy
            );
        }
        for (e, s) in &self.epochs {
            let _ = writeln!(
                out,
                "  epoch {e}: {:.0} groups, {:.0} committed / {:.0} deferred, \
                 {} stolen job(s) over {} rank(s)",
                s.groups, s.committed, s.deferred, s.stolen_jobs, s.stolen_ranks
            );
        }
        if let Some(idle) = &self.idle {
            let _ = writeln!(
                out,
                "  idle: {} ranks, makespan {:.3}s, total idle {:.3}s (worst rank {:.0}: {:.3}s)",
                idle.ranks, idle.makespan_s, idle.total_idle_s, idle.worst.0, idle.worst.1
            );
        }
        for (prec, bytes) in &self.value_bytes {
            let _ = writeln!(out, "  engine value bytes [{prec}]: {bytes}");
        }
        for (class, bytes, msgs) in &self.comm {
            let _ = writeln!(out, "  comm [{class}]: {bytes} bytes in {msgs} message(s)");
        }
        if let Some(cp) = &self.critical {
            let _ = writeln!(
                out,
                "  critical path: {:.6e} units over {} epoch(s), straggler job {:?}",
                cp.total_units,
                cp.epochs.len(),
                cp.straggler_job
            );
        }
        out
    }
}

/// Count the recovery narration of a trace per epoch:
/// `[fault.injected, sched.retry, job.quarantined]` events. An event
/// outside any epoch span counts under epoch 0.
pub fn faults_by_epoch(doc: &TraceDoc) -> BTreeMap<usize, [u64; 3]> {
    let mut per_epoch: BTreeMap<usize, [u64; 3]> = BTreeMap::new();
    for ev in &doc.events {
        let slot = match &*ev.name {
            "fault.injected" => 0,
            "sched.retry" => 1,
            "job.quarantined" => 2,
            _ => continue,
        };
        per_epoch
            .entry(path_idx(&ev.path, "epoch").unwrap_or(0))
            .or_default()[slot] += 1;
    }
    per_epoch
}

/// One admission window of a streaming-service trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WindowReport {
    /// Window index.
    pub window: u64,
    /// Jobs admitted into the window.
    pub admitted: u64,
    /// Submissions the bounded queue had refused by then (lifetime).
    pub queue_rejects: u64,
    /// Epochs of the window's scheduler run.
    pub epochs: u64,
    /// Jobs those epochs committed.
    pub committed: u64,
    /// Jobs those epochs deferred.
    pub deferred: u64,
}

/// The admission history of a streaming-service trace, in window order:
/// `service.window` narrates what each window admitted, and the
/// `sched.epoch` events under the window's `batch:<label>.w<N>` root the
/// commit/defer splits of its scheduler run. Empty when the trace carries
/// no service narration.
pub fn service_windows(doc: &TraceDoc) -> Result<Vec<WindowReport>, TraceError> {
    let mut windows: BTreeMap<u64, WindowReport> = BTreeMap::new();
    let mut epochs: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
    for (line, ev) in doc.numbered() {
        let field = |key| required(line, ev, key).map(|v| v as u64);
        if ev.name == "service.window" {
            let report = WindowReport {
                window: field("window")?,
                admitted: field("admitted")?,
                queue_rejects: field("queue_rejects")?,
                ..WindowReport::default()
            };
            windows.insert(report.window, report);
        } else if ev.name == "sched.epoch" {
            let label = path_seg(&ev.path, "batch").and_then(|l| l.rsplit_once(".w"));
            if let Some(w) = label.and_then(|(_, w)| w.parse().ok()) {
                let [n, committed, deferred] = epochs.entry(w).or_default();
                *n += 1;
                *committed += field("committed")?;
                *deferred += field("deferred")?;
            }
        }
    }
    let rows = windows.into_values().map(|mut w| {
        [w.epochs, w.committed, w.deferred] = epochs.get(&w.window).copied().unwrap_or_default();
        w
    });
    Ok(rows.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSession;

    /// An event as a parsed line holds it (owned name and keys).
    fn mk(
        path: &str,
        name: &str,
        seq: u64,
        cost: f64,
        wall_s: f64,
        fields: &[(&str, f64)],
    ) -> Event {
        Event {
            path: path.into(),
            name: name.to_string().into(),
            seq,
            cost,
            wall_s,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string().into(), *v))
                .collect(),
        }
    }

    /// A miniature two-epoch schedule narration: epoch 0 has two groups
    /// (group 0: jobs 0,2 on 1 rank; group 1: job 1 on 1 rank), epoch 1
    /// one group of 2 ranks running job 3 (1 stolen rank).
    fn narrated_doc() -> TraceDoc {
        let b = "batch:t";
        TraceDoc {
            label: "t".into(),
            events: vec![
                mk(
                    &format!("{b}/epoch:0/group:0"),
                    "sched.queue",
                    0,
                    100.0,
                    0.0,
                    &[("jobs", 2.0), ("ranks", 1.0), ("rank_start", 0.0)],
                ),
                mk(
                    &format!("{b}/epoch:0/group:0"),
                    "sched.job",
                    1,
                    60.0,
                    0.0,
                    &[
                        ("job", 0.0),
                        ("pos", 0.0),
                        ("ranks", 1.0),
                        ("stolen_ranks", 0.0),
                    ],
                ),
                mk(
                    &format!("{b}/epoch:0/group:0"),
                    "sched.job",
                    2,
                    40.0,
                    0.0,
                    &[
                        ("job", 2.0),
                        ("pos", 1.0),
                        ("ranks", 1.0),
                        ("stolen_ranks", 0.0),
                    ],
                ),
                mk(
                    &format!("{b}/epoch:0/group:1"),
                    "sched.queue",
                    3,
                    30.0,
                    0.0,
                    &[("jobs", 1.0), ("ranks", 1.0), ("rank_start", 1.0)],
                ),
                mk(
                    &format!("{b}/epoch:0/group:1"),
                    "sched.job",
                    4,
                    30.0,
                    0.0,
                    &[
                        ("job", 1.0),
                        ("pos", 0.0),
                        ("ranks", 1.0),
                        ("stolen_ranks", 0.0),
                    ],
                ),
                mk(
                    &format!("{b}/epoch:1/group:0"),
                    "sched.queue",
                    5,
                    50.0,
                    0.0,
                    &[("jobs", 1.0), ("ranks", 2.0), ("rank_start", 0.0)],
                ),
                mk(
                    &format!("{b}/epoch:1/group:0"),
                    "sched.job",
                    6,
                    50.0,
                    0.0,
                    &[
                        ("job", 3.0),
                        ("pos", 0.0),
                        ("ranks", 2.0),
                        ("stolen_ranks", 1.0),
                    ],
                ),
                mk(
                    &format!("{b}/epoch:0/group:0/job:0"),
                    "job.done",
                    7,
                    60.0,
                    0.5,
                    &[("group_size", 1.0)],
                ),
                mk(
                    &format!("{b}/epoch:0/group:0/job:0/iter:0/phase:solve"),
                    "engine.phase",
                    8,
                    60.0,
                    0.4,
                    &[],
                ),
                mk(
                    &format!("{b}/epoch:0/group:0/job:0/iter:0/phase:gather"),
                    "engine.phase",
                    9,
                    128.0,
                    0.01,
                    &[],
                ),
                mk(
                    "batch:t",
                    "rank.idle",
                    10,
                    0.0,
                    0.2,
                    &[("rank", 1.0), ("busy_s", 0.3), ("wall_s", 0.5)],
                ),
            ],
            metrics: Vec::new(),
        }
    }

    #[test]
    fn reconstructs_epochs_groups_and_queue_order() {
        let s = reconstruct(&narrated_doc(), None).unwrap();
        assert_eq!(s.label, "t");
        assert_eq!(s.world_size, 2);
        assert_eq!(s.epochs.len(), 2);
        assert_eq!(s.epochs[0][0].jobs, vec![0, 2]);
        assert_eq!(s.epochs[0][1].jobs, vec![1]);
        assert_eq!(s.epochs[1][0].jobs, vec![3]);
        assert_eq!(s.jobs[&3].stolen_ranks, 1);
        assert_eq!(s.jobs[&0].wall_s, 0.5);
    }

    #[test]
    fn critical_path_walks_the_bounding_chain() {
        let cp = critical_path(&narrated_doc(), Some("t")).unwrap();
        // Epoch 0: group 0 runs 60+40=100 units on 1 rank vs group 1's
        // 30; epoch 1: job 3 on 2 ranks = 25 units. Total 125.
        assert_eq!(cp.epochs.len(), 2);
        assert_eq!(cp.epochs[0].group, 0);
        assert_eq!(
            cp.epochs[0].steps.iter().map(|s| s.job).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!((cp.total_units - 125.0).abs() < 1e-12);
        assert_eq!(cp.straggler_job, Some(0));
        assert!((cp.straggler_units - 60.0).abs() < 1e-12);
        // Deterministic rendering mentions the straggler and no wall
        // values.
        let r = cp.render();
        assert!(r.contains("straggler: job 0"));
        assert!(!r.contains("wall"));
        // A second analysis of the same doc renders bit-identically.
        assert_eq!(r, critical_path(&narrated_doc(), None).unwrap().render());
    }

    #[test]
    fn idle_attribution_charges_waiting_ranks() {
        let idle = idle_attribution(&narrated_doc(), None).unwrap();
        // Epoch 0 makespan 100: rank 0 idles 0, rank 1 idles 70.
        // Epoch 1: one group covers both ranks — no idle.
        assert_eq!(idle.est_idle_units, vec![0.0, 70.0]);
        assert!((idle.est_makespan_units - 125.0).abs() < 1e-12);
        assert_eq!(idle.measured_busy_wall_s, vec![(0.3, 0.5)]);
    }

    #[test]
    fn phase_samples_split_by_phase() {
        let samples = phase_samples(&narrated_doc(), "t");
        assert_eq!(samples["solve"], vec![(60.0, 0.4)]);
        assert_eq!(samples["gather"], vec![(128.0, 0.01)]);
        // Job 0 is the only job sampled, so it runs at the batch mean.
        let skew = phase_skew(&narrated_doc(), "t");
        assert_eq!(
            skew[&0],
            [("gather".to_string(), 1.0), ("solve".to_string(), 1.0)]
        );
    }

    #[test]
    fn parse_rejects_foreign_versions_and_garbage() {
        assert_eq!(TraceDoc::parse("").unwrap_err(), TraceError::Empty);
        assert!(matches!(
            TraceDoc::parse("{\"schema\":\"other\"}").unwrap_err(),
            TraceError::BadHeader(_)
        ));
        let wrong = format!(
            "{{\"schema\":\"sm-trace\",\"version\":{},\"label\":\"x\"}}",
            TRACE_SCHEMA_VERSION + 7
        );
        assert!(matches!(
            TraceDoc::parse(&wrong).unwrap_err(),
            TraceError::VersionMismatch { .. }
        ));
        let good_header = format!(
            "{{\"schema\":\"sm-trace\",\"version\":{TRACE_SCHEMA_VERSION},\"label\":\"x\"}}"
        );
        let with_bad_line = format!("{good_header}\nnot json");
        assert!(matches!(
            TraceDoc::parse(&with_bad_line).unwrap_err(),
            TraceError::Line { line: 2, .. }
        ));
        let ok = TraceDoc::parse(&good_header).unwrap();
        assert_eq!(ok.label, "x");
        assert!(matches!(
            reconstruct(&ok, None).unwrap_err(),
            TraceError::NoSchedule(_)
        ));
    }

    #[test]
    fn jsonl_roundtrip_through_session_export() {
        let session = TraceSession::start("rt");
        {
            let _b = crate::span(crate::SpanKind::Batch, "rt");
            let _e = crate::span(crate::SpanKind::Epoch, 0);
            let _g = crate::span(crate::SpanKind::Group, 0);
            crate::emit(
                "sched.queue",
                10.0,
                0.0,
                &[("jobs", 1.0), ("ranks", 1.0), ("rank_start", 0.0)],
            );
            crate::emit(
                "sched.job",
                10.0,
                0.0,
                &[
                    ("job", 0.0),
                    ("pos", 0.0),
                    ("ranks", 1.0),
                    ("stolen_ranks", 0.0),
                ],
            );
            crate::counter_add(&crate::scoped("c"), 3);
        }
        let path = std::env::temp_dir().join("sm_trace_analyze_roundtrip.jsonl");
        session.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = TraceDoc::parse(&text).unwrap();
        assert_eq!(doc.label, "rt");
        assert_eq!(doc.events.len(), 2);
        assert_eq!(doc.metrics.len(), 1);
        // The parsed doc and the live session agree on the critical path.
        let from_file = critical_path(&doc, Some("rt")).unwrap().render();
        assert_eq!(doc, session.to_doc(), "parse inverts write_jsonl");
        let live = critical_path(&session.to_doc(), Some("rt"))
            .unwrap()
            .render();
        assert_eq!(from_file, live);
        assert!(from_file.contains("job 0"));
    }

    #[test]
    fn parse_refuses_a_record_without_one_of_its_members() {
        let doc = TraceDoc {
            label: "m".into(),
            events: vec![mk("batch:m", "ev", 3, 1.5, 0.25, &[("k", 2.0)])],
            metrics: vec![("m/c".into(), Metric::Counter(7))],
        };
        let text = doc.render();
        assert_eq!(TraceDoc::parse(&text).unwrap(), doc);
        // Dropping any member of the event line is an error on line 2 —
        // the parent read "" or 0.0 there.
        for member in [
            "\"path\":\"batch:m\",",
            "\"name\":\"ev\",",
            "\"seq\":3,",
            "\"cost\":1.5,",
            "\"wall_s\":0.25,",
        ] {
            assert!(text.contains(member), "{member} in {text}");
            let err = TraceDoc::parse(&text.replace(member, "")).unwrap_err();
            assert!(
                matches!(err, TraceError::Line { line: 2, .. }),
                "{member}: {err}"
            );
        }
        for (from, to) in [
            ("\"seq\":3", "\"seq\":-3"),
            ("\"seq\":3", "\"seq\":3.5"),
            ("\"cost\":1.5", "\"cost\":\"x\""),
            ("\"k\":2", "\"k\":true"),
            ("\"value\":7", "\"value\":1e18"),
            ("\"kind\":\"counter\"", "\"kind\":\"tally\""),
        ] {
            let err = TraceDoc::parse(&text.replace(from, to)).unwrap_err();
            assert!(matches!(err, TraceError::Line { .. }), "{to}: {err}");
        }
        // The header's version is an integer, and it has a label.
        for (from, to) in [
            ("\"version\":3", "\"version\":3.5"),
            ("\"label\":\"m\",", ""),
        ] {
            let err = TraceDoc::parse(&text.replace(from, to)).unwrap_err();
            assert!(matches!(err, TraceError::BadHeader(_)), "{to}: {err}");
        }
    }

    /// The exact edit of ISSUE 18: one `sched.queue` line claims 1e18
    /// ranks. The parent sized a vector by it (`idle_attribution`) and
    /// looped over it (`chrome_trace`) until the allocator aborted.
    #[test]
    fn a_count_of_1e18_is_a_typed_error_naming_the_line_in_every_view() {
        let text = narrated_doc().render();
        let queue = text
            .lines()
            .position(|l| l.contains("sched.queue"))
            .unwrap();
        let bad: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, l)| match i == queue {
                true => l.replacen("\"ranks\":1", "\"ranks\":1e18", 1),
                false => l.to_string(),
            })
            .collect();
        let bad = bad.join("\n");
        assert_ne!(bad, text.trim_end());
        let doc = TraceDoc::parse(&bad).expect("the line is well-formed JSON");
        let want = |err: TraceError| {
            assert!(
                matches!(err, TraceError::Line { line, .. } if line == queue + 1),
                "{err}"
            );
        };
        want(reconstruct(&doc, None).unwrap_err());
        want(critical_path(&doc, None).unwrap_err());
        want(idle_attribution(&doc, None).unwrap_err());
        want(crate::chrome::export(&doc, None).unwrap_err());
        want(audit(&doc).unwrap_err());
        // Every other way a count can be wrong, on a live document.
        for value in [
            -1.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            (MAX_TRACE_INDEX + 1) as f64,
        ] {
            for (name, key) in [
                ("sched.queue", "ranks"),
                ("sched.queue", "rank_start"),
                ("sched.job", "job"),
                ("sched.job", "pos"),
                ("sched.job", "stolen_ranks"),
            ] {
                let mut doc = narrated_doc();
                let ev = doc.events.iter_mut().find(|e| e.name == name).unwrap();
                ev.fields.iter_mut().find(|(k, _)| k == key).unwrap().1 = value;
                let err = reconstruct(&doc, None).unwrap_err();
                assert!(
                    matches!(err, TraceError::Line { .. }),
                    "{key}={value}: {err}"
                );
            }
        }
        for path in [
            "batch:t/epoch:99999999/group:0",
            "batch:t/epoch:0/group:-1",
            "batch:t/epoch:0",
        ] {
            let mut doc = narrated_doc();
            doc.events[0].path = path.into();
            let err = reconstruct(&doc, None).unwrap_err();
            assert!(
                matches!(err, TraceError::Line { line: 2, .. }),
                "{path}: {err}"
            );
        }
    }

    #[test]
    fn phase_skew_rates_each_job_against_the_batch_mean() {
        let mut doc = narrated_doc();
        // Job 2 solves the same 60 units four times slower than job 0.
        doc.events.push(mk(
            "batch:t/epoch:0/group:0/job:2/iter:0/phase:solve",
            "engine.phase",
            11,
            60.0,
            1.6,
            &[],
        ));
        let skew = phase_skew(&doc, "t");
        // Batch mean: 120 units / 2.0 s = 60 units/s.
        assert_eq!(skew[&0][1], ("solve".to_string(), 2.5));
        assert_eq!(skew[&2], [("solve".to_string(), 0.625)]);
        // A phase nobody measured is left out, not reported as 0 or inf.
        doc.events.iter_mut().for_each(|e| e.wall_s = 0.0);
        assert!(phase_skew(&doc, "t").is_empty());
    }

    #[test]
    fn fit_recovers_exact_linear_coefficient() {
        let samples: Vec<(f64, f64)> = (1..=10)
            .map(|i| (i as f64 * 100.0, i as f64 * 0.003))
            .collect();
        let fit = fit_seconds_per_unit("solve", &samples).unwrap();
        assert!((fit.seconds_per_unit - 3e-5).abs() < 1e-15);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert_eq!(fit.samples, 10);
        assert!((fit.total_cost - 5500.0).abs() < 1e-9);
    }

    #[test]
    fn fit_reports_poor_r_squared_on_noise() {
        // Seconds uncorrelated with cost: the slope still minimizes the
        // residual but R² must be far below 1.
        let samples = [
            (100.0, 0.5),
            (200.0, 0.1),
            (300.0, 0.9),
            (400.0, 0.05),
            (500.0, 0.6),
        ];
        let fit = fit_seconds_per_unit("gather", &samples).unwrap();
        assert!(fit.r_squared < 0.5, "r² = {}", fit.r_squared);
    }

    #[test]
    fn fit_rejects_degenerate_samples() {
        assert!(fit_seconds_per_unit("solve", &[]).is_none());
        assert!(fit_seconds_per_unit("solve", &[(0.0, 1.0), (0.0, 2.0)]).is_none());
        assert!(fit_seconds_per_unit("solve", &[(10.0, 0.1)]).is_some());
    }

    fn doc_with_phases() -> TraceDoc {
        let ev = |tail: &str, cost, wall| {
            let path = format!("batch:c/epoch:0/group:0/job:0/{tail}");
            mk(&path, "engine.phase", 0, cost, wall, &[])
        };
        TraceDoc {
            label: "c".into(),
            events: vec![
                ev("iter:0/phase:solve", 100.0, 0.01),
                ev("iter:1/phase:solve", 200.0, 0.02),
                ev("iter:0/phase:gather", 4096.0, 0.001),
                // Zero-cost phase: contributes no usable signal alone.
                ev("iter:0/phase:scatter", 0.0, 0.002),
            ],
            metrics: Vec::new(),
        }
    }

    #[test]
    fn fits_each_phase_and_omits_degenerate_ones() {
        let report = calibrate(&doc_with_phases(), "c");
        // Sorted phase order; all-zero-cost scatter has no slope to fit.
        let [gather, solve] = &report.phases[..] else {
            panic!("gather and solve fitted: {report:?}");
        };
        assert_eq!(
            (gather.phase.as_str(), solve.phase.as_str()),
            ("gather", "solve")
        );
        assert!((solve.seconds_per_unit - 1e-4).abs() < 1e-12);
        assert_eq!(solve.samples, 2);
    }

    #[test]
    fn calibration_json_has_stable_keys() {
        let data = calibrate(&doc_with_phases(), "c").to_json();
        let text = data.to_string();
        assert!(text.starts_with(
            "{\"label\":\"c\",\"phases\":[{\"phase\":\"gather\",\"seconds_per_unit\":"
        ));
        assert!(text.contains("\"phase\":\"solve\""));
        assert_eq!(Json::parse(&text).unwrap(), data);
    }

    #[test]
    fn audit_folds_cache_steals_idle_bytes_and_the_critical_path() {
        let mut doc = narrated_doc();
        let e0 = "batch:t/epoch:0";
        doc.events.extend([
            mk(
                e0,
                "sched.epoch",
                12,
                0.0,
                0.0,
                &[("groups", 2.0), ("committed", 3.0), ("deferred", 1.0)],
            ),
            mk(
                e0,
                "sched.steal",
                13,
                0.0,
                0.0,
                &[("job", 3.0), ("stolen_ranks", 1.0)],
            ),
            mk(
                "batch:t",
                "rank.idle",
                14,
                0.0,
                0.1,
                &[("rank", 0.0), ("busy_s", 0.4), ("wall_s", 0.5)],
            ),
        ]);
        let counter = |k: &str, v| (format!("batch:t/{k}"), Metric::Counter(v));
        doc.metrics = vec![
            counter("plan_cache.hits", 6),
            counter("plan_cache.builds", 2),
            ("other/plan_cache.hits".into(), Metric::Counter(1)),
            ("batch:t/plan_cache.occupancy".into(), Metric::Gauge(2.0)),
            counter("engine.value_bytes.fp32", 4096),
            counter("epoch:0/group:0/comm.p2p.bytes", 640),
            counter("epoch:0/group:0/comm.p2p.msgs", 5),
        ];
        let report = audit(&doc).unwrap();
        assert_eq!(report.plan_cache, [7, 2, 0]);
        assert_eq!(report.epochs[&0].stolen_ranks, 1);
        assert_eq!(report.idle.as_ref().unwrap().worst, (1.0, 0.2));
        assert_eq!(
            report.render(),
            "  label=t events=14 metrics=7\n  \
             plan cache: 7 hits / 2 builds (77.8% hit rate), 0 evictions, occupancy 2\n  \
             epoch 0: 2 groups, 3 committed / 1 deferred, 1 stolen job(s) over 1 rank(s)\n  \
             idle: 2 ranks, makespan 0.500s, total idle 0.300s (worst rank 1: 0.200s)\n  \
             engine value bytes [fp32]: 4096\n  \
             comm [p2p]: 640 bytes in 5 message(s)\n  \
             critical path: 1.250000e2 units over 2 epoch(s), straggler job Some(0)\n"
        );
        // No schedule narration: the same report without a critical path.
        doc.events
            .retain(|e| !e.name.starts_with("sched.q") && e.name != "sched.job");
        assert!(audit(&doc).unwrap().critical.is_none());
        // A rank.idle event without its fields is malformed, not idle-free.
        doc.events.last_mut().unwrap().fields.remove(0);
        let err = audit(&doc).unwrap_err();
        assert!(
            err.to_string()
                .contains("rank.idle event has no field \"rank\""),
            "{err}"
        );
    }

    #[test]
    fn faults_are_counted_per_epoch() {
        let ev = |path: &str, name: &str| mk(path, name, 0, 0.0, 0.0, &[]);
        let doc = TraceDoc {
            label: "f".into(),
            events: vec![
                ev("batch:f/epoch:1", "fault.injected"),
                ev("batch:f/epoch:1/group:0", "sched.retry"),
                ev("batch:f/epoch:1/group:0", "sched.retry"),
                ev("batch:f/epoch:2/group:0", "job.quarantined"),
                ev("batch:f", "fault.injected"), // no epoch span
                ev("batch:f/epoch:1", "sched.epoch"),
            ],
            metrics: Vec::new(),
        };
        let faults = faults_by_epoch(&doc);
        assert_eq!(faults.len(), 3);
        assert_eq!(
            (faults[&0], faults[&1], faults[&2]),
            ([1, 0, 0], [1, 2, 0], [0, 0, 1])
        );
        assert!(faults_by_epoch(&narrated_doc()).is_empty());
    }

    #[test]
    fn service_windows_join_admissions_with_their_epoch_splits() {
        let window = |w: f64, admitted: f64| {
            let fields = [("window", w), ("admitted", admitted), ("queue_rejects", w)];
            mk("untraced", "service.window", 0, 0.0, 0.0, &fields)
        };
        let epoch = |w: u32, e: u32, committed: f64, deferred: f64| {
            let fields = [
                ("groups", 1.0),
                ("committed", committed),
                ("deferred", deferred),
            ];
            mk(
                &format!("batch:svc.w{w}/epoch:{e}"),
                "sched.epoch",
                0,
                0.0,
                0.0,
                &fields,
            )
        };
        let mut doc = TraceDoc {
            label: "svc".into(),
            events: vec![
                window(1.0, 4.0),
                epoch(1, 0, 3.0, 1.0),
                epoch(1, 1, 1.0, 0.0),
                window(0.0, 3.0),
                epoch(0, 0, 3.0, 0.0),
                epoch(7, 0, 9.0, 9.0), // a window nobody narrated
            ],
            metrics: Vec::new(),
        };
        let rows = service_windows(&doc).unwrap();
        let row = |window, admitted, queue_rejects, epochs, committed, deferred| WindowReport {
            window,
            admitted,
            queue_rejects,
            epochs,
            committed,
            deferred,
        };
        assert_eq!(rows, [row(0, 3, 0, 1, 3, 0), row(1, 4, 1, 2, 4, 1)]);
        assert_eq!(service_windows(&narrated_doc()).unwrap(), []);
        doc.events[0].fields.pop();
        let err = service_windows(&doc).unwrap_err();
        assert!(matches!(err, TraceError::Line { line: 2, .. }), "{err}");
    }
}
