//! # sm-trace — deterministic structured tracing
//!
//! The observability substrate of the submatrix stack: hierarchical
//! structured **spans** (batch → epoch → group → job → SCF iteration →
//! phase), **events** recorded under them, and a JSONL emitter the
//! `smdoctor` CLI consumes. An event is the one record kind: every figure
//! a reader sums (plan-cache decisions, value bytes, communication) is a
//! field or the cost of an event, never a second tally beside it.
//!
//! ## The two-clock rule
//!
//! Every event carries two clocks:
//!
//! * a **deterministic logical clock** — the event's span path plus its
//!   per-thread sequence number and a *cost* in perfmodel units (plan
//!   cost, planned bytes). These are pure functions of the schedule and
//!   the inputs, so tests may assert on them exactly: the
//!   [`TraceSession::span_tree`] rendering (paths, event names, event
//!   counts, cost maxima) is **bit-identical across reruns** at a fixed
//!   world size.
//! * **wall-time annotations** (`wall_s`) — recorded
//!   for humans and for `smdoctor`'s idle breakdowns, but *never* fed
//!   back into scheduling and never part of the deterministic view.
//!
//! Event *fields* are excluded from that view: the hit/build split of
//! `plan.decision`'s `built` field can shift with benign plan-cache races
//! between concurrent groups (the consensus identity fixes only the sum),
//! so the deterministic contract covers the span tree, not field sums.
//!
//! ## Non-perturbation
//!
//! Tracing is **off by default** (one relaxed atomic load on the hot
//! path) and, when enabled, only *observes*: nothing in this crate feeds
//! measurements back into any scheduling or numeric decision. The
//! `stealing_equivalence`/`scf_service_equivalence` suites pin that
//! instrumented grand-canonical batches stay bitwise-identical to serial
//! execution.
//!
//! ## Sessions
//!
//! Recording happens inside a [`TraceSession`], which holds a global
//! lock so concurrent tests cannot interleave sessions. Instrumented
//! code that runs *outside* any span context while a session is active
//! records under the `untraced` root; session consumers filter with
//! [`TraceSession::span_tree_under`] using their own batch label, so
//! unrelated concurrent work cannot pollute an assertion.
//!
//! ## Schema
//!
//! [`TraceSession::write_jsonl`] emits one self-describing header line
//! (carrying [`TRACE_SCHEMA_VERSION`]), then one line per event, and
//! [`analyze::TraceDoc::parse`] is its exact inverse.
//! The JSONL stream is the **only stored** observability artifact:
//! Perfetto timelines, calibration fits and every `smdoctor` report are
//! views computed from a [`analyze::TraceDoc`] on demand.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

pub mod analyze;
pub mod chrome;
pub mod json;

use json::Json;

/// Version of the JSONL trace schema; [`analyze::TraceDoc::parse`]
/// refuses any other. Bump only with a note in `ARCHITECTURE.md`.
///
/// The scheduler narration readers key on, by field name: `sched.epoch`
/// carries `groups`, `committed`, `deferred`, `survivors`, `failed`;
/// `sched.queue` carries `jobs`, `ranks`, `rank_start`; `sched.job`
/// carries `job`, `pos`, `ranks`, `stolen_ranks`, `attempt`, `poisoned`;
/// `job.done` carries `group_size`, `stolen_ranks`, `comm_bytes`,
/// `comm_msgs`; a faulty batch adds `fault.injected`, `sched.retry` and
/// `job.quarantined` events. The engine's: `plan.decision` carries
/// `built` and `occupancy`; the gather and scatter `engine.phase` events
/// `precision` (0 = fp64, 1 = fp32, 2 = fp32_refined).
pub const TRACE_SCHEMA_VERSION: u32 = 6;

/// Root path used for events recorded while no span context is
/// installed on the emitting thread.
pub const UNTRACED_ROOT: &str = "untraced";

/// The typed span hierarchy, top to bottom. Each level contributes one
/// `kind:value` segment to the span path (e.g.
/// `batch:svc/epoch:0/group:1/job:3/iter:2/phase:solve`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// One scheduled batch (the root; its value is the batch label).
    Batch,
    /// One epoch of the steal schedule.
    Epoch,
    /// One subcommunicator group within an epoch.
    Group,
    /// One job (by submission index).
    Job,
    /// One SCF iteration within an iterative job.
    Iteration,
    /// One engine phase (`plan` / `gather` / `solve` / `scatter` / ...).
    Phase,
}

impl SpanKind {
    /// Stable lowercase label used in span paths and the JSONL stream.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Batch => "batch",
            SpanKind::Epoch => "epoch",
            SpanKind::Group => "group",
            SpanKind::Job => "job",
            SpanKind::Iteration => "iter",
            SpanKind::Phase => "phase",
        }
    }
}

/// One trace event, recorded live or parsed back from a JSONL line.
/// Names and field keys are `&'static str` at every emit site and are
/// only owned when read from a file.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Hierarchical span path the event was emitted under.
    pub path: String,
    /// Event name (a stable identifier, e.g. `engine.phase`).
    pub name: Cow<'static, str>,
    /// Per-thread logical sequence number (deterministic: every rank
    /// thread's execution order is deterministic, and the rank executors
    /// restart it at 0 as each rank body starts, see [`reset_seq`]).
    pub seq: u64,
    /// Deterministic logical cost of the event, in perfmodel units
    /// (estimated cost, planned bytes); safe to assert on.
    pub cost: f64,
    /// Wall-time annotation in seconds (never deterministic, never fed
    /// back into scheduling, never part of the deterministic view).
    pub wall_s: f64,
    /// Auxiliary numeric fields; excluded from the deterministic span
    /// tree (they may carry wall-derived values).
    pub fields: Vec<(Cow<'static, str>, f64)>,
}

impl Event {
    /// Auxiliary field by name. A reader that tolerates absence writes
    /// its default at the call.
    pub fn field(&self, key: &str) -> Option<f64> {
        let found = self.fields.iter().find(|(k, _)| k == key);
        found.map(|(_, v)| *v)
    }

    /// The event's JSONL record.
    pub(crate) fn to_json(&self) -> Json {
        let fields = self.fields.iter();
        let fields = fields.map(|(k, v)| (k.to_string(), Json::Num(*v)));
        Json::obj([
            ("type", Json::Str("event".into())),
            ("path", Json::Str(self.path.clone())),
            ("name", Json::Str(self.name.to_string())),
            ("seq", Json::Num(self.seq as f64)),
            ("cost", Json::Num(self.cost)),
            ("wall_s", Json::Num(self.wall_s)),
            ("fields", Json::Obj(fields.collect())),
        ])
    }
}

#[derive(Default)]
struct TraceState {
    events: Vec<Event>,
    label: String,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION: Mutex<()> = Mutex::new(());

fn state() -> &'static Mutex<TraceState> {
    static STATE: OnceLock<Mutex<TraceState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(TraceState::default()))
}

fn lock_state() -> MutexGuard<'static, TraceState> {
    state().lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static CONTEXT: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static SEQ: Cell<u64> = const { Cell::new(0) };
}

/// Whether a [`TraceSession`] is currently recording. One relaxed atomic
/// load — the entire overhead instrumented hot paths pay when tracing is
/// off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Restart the calling thread's [`Event::seq`] numbering at 0. A rank
/// executor whose threads outlive a batch calls it as each rank body
/// starts, so a batch numbers its events as it would on fresh threads.
pub fn reset_seq() {
    SEQ.with(|s| s.set(0));
}

/// RAII guard of one span segment; pops the segment from the emitting
/// thread's context stack on drop.
#[must_use = "the span ends when the guard drops"]
pub struct SpanGuard {
    pop: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.pop {
            CONTEXT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
}

/// Push a `kind:value` segment onto the current thread's span context.
/// No-op (and allocation-free) when tracing is disabled.
pub fn span(kind: SpanKind, value: impl std::fmt::Display) -> SpanGuard {
    if !enabled() {
        return SpanGuard { pop: false };
    }
    CONTEXT.with(|c| c.borrow_mut().push(format!("{}:{value}", kind.label())));
    SpanGuard { pop: true }
}

/// The emitting thread's current span path (`/`-joined segments), or
/// [`UNTRACED_ROOT`] when no span is installed.
pub fn current_path() -> String {
    CONTEXT.with(|c| {
        let c = c.borrow();
        if c.is_empty() {
            UNTRACED_ROOT.to_string()
        } else {
            c.join("/")
        }
    })
}

/// Record an event at the current span path. `cost` is the deterministic
/// logical cost; `wall_s` a wall-time annotation; `fields` auxiliary
/// values (excluded from the deterministic span tree). No-op when
/// tracing is disabled.
pub fn emit(name: &'static str, cost: f64, wall_s: f64, fields: &[(&'static str, f64)]) {
    if !enabled() {
        return;
    }
    let path = current_path();
    let seq = SEQ.with(|s| {
        let v = s.get();
        s.set(v + 1);
        v
    });
    let fields = fields.iter().map(|&(k, v)| (Cow::Borrowed(k), v)).collect();
    lock_state().events.push(Event {
        path,
        name: Cow::Borrowed(name),
        seq,
        cost,
        wall_s,
        fields,
    });
}

/// An exclusive recording session: clears all buffers, enables tracing,
/// and holds a global lock so concurrent sessions serialize. Tracing is
/// disabled again when the session drops.
pub struct TraceSession {
    _excl: MutexGuard<'static, ()>,
}

impl TraceSession {
    /// Start recording under `label` (conventionally the batch label the
    /// traced scheduler run uses, so consumers can filter with
    /// [`span_tree_under`](Self::span_tree_under)).
    pub fn start(label: &str) -> TraceSession {
        let excl = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut st = lock_state();
            st.events.clear();
            st.label = label.to_string();
        }
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { _excl: excl }
    }

    /// Snapshot of every recorded event, in arrival order (arrival order
    /// is *not* deterministic across rank threads; sort by `(path, name,
    /// seq)` — or use [`span_tree`](Self::span_tree) — for a
    /// deterministic view).
    pub fn events(&self) -> Vec<Event> {
        lock_state().events.clone()
    }

    /// The **deterministic span tree**: every span path (sorted), each
    /// with its event names, counts and per-name cost maxima. Wall-time
    /// annotations and auxiliary fields are excluded, so
    /// this rendering is bit-identical across reruns of a deterministic
    /// schedule at fixed world size — the representation tests assert on.
    pub fn span_tree(&self) -> String {
        self.span_tree_under("")
    }

    /// [`span_tree`](Self::span_tree) restricted to paths under `prefix`
    /// (use the traced batch's label root, e.g. `batch:mylabel`, to
    /// exclude unrelated concurrent work).
    pub fn span_tree_under(&self, prefix: &str) -> String {
        let st = lock_state();
        let mut tree: BTreeMap<&str, BTreeMap<&str, (u64, f64)>> = BTreeMap::new();
        for ev in st.events.iter() {
            if !under_prefix(&ev.path, prefix) {
                continue;
            }
            let names = tree.entry(&ev.path).or_default();
            let slot = names.entry(&ev.name).or_insert((0, f64::NEG_INFINITY));
            slot.0 += 1;
            slot.1 = slot.1.max(ev.cost);
        }
        let mut out = String::new();
        for (path, names) in &tree {
            let _ = writeln!(out, "{path}");
            for (name, (count, cost_max)) in names {
                let _ = writeln!(out, "  {name} x{count} cost_max={cost_max:.6e}");
            }
        }
        out
    }

    /// Write the session as a JSONL trace ([`analyze::TraceDoc::render`]
    /// of [`to_doc`](Self::to_doc)): a self-describing header line
    /// (schema name, [`TRACE_SCHEMA_VERSION`], label, event count), then
    /// one line per event.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_doc().render())
    }

    /// Snapshot the session as the document every analyzer reads — the
    /// same one [`analyze::TraceDoc::parse`] yields from the exported
    /// JSONL stream.
    pub fn to_doc(&self) -> analyze::TraceDoc {
        let st = lock_state();
        analyze::TraceDoc {
            label: st.label.clone(),
            events: st.events.clone(),
        }
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
    }
}

/// Whether span path `path` is `prefix` or lies under it (every path
/// lies under the empty prefix).
fn under_prefix(path: &str, prefix: &str) -> bool {
    prefix.is_empty()
        || path == prefix
        || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_session_scoped() {
        // Other tests of this binary run sessions at the same time: look
        // while none can be live.
        let disabled_outside_sessions = || {
            let _excl = SESSION.lock().unwrap_or_else(|e| e.into_inner());
            emit("noop", 1.0, 0.0, &[]); // dropped silently
            !enabled()
        };
        assert!(disabled_outside_sessions());
        let session = TraceSession::start("t-session");
        assert!(enabled());
        emit("hello", 2.0, 0.0, &[]);
        assert_eq!(session.events().len(), 1);
        drop(session);
        assert!(disabled_outside_sessions());
    }

    #[test]
    fn spans_nest_and_scope_keys() {
        let session = TraceSession::start("t-spans");
        assert_eq!(current_path(), UNTRACED_ROOT);
        let _b = span(SpanKind::Batch, "x");
        {
            let _e = span(SpanKind::Epoch, 0);
            let _g = span(SpanKind::Group, 2);
            assert_eq!(current_path(), "batch:x/epoch:0/group:2");
            emit("comm", 0.0, 0.0, &[]);
            let events = session.events();
            assert_eq!(events[0].path, "batch:x/epoch:0/group:2");
        }
        assert_eq!(current_path(), "batch:x");
    }

    #[test]
    fn span_tree_is_deterministic_across_thread_interleavings() {
        let tree = |spread: u64| {
            let session = TraceSession::start("t-tree");
            std::thread::scope(|s| {
                for r in 0..4u64 {
                    s.spawn(move || {
                        // Perturb the interleaving; the tree must not care.
                        std::thread::sleep(std::time::Duration::from_micros(r * spread));
                        let _b = span(SpanKind::Batch, "t-tree");
                        let _g = span(SpanKind::Group, r % 2);
                        emit(
                            "work",
                            10.0 * (r % 2) as f64,
                            r as f64,
                            &[("rank", r as f64)],
                        );
                    });
                }
            });
            session.span_tree_under("batch:t-tree")
        };
        let a = tree(0);
        let b = tree(700);
        assert_eq!(a, b);
        assert!(a.contains("batch:t-tree/group:0"));
        assert!(a.contains("work x2"));
    }

    #[test]
    fn jsonl_has_versioned_header_and_one_line_per_record() {
        let session = TraceSession::start("t-jsonl");
        let _b = span(SpanKind::Batch, "j");
        emit("ev", 1.5, 0.125, &[("k", 2.0)]);
        let path = std::env::temp_dir().join("sm_trace_test_trace.jsonl");
        session.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(&format!("\"version\":{TRACE_SCHEMA_VERSION}")));
        assert!(lines[0].contains("\"schema\":\"sm-trace\""));
        assert!(!lines[0].contains("metrics"));
        assert!(lines[1].contains("\"type\":\"event\""));
        assert!(lines[1].contains("\"path\":\"batch:j\""));
        assert!(lines[1].contains("\"cost\":1.5"));
    }

    #[test]
    fn parse_inverts_render_for_every_record_kind() {
        use analyze::TraceDoc;
        let session = TraceSession::start("t-\"round\"\n\ttrip\\");
        {
            let _b = span(SpanKind::Batch, "j\"q\"");
            emit(
                "ev",
                1.0,
                0.0,
                &[
                    ("k", 2.0),
                    ("big", 1e300),
                    ("tiny", -2.5e-7),
                    ("g\u{1}", 0.5),
                ],
            );
            emit("bare", -0.0, 1e15, &[]);
        }
        let doc = session.to_doc();
        assert_eq!(doc.events.len(), 2);
        let text = doc.render();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(TraceDoc::parse(&text).unwrap(), doc);

        // JSON spells every non-finite number `null`, which reads back as
        // NaN: such a document re-renders to the same bytes.
        emit("inf", f64::INFINITY, f64::NAN, &[("k", f64::NEG_INFINITY)]);
        let text = session.to_doc().render();
        assert!(text.contains("\"cost\":null,\"wall_s\":null,\"fields\":{\"k\":null}"));
        let back = TraceDoc::parse(&text).unwrap();
        let inf = back.events.last().unwrap();
        assert!(inf.cost.is_nan() && inf.wall_s.is_nan() && inf.field("k").unwrap().is_nan());
        assert_eq!(back.render(), text);
    }

    #[test]
    fn untraced_root_collects_contextless_records() {
        let session = TraceSession::start("t-untraced");
        emit("stray", 0.0, 0.0, &[]);
        let tree = session.span_tree();
        assert!(tree.contains(UNTRACED_ROOT));
        assert_eq!(session.events()[0].path, UNTRACED_ROOT);
        // And a labeled filter excludes them.
        assert!(session.span_tree_under("batch:none").is_empty());
    }
}
