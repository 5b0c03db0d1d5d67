//! The benchmark's own span recorder. Spans are opened around calls into
//! the crates' public functions, from outside: no crate under `crates/`
//! knows it is being traced. Kept in memory, written once at exit.

use std::time::Instant;

use sm_trace::json::Json;

pub struct Span {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The timed op this span belongs to (inherited from `bench.op`).
    pub op: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Single-threaded recorder: the open spans form a stack, so a span's
/// parent is whatever was open when it started.
pub struct Recorder {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<usize>,
}

impl Recorder {
    /// `enabled = false` is the untraced run: `timed` still times, nothing
    /// is stored.
    pub fn new(enabled: bool, t0: Instant) -> Self {
        Recorder {
            enabled,
            t0,
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }

    /// The untraced run's recorder.
    pub fn off() -> Self {
        Recorder::new(false, Instant::now())
    }

    /// Run `f` inside a span called `name`; returns its result and its
    /// wall seconds.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                start_s: (start - self.t0).as_secs_f64(),
                end_s: f64::NAN,
                parent: self.open.last().copied(),
                op: self.op,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_s = (end - self.t0).as_secs_f64();
            self.open.pop();
        }
        (out, (end - start).as_secs_f64())
    }

    /// [`timed`](Self::timed) for callers that do not need the seconds.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.timed(name, f).0
    }

    /// A `bench.op` span: children inherit `op` as their op id.
    pub fn op<R>(&mut self, op: usize, f: impl FnOnce(&mut Recorder) -> R) -> (R, f64) {
        self.op = Some(op);
        let out = self.timed("bench.op", f);
        self.op = None;
        out
    }

    /// Append a span measured elsewhere (a rank thread) under the
    /// currently open span. `start_s` is relative to that span's start.
    pub fn adopt(&mut self, name: &'static str, start_s: f64, duration_s: f64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied();
        let base = parent.map_or(0.0, |p| self.spans[p].start_s);
        self.spans.push(Span {
            name,
            start_s: base + start_s,
            end_s: base + start_s + duration_s,
            parent,
            op: self.op,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus what its children cover.
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.duration();
            }
        }
        own
    }

    /// Summed duration of the spans called `name` inside op `op`.
    pub fn op_total(&self, op: usize, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.op == Some(op) && s.name == name)
            .map(Span::duration)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let own = self.self_seconds();
        let opt = |v: Option<usize>| v.map_or(Json::Null, |x| Json::Num(x as f64));
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .enumerate()
                .map(|(id, (s, self_s))| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.to_string())),
                        ("start_s", Json::Num(s.start_s)),
                        ("end_s", Json::Num(s.end_s)),
                        ("self_s", Json::Num(self_s)),
                        ("parent", opt(s.parent)),
                        ("op", opt(s.op)),
                    ])
                })
                .collect(),
        )
    }
}
