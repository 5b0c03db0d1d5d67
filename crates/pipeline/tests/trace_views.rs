//! The trace is the one observability artifact, so two things are pinned
//! here on *real* traces (the synthetic-input unit tests of each view
//! live beside it in `sm_trace::analyze`):
//!
//! * **one clock** — the wall seconds a job's `EngineReport` carries are
//!   the wall annotations of that job's phase events, bit for bit
//!   (ROADMAP item 3: "nothing checks they agree");
//! * **no trace takes a reader down** — every single-line corruption of a
//!   trace is, for `TraceDoc::parse` and then for every `smdoctor` view,
//!   success or a typed `TraceError`: never a panic, an allocation
//!   failure or a hang (ROADMAP item 5a).

use std::sync::Arc;

use sm_chem::ScfEnsemble;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{
    EngineOptions, JobQueue, MatrixJob, Priority, RankBudget, ScfJobSpec, Scheduler, ServiceConfig,
    StealPolicy, StreamingScfService, SubmatrixEngine,
};
use sm_trace::analyze::{self, TraceDoc, TraceError};
use sm_trace::{SpanKind, TraceSession};

mod common;
use common::with_watchdog;

/// Deterministic banded symmetric matrix with a spectral gap at 0 (the
/// `service_equivalence` construction).
fn banded(nb: usize, seed: u64) -> DbcsrMatrix {
    let bs = 2;
    let n = nb * bs;
    let mut dense = Matrix::from_fn(n, n, |i, j| {
        let (bi, bj) = ((i / bs) as isize, (j / bs) as isize);
        if (bi - bj).abs() > 1 {
            0.0
        } else if i == j {
            (if i % 2 == 0 { 1.0 } else { -1.0 }) + ((seed % 13) as f64) * 0.011
        } else {
            0.05 / (1.0 + (i as f64 - j as f64).abs())
        }
    });
    dense.symmetrize();
    DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
}

fn engine(parallel: bool) -> Arc<SubmatrixEngine> {
    Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel,
        plan_cache_capacity: None,
        ..EngineOptions::default()
    }))
}

#[test]
fn a_jobs_phase_events_carry_exactly_its_reports_seconds() {
    // World-1 jobs through the serial queue, one per call under a job
    // span the test installs (`JobQueue` opens none of its own). The
    // engine is the parallel one, so the queue runs its jobs on the
    // calling thread, inside that span. Job 2 repeats job 0's pattern: a
    // plan-cache hit, whose plan phase cost nothing.
    let session = TraceSession::start("q");
    let queue = JobQueue::new(engine(true));
    let _batch = sm_trace::span(SpanKind::Batch, "q");
    let mut results = Vec::new();
    for (i, (nb, seed)) in [(6, 1), (4, 2), (6, 1)].into_iter().enumerate() {
        let _job = sm_trace::span(SpanKind::Job, i);
        let job = MatrixJob::density(format!("j{i}"), banded(nb, seed), 0.0);
        results.extend(queue.run(vec![job]));
    }
    let doc = session.to_doc();
    drop(session);

    let planned: Vec<bool> = results.iter().map(|r| !r.plan_cached()).collect();
    assert_eq!(planned, [true, true, false]);
    for (i, r) in results.iter().enumerate() {
        let wall = |phase: &str| -> f64 {
            let path = format!("batch:q/job:{i}/phase:{phase}");
            let name = if phase == "plan" {
                "plan.decision"
            } else {
                "engine.phase"
            };
            let events = doc.events.iter();
            let mine: Vec<f64> = events
                .filter(|e| e.path == path && e.name == name)
                .map(|e| e.wall_s)
                .collect();
            assert_eq!(mine.len(), 1, "one {name} event at {path}");
            mine.iter().sum()
        };
        let report = &r.report;
        for (phase, seconds) in [
            ("plan", report.symbolic_seconds),
            ("gather", report.gather_seconds),
            ("solve", report.solve_seconds),
            ("scatter", report.scatter_seconds),
        ] {
            assert_eq!(
                wall(phase).to_bits(),
                seconds.to_bits(),
                "job {i}: the {phase} phase's wall annotation is not the report's {seconds}"
            );
        }
        assert_eq!(report.symbolic_seconds > 0.0, planned[i]);
        assert!(report.solve_seconds > 0.0);
    }
}

/// A small real trace: a 2-rank stealing `Scheduler` batch labelled
/// `sweep`, then one admission window of the streaming service (whose
/// scheduler run is labelled `svc.w0`), recorded by one session.
fn small_real_trace() -> String {
    let session = TraceSession::start("sweep");
    let jobs = [(5, 1), (3, 2), (3, 3), (4, 4)].map(|(nb, seed)| {
        let matrix = banded(nb, seed);
        MatrixJob::density(format!("nb{nb}"), matrix, 0.0)
    });
    Scheduler::new(engine(false), RankBudget::default())
        .with_policy(StealPolicy::EpochRebalance)
        .with_trace_label("sweep")
        .run(2, Vec::from(jobs));
    let config = ServiceConfig {
        world_size: 2,
        queue_capacity: 4,
    };
    let sched = Scheduler::new(engine(false), RankBudget::default()).with_trace_label("svc");
    let mut service = StreamingScfService::new(sched, config);
    for (name, nb, seed) in [("a", 4, 5), ("b", 3, 6)] {
        let kt0 = banded(nb, seed);
        let mut spec = ScfJobSpec::new(name, kt0.clone(), 0.0, kt0.n() as f64);
        spec.scf.max_iter = 2;
        spec.scf.ensemble = ScfEnsemble::GrandCanonical;
        service.submit(spec, Priority::Normal).expect("admitted");
    }
    service.close_window().expect("window 0 ran");
    session.to_doc().render()
}

/// Run every `smdoctor` trace view over `doc`; what they return is not
/// the point, that they return is.
fn run_every_view(doc: &TraceDoc) -> Vec<Result<(), TraceError>> {
    let mut outcomes = Vec::new();
    for label in ["sweep", "svc.w0"] {
        let batch = Some(label);
        outcomes.push(analyze::critical_path(doc, batch).map(|cp| drop(cp.render())));
        outcomes.push(analyze::idle_attribution(doc, batch).map(drop));
        outcomes.push(sm_trace::chrome::export(doc, batch).map(|j| drop(j.to_string())));
        drop(analyze::phase_skew(doc, label));
        drop(analyze::calibrate(doc, label).to_json().to_string());
    }
    outcomes.push(analyze::audit(doc).map(|report| drop(report.render())));
    outcomes.push(analyze::service_windows(doc).map(drop));
    drop(analyze::faults_by_epoch(doc));
    outcomes
}

/// The spans of `line` holding a JSON number (outside any string).
fn number_spans(line: &str) -> Vec<std::ops::Range<usize>> {
    let bytes = line.as_bytes();
    let (mut spans, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1,
            b'"' => in_string = !in_string,
            b'-' | b'0'..=b'9' if !in_string => {
                let start = i;
                while i < bytes.len() && b"+-.eE0123456789".contains(&bytes[i]) {
                    i += 1;
                }
                spans.push(start..i);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    spans
}

/// Every single-line corruption of `line`: truncated at each comma, each
/// number replaced by `1e18`, `-1`, `null` and `"x"`, and its record type
/// changed.
fn corruptions(line: &str) -> Vec<String> {
    let commas = line
        .match_indices(',')
        .map(|(at, _)| line[..at].to_string());
    let mut out: Vec<String> = commas.collect();
    for span in number_spans(line) {
        for value in ["1e18", "-1", "null", "\"x\""] {
            out.push(format!(
                "{}{value}{}",
                &line[..span.start],
                &line[span.end..]
            ));
        }
    }
    for (from, to) in [
        ("\"type\":\"event\"", "\"type\":\"metric\""),
        ("\"type\":\"metric\"", "\"type\":\"event\""),
        ("\"type\":", "\"type\":\"span\",\"was\":"),
        ("\"schema\":\"sm-trace\"", "\"schema\":\"sm-bench\""),
    ] {
        out.extend(line.contains(from).then(|| line.replacen(from, to, 1)));
    }
    out
}

#[test]
fn every_single_line_corruption_is_ok_or_a_typed_error_in_every_view() {
    let text = small_real_trace();
    let n_lines = text.lines().count();
    let doc = TraceDoc::parse(&text).expect("the trace as written parses");
    assert!(n_lines > 60, "a real trace: {n_lines} lines");
    // The uncorrupted trace exercises the views for real.
    let service = analyze::service_windows(&doc).expect("service narration");
    assert_eq!((service.len(), service[0].admitted), (1, 2));
    assert!(analyze::critical_path(&doc, Some("sweep")).is_ok());
    assert!(analyze::critical_path(&doc, Some("svc.w0")).is_ok());
    assert!(!analyze::calibrate(&doc, "sweep").phases.is_empty());
    assert!(matches!(
        analyze::critical_path(&doc, None),
        Err(TraceError::NoSchedule(_))
    ));

    let (variants, refused) = with_watchdog(240, move || {
        let lines: Vec<&str> = text.lines().collect();
        let (mut variants, mut refused) = (0usize, 0usize);
        for at in 0..lines.len() {
            let dropped = std::iter::once(None);
            let edited = corruptions(lines[at]).into_iter().map(Some);
            for replacement in dropped.chain(edited) {
                let mut corrupt = lines[..at].join("\n");
                for line in replacement
                    .iter()
                    .map(String::as_str)
                    .chain(lines[at + 1..].iter().copied())
                {
                    corrupt.push('\n');
                    corrupt.push_str(line);
                }
                variants += 1;
                let outcome = std::panic::catch_unwind(|| match TraceDoc::parse(&corrupt) {
                    Ok(doc) => run_every_view(&doc).iter().any(Result::is_err),
                    Err(_) => true,
                });
                match outcome {
                    Ok(typed_error) => refused += usize::from(typed_error),
                    Err(_) => panic!(
                        "line {} corrupted to {:?} panicked a reader",
                        at + 1,
                        replacement.as_deref().unwrap_or("<dropped>")
                    ),
                }
            }
        }
        (variants, refused)
    });
    // Every line was dropped once and edited many times, and a damaged
    // trace is mostly refused, not mostly believed (a dropped line or a
    // changed wall annotation leaves a trace that is still one).
    println!("{variants} corruptions of {n_lines} lines, {refused} refused");
    assert!(variants > 20 * n_lines, "{variants} variants");
    assert!(refused > variants / 2, "{refused} of {variants} refused");
}

/// ISSUE 18's exact edit, on a real trace: one `sched.queue` line claims
/// `1e18` ranks. The parent's audit said "0 problem(s)" while its
/// critical path died sizing a vector by it and its Perfetto export
/// looped over it.
#[test]
fn ranks_of_1e18_on_a_queue_line_is_refused_with_its_line_number() {
    let text = small_real_trace();
    let at = text
        .lines()
        .position(|l| l.contains("\"sched.queue\"") && l.contains("\"ranks\":1,"))
        .expect("a one-rank group in a 2-rank batch");
    let bad: Vec<String> = text
        .lines()
        .enumerate()
        .map(|(i, l)| match i == at {
            true => l.replacen("\"ranks\":1,", "\"ranks\":1e18,", 1),
            false => l.to_string(),
        })
        .collect();
    let (views, audit) = with_watchdog(30, move || {
        let doc = TraceDoc::parse(&bad.join("\n")).expect("still one JSON object per line");
        (run_every_view(&doc), analyze::audit(&doc))
    });
    let named = |e: &TraceError| matches!(e, TraceError::Line { line, .. } if *line == at + 1);
    // The `sweep` batch's critical path, idle attribution and Perfetto
    // export refuse the line by number, and so does the audit of the
    // whole file.
    let refused = views.iter().filter_map(|r| r.as_ref().err());
    assert_eq!(refused.filter(|e| named(e)).count(), 4, "{views:?}");
    assert!(named(&audit.unwrap_err()));
}
