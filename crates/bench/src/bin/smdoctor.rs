//! `smdoctor` — operational health report and trace analysis over the
//! workspace's results directory: one command table ([`COMMANDS`]), one
//! loader per input kind (trace, bench document) and the printing.
//! Every report is computed by a tested library function — the trace
//! views in `sm_trace::analyze` / `sm_trace::chrome`, the bench views in
//! `sm_bench::doctor`, the gate in
//! `sm_bench::compare` — from the parsed input, on demand: the JSONL
//! trace and the `BENCH_*.json` documents are the only stored artifacts.
//!
//! **Audit mode** (`smdoctor [--check] [paths...]`) reads every
//! `BENCH_*.json` and `TRACE_*.jsonl` artifact in `results/` (or the
//! paths given; directories are globbed) and reports plan-cache
//! pressure, steal effectiveness, idle breakdowns, byte budgets, and
//! **schema drift** — with `--check`, any drift or an empty artifact set
//! is a hard failure (exit 1).
//!
//! **`critical-path`** reconstructs the epoch/group/job schedule from the
//! trace's scheduler narration and prints the longest chain of job
//! executions through the epoch barriers in perfmodel cost units — a pure
//! function of the schedule, bit-identical across traced reruns (the
//! two-clock rule) — plus wall-clock annotations, per-rank idle
//! attribution and per-job model-vs-measured skew.
//!
//! **`compare`** is the regression gate over the bench trajectory: it
//! diffs two stamped bench documents and exits 1 when any
//! **deterministic** quantity changed; wall-clock columns only soft-warn.
//! Given two directories it compares every `BENCH_*.json` of the first
//! against the same-named file of the second and fails if one is missing
//! — so "gated" means "has a file in `results/baseline/`".
//!
//! Exit codes: `0` healthy, `1` drift, regression or malformed input,
//! `2` usage errors (missing/empty/unreadable inputs).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sm_bench::compare::compare_docs;
use sm_bench::doctor::{audit_bench, fault_report};
use sm_bench::output::{results_dir, Json};
use sm_trace::analyze::{self, TraceDoc};

/// Why a command could not report: its exit code and a message naming
/// the file.
struct Fail {
    exit: u8,
    msg: String,
}

/// Missing, empty or unreadable input, or a wrong command line: exit 2.
fn usage(msg: String) -> Fail {
    Fail { exit: 2, msg }
}

/// Input that is not what it claims to be — `path: what` for a file that
/// is malformed, of a foreign schema or the wrong kind of artifact: exit 1.
fn malformed(path: &Path, what: impl std::fmt::Display) -> Fail {
    let msg = format!("{}: {what}", path.display());
    Fail { exit: 1, msg }
}

type Outcome = Result<ExitCode, Fail>;

/// One subcommand: name, argument synopsis, accepted argument counts,
/// what it prints, and the function that does.
type Command = (
    &'static str,
    &'static str,
    std::ops::RangeInclusive<usize>,
    &'static str,
    fn(&[String]) -> Outcome,
);

const COMMANDS: [Command; 6] = [
    (
        "critical-path",
        "<trace.jsonl>",
        1..=1,
        "deterministic cost-unit critical path, idle and skew",
        critical_path,
    ),
    (
        "export-perfetto",
        "<trace.jsonl> [out.json]",
        1..=2,
        "Chrome trace-event view for ui.perfetto.dev",
        export_perfetto,
    ),
    (
        "calibrate",
        "<trace.jsonl>",
        1..=1,
        "fit perfmodel coefficients (report-only)",
        calibrate,
    ),
    (
        "compare",
        "<old> <new>",
        2..=2,
        "deterministic-counter gate (two bench files or directories)",
        compare,
    ),
    (
        "faults",
        "[bench-or-trace]",
        0..=1,
        "fault-injection & recovery report",
        faults,
    ),
    (
        "serve-report",
        "<trace.jsonl>",
        1..=1,
        "streaming-service admission-window report",
        serve_report,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let first = args.first().map(String::as_str);
    let outcome = match COMMANDS.iter().find(|c| Some(c.0) == first) {
        _ if matches!(first, Some("--help" | "-h")) => {
            println!("smdoctor [--check] [paths...]   audit artifacts (default: results/)");
            for (name, synopsis, _, about, _) in &COMMANDS {
                println!("smdoctor {name} {synopsis}   {about}");
            }
            println!(
                "--check  exit 1 on schema drift, corruption, or no artifacts\n\
                 exit codes: 0 healthy, 1 drift/regression/malformed input, \
                 2 usage (missing/empty input)"
            );
            Ok(ExitCode::SUCCESS)
        }
        Some((_, _, arity, _, run)) if arity.contains(&(args.len() - 1)) => run(&args[1..]),
        Some((name, synopsis, ..)) => Err(usage(format!("usage: smdoctor {name} {synopsis}"))),
        None => audit(&args),
    };
    outcome.unwrap_or_else(|fail| {
        eprintln!("smdoctor: {}", fail.msg);
        ExitCode::from(fail.exit)
    })
}

/// The text of an input that must exist and be non-empty — the one place
/// the "missing/empty/unreadable is a usage error" rule lives.
fn read_text(path: &Path) -> Result<String, Fail> {
    let bytes = match std::fs::read(path) {
        Ok(b) if b.trim_ascii().is_empty() => Err(usage(format!("{}: empty file", path.display()))),
        Ok(b) => Ok(b),
        Err(e) => Err(usage(format!("{}: unreadable: {e}", path.display()))),
    }?;
    String::from_utf8(bytes).map_err(|e| malformed(path, e))
}

/// Load a `TRACE_*.jsonl` trace; a foreign schema version or a corrupt
/// line is the parser's typed error.
fn load_trace(path: &Path) -> Result<TraceDoc, Fail> {
    TraceDoc::parse(&read_text(path)?).map_err(|e| malformed(path, e))
}

/// Load one stamped bench document.
fn load_bench(path: &Path) -> Result<Json, Fail> {
    Json::parse(&read_text(path)?).map_err(|e| malformed(path, format!("malformed JSON: {e}")))
}

fn critical_path(args: &[String]) -> Outcome {
    let path = Path::new(&args[0]);
    let doc = load_trace(path)?;
    let cp = analyze::critical_path(&doc, None).map_err(|e| malformed(path, e))?;
    // The deterministic rendering first — bit-identical across traced
    // reruns of the same schedule, pinned by the critical_path test
    // suite. Wall-clock annotations follow, clearly separated.
    print!("{}", cp.render());
    println!(
        "-- wall annotations (not deterministic) --\n\
         path wall {:.6}s over {} epoch(s)",
        cp.total_wall_s,
        cp.epochs.len()
    );
    let idle = analyze::idle_attribution(&doc, None).map_err(|e| malformed(path, e))?;
    for (r, units) in idle.est_idle_units.iter().enumerate() {
        let measured = idle.measured_busy_wall_s.get(r);
        let measured =
            measured.map(|(busy, wall)| format!(", measured busy {busy:.4}s / wall {wall:.4}s"));
        println!(
            "rank {r}: est idle {units:.6e} of {:.6e} units{}",
            idle.est_makespan_units,
            measured.unwrap_or_default()
        );
    }
    let skew = analyze::phase_skew(&doc, &cp.label);
    if !skew.is_empty() {
        println!("-- model-vs-measured skew by job (units/s vs batch mean; report-only) --");
    }
    for (job, phases) in &skew {
        let phases: Vec<String> = phases.iter().map(|(p, x)| format!("{p} {x:.2}x")).collect();
        println!("  job {job}: {}", phases.join(", "));
    }
    Ok(ExitCode::SUCCESS)
}

fn export_perfetto(args: &[String]) -> Outcome {
    let path = Path::new(&args[0]);
    let chrome = sm_trace::chrome::export(&load_trace(path)?, None);
    let chrome = chrome.map_err(|e| malformed(path, e))?;
    // Default target: results/PERFETTO_<stem>.json with the TRACE_
    // prefix stripped (TRACE_scf_service.jsonl → PERFETTO_scf_service).
    let out = args.get(1).map(PathBuf::from).unwrap_or_else(|| {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let stem = stem.strip_prefix("TRACE_").unwrap_or(stem);
        results_dir().join(format!("PERFETTO_{stem}.json"))
    });
    std::fs::write(&out, format!("{chrome}\n"))
        .map_err(|e| usage(format!("cannot write {}: {e}", out.display())))?;
    let events = chrome.get("traceEvents").and_then(Json::as_arr);
    println!(
        "wrote {} ({} trace events) — open in https://ui.perfetto.dev",
        out.display(),
        events.map_or(0, <[Json]>::len)
    );
    Ok(ExitCode::SUCCESS)
}

fn calibrate(args: &[String]) -> Outcome {
    let path = Path::new(&args[0]);
    let doc = load_trace(path)?;
    let label = doc.batch_labels().into_iter().next();
    let report = analyze::calibrate(&doc, &label.unwrap_or_else(|| doc.label.clone()));
    if report.phases.is_empty() {
        return Err(malformed(path, "no engine.phase samples to fit"));
    }
    println!(
        "perfmodel calibration [batch:{}] (report-only; never fed back):",
        report.label
    );
    for p in &report.phases {
        println!(
            "  {:<8} {:.6e} s/unit  r²={:.4}  ({} samples, {:.3e} units, {:.4}s)",
            p.phase, p.seconds_per_unit, p.r_squared, p.samples, p.total_cost, p.total_seconds
        );
    }
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

/// Diff two stamped bench documents, or every `BENCH_*.json` of directory
/// `old` against its namesake in directory `new` (a missing namesake is a
/// regression). Deterministic mismatches exit 1; wall drift only warns.
fn compare(args: &[String]) -> Outcome {
    let (old, new) = (Path::new(&args[0]), Path::new(&args[1]));
    let pairs: Vec<(PathBuf, PathBuf)> = if old.is_dir() {
        let baselines = collect_artifacts(old)?.into_iter();
        let baselines = baselines.filter(|f| file_name(f).starts_with("BENCH_"));
        baselines
            .map(|b| (b.clone(), new.join(file_name(&b))))
            .collect()
    } else {
        vec![(old.to_path_buf(), new.to_path_buf())]
    };
    if pairs.is_empty() {
        return Err(usage(format!("no BENCH_*.json in {}", old.display())));
    }
    let (mut hard, mut soft) = (0usize, 0usize);
    for (baseline, fresh) in &pairs {
        println!("{} vs {}", baseline.display(), fresh.display());
        if old.is_dir() && !fresh.is_file() {
            println!("  REGRESSION {}: missing", fresh.display());
            hard += 1;
            continue;
        }
        for d in compare_docs(&load_bench(baseline)?, &load_bench(fresh)?) {
            let tag = if d.hard { "REGRESSION" } else { "WARN" };
            println!("  {tag} {}: {}", d.at, d.what);
            *(if d.hard { &mut hard } else { &mut soft }) += 1;
        }
    }
    println!(
        "smdoctor compare: {hard} deterministic regression(s), {soft} wall-drift warning(s) \
         over {} document(s)",
        pairs.len()
    );
    println!(
        "smdoctor compare: {}",
        if hard == 0 { "PASS" } else { "FAIL" }
    );
    Ok(if hard == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// By default the per-scenario counters of `results/BENCH_faults.json`
/// (the `repro faults` artifact); given a `TRACE_*.jsonl`, its recovery
/// narration counted per epoch.
fn faults(args: &[String]) -> Outcome {
    let path = args.first().map(PathBuf::from);
    let path = path.unwrap_or_else(|| results_dir().join("BENCH_faults.json"));
    if path.extension().and_then(|e| e.to_str()) != Some("jsonl") {
        let report = fault_report(&load_bench(&path)?);
        print!("{}", report.map_err(|e| malformed(&path, e))?);
        return Ok(ExitCode::SUCCESS);
    }
    let per_epoch = analyze::faults_by_epoch(&load_trace(&path)?);
    if per_epoch.is_empty() {
        println!("no fault events — the trace ran fault-free");
    }
    for (e, [injected, retries, quarantined]) in &per_epoch {
        println!(
            "  epoch {e}: {injected} fault(s) injected, {retries} retry(ies), \
             {quarantined} quarantine(s)"
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn serve_report(args: &[String]) -> Outcome {
    let path = Path::new(&args[0]);
    let windows = analyze::service_windows(&load_trace(path)?).map_err(|e| malformed(path, e))?;
    if windows.is_empty() {
        let hint = "no service.window narration — not a streaming-service trace \
                    (run smserved with --trace)";
        return Err(malformed(path, hint));
    }
    println!("service report — {} admission window(s):", windows.len());
    let mut totals = [0u64; 3];
    for w in &windows {
        println!(
            "  window {}: {} admitted, {} queue reject(s), {} epoch(s) ({} committed / {} deferred)",
            w.window, w.admitted, w.queue_rejects, w.epochs, w.committed, w.deferred
        );
        for (t, x) in totals
            .iter_mut()
            .zip([w.admitted, w.queue_rejects, w.epochs])
        {
            *t += x;
        }
    }
    println!(
        "  totals: {} admitted, {} queue reject(s), {} epoch(s)",
        totals[0], totals[1], totals[2]
    );
    Ok(ExitCode::SUCCESS)
}

/// Is this artifact read as a trace (`*.jsonl`) rather than a bench document?
fn is_trace(path: &Path) -> bool {
    file_name(path).ends_with(".jsonl")
}

/// The final component of `path` as text ("" when it has none).
fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("")
}

/// Glob a directory for audited artifacts (`BENCH_*.json`,
/// `TRACE_*.jsonl`), sorted. An unreadable directory is a usage error,
/// never a silent empty set — an audit that cannot see its inputs must
/// not report "healthy".
fn collect_artifacts(dir: &Path) -> Result<Vec<PathBuf>, Fail> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| usage(format!("cannot read directory {}: {e}", dir.display())))?;
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    let is_artifact = |p: &PathBuf| {
        let name = file_name(p);
        let bench = name.starts_with("BENCH_") && name.ends_with(".json");
        p.is_file() && (bench || (name.starts_with("TRACE_") && name.ends_with(".jsonl")))
    };
    Ok(entries.into_iter().filter(is_artifact).collect())
}

/// Audit mode: schema + health over artifacts. Default to `results/`; a
/// directory argument is globbed, file arguments are audited as given.
fn audit(args: &[String]) -> Outcome {
    let check = args.iter().any(|a| a == "--check");
    let inputs: Vec<&Path> = args
        .iter()
        .filter(|a| *a != "--check")
        .map(Path::new)
        .collect();
    let mut paths: Vec<PathBuf> = Vec::new();
    if inputs.is_empty() {
        paths = collect_artifacts(&results_dir())?;
    }
    for input in inputs {
        if input.is_dir() {
            paths.extend(collect_artifacts(input)?);
        } else if input.is_file() {
            paths.push(input.to_path_buf());
        } else {
            let missing = format!("no such file or directory: {}", input.display());
            return Err(usage(missing));
        }
    }
    let mut problems = Vec::new();
    paths.iter().for_each(|p| audit_file(p, &mut problems));
    let traces = paths.iter().filter(|p| is_trace(p)).count();
    let kinds = [(paths.len() - traces, "bench"), (traces, "trace")];
    let kinds = kinds
        .iter()
        .filter(|(n, _)| *n > 0)
        .map(|(n, kind)| format!("{n} {kind}"));
    println!(
        "\nsmdoctor: audited {} artifact(s) [{}], {} problem(s)",
        paths.len(),
        kinds.collect::<Vec<_>>().join(", "),
        problems.len()
    );
    for problem in &problems {
        println!("  DRIFT {problem}");
    }
    if check && paths.is_empty() {
        println!("smdoctor --check: no artifacts found — nothing to vouch for");
        return Ok(ExitCode::FAILURE);
    }
    if check && !problems.is_empty() {
        println!("smdoctor --check: FAILED");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Audit one artifact, print its report and collect what is wrong with it
/// (each problem named `file: what`; any of them fails `--check`). A
/// file the loader refuses is a problem too, whichever exit code it would
/// be on its own.
fn audit_file(path: &Path, problems: &mut Vec<String>) {
    println!("\n== {} ==", path.display());
    let mut problem =
        |what: &dyn std::fmt::Display| problems.push(format!("{}: {what}", path.display()));
    let outcome = if is_trace(path) {
        load_trace(path).and_then(|doc| {
            if doc.events.is_empty() {
                problem(&"trace contains no events (instrumentation off?)");
            }
            let report = analyze::audit(&doc).map_err(|e| malformed(path, e))?;
            print!("{}", report.render());
            Ok(())
        })
    } else {
        load_bench(path).map(|doc| {
            let (summary, found) = audit_bench(&doc);
            println!("  {summary}");
            found.iter().for_each(|what| problem(what));
        })
    };
    problems.extend(outcome.err().map(|fail| fail.msg));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `text` to a fresh temp file named `name` and return its path.
    fn temp_artifact(name: &str, text: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smdoctor-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path
    }

    /// A `git_commit` stamp whose byte 12 falls inside a code point is
    /// printed (truncated on a `char` boundary), never a panic.
    #[test]
    fn audit_bench_survives_a_non_ascii_commit_stamp() {
        let path = temp_artifact(
            "BENCH_nonascii.json",
            r#"{"bench":"x","schema_version":1,"git_commit":"a€€€€","generated_at":"t","data":{}}"#,
        );
        let mut report = Vec::new();
        audit_file(&path, &mut report);
        std::fs::remove_file(&path).unwrap();
        assert!(report.is_empty(), "a well-stamped document has no drift");
    }

    /// `TraceDoc::parse`'s error is the drift message, version mismatch
    /// included.
    #[test]
    fn audit_trace_reports_the_parse_error_as_drift() {
        let path = temp_artifact(
            "TRACE_old.jsonl",
            "{\"schema\":\"sm-trace\",\"version\":1,\"label\":\"x\"}\n",
        );
        let mut report = Vec::new();
        audit_file(&path, &mut report);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(report.len(), 1);
        assert!(report[0].contains("version mismatch"), "{}", report[0]);
    }

    /// The loaders carry the exit-code discipline for every command:
    /// missing or empty input is usage (2), input that does not parse is
    /// malformed (1).
    #[test]
    fn loaders_tell_missing_and_empty_from_malformed() {
        let usage = |r: Result<(), Fail>| matches!(r, Err(Fail { exit: 2, .. }));
        let bad = |r: Result<(), Fail>| matches!(r, Err(Fail { exit: 1, .. }));
        let empty = temp_artifact("TRACE_empty.jsonl", " \n");
        let junk = temp_artifact("junk.bin", "not json, not a trace");
        let gone = empty.with_file_name("gone");
        for path in [&empty, &gone] {
            assert!(usage(load_trace(path).map(drop)));
            assert!(usage(load_bench(path).map(drop)));
        }
        assert!(bad(load_trace(&junk).map(drop)));
        assert!(bad(load_bench(&junk).map(drop)));
        let not_utf8 = temp_artifact("BENCH_latin1.json", "");
        std::fs::write(&not_utf8, [b'{', 0xff, b'}']).unwrap();
        assert!(bad(load_bench(&not_utf8).map(drop)));
        for path in [empty, junk, not_utf8] {
            std::fs::remove_file(path).unwrap();
        }
    }
}
