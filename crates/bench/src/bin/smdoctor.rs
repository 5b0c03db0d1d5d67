//! `smdoctor` — operational health report and trace analysis over the
//! workspace's results directory.
//!
//! ```text
//! smdoctor [--check] [paths...]          audit artifacts (default: results/)
//! smdoctor critical-path <trace.jsonl>   deterministic cost-unit critical path
//! smdoctor export-perfetto <trace.jsonl> [out.json]   Chrome trace-event export
//! smdoctor calibrate <trace.jsonl>       fit perfmodel coefficients (report-only)
//! smdoctor compare <old.json> <new.json> deterministic-counter regression gate
//! smdoctor faults [bench-or-trace]       fault-injection & recovery report
//! smdoctor cache <manifest.smplans>      plan-cache manifest occupancy & ages
//! smdoctor serve-report <trace.jsonl>    streaming-service admission-window report
//! ```
//!
//! **Audit mode** reads every `BENCH_*.json`, `TRACE_*.jsonl`,
//! `PERFETTO_*.json`, `CALIB_*.json` and `*.csv` artifact in `results/`
//! (or the paths given; directories are globbed) and reports plan-cache
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
//! **deterministic** quantity changed (schema versions, counters like
//! value bytes / eviction counts / stolen jobs, row sets). The plan-cache
//! `plan_builds`/`cache_hits` *split* may shift with benign races — only
//! their **sum** is deterministic (the consensus identity), so the gate
//! compares the sum. Wall-clock columns (`*_s`, `*seconds*`) only
//! soft-warn beyond a drift threshold, and measured floating-point errors
//! (`*_err*`, whose last bits depend on the CPU's dense kernel) fail only
//! when they grow tenfold past rounding level.
//!
//! **`cache`** decodes a spilled plan-cache manifest (`SMPLANS` wire
//! format, written by `SubmatrixEngine::export_plans`) and prints the
//! schema version, producer tag, capacity, occupancy, lifetime
//! hit/build/eviction counters and per-fingerprint entry ages — the
//! warm-restart story at a glance, no engine required.
//!
//! **`serve-report`** reads a streaming-service trace (`smserved` /
//! `StreamingScfService`) and prints one row per admission window —
//! jobs admitted, queue rejects, and the epoch commit/defer splits the
//! window's scheduler run narrated — failing (exit 1) when the trace
//! carries no service narration at all.
//!
//! Exit codes: `0` healthy, `1` drift/regression, `2` usage errors
//! (missing/empty/unreadable inputs).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sm_bench::calibrate::{calibration_json, calibration_report};
use sm_bench::output::{results_dir, Json, BENCH_SCHEMA_VERSION, CSV_SCHEMA_VERSION};
use sm_dbcsr::wire::{PlanManifest, PLAN_MANIFEST_SCHEMA_VERSION};
use sm_trace::analyze::{
    critical_path, idle_attribution, job_phase_skew, phase_samples, TraceDoc, TraceError,
};

/// Exit code for usage errors: missing/empty/unreadable inputs.
const EXIT_USAGE: u8 = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("critical-path") => cmd_critical_path(&args[1..]),
        Some("export-perfetto") => cmd_export_perfetto(&args[1..]),
        Some("calibrate") => cmd_calibrate(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("faults") => cmd_faults(&args[1..]),
        Some("cache") => cmd_cache(&args[1..]),
        Some("serve-report") => cmd_serve_report(&args[1..]),
        Some("--help" | "-h") => {
            print_help();
            ExitCode::SUCCESS
        }
        _ => cmd_audit(&args),
    }
}

fn print_help() {
    println!(
        "smdoctor [--check] [paths...]\n\
         smdoctor critical-path <trace.jsonl>\n\
         smdoctor export-perfetto <trace.jsonl> [out.json]\n\
         smdoctor calibrate <trace.jsonl>\n\
         smdoctor compare <old-bench.json> <new-bench.json>\n\
         smdoctor faults [bench-or-trace]\n\
         smdoctor cache <manifest.smplans>\n\
         smdoctor serve-report <trace.jsonl>\n\n\
         Audit BENCH_*.json / TRACE_*.jsonl / PERFETTO_*.json / CALIB_*.json / *.csv\n\
         artifacts (default: results/; directories are globbed), analyze traces,\n\
         and gate deterministic counters between bench runs.\n\
         --check  exit 1 on schema drift, corruption, or no artifacts\n\
         exit codes: 0 healthy, 1 drift/regression, 2 usage (missing/empty input)"
    );
}

/// Read a file that must exist and be non-empty; usage-error otherwise.
fn read_input(path: &Path) -> Result<String, ExitCode> {
    match std::fs::read_to_string(path) {
        Ok(t) if t.trim().is_empty() => {
            eprintln!("smdoctor: {} is empty", path.display());
            Err(ExitCode::from(EXIT_USAGE))
        }
        Ok(t) => Ok(t),
        Err(e) => {
            eprintln!("smdoctor: cannot read {}: {e}", path.display());
            Err(ExitCode::from(EXIT_USAGE))
        }
    }
}

/// Parse a trace file into a [`TraceDoc`]; schema mismatches and
/// corruption are drift (exit 1), missing/empty files usage (exit 2).
fn load_trace(path: &Path) -> Result<TraceDoc, ExitCode> {
    let text = read_input(path)?;
    TraceDoc::parse(&text).map_err(|e| {
        eprintln!("smdoctor: {}: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// `smdoctor critical-path <trace.jsonl>`: the deterministic cost-unit
/// critical path, wall annotations, idle attribution, and per-job
/// model-vs-measured skew.
fn cmd_critical_path(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: smdoctor critical-path <trace.jsonl>");
        return ExitCode::from(EXIT_USAGE);
    };
    let path = Path::new(path);
    let doc = match load_trace(path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let cp = match critical_path(&doc, None) {
        Ok(cp) => cp,
        Err(e) => {
            eprintln!("smdoctor: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
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

    if let Ok(idle) = idle_attribution(&doc, None) {
        for (r, units) in idle.est_idle_units.iter().enumerate() {
            let measured = idle
                .measured_busy_wall_s
                .get(r)
                .map(|(busy, wall)| format!(", measured busy {busy:.4}s / wall {wall:.4}s"))
                .unwrap_or_default();
            println!(
                "rank {r}: est idle {units:.6e} of {:.6e} units{measured}",
                idle.est_makespan_units
            );
        }
    }

    // Model-vs-measured skew: each job's cost-units-per-second against
    // the batch-wide mean for the same phase (1.00 = the perfmodel's
    // relative estimate matched; < 1 = slower than the model expected).
    // Report-only — never fed back into scheduling.
    let batch = phase_samples(&doc, &cp.label);
    let batch_rate: BTreeMap<&str, f64> = batch
        .iter()
        .filter_map(|(phase, pairs)| {
            let (c, w) = pairs
                .iter()
                .fold((0.0, 0.0), |(c, w), (pc, pw)| (c + pc, w + pw));
            (w > 0.0).then_some((phase.as_str(), c / w))
        })
        .collect();
    let skew = job_phase_skew(&doc, &cp.label);
    if !skew.is_empty() {
        println!("-- model-vs-measured skew by job (units/s vs batch mean; report-only) --");
        let mut by_job: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for ((job, phase), (cost, wall)) in &skew {
            if let (true, Some(&rate)) = (*wall > 0.0, batch_rate.get(phase.as_str())) {
                if rate > 0.0 {
                    by_job
                        .entry(*job)
                        .or_default()
                        .push(format!("{phase} {:.2}x", (cost / wall) / rate));
                }
            }
        }
        for (job, phases) in &by_job {
            println!("  job {job}: {}", phases.join(", "));
        }
    }
    ExitCode::SUCCESS
}

/// `smdoctor export-perfetto <trace.jsonl> [out.json]`: write the Chrome
/// trace-event document (opens in ui.perfetto.dev).
fn cmd_export_perfetto(args: &[String]) -> ExitCode {
    let (path, out) = match args {
        [p] => (Path::new(p), None),
        [p, o] => (Path::new(p), Some(PathBuf::from(o))),
        _ => {
            eprintln!("usage: smdoctor export-perfetto <trace.jsonl> [out.json]");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let doc = match load_trace(path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let chrome = match sm_trace::chrome::export(&doc, None) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("smdoctor: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    // Default target: results/PERFETTO_<stem>.json with the TRACE_
    // prefix stripped (TRACE_scf_service.jsonl → PERFETTO_scf_service).
    let out = out.unwrap_or_else(|| {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
        let stem = stem.strip_prefix("TRACE_").unwrap_or(stem);
        results_dir().join(format!("PERFETTO_{stem}.json"))
    });
    if let Err(e) = std::fs::write(&out, format!("{chrome}\n")) {
        eprintln!("smdoctor: cannot write {}: {e}", out.display());
        return ExitCode::from(EXIT_USAGE);
    }
    let slices = chrome
        .get("sm")
        .and_then(|sm| sm.get("slices"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    println!(
        "wrote {} ({slices:.0} slices) — open in https://ui.perfetto.dev",
        out.display()
    );
    ExitCode::SUCCESS
}

/// `smdoctor calibrate <trace.jsonl>`: fit perfmodel coefficients from
/// the trace's measured phases and print them (report-only; the traced
/// bench writes `results/CALIB_perfmodel.json` itself).
fn cmd_calibrate(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: smdoctor calibrate <trace.jsonl>");
        return ExitCode::from(EXIT_USAGE);
    };
    let path = Path::new(path);
    let doc = match load_trace(path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let label = doc
        .batch_labels()
        .first()
        .cloned()
        .unwrap_or_else(|| doc.label.clone());
    let report = calibration_report(&doc, &label);
    if report.phases.is_empty() {
        eprintln!(
            "smdoctor: {}: no engine.phase samples to fit",
            path.display()
        );
        return ExitCode::from(EXIT_USAGE);
    }
    println!("perfmodel calibration [batch:{label}] (report-only; never fed back):");
    for p in &report.phases {
        println!(
            "  {:<8} {:.6e} s/unit  r²={:.4}  ({} samples, {:.3e} units, {:.4}s)",
            p.phase, p.seconds_per_unit, p.r_squared, p.samples, p.total_cost, p.total_seconds
        );
    }
    println!("{}", calibration_json(&label, &report));
    ExitCode::SUCCESS
}

/// One difference between two bench documents.
struct Diff {
    at: String,
    what: String,
    hard: bool,
}

/// `smdoctor compare <old> <new>`: diff two stamped bench documents.
/// Deterministic mismatches exit 1; wall-clock drift only warns.
fn cmd_compare(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        eprintln!("usage: smdoctor compare <old-bench.json> <new-bench.json>");
        return ExitCode::from(EXIT_USAGE);
    };
    let mut docs = Vec::new();
    for p in [old_path, new_path] {
        let path = Path::new(p);
        let text = match read_input(path) {
            Ok(t) => t,
            Err(code) => return code,
        };
        match Json::parse(&text) {
            Ok(d) => docs.push(d),
            Err(e) => {
                eprintln!("smdoctor: {}: malformed JSON: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let (old, new) = (&docs[0], &docs[1]);

    let mut diffs: Vec<Diff> = Vec::new();
    // Envelope: bench name and schema version are deterministic identity;
    // git_commit/generated_at are provenance, expected to differ.
    for key in ["bench", "schema_version"] {
        let (a, b) = (old.get(key), new.get(key));
        if a != b {
            diffs.push(Diff {
                at: key.to_string(),
                what: format!("{} -> {}", render_opt(a), render_opt(b)),
                hard: true,
            });
        }
    }
    match (old.get("data"), new.get("data")) {
        (Some(a), Some(b)) => compare_value("data", a, b, &mut diffs),
        (a, b) => diffs.push(Diff {
            at: "data".into(),
            what: format!("payload presence {} -> {}", a.is_some(), b.is_some()),
            hard: true,
        }),
    }

    let hard: Vec<&Diff> = diffs.iter().filter(|d| d.hard).collect();
    let soft: Vec<&Diff> = diffs.iter().filter(|d| !d.hard).collect();
    for d in &soft {
        println!("  WARN {}: {}", d.at, d.what);
    }
    for d in &hard {
        println!("  REGRESSION {}: {}", d.at, d.what);
    }
    println!(
        "smdoctor compare: {} deterministic regression(s), {} wall-drift warning(s)",
        hard.len(),
        soft.len()
    );
    if hard.is_empty() {
        println!("smdoctor compare: PASS");
        ExitCode::SUCCESS
    } else {
        println!("smdoctor compare: FAIL");
        ExitCode::FAILURE
    }
}

fn render_opt(v: Option<&Json>) -> String {
    v.map(Json::to_string).unwrap_or_else(|| "absent".into())
}

/// `smdoctor faults [bench-or-trace]`: the fault-injection and recovery
/// report. By default reads `results/BENCH_faults.json` (the
/// `ablation_faults` artifact) and prints per-scenario counters plus
/// totals; given a `TRACE_*.jsonl` it instead counts the v3 recovery
/// narration (`fault.injected` / `sched.retry` / `job.quarantined`) per
/// epoch.
fn cmd_faults(args: &[String]) -> ExitCode {
    let path = match args {
        [] => results_dir().join("BENCH_faults.json"),
        [p] => PathBuf::from(p),
        _ => {
            eprintln!("usage: smdoctor faults [bench-or-trace]");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
        return faults_from_trace(&path);
    }
    let text = match read_input(&path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smdoctor: {}: malformed JSON: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(series) = doc
        .get("data")
        .and_then(|d| d.get("series"))
        .and_then(Json::as_arr)
    else {
        eprintln!(
            "smdoctor: {}: no data.series — not a fault bench artifact (run ablation_faults)",
            path.display()
        );
        return ExitCode::FAILURE;
    };
    println!(
        "fault report [{}] — {} scenario(s):",
        doc.get("bench").and_then(Json::as_str).unwrap_or("?"),
        series.len()
    );
    // A fault row missing its counters is not a zero-fault row — it is
    // the wrong artifact (or a producer from another schema). Refuse it
    // as a usage error instead of printing fabricated zeros.
    let num = |row: &Json, key: &str| row.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    for (i, row) in series.iter().enumerate() {
        for key in [
            "world",
            "rank_failures",
            "poisoned_attempts",
            "retries",
            "quarantined_jobs",
            "recovery_epochs",
            "final_world_size",
            "survivor_utilization",
        ] {
            if row.get(key).and_then(Json::as_f64).is_none() {
                eprintln!(
                    "smdoctor: {}: data.series[{i}] has no numeric '{key}' — \
                     not a fault bench artifact (run ablation_faults)",
                    path.display()
                );
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let mut totals = [0.0f64; 5];
    for row in series {
        let (failures, poisoned, retries, quarantined, epochs) = (
            num(row, "rank_failures"),
            num(row, "poisoned_attempts"),
            num(row, "retries"),
            num(row, "quarantined_jobs"),
            num(row, "recovery_epochs"),
        );
        println!(
            "  world {:.0} {:<22} {failures:.0} rank failure(s), {poisoned:.0} poisoned, \
             {retries:.0} retried, {quarantined:.0} quarantined, {epochs:.0} epoch(s), \
             final world {:.0}, utilization {:.3}",
            num(row, "world"),
            row.get("scenario").and_then(Json::as_str).unwrap_or("?"),
            num(row, "final_world_size"),
            num(row, "survivor_utilization"),
        );
        for (t, v) in totals
            .iter_mut()
            .zip([failures, poisoned, retries, quarantined, epochs])
        {
            *t += v;
        }
    }
    println!(
        "  totals: {:.0} rank failure(s), {:.0} poisoned attempt(s), {:.0} retried, \
         {:.0} quarantined, {:.0} recovery epoch(s)",
        totals[0], totals[1], totals[2], totals[3], totals[4]
    );
    ExitCode::SUCCESS
}

/// Count the recovery narration events of a v3 trace, per epoch.
fn faults_from_trace(path: &Path) -> ExitCode {
    let text = match read_input(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let mut lines = text.lines();
    match lines.next().map(Json::parse) {
        Some(Ok(h))
            if h.get("schema").and_then(Json::as_str) == Some("sm-trace")
                && h.get("version").and_then(Json::as_f64)
                    == Some(sm_trace::TRACE_SCHEMA_VERSION as f64) => {}
        _ => {
            eprintln!(
                "smdoctor: {}: not a current sm-trace v{} header",
                path.display(),
                sm_trace::TRACE_SCHEMA_VERSION
            );
            return ExitCode::FAILURE;
        }
    }
    // epoch -> (injected, retries, quarantined)
    let mut per_epoch: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for line in lines {
        let Ok(doc) = Json::parse(line) else { continue };
        let t = TraceLine { doc };
        let slot = match t.str("name") {
            "fault.injected" => 0usize,
            "sched.retry" => 1,
            "job.quarantined" => 2,
            _ => continue,
        };
        let e = t
            .doc
            .get("path")
            .and_then(Json::as_str)
            .and_then(epoch_of_path)
            .unwrap_or(0);
        let c = per_epoch.entry(e).or_default();
        match slot {
            0 => c.0 += 1,
            1 => c.1 += 1,
            _ => c.2 += 1,
        }
    }
    if per_epoch.is_empty() {
        println!("no fault events — the trace ran fault-free");
        return ExitCode::SUCCESS;
    }
    for (e, (injected, retries, quarantined)) in &per_epoch {
        println!(
            "  epoch {e}: {injected} fault(s) injected, {retries} retry(ies), \
             {quarantined} quarantine(s)"
        );
    }
    ExitCode::SUCCESS
}

/// `smdoctor cache <manifest.smplans>`: decode a spilled plan-cache
/// manifest and print occupancy, lifetime counters and per-fingerprint
/// entry ages. Missing/empty files are usage errors (exit 2); a file
/// that is not a current-schema manifest is corruption (exit 1).
fn cmd_cache(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: smdoctor cache <manifest.smplans>");
        return ExitCode::from(EXIT_USAGE);
    };
    let path = Path::new(path);
    let bytes = match std::fs::read(path) {
        Ok(b) if b.is_empty() => {
            eprintln!("smdoctor: {} is empty", path.display());
            return ExitCode::from(EXIT_USAGE);
        }
        Ok(b) => b,
        Err(e) => {
            eprintln!("smdoctor: cannot read {}: {e}", path.display());
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let m = match PlanManifest::decode(&bytes) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("smdoctor: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let capacity = if m.capacity == u64::MAX {
        "unbounded".to_string()
    } else {
        m.capacity.to_string()
    };
    let payload: usize = m.entries.iter().map(|e| e.words.len()).sum();
    println!(
        "plan-cache manifest {} (schema v{PLAN_MANIFEST_SCHEMA_VERSION})",
        path.display()
    );
    println!(
        "  producer tag {:#018x}, capacity {capacity}, occupancy {} plan(s) \
         ({payload} payload word(s))",
        m.tag,
        m.entries.len()
    );
    println!(
        "  lifetime: {} hit(s) / {} build(s), {} eviction(s), LRU tick {}",
        m.hits, m.builds, m.evictions, m.tick
    );

    // Group entries by fingerprint; age = LRU ticks since last touch, so
    // age 0 is the hottest plan and the largest age is next in line for
    // eviction on a bounded import.
    let mut by_fp: BTreeMap<u64, Vec<&sm_dbcsr::wire::PlanManifestEntry>> = BTreeMap::new();
    for e in &m.entries {
        by_fp.entry(e.fingerprint).or_default().push(e);
    }
    for (fp, entries) in &by_fp {
        let oldest = entries
            .iter()
            .map(|e| m.tick.saturating_sub(e.lru_stamp))
            .max()
            .unwrap_or(0);
        println!(
            "  fingerprint {fp:#018x}: {} plan(s), oldest age {oldest} tick(s)",
            entries.len()
        );
        for e in entries {
            println!(
                "    rank {}/{}: age {} tick(s), {} word(s)",
                e.rank,
                e.size,
                m.tick.saturating_sub(e.lru_stamp),
                e.words.len()
            );
        }
    }
    ExitCode::SUCCESS
}

/// Extract the admission-window index from a streaming-service span
/// root like `batch:serve.w3/epoch:0/...`.
fn window_of_path(path: &str) -> Option<u64> {
    let root = path.split('/').next()?;
    let (_, w) = root.rsplit_once(".w")?;
    w.parse().ok()
}

/// `smdoctor serve-report <trace.jsonl>`: per-admission-window report
/// over a streaming-service trace — jobs admitted, queue rejects, and
/// the epoch commit/defer splits each window's scheduler narrated. A
/// trace with no `service.window` narration fails (exit 1): it is not a
/// service trace.
fn cmd_serve_report(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("usage: smdoctor serve-report <trace.jsonl>");
        return ExitCode::from(EXIT_USAGE);
    };
    let path = Path::new(path);
    let text = match read_input(path) {
        Ok(t) => t,
        Err(code) => return code,
    };
    let mut lines = text.lines();
    match lines.next().map(Json::parse) {
        Some(Ok(h))
            if h.get("schema").and_then(Json::as_str) == Some("sm-trace")
                && h.get("version").and_then(Json::as_f64)
                    == Some(sm_trace::TRACE_SCHEMA_VERSION as f64) => {}
        _ => {
            eprintln!(
                "smdoctor: {}: not a current sm-trace v{} header",
                path.display(),
                sm_trace::TRACE_SCHEMA_VERSION
            );
            return ExitCode::FAILURE;
        }
    }

    // window -> (admitted, queue_rejects) from the service narration;
    // window -> (epochs, committed, deferred) from the per-window
    // scheduler runs (grouped by the `batch:<label>.w<N>` span root).
    let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut epochs: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for line in lines {
        let Ok(doc) = Json::parse(line) else { continue };
        let t = TraceLine { doc };
        match t.str("name") {
            "service.window" => {
                // A window event missing its expected fields is a
                // producer bug, not an empty window — refuse it.
                let (Some(w), Some(admitted), Some(rejects)) = (
                    t.try_field("window"),
                    t.try_field("admitted"),
                    t.try_field("queue_rejects"),
                ) else {
                    eprintln!(
                        "smdoctor: {}: service.window event missing \
                         window/admitted/queue_rejects fields",
                        path.display()
                    );
                    return ExitCode::from(EXIT_USAGE);
                };
                windows.insert(w as u64, (admitted as u64, rejects as u64));
            }
            "sched.epoch" => {
                if let Some(w) = t
                    .doc
                    .get("path")
                    .and_then(Json::as_str)
                    .and_then(window_of_path)
                {
                    let e = epochs.entry(w).or_default();
                    e.0 += 1;
                    e.1 += t.field("committed") as u64;
                    e.2 += t.field("deferred") as u64;
                }
            }
            _ => {}
        }
    }
    if windows.is_empty() {
        eprintln!(
            "smdoctor: {}: no service.window narration — not a streaming-service trace \
             (run smserved or the scf_service_batch example with SM_TRACE set)",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    println!("service report — {} admission window(s):", windows.len());
    let mut totals = (0u64, 0u64, 0u64);
    for (w, (admitted, rejects)) in &windows {
        let (n_epochs, committed, deferred) = epochs.get(w).copied().unwrap_or((0, 0, 0));
        println!(
            "  window {w}: {admitted} admitted, {rejects} queue reject(s), \
             {n_epochs} epoch(s) ({committed} committed / {deferred} deferred)"
        );
        totals.0 += admitted;
        totals.1 += rejects;
        totals.2 += n_epochs;
    }
    println!(
        "  totals: {} admitted, {} queue reject(s), {} epoch(s)",
        totals.0, totals.1, totals.2
    );
    ExitCode::SUCCESS
}

/// Relative wall-clock drift beyond which `compare` warns (wall time is
/// an annotation, so it can never fail the gate — but a 2× swing is
/// worth a human look).
const WALL_DRIFT_WARN: f64 = 0.5;

/// Is this key/column a wall-clock annotation (excluded from the
/// deterministic contract by the two-clock rule)?
fn is_wall_key(key: &str) -> bool {
    key.ends_with("_s") || key.contains("seconds") || key.contains("wall")
}

/// Is this key/column a measured floating-point error (`max_err_vs_dense`)?
/// Its last bits follow the dense kernel the CPU runs (fused multiply-add or
/// not), so it is no deterministic counter: it fails the gate only when it
/// grows past ten times the baseline, floored at [`ERR_FLOOR`].
fn is_error_key(key: &str) -> bool {
    key.contains("_err")
}

/// Errors below this are rounding of a few `f64` operations.
const ERR_FLOOR: f64 = 1e-12;

/// Keys whose *sum* is deterministic while the split shifts with benign
/// plan-cache races between concurrent groups (the consensus identity
/// `hits + builds = Σ group_size × iterations` fixes only the sum).
const SUMMED_KEYS: [&str; 2] = ["plan_builds", "cache_hits"];

/// Recursive deterministic diff. Objects must agree on key sets; arrays
/// on length; scalars exactly — except wall-clock keys (soft warn beyond
/// [`WALL_DRIFT_WARN`]), measured errors ([`is_error_key`]) and the
/// [`SUMMED_KEYS`] pair (compared as a sum).
/// Tabular `{columns, rows}` payloads (the `bench_table` shape) get the
/// same treatment column-wise.
fn compare_value(at: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            // bench_table payloads compare column-aware.
            if old.get("columns").is_some() && old.get("rows").is_some() {
                compare_table(at, old, new, diffs);
                return;
            }
            let a_keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let b_keys: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            if a_keys != b_keys {
                diffs.push(Diff {
                    at: at.into(),
                    what: format!("object keys {a_keys:?} -> {b_keys:?}"),
                    hard: true,
                });
                return;
            }
            // The builds/hits split is only deterministic as a sum.
            if SUMMED_KEYS.iter().all(|k| old.get(k).is_some()) {
                let sum = |doc: &Json| -> f64 {
                    SUMMED_KEYS
                        .iter()
                        .filter_map(|k| doc.get(k).and_then(Json::as_f64))
                        .sum()
                };
                if sum(old) != sum(new) {
                    diffs.push(Diff {
                        at: format!("{at}.{}", SUMMED_KEYS.join("+")),
                        what: format!("consensus sum {} -> {}", sum(old), sum(new)),
                        hard: true,
                    });
                }
            }
            for (k, va) in a {
                if SUMMED_KEYS.contains(&k.as_str())
                    && SUMMED_KEYS.iter().all(|s| old.get(s).is_some())
                {
                    continue;
                }
                if let Some(vb) = new.get(k) {
                    compare_scalar_or_recurse(&format!("{at}.{k}"), k, va, vb, diffs);
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                diffs.push(Diff {
                    at: at.into(),
                    what: format!("array length {} -> {}", a.len(), b.len()),
                    hard: true,
                });
                return;
            }
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                compare_value(&format!("{at}[{i}]"), va, vb, diffs);
            }
        }
        _ => compare_scalar_or_recurse(at, at, old, new, diffs),
    }
}

/// Compare two leaf values under the key `key` (wall keys soft-warn,
/// error keys may not grow tenfold; everything else is deterministic),
/// recursing for containers.
fn compare_scalar_or_recurse(at: &str, key: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    match (old, new) {
        (Json::Obj(_), _) | (Json::Arr(_), _) => compare_value(at, old, new, diffs),
        _ => {
            // Numeric comparison when both sides parse as numbers (table
            // cells are strings), string equality otherwise.
            let nums = (as_number(old), as_number(new));
            if let (Some(a), Some(b)) = nums {
                if is_wall_key(key) {
                    let base = a.abs().max(1e-12);
                    let drift = (b - a).abs() / base;
                    if drift > WALL_DRIFT_WARN {
                        diffs.push(Diff {
                            at: at.into(),
                            what: format!(
                                "wall drift {a} -> {b} ({:+.0}%)",
                                100.0 * (b - a) / base
                            ),
                            hard: false,
                        });
                    }
                } else if is_error_key(key) {
                    if b.is_nan() || b > 10.0 * a.max(ERR_FLOOR) {
                        diffs.push(Diff {
                            at: at.into(),
                            what: format!("error grew {a} -> {b}"),
                            hard: true,
                        });
                    }
                } else if a != b {
                    diffs.push(Diff {
                        at: at.into(),
                        what: format!("{a} -> {b}"),
                        hard: true,
                    });
                }
            } else if old != new {
                diffs.push(Diff {
                    at: at.into(),
                    what: format!("{old} -> {new}"),
                    hard: true,
                });
            }
        }
    }
}

fn as_number(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::Str(s) => s.trim().parse().ok(),
        _ => None,
    }
}

/// Column-aware comparison of a `bench_table` payload: wall columns
/// soft-warn, error columns may not grow tenfold, the builds/hits column
/// pair compares as a per-row sum, everything else must match exactly.
fn compare_table(at: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    let cols = |doc: &Json| -> Vec<String> {
        doc.get("columns")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .map(|c| c.as_str().unwrap_or("").to_string())
                    .collect()
            })
            .unwrap_or_default()
    };
    let (ca, cb) = (cols(old), cols(new));
    if ca != cb {
        diffs.push(Diff {
            at: format!("{at}.columns"),
            what: format!("{ca:?} -> {cb:?}"),
            hard: true,
        });
        return;
    }
    fn rows(doc: &Json) -> Vec<&[Json]> {
        doc.get("rows")
            .and_then(Json::as_arr)
            .map(|rs| rs.iter().filter_map(Json::as_arr).collect())
            .unwrap_or_default()
    }
    let (ra, rb) = (rows(old), rows(new));
    if ra.len() != rb.len() {
        diffs.push(Diff {
            at: format!("{at}.rows"),
            what: format!("row count {} -> {}", ra.len(), rb.len()),
            hard: true,
        });
        return;
    }
    let summed: Vec<usize> = ca
        .iter()
        .enumerate()
        .filter(|(_, c)| SUMMED_KEYS.contains(&c.as_str()))
        .map(|(i, _)| i)
        .collect();
    let sum_all = summed.len() == SUMMED_KEYS.len();
    for (r, (row_a, row_b)) in ra.iter().zip(&rb).enumerate() {
        if sum_all {
            let sum = |row: &[Json]| -> f64 {
                summed
                    .iter()
                    .filter_map(|&i| row.get(i).and_then(as_number))
                    .sum()
            };
            if sum(row_a) != sum(row_b) {
                diffs.push(Diff {
                    at: format!("{at}.rows[{r}].{}", SUMMED_KEYS.join("+")),
                    what: format!("consensus sum {} -> {}", sum(row_a), sum(row_b)),
                    hard: true,
                });
            }
        }
        for (c, col) in ca.iter().enumerate() {
            if sum_all && summed.contains(&c) {
                continue;
            }
            let (Some(va), Some(vb)) = (row_a.get(c), row_b.get(c)) else {
                continue;
            };
            compare_scalar_or_recurse(&format!("{at}.rows[{r}].{col}"), col, va, vb, diffs);
        }
    }
}

// ---------------------------------------------------------------------
// Audit mode (the original smdoctor): schema + health over artifacts.
// ---------------------------------------------------------------------

/// One problem found while auditing the artifacts. Printed with the file
/// it was found in; any of these fails `--check`.
struct Drift {
    file: String,
    what: String,
}

fn drift(report: &mut Vec<Drift>, file: &Path, what: impl Into<String>) {
    report.push(Drift {
        file: file.display().to_string(),
        what: what.into(),
    });
}

/// Is this file name one of the audited artifact shapes?
fn is_artifact(name: &str) -> bool {
    (name.starts_with("BENCH_") && name.ends_with(".json"))
        || (name.starts_with("TRACE_") && name.ends_with(".jsonl"))
        || (name.starts_with("PERFETTO_") && name.ends_with(".json"))
        || (name.starts_with("CALIB_") && name.ends_with(".json"))
        || name.ends_with(".csv")
}

/// Glob a directory for audited artifacts, sorted. An unreadable
/// directory is a usage error (exit 2), never a silent empty set — an
/// audit that cannot see its inputs must not report "healthy".
fn collect_artifacts(dir: &Path) -> Result<Vec<PathBuf>, ExitCode> {
    let rd = match std::fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) => {
            eprintln!("smdoctor: cannot read directory {}: {e}", dir.display());
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    let mut entries: Vec<PathBuf> = rd.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    Ok(entries
        .into_iter()
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            p.is_file() && is_artifact(name)
        })
        .collect())
}

fn cmd_audit(args: &[String]) -> ExitCode {
    let mut check = false;
    let mut inputs: Vec<PathBuf> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            other => inputs.push(PathBuf::from(other)),
        }
    }
    // Default to results/; any directory argument is globbed for
    // artifacts, file arguments are audited as given.
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut missing = false;
    if inputs.is_empty() {
        paths = match collect_artifacts(&results_dir()) {
            Ok(p) => p,
            Err(code) => return code,
        };
    } else {
        for input in inputs {
            if input.is_dir() {
                match collect_artifacts(&input) {
                    Ok(p) => paths.extend(p),
                    Err(code) => return code,
                }
            } else if input.is_file() {
                paths.push(input);
            } else {
                eprintln!("smdoctor: no such file or directory: {}", input.display());
                missing = true;
            }
        }
    }
    if missing {
        return ExitCode::from(EXIT_USAGE);
    }

    let mut report = Vec::new();
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for path in &paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".jsonl") {
            *counts.entry("trace").or_default() += 1;
            audit_trace(path, &mut report);
        } else if name.starts_with("PERFETTO_") {
            *counts.entry("perfetto").or_default() += 1;
            audit_perfetto(path, &mut report);
        } else if name.ends_with(".csv") {
            *counts.entry("csv").or_default() += 1;
            audit_csv(path, &mut report);
        } else {
            // BENCH_ and CALIB_ share the stamped envelope; CALIB adds
            // the report-only pin.
            *counts
                .entry(if name.starts_with("CALIB_") {
                    "calib"
                } else {
                    "bench"
                })
                .or_default() += 1;
            audit_bench(path, &mut report);
        }
    }

    let audited: usize = counts.values().sum();
    println!(
        "\nsmdoctor: audited {audited} artifact(s) [{}], {} problem(s)",
        counts
            .iter()
            .map(|(k, v)| format!("{v} {k}"))
            .collect::<Vec<_>>()
            .join(", "),
        report.len()
    );
    for d in &report {
        println!("  DRIFT {}: {}", d.file, d.what);
    }
    if check && audited == 0 {
        println!("smdoctor --check: no artifacts found — nothing to vouch for");
        return ExitCode::FAILURE;
    }
    if check && !report.is_empty() {
        println!("smdoctor --check: FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Audit one stamped JSON document (`BENCH_*` / `CALIB_*`): parseable,
/// stamped, schema-current; calibration reports must be report-only.
fn audit_bench(path: &Path, report: &mut Vec<Drift>) {
    println!("\n== {} ==", path.display());
    let text = match std::fs::read_to_string(path) {
        Ok(t) if t.trim().is_empty() => return drift(report, path, "empty file"),
        Ok(t) => t,
        Err(e) => return drift(report, path, format!("unreadable: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return drift(report, path, format!("malformed JSON: {e}")),
    };
    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == BENCH_SCHEMA_VERSION => {}
        Some(v) => drift(
            report,
            path,
            format!("schema_version {v} != current {BENCH_SCHEMA_VERSION}"),
        ),
        None => drift(report, path, "missing schema_version"),
    }
    for key in ["bench", "git_commit", "generated_at"] {
        match doc.get(key).and_then(Json::as_str) {
            Some(s) if !s.is_empty() => {}
            _ => drift(report, path, format!("missing provenance stamp '{key}'")),
        }
    }
    if doc.get("data").is_none() {
        drift(report, path, "missing data payload");
    }
    let is_calib = path
        .file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("CALIB_"));
    if is_calib && doc.get("data").and_then(|d| d.get("report_only")) != Some(&Json::Bool(true)) {
        drift(
            report,
            path,
            "calibration report must stamp data.report_only=true (invariant 3)",
        );
    }
    println!(
        "  bench={} commit={} at={}",
        doc.get("bench").and_then(Json::as_str).unwrap_or("?"),
        doc.get("git_commit")
            .and_then(Json::as_str)
            .map(|c| &c[..c.len().min(12)])
            .unwrap_or("?"),
        doc.get("generated_at")
            .and_then(Json::as_str)
            .unwrap_or("?"),
    );
}

/// Audit one `PERFETTO_*.json` export: parseable, non-empty
/// `traceEvents`, current `sm` provenance stamp.
fn audit_perfetto(path: &Path, report: &mut Vec<Drift>) {
    println!("\n== {} ==", path.display());
    let text = match std::fs::read_to_string(path) {
        Ok(t) if t.trim().is_empty() => return drift(report, path, "empty file"),
        Ok(t) => t,
        Err(e) => return drift(report, path, format!("unreadable: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => return drift(report, path, format!("malformed JSON: {e}")),
    };
    let n_events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .map(|a| a.len());
    match n_events {
        Some(0) => drift(report, path, "traceEvents is empty"),
        Some(n) => println!("  {n} trace event(s)"),
        None => drift(report, path, "missing traceEvents array"),
    }
    let sm = doc.get("sm");
    match sm.and_then(|s| s.get("schema")).and_then(Json::as_str) {
        Some(sm_trace::chrome::PERFETTO_SCHEMA) => {}
        other => drift(report, path, format!("sm.schema {other:?}")),
    }
    match sm.and_then(|s| s.get("version")).and_then(Json::as_f64) {
        Some(v) if v == sm_trace::TRACE_SCHEMA_VERSION as f64 => {}
        v => drift(
            report,
            path,
            format!(
                "sm.version {v:?} != current {}",
                sm_trace::TRACE_SCHEMA_VERSION
            ),
        ),
    }
}

/// Audit one CSV artifact: the `# schema=sm-csv ...` stamp must lead and
/// carry the current version.
fn audit_csv(path: &Path, report: &mut Vec<Drift>) {
    println!("\n== {} ==", path.display());
    let text = match std::fs::read_to_string(path) {
        Ok(t) if t.trim().is_empty() => return drift(report, path, "empty file"),
        Ok(t) => t,
        Err(e) => return drift(report, path, format!("unreadable: {e}")),
    };
    let first = text.lines().next().unwrap_or("");
    if !first.starts_with("# schema=sm-csv ") {
        return drift(
            report,
            path,
            "missing '# schema=sm-csv ...' header stamp on line 1",
        );
    }
    let version = first
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("version="))
        .and_then(|v| v.parse::<u32>().ok());
    match version {
        Some(v) if v == CSV_SCHEMA_VERSION => {}
        v => drift(
            report,
            path,
            format!("csv schema version {v:?} != current {CSV_SCHEMA_VERSION}"),
        ),
    }
    let rows = text
        .lines()
        .skip(2)
        .filter(|l| !l.trim().is_empty())
        .count();
    println!("  {} data row(s)", rows);
}

/// Parsed view of one trace line (event or metric).
struct TraceLine {
    doc: Json,
}

impl TraceLine {
    fn str(&self, key: &str) -> &str {
        self.doc.get(key).and_then(Json::as_str).unwrap_or("")
    }
    fn num(&self, key: &str) -> f64 {
        self.try_num(key).unwrap_or(0.0)
    }
    fn field(&self, key: &str) -> f64 {
        self.try_field(key).unwrap_or(0.0)
    }
    /// Top-level numeric key, `None` when absent — callers that *expect*
    /// the key use this and report the gap instead of folding in 0.0.
    fn try_num(&self, key: &str) -> Option<f64> {
        self.doc.get(key).and_then(Json::as_f64)
    }
    /// Structured-payload numeric field, `None` when absent.
    fn try_field(&self, key: &str) -> Option<f64> {
        self.doc
            .get("fields")
            .and_then(|f| f.get(key))
            .and_then(Json::as_f64)
    }
}

/// Audit one `TRACE_*.jsonl` structured trace and print the ops report.
fn audit_trace(path: &Path, report: &mut Vec<Drift>) {
    println!("\n== {} ==", path.display());
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return drift(report, path, format!("unreadable: {e}")),
    };
    let mut lines = text.lines();
    let header = match lines.next().map(Json::parse) {
        Some(Ok(h)) => h,
        Some(Err(e)) => return drift(report, path, format!("malformed header: {e}")),
        None => return drift(report, path, "empty trace file"),
    };
    if header.get("schema").and_then(Json::as_str) != Some("sm-trace") {
        return drift(report, path, "header is not an sm-trace header");
    }
    match header.get("version").and_then(Json::as_f64) {
        Some(v) if v == sm_trace::TRACE_SCHEMA_VERSION as f64 => {}
        v => {
            return drift(
                report,
                path,
                format!(
                    "trace schema version {v:?} != current {}",
                    sm_trace::TRACE_SCHEMA_VERSION
                ),
            )
        }
    }
    let label = header.get("label").and_then(Json::as_str).unwrap_or("?");

    let mut events = Vec::new();
    let mut metrics = Vec::new();
    for (i, line) in lines.enumerate() {
        match Json::parse(line) {
            Ok(doc) => {
                let t = TraceLine { doc };
                match t.str("type") {
                    "event" => events.push(t),
                    "metric" => metrics.push(t),
                    other => drift(
                        report,
                        path,
                        format!("line {}: unknown type '{other}'", i + 2),
                    ),
                }
            }
            Err(e) => drift(report, path, format!("line {}: {e}", i + 2)),
        }
    }
    if events.is_empty() {
        drift(
            report,
            path,
            "trace contains no events (instrumentation off?)",
        );
    }
    println!(
        "  label={label} events={} metrics={}",
        events.len(),
        metrics.len()
    );

    // Plan-cache pressure: per-engine-root builds/hits/evictions counters
    // plus the final occupancy gauge.
    let metric_u64 = |suffix: &str| -> u64 {
        metrics
            .iter()
            .filter(|m| m.str("name").ends_with(suffix))
            .map(|m| m.num("value") as u64)
            .sum()
    };
    let builds = metric_u64("/plan_cache.builds");
    let hits = metric_u64("/plan_cache.hits");
    let evictions = metric_u64("/plan_cache.evictions");
    let occupancy = metrics
        .iter()
        .filter(|m| m.str("name").ends_with("/plan_cache.occupancy"))
        .map(|m| m.num("value"))
        .fold(0.0f64, f64::max);
    if builds + hits > 0 {
        println!(
            "  plan cache: {hits} hits / {builds} builds ({:.1}% hit rate), \
             {evictions} evictions, occupancy {occupancy:.0}",
            100.0 * hits as f64 / (hits + builds) as f64
        );
    }

    // Steal effectiveness: sched.epoch narrates each epoch's committed vs
    // deferred split; sched.steal lists the ranks each straggler borrowed.
    let mut epochs: BTreeMap<u64, (f64, f64, f64)> = BTreeMap::new();
    let mut steals: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for ev in &events {
        let epoch_idx = ev
            .doc
            .get("path")
            .and_then(Json::as_str)
            .and_then(epoch_of_path);
        match ev.str("name") {
            "sched.epoch" => {
                if let Some(e) = epoch_idx {
                    epochs.insert(
                        e,
                        (
                            ev.field("groups"),
                            ev.field("committed"),
                            ev.field("deferred"),
                        ),
                    );
                }
            }
            "sched.steal" => {
                if let Some(e) = epoch_idx {
                    let s = steals.entry(e).or_default();
                    s.0 += 1;
                    s.1 += ev.field("stolen_ranks") as u64;
                }
            }
            _ => {}
        }
    }
    for (e, (groups, committed, deferred)) in &epochs {
        let (stolen_jobs, stolen_ranks) = steals.get(e).copied().unwrap_or((0, 0));
        println!(
            "  epoch {e}: {groups:.0} groups, {committed:.0} committed / {deferred:.0} deferred, \
             {stolen_jobs} stolen job(s) over {stolen_ranks} rank(s)"
        );
    }

    // Idle breakdown: rank.idle events (emitted once per world rank from
    // rank 0) carry idle wall seconds plus busy/wall fields.
    let idles: Vec<&TraceLine> = events
        .iter()
        .filter(|e| e.str("name") == "rank.idle")
        .collect();
    if !idles.is_empty() {
        // A rank.idle event without its expected fields is a malformed
        // trace, not an idle-free rank: report it as drift instead of
        // silently folding 0.0 into the breakdown.
        let mut complete = true;
        for e in &idles {
            for (what, present) in [
                ("wall_s value", e.try_num("wall_s").is_some()),
                ("fields.wall_s", e.try_field("wall_s").is_some()),
                ("fields.rank", e.try_field("rank").is_some()),
            ] {
                if !present {
                    drift(report, path, format!("rank.idle event missing {what}"));
                    complete = false;
                }
            }
        }
        if complete {
            let wall = idles.iter().map(|e| e.field("wall_s")).fold(0.0, f64::max);
            let idle_sum: f64 = idles.iter().map(|e| e.num("wall_s")).sum();
            let worst = idles
                .iter()
                .max_by(|a, b| a.num("wall_s").total_cmp(&b.num("wall_s")))
                .expect("non-empty");
            println!(
                "  idle: {} ranks, makespan {wall:.3}s, total idle {idle_sum:.3}s \
                 (worst rank {:.0}: {:.3}s)",
                idles.len(),
                worst.field("rank"),
                worst.num("wall_s"),
            );
        }
    }

    // Byte budgets: engine value traffic by precision, communicator
    // traffic by class.
    for prec in ["fp64", "fp32", "fp32_refined"] {
        let bytes = metric_u64(&format!("/engine.value_bytes.{prec}"));
        if bytes > 0 {
            println!("  engine value bytes [{prec}]: {bytes}");
        }
    }
    for class in ["collective", "p2p"] {
        let bytes = metric_u64(&format!("/comm.{class}.bytes"));
        let msgs = metric_u64(&format!("/comm.{class}.msgs"));
        if msgs > 0 {
            println!("  comm [{class}]: {bytes} bytes in {msgs} message(s)");
        }
    }

    // The deterministic cost-unit critical path, when the trace carries
    // schedule narration (v2 traces of scheduler runs).
    if let Ok(doc) = TraceDoc::parse(&text) {
        match critical_path(&doc, None) {
            Ok(cp) => println!(
                "  critical path: {:.6e} units over {} epoch(s), straggler job {:?}",
                cp.total_units,
                cp.epochs.len(),
                cp.straggler_job
            ),
            Err(TraceError::NoSchedule(_)) => {}
            Err(e) => drift(report, path, format!("critical path: {e}")),
        }
    }
}

/// Extract the epoch index from a span path like
/// `batch:svc/epoch:2/group:0/...`.
fn epoch_of_path(path: &str) -> Option<u64> {
    path.split('/')
        .find_map(|seg| seg.strip_prefix("epoch:"))
        .and_then(|v| v.parse().ok())
}
