//! `smdoctor` — operational health report and trace analysis over the
//! workspace's results directory.
//!
//! ```text
//! smdoctor [--check] [paths...]          audit artifacts (default: results/)
//! smdoctor critical-path <trace.jsonl>   deterministic cost-unit critical path
//! smdoctor export-perfetto <trace.jsonl> [out.json]   Chrome trace-event export
//! smdoctor calibrate <trace.jsonl>       fit perfmodel coefficients (report-only)
//! smdoctor compare <old> <new>           deterministic-counter regression gate
//!                                        (two bench files, or two directories)
//! smdoctor faults [bench-or-trace]       fault-injection & recovery report
//! smdoctor cache <manifest.smplans>      plan-cache manifest occupancy & ages
//! smdoctor serve-report <trace.jsonl>    streaming-service admission-window report
//! ```
//!
//! **Audit mode** reads every `BENCH_*.json`, `TRACE_*.jsonl`,
//! `PERFETTO_*.json` and `CALIB_*.json` artifact in `results/` (or the
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
//! **`compare`** is the regression gate over the bench trajectory
//! (`sm_bench::compare` holds the rules): it diffs two stamped bench
//! documents and exits 1 when any **deterministic** quantity changed;
//! wall-clock columns only soft-warn. Given two directories it compares
//! every `BENCH_*.json` of the first against the same-named file of the
//! second and fails if one is missing — so "gated" means "has a file in
//! `results/baseline/`".
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
use sm_bench::compare::compare_docs;
use sm_bench::output::{results_dir, Json, BENCH_SCHEMA_VERSION};
use sm_dbcsr::wire::{PlanManifest, PLAN_MANIFEST_SCHEMA_VERSION};
use sm_trace::analyze::{
    critical_path, idle_attribution, job_phase_skew, path_seg, phase_samples, RecEvent, TraceDoc,
    TraceError,
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
         smdoctor compare <old-bench.json|dir> <new-bench.json|dir>\n\
         smdoctor faults [bench-or-trace]\n\
         smdoctor cache <manifest.smplans>\n\
         smdoctor serve-report <trace.jsonl>\n\n\
         Audit BENCH_*.json / TRACE_*.jsonl / PERFETTO_*.json / CALIB_*.json\n\
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

/// Read and parse one stamped bench document; unreadable input is a
/// usage error (exit 2), malformed JSON corruption (exit 1).
fn load_bench(path: &Path) -> Result<Json, ExitCode> {
    Json::parse(&read_input(path)?).map_err(|e| {
        eprintln!("smdoctor: {}: malformed JSON: {e}", path.display());
        ExitCode::FAILURE
    })
}

/// `smdoctor compare <old> <new>`: diff two stamped bench documents, or
/// every `BENCH_*.json` of directory `old` against its namesake in
/// directory `new` (a missing namesake is a regression). Deterministic
/// mismatches exit 1; wall-clock drift only warns.
fn cmd_compare(args: &[String]) -> ExitCode {
    let [old, new] = args else {
        eprintln!("usage: smdoctor compare <old-bench.json|dir> <new-bench.json|dir>");
        return ExitCode::from(EXIT_USAGE);
    };
    let (old, new) = (Path::new(old), Path::new(new));
    let pairs: Vec<(PathBuf, PathBuf)> = if old.is_dir() {
        match collect_artifacts(old) {
            Ok(files) => files
                .into_iter()
                .filter(|f| file_name(f).starts_with("BENCH_"))
                .map(|baseline| {
                    let fresh = new.join(file_name(&baseline));
                    (baseline, fresh)
                })
                .collect(),
            Err(code) => return code,
        }
    } else {
        vec![(old.to_path_buf(), new.to_path_buf())]
    };
    if pairs.is_empty() {
        eprintln!("smdoctor: no BENCH_*.json in {}", old.display());
        return ExitCode::from(EXIT_USAGE);
    }

    let (mut hard, mut soft) = (0usize, 0usize);
    for (baseline, fresh) in &pairs {
        println!("{} vs {}", baseline.display(), fresh.display());
        if old.is_dir() && !fresh.is_file() {
            println!("  REGRESSION {}: missing", fresh.display());
            hard += 1;
            continue;
        }
        let (a, b) = match load_bench(baseline).and_then(|a| Ok((a, load_bench(fresh)?))) {
            Ok(docs) => docs,
            Err(code) => return code,
        };
        for d in compare_docs(&a, &b) {
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
    if hard == 0 {
        println!("smdoctor compare: PASS");
        ExitCode::SUCCESS
    } else {
        println!("smdoctor compare: FAIL");
        ExitCode::FAILURE
    }
}

/// `smdoctor faults [bench-or-trace]`: the fault-injection and recovery
/// report. By default reads `results/BENCH_faults.json` (the
/// `repro faults` artifact) and prints per-scenario counters plus
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
    let doc = match load_bench(&path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    let Some(series) = doc
        .get("data")
        .and_then(|d| d.get("series"))
        .and_then(Json::as_arr)
    else {
        eprintln!(
            "smdoctor: {}: no data.series — not a fault bench artifact (run `repro faults`)",
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
                     not a fault bench artifact (run `repro faults`)",
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

/// The epoch index of an event's span path (`batch:svc/epoch:2/...`).
fn epoch_of(ev: &RecEvent) -> Option<u64> {
    path_seg(&ev.path, "epoch")?.parse().ok()
}

/// Count the recovery narration events of a v3 trace, per epoch.
fn faults_from_trace(path: &Path) -> ExitCode {
    let doc = match load_trace(path) {
        Ok(d) => d,
        Err(code) => return code,
    };
    // epoch -> [injected, retries, quarantined]
    let mut per_epoch: BTreeMap<u64, [u64; 3]> = BTreeMap::new();
    for ev in &doc.events {
        let slot = match ev.name.as_str() {
            "fault.injected" => 0,
            "sched.retry" => 1,
            "job.quarantined" => 2,
            _ => continue,
        };
        per_epoch.entry(epoch_of(ev).unwrap_or(0)).or_default()[slot] += 1;
    }
    if per_epoch.is_empty() {
        println!("no fault events — the trace ran fault-free");
        return ExitCode::SUCCESS;
    }
    for (e, [injected, retries, quarantined]) in &per_epoch {
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

/// Is `key` among the event's structured fields? (`RecEvent::field`
/// reads an absent field as 0.0; callers that *expect* the field check
/// here and report the gap.)
fn has_field(ev: &RecEvent, key: &str) -> bool {
    ev.fields.iter().any(|(k, _)| k == key)
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
    let doc = match load_trace(path) {
        Ok(d) => d,
        Err(code) => return code,
    };

    // window -> (admitted, queue_rejects) from the service narration;
    // window -> (epochs, committed, deferred) from the per-window
    // scheduler runs (grouped by the `batch:<label>.w<N>` span root).
    let mut windows: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut epochs: BTreeMap<u64, (u64, u64, u64)> = BTreeMap::new();
    for ev in &doc.events {
        match ev.name.as_str() {
            "service.window" => {
                // A window event missing its expected fields is a
                // producer bug, not an empty window — refuse it.
                if !["window", "admitted", "queue_rejects"]
                    .iter()
                    .all(|k| has_field(ev, k))
                {
                    eprintln!(
                        "smdoctor: {}: service.window event missing \
                         window/admitted/queue_rejects fields",
                        path.display()
                    );
                    return ExitCode::from(EXIT_USAGE);
                }
                windows.insert(
                    ev.field("window") as u64,
                    (
                        ev.field("admitted") as u64,
                        ev.field("queue_rejects") as u64,
                    ),
                );
            }
            "sched.epoch" => {
                let window = path_seg(&ev.path, "batch")
                    .and_then(|label| label.rsplit_once(".w"))
                    .and_then(|(_, w)| w.parse().ok());
                if let Some(w) = window {
                    let e = epochs.entry(w).or_default();
                    e.0 += 1;
                    e.1 += ev.field("committed") as u64;
                    e.2 += ev.field("deferred") as u64;
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
}

/// The final component of `path` as text ("" when it has none).
fn file_name(path: &Path) -> &str {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("")
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
        .filter(|p| p.is_file() && is_artifact(file_name(p)))
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
        let name = file_name(path);
        if name.ends_with(".jsonl") {
            *counts.entry("trace").or_default() += 1;
            audit_trace(path, &mut report);
        } else if name.starts_with("PERFETTO_") {
            *counts.entry("perfetto").or_default() += 1;
            audit_perfetto(path, &mut report);
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
    if file_name(path).starts_with("CALIB_")
        && doc.get("data").and_then(|d| d.get("report_only")) != Some(&Json::Bool(true))
    {
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
            .map_or("?".into(), |c| c.chars().take(12).collect::<String>()),
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

/// Audit one `TRACE_*.jsonl` structured trace and print the ops report.
/// The trace is read through [`TraceDoc::parse`], whose error (bad or
/// foreign-version header, corrupt line, unknown record type) is the
/// drift message.
fn audit_trace(path: &Path, report: &mut Vec<Drift>) {
    println!("\n== {} ==", path.display());
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return drift(report, path, format!("unreadable: {e}")),
    };
    let doc = match TraceDoc::parse(&text) {
        Ok(d) => d,
        Err(e) => return drift(report, path, e.to_string()),
    };
    if doc.events.is_empty() {
        drift(
            report,
            path,
            "trace contains no events (instrumentation off?)",
        );
    }
    println!(
        "  label={} events={} metrics={}",
        doc.label,
        doc.events.len(),
        doc.metrics.len()
    );

    // Plan-cache pressure: per-engine-root builds/hits/evictions counters
    // plus the final occupancy gauge.
    let metric_values = |suffix: &str| -> Vec<f64> {
        let named = doc.metrics.iter().filter(|m| m.name.ends_with(suffix));
        named.map(|m| m.value).collect()
    };
    let metric_u64 =
        |suffix: &str| -> u64 { metric_values(suffix).iter().map(|&v| v as u64).sum() };
    let builds = metric_u64("/plan_cache.builds");
    let hits = metric_u64("/plan_cache.hits");
    let evictions = metric_u64("/plan_cache.evictions");
    let occupancy = metric_values("/plan_cache.occupancy")
        .into_iter()
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
    for ev in &doc.events {
        let Some(e) = epoch_of(ev) else { continue };
        match ev.name.as_str() {
            "sched.epoch" => {
                epochs.insert(
                    e,
                    (
                        ev.field("groups"),
                        ev.field("committed"),
                        ev.field("deferred"),
                    ),
                );
            }
            "sched.steal" => {
                let s = steals.entry(e).or_default();
                s.0 += 1;
                s.1 += ev.field("stolen_ranks") as u64;
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
    let idles: Vec<&RecEvent> = doc
        .events
        .iter()
        .filter(|e| e.name == "rank.idle")
        .collect();
    if !idles.is_empty() {
        // A rank.idle event without its expected fields is a malformed
        // trace, not an idle-free rank: report it as drift instead of
        // silently folding 0.0 into the breakdown.
        let mut complete = true;
        for e in &idles {
            for key in ["wall_s", "rank"] {
                if !has_field(e, key) {
                    drift(
                        report,
                        path,
                        format!("rank.idle event missing fields.{key}"),
                    );
                    complete = false;
                }
            }
        }
        if complete {
            let wall = idles.iter().map(|e| e.field("wall_s")).fold(0.0, f64::max);
            let idle_sum: f64 = idles.iter().map(|e| e.wall_s).sum();
            let worst = idles
                .iter()
                .max_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
                .expect("non-empty");
            println!(
                "  idle: {} ranks, makespan {wall:.3}s, total idle {idle_sum:.3}s \
                 (worst rank {:.0}: {:.3}s)",
                idles.len(),
                worst.field("rank"),
                worst.wall_s,
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
    // schedule narration.
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
        audit_bench(&path, &mut report);
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
        audit_trace(&path, &mut report);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(report.len(), 1);
        assert!(
            report[0].what.contains("version mismatch"),
            "{}",
            report[0].what
        );
    }
}
