//! The `smdoctor` views over a parsed bench document (the trace views
//! live in `sm_trace::analyze`, the regression gate in
//! [`crate::compare`]). Each is a function from the parsed input to the
//! text `smdoctor` prints, or to the reason the input is not what the
//! view reads — a row missing its counters is the wrong artifact, never
//! a row of zeros.

use std::fmt::Write as _;

use crate::output::{Json, BENCH_SCHEMA_VERSION};

/// Audit one stamped `BENCH_*.json` document: the `bench=… commit=… at=…`
/// line of the report, and every problem with the envelope (schema
/// version, provenance stamps, payload).
pub fn audit_bench(doc: &Json) -> (String, Vec<String>) {
    let mut problems = Vec::new();
    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == BENCH_SCHEMA_VERSION => {}
        Some(v) => problems.push(format!(
            "schema_version {v} != current {BENCH_SCHEMA_VERSION}"
        )),
        None => problems.push("missing schema_version".to_string()),
    }
    let stamp = |key| doc.get(key).and_then(Json::as_str);
    for key in ["bench", "git_commit", "generated_at"] {
        if stamp(key).is_none_or(str::is_empty) {
            problems.push(format!("missing provenance stamp '{key}'"));
        }
    }
    if doc.get("data").is_none() {
        problems.push("missing data payload".to_string());
    }
    let commit: String = stamp("git_commit").map_or("?".into(), |c| c.chars().take(12).collect());
    let summary = format!(
        "bench={} commit={commit} at={}",
        stamp("bench").unwrap_or("?"),
        stamp("generated_at").unwrap_or("?"),
    );
    (summary, problems)
}

/// The counters every row of `BENCH_faults.json` carries, in print order.
const FAULT_KEYS: [&str; 8] = [
    "world",
    "rank_failures",
    "poisoned_attempts",
    "retries",
    "quarantined_jobs",
    "recovery_epochs",
    "final_world_size",
    "survivor_utilization",
];

/// The fault-injection and recovery report over the `repro faults`
/// artifact: one line per scenario, then totals.
pub fn fault_report(doc: &Json) -> Result<String, String> {
    let series = doc.get("data").and_then(|d| d.get("series"));
    let series = series
        .and_then(Json::as_arr)
        .ok_or("no data.series — not a fault bench artifact (run `repro faults`)")?;
    let mut out = format!(
        "fault report [{}] — {} scenario(s):\n",
        doc.get("bench").and_then(Json::as_str).unwrap_or("?"),
        series.len()
    );
    let mut totals = [0.0f64; 5];
    for (i, row) in series.iter().enumerate() {
        let mut v = [0.0f64; 8];
        for (slot, key) in v.iter_mut().zip(FAULT_KEYS) {
            *slot = row.get(key).and_then(Json::as_f64).ok_or_else(|| {
                format!(
                    "data.series[{i}] has no numeric '{key}' — \
                     not a fault bench artifact (run `repro faults`)"
                )
            })?;
        }
        let [world, failures, poisoned, retries, quarantined, epochs, final_world, utilization] = v;
        let _ = writeln!(
            out,
            "  world {world:.0} {:<22} {failures:.0} rank failure(s), {poisoned:.0} poisoned, \
             {retries:.0} retried, {quarantined:.0} quarantined, {epochs:.0} epoch(s), \
             final world {final_world:.0}, utilization {utilization:.3}",
            row.get("scenario").and_then(Json::as_str).unwrap_or("?"),
        );
        for (t, x) in totals.iter_mut().zip(&v[1..6]) {
            *t += x;
        }
    }
    let [failures, poisoned, retries, quarantined, epochs] = totals;
    let _ = writeln!(
        out,
        "  totals: {failures:.0} rank failure(s), {poisoned:.0} poisoned attempt(s), \
         {retries:.0} retried, {quarantined:.0} quarantined, {epochs:.0} recovery epoch(s)"
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `git_commit` stamp whose byte 12 falls inside a code point is
    /// printed (truncated on a `char` boundary), never a panic.
    #[test]
    fn audit_bench_reports_each_envelope_problem() {
        let good = r#"{"bench":"x","schema_version":1,"git_commit":"a€€€€€€€€€€€€","generated_at":"t","data":{}}"#;
        let (summary, problems) = audit_bench(&Json::parse(good).unwrap());
        assert_eq!(summary, "bench=x commit=a€€€€€€€€€€€ at=t");
        assert_eq!(problems, [""; 0]);
        let bad = r#"{"bench":"","schema_version":2,"generated_at":"t"}"#;
        let (summary, problems) = audit_bench(&Json::parse(bad).unwrap());
        assert_eq!(summary, "bench= commit=? at=t");
        assert_eq!(
            problems,
            [
                "schema_version 2 != current 1",
                "missing provenance stamp 'bench'",
                "missing provenance stamp 'git_commit'",
                "missing data payload",
            ]
        );
        let (_, problems) = audit_bench(&Json::parse("[]").unwrap());
        assert_eq!(problems.len(), 5, "{problems:?}");
    }

    #[test]
    fn fault_report_prints_scenarios_and_totals_and_refuses_other_artifacts() {
        let row = |scenario: &str, failures: u32| {
            format!(
                r#"{{"world":4,"scenario":"{scenario}","rank_failures":{failures},"poisoned_attempts":2,
                "retries":2,"quarantined_jobs":1,"recovery_epochs":3,"final_world_size":3,
                "survivor_utilization":0.75}}"#
            )
        };
        let doc = |rows: &[String]| {
            let text = format!(
                r#"{{"bench":"faults","data":{{"series":[{}]}}}}"#,
                rows.join(",")
            );
            Json::parse(&text).unwrap()
        };
        assert_eq!(
            fault_report(&doc(&[row("death", 1), row("chaos", 2)])).unwrap(),
            "fault report [faults] — 2 scenario(s):\n  \
             world 4 death                  1 rank failure(s), 2 poisoned, 2 retried, \
             1 quarantined, 3 epoch(s), final world 3, utilization 0.750\n  \
             world 4 chaos                  2 rank failure(s), 2 poisoned, 2 retried, \
             1 quarantined, 3 epoch(s), final world 3, utilization 0.750\n  \
             totals: 3 rank failure(s), 4 poisoned attempt(s), 4 retried, 2 quarantined, \
             6 recovery epoch(s)\n"
        );
        // A row without one of its counters is another artifact, not a
        // fault-free row.
        let short = row("death", 1).replace(r#""retries":2,"#, "");
        let err = fault_report(&doc(&[row("ok", 0), short])).unwrap_err();
        assert!(
            err.starts_with("data.series[1] has no numeric 'retries'"),
            "{err}"
        );
        let err = fault_report(&Json::parse(r#"{"bench":"sparse","data":{}}"#).unwrap());
        assert!(err.unwrap_err().starts_with("no data.series"));
    }
}
