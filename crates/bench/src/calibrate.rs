//! Perfmodel calibration reports from traced runs — **report-only**.
//!
//! Fits `sm_accel::perfmodel` phase coefficients (seconds per cost unit
//! for gather/solve/scatter) from the `(cost, wall)` sample pairs a
//! traced scheduler run records, and writes the result as
//! `results/CALIB_perfmodel.json` (standard stamped envelope; `data`
//! carries `report_only: true`).
//!
//! The ROADMAP's "feed measured runs back into `accel::perfmodel`
//! coefficients" item lands here deliberately *castrated*: the report is
//! for humans and `smdoctor`, and **nothing in the scheduler or engine
//! ever reads it** — schedules stay pure functions of the static
//! estimates (invariant 3), which the bitwise equivalence suites pin
//! with calibration artifacts present on disk.

use crate::output::{write_stamped_json, Json};
use sm_accel::perfmodel::{fit_seconds_per_unit, CalibrationReport, PhaseCoeff};
use sm_trace::analyze::{phase_samples, TraceDoc};
use std::path::PathBuf;

/// Fit per-phase coefficients from the `engine.phase` events of the
/// traced batch `label`. Phases with no usable signal (no samples, or
/// all costs zero) are omitted; phases come out in sorted name order.
pub fn calibration_report(doc: &TraceDoc, label: &str) -> CalibrationReport {
    let samples = phase_samples(doc, label);
    CalibrationReport {
        phases: samples
            .iter()
            .filter_map(|(phase, pairs)| fit_seconds_per_unit(phase, pairs))
            .collect(),
    }
}

/// Render a calibration report as the `data` payload of a
/// `CALIB_*.json` document (deterministic key order; `report_only` is
/// stamped `true` — see the module docs).
pub fn calibration_json(label: &str, report: &CalibrationReport) -> Json {
    let phase_obj = |p: &PhaseCoeff| {
        Json::Obj(vec![
            ("phase".to_string(), Json::Str(p.phase.clone())),
            (
                "seconds_per_unit".to_string(),
                Json::Num(p.seconds_per_unit),
            ),
            ("r_squared".to_string(), Json::Num(p.r_squared)),
            ("samples".to_string(), Json::Num(p.samples as f64)),
            ("total_cost".to_string(), Json::Num(p.total_cost)),
            ("total_seconds".to_string(), Json::Num(p.total_seconds)),
        ])
    };
    Json::obj([
        ("label", Json::Str(label.to_string())),
        ("report_only", Json::Bool(true)),
        (
            "phases",
            Json::Arr(report.phases.iter().map(phase_obj).collect()),
        ),
    ])
}

/// Fit and write `results/CALIB_perfmodel.json` for the traced batch
/// `label`, returning the written path. The standard tail call of a
/// traced bench run (`repro scf_service` does this after its traced
/// rerun).
pub fn write_calibration(doc: &TraceDoc, label: &str) -> PathBuf {
    let report = calibration_report(doc, label);
    write_stamped_json("CALIB", "perfmodel", calibration_json(label, &report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_trace::analyze::RecEvent;

    fn doc_with_phases() -> TraceDoc {
        let ev = |path: &str, cost: f64, wall: f64| RecEvent {
            path: path.into(),
            name: "engine.phase".into(),
            seq: 0,
            cost,
            wall_s: wall,
            fields: Vec::new(),
        };
        TraceDoc {
            label: "c".into(),
            version: sm_trace::TRACE_SCHEMA_VERSION,
            events: vec![
                ev(
                    "batch:c/epoch:0/group:0/job:0/iter:0/phase:solve",
                    100.0,
                    0.01,
                ),
                ev(
                    "batch:c/epoch:0/group:0/job:0/iter:1/phase:solve",
                    200.0,
                    0.02,
                ),
                ev(
                    "batch:c/epoch:0/group:0/job:0/iter:0/phase:gather",
                    4096.0,
                    0.001,
                ),
                // Zero-cost phase: contributes no usable signal alone.
                ev(
                    "batch:c/epoch:0/group:0/job:0/iter:0/phase:scatter",
                    0.0,
                    0.002,
                ),
            ],
            metrics: Vec::new(),
        }
    }

    #[test]
    fn fits_each_phase_and_omits_degenerate_ones() {
        let report = calibration_report(&doc_with_phases(), "c");
        let solve = report.phase("solve").expect("solve fitted");
        assert!((solve.seconds_per_unit - 1e-4).abs() < 1e-12);
        assert_eq!(solve.samples, 2);
        assert!(report.phase("gather").is_some());
        // All-zero-cost scatter has no slope to fit.
        assert!(report.phase("scatter").is_none());
    }

    #[test]
    fn json_payload_is_report_only_with_stable_keys() {
        let report = calibration_report(&doc_with_phases(), "c");
        let data = calibration_json("c", &report);
        assert_eq!(data.get("report_only"), Some(&Json::Bool(true)));
        let text = data.to_string();
        assert!(text.starts_with("{\"label\":\"c\",\"report_only\":true,\"phases\":["));
        assert!(text.contains("\"phase\":\"gather\""));
        // Round-trips through the parser.
        assert_eq!(Json::parse(&text).unwrap(), data);
    }
}
