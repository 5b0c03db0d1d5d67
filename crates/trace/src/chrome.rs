//! Chrome trace-event (Perfetto) export.
//!
//! Converts a traced scheduler run into the Chrome trace-event JSON
//! format, so what `smdoctor export-perfetto` writes opens directly in
//! <https://ui.perfetto.dev> (or `chrome://tracing`): one **process per
//! world rank** (`pid = rank`), one **thread track per group index**
//! (`tid = group`), one complete (`"ph":"X"`) slice per job execution on
//! every rank of the executing group.
//!
//! The trace stream records no absolute timestamps (the two-clock rule:
//! wall time is an annotation, not a clock), so the exporter *synthesizes*
//! a timeline from the barrier model: every epoch starts at the maximum
//! lane end of the previous epoch (the world re-split is a collective
//! barrier), and each group's queue runs sequentially from there. Slice
//! durations are the per-job measured wall seconds (max over the group's
//! ranks) in microseconds; when the trace carries no `job.done` wall
//! annotations at all, cost-unit durations (`cost / ranks`, rendered as
//! microseconds) are used so the schedule shape still visualizes.
//!
//! Field ordering is deterministic (`name, ph, pid, tid, ts, dur, args`,
//! metadata first, slices in `(epoch, group, pos, rank)` order), so two
//! exports of the same trace differ only in measured durations. The
//! document is a view of the trace, computed on demand and stamped with
//! nothing: the trace it came from carries the schema version.

use crate::analyze::{reconstruct, Schedule, TraceDoc, TraceError};
use crate::json::Json;

/// Render a reconstructed schedule as a Chrome trace-event JSON document.
/// See the module docs for the timeline model.
pub fn chrome_trace(schedule: &Schedule) -> Json {
    // Durations: measured wall microseconds, or cost units rendered as
    // microseconds when no job carries a wall annotation (planning-only
    // traces).
    let any_wall = schedule.jobs.values().any(|j| j.wall_s > 0.0);
    let dur_us = |job: usize| -> f64 {
        let je = &schedule.jobs[&job];
        if any_wall {
            je.wall_s * 1e6
        } else {
            je.duration_units()
        }
    };

    let mut events: Vec<Json> = Vec::new();

    // Metadata: name each rank process and each group track. Collect the
    // (pid) and (pid, tid) universes in sorted order for determinism.
    let mut rank_groups: Vec<(usize, usize)> = Vec::new();
    for groups in &schedule.epochs {
        for g in groups {
            for r in g.rank_start..g.rank_start + g.ranks {
                rank_groups.push((r, g.group));
            }
        }
    }
    rank_groups.sort_unstable();
    rank_groups.dedup();
    let mut ranks: Vec<usize> = rank_groups.iter().map(|(r, _)| *r).collect();
    ranks.dedup();
    for r in &ranks {
        events.push(Json::obj([
            ("name", Json::Str("process_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(*r as f64)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("rank {r}")))]),
            ),
        ]));
    }
    for (r, g) in &rank_groups {
        events.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(*r as f64)),
            ("tid", Json::Num(*g as f64)),
            (
                "args",
                Json::obj([("name", Json::Str(format!("group {g}")))]),
            ),
        ]));
    }

    // Job slices under the barrier model: epoch start = max lane end of
    // the previous epoch; each group's queue runs sequentially.
    let mut lane_end = vec![0.0f64; schedule.world_size.max(1)];
    for groups in &schedule.epochs {
        let epoch_start = lane_end.iter().copied().fold(0.0f64, f64::max);
        for g in groups {
            let mut t = epoch_start;
            for &job in &g.jobs {
                let je = &schedule.jobs[&job];
                let dur = dur_us(job);
                for r in g.rank_start..g.rank_start + g.ranks {
                    events.push(Json::obj([
                        ("name", Json::Str(format!("job {job}"))),
                        ("ph", Json::Str("X".into())),
                        ("pid", Json::Num(r as f64)),
                        ("tid", Json::Num(g.group as f64)),
                        ("ts", Json::Num(t)),
                        ("dur", Json::Num(dur)),
                        (
                            "args",
                            Json::obj([
                                ("job", Json::Num(je.job as f64)),
                                ("epoch", Json::Num(je.epoch as f64)),
                                ("pos", Json::Num(je.pos as f64)),
                                ("cost", Json::Num(je.cost)),
                                ("ranks", Json::Num(je.ranks as f64)),
                                ("stolen_ranks", Json::Num(je.stolen_ranks as f64)),
                                ("wall_s", Json::Num(je.wall_s)),
                            ]),
                        ),
                    ]));
                }
                t += dur;
            }
            for r in g.rank_start..(g.rank_start + g.ranks).min(lane_end.len()) {
                lane_end[r] = t;
            }
        }
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// [`chrome_trace`] straight from a parsed trace document: reconstruct
/// the schedule of `label` (or the only traced batch when `None`), then
/// render.
pub fn export(doc: &TraceDoc, label: Option<&str>) -> Result<Json, TraceError> {
    let schedule = reconstruct(doc, label)?;
    Ok(chrome_trace(&schedule))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{GroupExec, JobExec};
    use std::collections::BTreeMap;

    fn two_epoch_schedule() -> Schedule {
        let mut jobs = BTreeMap::new();
        jobs.insert(
            0,
            JobExec {
                job: 0,
                epoch: 0,
                group: 0,
                pos: 0,
                cost: 60.0,
                ranks: 1,
                wall_s: 0.5,
                stolen_ranks: 0,
            },
        );
        jobs.insert(
            1,
            JobExec {
                job: 1,
                epoch: 0,
                group: 1,
                pos: 0,
                cost: 30.0,
                ranks: 1,
                wall_s: 0.2,
                stolen_ranks: 0,
            },
        );
        jobs.insert(
            2,
            JobExec {
                job: 2,
                epoch: 1,
                group: 0,
                pos: 0,
                cost: 50.0,
                ranks: 2,
                wall_s: 0.1,
                stolen_ranks: 1,
            },
        );
        Schedule {
            label: "t".into(),
            epochs: vec![
                vec![
                    GroupExec {
                        group: 0,
                        rank_start: 0,
                        ranks: 1,
                        est_cost: 60.0,
                        jobs: vec![0],
                    },
                    GroupExec {
                        group: 1,
                        rank_start: 1,
                        ranks: 1,
                        est_cost: 30.0,
                        jobs: vec![1],
                    },
                ],
                vec![GroupExec {
                    group: 0,
                    rank_start: 0,
                    ranks: 2,
                    est_cost: 50.0,
                    jobs: vec![2],
                }],
            ],
            jobs,
            world_size: 2,
        }
    }

    #[test]
    fn emits_metadata_slices_and_barrier_timeline() {
        let doc = chrome_trace(&two_epoch_schedule());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name + 3 thread_name (rank0/group0, rank1/group0,
        // rank1/group1) + 4 job slices (job0 on rank0, job1 on rank1,
        // job2 on ranks 0 and 1).
        let meta = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
            .count();
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(meta, 5);
        assert_eq!(slices.len(), 4);
        // Epoch 1 starts at the barrier: max lane end = 0.5 s = 5e5 µs.
        let job2 = slices
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("job 2"))
            .unwrap();
        assert_eq!(job2.get("ts").and_then(Json::as_f64), Some(5e5));
        assert_eq!(
            job2.get("args")
                .unwrap()
                .get("stolen_ranks")
                .and_then(Json::as_f64),
            Some(1.0)
        );
        // A view of the trace carries no stamp of its own.
        assert!(doc.get("sm").is_none());
        // Deterministic field ordering: the serialized form starts with
        // traceEvents and each slice leads with name/ph/pid/tid/ts/dur.
        let text = doc.to_string();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.contains(
            "\"name\":\"job 0\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":500000"
        ));
    }

    #[test]
    fn falls_back_to_cost_units_without_wall_annotations() {
        let mut s = two_epoch_schedule();
        for j in s.jobs.values_mut() {
            j.wall_s = 0.0;
        }
        let doc = chrome_trace(&s);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let job0 = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("job 0"))
            .unwrap();
        // Cost units as µs: job 0 = 60/1.
        assert_eq!(job0.get("dur").and_then(Json::as_f64), Some(60.0));
    }
}
