//! The regression gate behind `smdoctor compare`: a deterministic diff of
//! two stamped bench documents.
//!
//! Every **deterministic** quantity must match exactly — schema versions,
//! counters (value bytes, stolen jobs), key sets, column lists, row
//! counts. Three kinds of value are not deterministic and get their own
//! rule:
//!
//! * wall-clock keys (`*_s`, `*seconds*`, `*wall*`) only soft-warn beyond
//!   [`WALL_DRIFT_WARN`] — the two-clock rule;
//! * measured floating-point errors (`*_err*`), whose last bits depend on
//!   the CPU's dense kernel, fail only when they grow tenfold past
//!   rounding level ([`ERR_FLOOR`]) or turn NaN;
//! * the plan-cache `plan_builds`/`cache_hits` *split* may shift with
//!   benign races — only their **sum** is deterministic (the consensus
//!   identity), so the pair compares as a sum.

use crate::output::Json;

/// One difference between two bench documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Diff {
    /// JSON path of the differing value.
    pub at: String,
    /// Human-readable `old -> new`.
    pub what: String,
    /// Deterministic mismatch (fails the gate) vs wall drift (warns).
    pub hard: bool,
}

/// Relative wall-clock drift beyond which the gate warns (wall time is an
/// annotation, so it can never fail the gate — but a 2× swing is worth a
/// human look).
pub const WALL_DRIFT_WARN: f64 = 0.5;

/// Errors below this are rounding of a few `f64` operations.
pub const ERR_FLOOR: f64 = 1e-12;

/// Keys whose *sum* is deterministic while the split shifts with benign
/// plan-cache races between concurrent groups (the consensus identity
/// `hits + builds = Σ group_size × iterations` fixes only the sum).
pub const SUMMED_KEYS: [&str; 2] = ["plan_builds", "cache_hits"];

/// Is this key/column a wall-clock annotation (excluded from the
/// deterministic contract by the two-clock rule)?
pub fn is_wall_key(key: &str) -> bool {
    key.ends_with("_s") || key.contains("seconds") || key.contains("wall")
}

/// Is this key/column a measured floating-point error (`max_err_vs_dense`)?
pub fn is_error_key(key: &str) -> bool {
    key.contains("_err")
}

/// Diff two stamped bench documents: the envelope's identity (`bench`,
/// `schema_version`; `git_commit`/`generated_at` are provenance, expected
/// to differ) and the `data` payloads.
pub fn compare_docs(old: &Json, new: &Json) -> Vec<Diff> {
    let mut diffs = Vec::new();
    let render = |v: Option<&Json>| v.map(Json::to_string).unwrap_or_else(|| "absent".into());
    for key in ["bench", "schema_version"] {
        let (a, b) = (old.get(key), new.get(key));
        if a != b {
            diffs.push(Diff {
                at: key.to_string(),
                what: format!("{} -> {}", render(a), render(b)),
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
    diffs
}

fn hard(diffs: &mut Vec<Diff>, at: impl Into<String>, what: String) {
    diffs.push(Diff {
        at: at.into(),
        what,
        hard: true,
    });
}

/// Recursive deterministic diff. Objects must agree on key sets; arrays
/// on length; scalars by [`compare_scalar`]. Tabular `{columns, rows}`
/// payloads get the same treatment column-wise.
fn compare_value(at: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    match (old, new) {
        (Json::Obj(a), Json::Obj(b)) => {
            if old.get("columns").is_some() && old.get("rows").is_some() {
                return compare_table(at, old, new, diffs);
            }
            let a_keys: Vec<&str> = a.iter().map(|(k, _)| k.as_str()).collect();
            let b_keys: Vec<&str> = b.iter().map(|(k, _)| k.as_str()).collect();
            if a_keys != b_keys {
                return hard(diffs, at, format!("object keys {a_keys:?} -> {b_keys:?}"));
            }
            let sum_all = SUMMED_KEYS.iter().all(|k| old.get(k).is_some());
            if sum_all {
                let sum = |doc: &Json| -> f64 {
                    SUMMED_KEYS
                        .iter()
                        .filter_map(|k| doc.get(k).and_then(Json::as_f64))
                        .sum()
                };
                if sum(old) != sum(new) {
                    hard(
                        diffs,
                        format!("{at}.{}", SUMMED_KEYS.join("+")),
                        format!("consensus sum {} -> {}", sum(old), sum(new)),
                    );
                }
            }
            for ((k, va), (_, vb)) in a.iter().zip(b) {
                if !(sum_all && SUMMED_KEYS.contains(&k.as_str())) {
                    compare_keyed(&format!("{at}.{k}"), k, va, vb, diffs);
                }
            }
        }
        (Json::Arr(a), Json::Arr(b)) => {
            if a.len() != b.len() {
                return hard(
                    diffs,
                    at,
                    format!("array length {} -> {}", a.len(), b.len()),
                );
            }
            for (i, (va, vb)) in a.iter().zip(b).enumerate() {
                compare_value(&format!("{at}[{i}]"), va, vb, diffs);
            }
        }
        _ => compare_scalar(at, at, old, new, diffs),
    }
}

/// Compare the values under key `key`: containers recurse, leaves go to
/// [`compare_scalar`].
fn compare_keyed(at: &str, key: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    match old {
        Json::Obj(_) | Json::Arr(_) => compare_value(at, old, new, diffs),
        _ => compare_scalar(at, key, old, new, diffs),
    }
}

/// A number, or a table cell holding one.
fn as_number(v: &Json) -> Option<f64> {
    match v {
        Json::Num(x) => Some(*x),
        Json::Str(s) => s.trim().parse().ok(),
        _ => None,
    }
}

/// Compare two leaves under key `key`: numerically when both sides parse
/// as numbers (table cells are strings) — wall keys soft-warn, error keys
/// may not grow tenfold, everything else is exact — and by equality
/// otherwise.
fn compare_scalar(at: &str, key: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    let (Some(a), Some(b)) = (as_number(old), as_number(new)) else {
        if old != new {
            hard(diffs, at, format!("{old} -> {new}"));
        }
        return;
    };
    if is_wall_key(key) {
        let base = a.abs().max(1e-12);
        if (b - a).abs() / base > WALL_DRIFT_WARN {
            diffs.push(Diff {
                at: at.into(),
                what: format!("wall drift {a} -> {b} ({:+.0}%)", 100.0 * (b - a) / base),
                hard: false,
            });
        }
    } else if is_error_key(key) {
        if b.is_nan() || b > 10.0 * a.max(ERR_FLOOR) {
            hard(diffs, at, format!("error grew {a} -> {b}"));
        }
    } else if a != b {
        hard(diffs, at, format!("{a} -> {b}"));
    }
}

/// Column-aware comparison of a `{columns, rows}` table: wall columns
/// soft-warn, error columns may not grow tenfold, the builds/hits column
/// pair compares as a per-row sum, everything else must match exactly. A
/// row that is not an array of one cell per column is a hard diff.
fn compare_table(at: &str, old: &Json, new: &Json, diffs: &mut Vec<Diff>) {
    let cols = |doc: &Json| -> Vec<String> {
        let cols = doc.get("columns").and_then(Json::as_arr).unwrap_or(&[]);
        cols.iter()
            .map(|c| c.as_str().unwrap_or("").to_string())
            .collect()
    };
    let (ca, cb) = (cols(old), cols(new));
    if ca != cb {
        return hard(diffs, format!("{at}.columns"), format!("{ca:?} -> {cb:?}"));
    }
    fn rows(doc: &Json) -> &[Json] {
        doc.get("rows").and_then(Json::as_arr).unwrap_or(&[])
    }
    let (ra, rb) = (rows(old), rows(new));
    if ra.len() != rb.len() {
        return hard(
            diffs,
            format!("{at}.rows"),
            format!("row count {} -> {}", ra.len(), rb.len()),
        );
    }
    let summed: Vec<usize> = (0..ca.len())
        .filter(|&i| SUMMED_KEYS.contains(&ca[i].as_str()))
        .collect();
    let sum_all = summed.len() == SUMMED_KEYS.len();
    for (r, (row_a, row_b)) in ra.iter().zip(rb).enumerate() {
        let (Some(row_a), Some(row_b)) = (row_a.as_arr(), row_b.as_arr()) else {
            let what = format!("{row_a} -> {row_b}: a row is an array of cells");
            hard(diffs, format!("{at}.rows[{r}]"), what);
            continue;
        };
        if row_a.len() != ca.len() || row_b.len() != ca.len() {
            let (a, b, n) = (row_a.len(), row_b.len(), ca.len());
            let what = format!("{a} -> {b} cells for {n} columns");
            hard(diffs, format!("{at}.rows[{r}]"), what);
            continue;
        }
        if sum_all {
            let sum = |row: &[Json]| -> f64 {
                summed
                    .iter()
                    .filter_map(|&i| row.get(i).and_then(as_number))
                    .sum()
            };
            if sum(row_a) != sum(row_b) {
                hard(
                    diffs,
                    format!("{at}.rows[{r}].{}", SUMMED_KEYS.join("+")),
                    format!("consensus sum {} -> {}", sum(row_a), sum(row_b)),
                );
            }
        }
        for (c, col) in ca.iter().enumerate() {
            if sum_all && summed.contains(&c) {
                continue;
            }
            let (va, vb) = (&row_a[c], &row_b[c]);
            compare_keyed(&format!("{at}.rows[{r}].{col}"), col, va, vb, diffs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stamped document around `data` (parsed from JSON text).
    fn doc(data: &str) -> Json {
        Json::parse(&format!(
            r#"{{"bench":"t","schema_version":1,"git_commit":"abc","generated_at":"now","data":{data}}}"#
        ))
        .expect("test document parses")
    }

    /// (hard, soft) diff counts between two `data` payloads.
    fn gate(old: &str, new: &str) -> (usize, usize) {
        let diffs = compare_docs(&doc(old), &doc(new));
        let hard = diffs.iter().filter(|d| d.hard).count();
        (hard, diffs.len() - hard)
    }

    #[test]
    fn identical_documents_and_provenance_changes_pass() {
        let old = doc(r#"{"jobs":3}"#);
        assert!(compare_docs(&old, &old).is_empty());
        let new = Json::parse(
            r#"{"bench":"t","schema_version":1,"git_commit":"def","generated_at":"later","data":{"jobs":3}}"#,
        )
        .unwrap();
        assert!(compare_docs(&old, &new).is_empty());
    }

    #[test]
    fn envelope_identity_is_hard() {
        let old = doc(r#"{"jobs":3}"#);
        let renamed = Json::parse(&old.to_string().replace(r#""bench":"t""#, r#""bench":"u""#));
        assert_eq!(compare_docs(&old, &renamed.unwrap()).len(), 1);
        let bumped = Json::parse(
            &old.to_string()
                .replace(r#""schema_version":1"#, r#""schema_version":2"#),
        );
        let diffs = compare_docs(&old, &bumped.unwrap());
        assert!(diffs.len() == 1 && diffs[0].hard && diffs[0].at == "schema_version");
        let no_data = Json::parse(r#"{"bench":"t","schema_version":1}"#).unwrap();
        assert!(compare_docs(&old, &no_data).iter().any(|d| d.hard));
    }

    #[test]
    fn a_counter_change_is_hard() {
        assert_eq!(gate(r#"{"stolen_jobs":2}"#, r#"{"stolen_jobs":3}"#), (1, 0));
        assert_eq!(
            gate(
                r#"{"series":[{"epochs":1}]}"#,
                r#"{"series":[{"epochs":2}]}"#
            ),
            (1, 0)
        );
        // Table cells are strings; they still compare as numbers, so a
        // reformatted but equal counter passes and a changed one fails.
        let table = |cell: &str| format!(r#"{{"columns":["epochs"],"rows":[["{cell}"]]}}"#);
        assert_eq!(gate(&table("2"), &table("2.0")), (0, 0));
        assert_eq!(gate(&table("2"), &table("3")), (1, 0));
        // Labels compare by equality.
        assert_eq!(
            gate(r#"{"policy":"static"}"#, r#"{"policy":"steal"}"#),
            (1, 0)
        );
        assert_eq!(gate(r#"{"ok":true}"#, r#"{"ok":false}"#), (1, 0));
    }

    #[test]
    fn wall_keys_warn_only_past_fifty_percent() {
        for key in ["total_s", "idle_seconds", "wall"] {
            let at = |v: f64| format!(r#"{{"{key}":{v}}}"#);
            assert_eq!(gate(&at(1.0), &at(1.5)), (0, 0), "{key}: +50% is quiet");
            assert_eq!(gate(&at(1.0), &at(1.51)), (0, 1), "{key}: +51% warns");
            assert_eq!(gate(&at(1.0), &at(0.4)), (0, 1), "{key}: -60% warns");
            assert_eq!(gate(&at(1.0), &at(1000.0)), (0, 1), "{key}: never hard");
        }
        let table = |cell: &str| format!(r#"{{"columns":["total_s"],"rows":[["{cell}"]]}}"#);
        assert_eq!(gate(&table("1.000e0"), &table("9.000e0")), (0, 1));
        assert!(!is_wall_key("epochs") && !is_wall_key("stolen_jobs"));
    }

    #[test]
    fn builds_and_hits_compare_as_a_sum_in_object_and_table_form() {
        let obj = |b: u32, h: u32| format!(r#"{{"plan_builds":{b},"cache_hits":{h}}}"#);
        assert_eq!(gate(&obj(3, 7), &obj(4, 6)), (0, 0), "split may shift");
        assert_eq!(gate(&obj(3, 7), &obj(4, 7)), (1, 0), "sum may not");
        let table = |b: u32, h: u32| {
            format!(
                r#"{{"columns":["world","plan_builds","cache_hits"],"rows":[["2","{b}","{h}"]]}}"#
            )
        };
        assert_eq!(gate(&table(3, 7), &table(4, 6)), (0, 0));
        assert_eq!(gate(&table(3, 7), &table(3, 8)), (1, 0));
        // One of the pair alone is an ordinary counter.
        assert_eq!(gate(r#"{"cache_hits":7}"#, r#"{"cache_hits":6}"#), (1, 0));
    }

    #[test]
    fn error_values_may_grow_tenfold_above_the_floor_and_nan_fails() {
        let at = |v: &str| format!(r#"{{"max_err_vs_dense":{v}}}"#);
        assert_eq!(
            gate(&at("1e-9"), &at("9.9e-9")),
            (0, 0),
            "to 10x is allowed"
        );
        assert_eq!(gate(&at("1e-9"), &at("1.1e-8")), (1, 0), "past 10x fails");
        assert_eq!(gate(&at("1e-9"), &at("0")), (0, 0), "shrinking is fine");
        assert_eq!(gate(&at("0"), &at("9.9e-12")), (0, 0), "floored at 1e-12");
        assert_eq!(gate(&at("0"), &at("1.1e-11")), (1, 0));
        // NaN cannot be written as a JSON number; it arrives as a table
        // cell.
        let table = |cell: &str| format!(r#"{{"columns":["max_err"],"rows":[["{cell}"]]}}"#);
        assert_eq!(gate(&table("1e-9"), &table("NaN")), (1, 0));
        assert_eq!(ERR_FLOOR, 1e-12);
    }

    #[test]
    fn a_changed_shape_is_hard() {
        assert_eq!(gate(r#"{"a":1,"b":2}"#, r#"{"a":1}"#), (1, 0), "key set");
        assert_eq!(
            gate(r#"{"a":1,"b":2}"#, r#"{"b":2,"a":1}"#),
            (1, 0),
            "key order"
        );
        assert_eq!(
            gate(r#"{"xs":[1,2]}"#, r#"{"xs":[1,2,3]}"#),
            (1, 0),
            "array length"
        );
        // A container that turns into something else is a diff, not a
        // recursion.
        assert_eq!(gate(r#"{"xs":[1,2]}"#, r#"{"xs":{"a":1}}"#), (1, 0));
        assert_eq!(gate(r#"{"xs":{"a":1}}"#, r#"{"xs":3}"#), (1, 0));
        assert_eq!(gate(r#"{"xs":3}"#, r#"{"xs":[3]}"#), (1, 0));
        let table = |cols: &str, rows: &str| format!(r#"{{"columns":{cols},"rows":{rows}}}"#);
        assert_eq!(
            gate(
                &table(r#"["a","b"]"#, r#"[["1","2"]]"#),
                &table(r#"["a","c"]"#, r#"[["1","2"]]"#)
            ),
            (1, 0),
            "column list"
        );
        assert_eq!(
            gate(
                &table(r#"["a"]"#, r#"[["1"]]"#),
                &table(r#"["a"]"#, r#"[["1"],["2"]]"#)
            ),
            (1, 0),
            "row count"
        );
        // A row with a cell missing or extra, and a row that is not an
        // array, are diffs too: a truncated document is not a clean one.
        let one_row = |row: &str| table(r#"["a","b"]"#, &format!("[{row}]"));
        for (old, new) in [
            (r#"["1","2"]"#, r#"["1"]"#),
            (r#"["1","2"]"#, r#"["1","2","3"]"#),
            (r#"["1"]"#, r#"["1"]"#),
            (r#"["1","2"]"#, r#"{"a":"1","b":"2"}"#),
            (r#"["1","2"]"#, r#""1,2""#),
        ] {
            assert_eq!(gate(&one_row(old), &one_row(new)), (1, 0), "{old} -> {new}");
        }
        assert_eq!(
            gate(
                &table(r#"["a"]"#, r#"[["1"]]"#),
                &table(r#"["a"]"#, r#"[["1"],"junk"]"#)
            ),
            (1, 0),
            "an extra row that is not an array"
        );
    }
}
