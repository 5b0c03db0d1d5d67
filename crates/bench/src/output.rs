//! Typed report cells, the aligned console table and the one stamped
//! JSON artifact every experiment writes.

use std::fs;
use std::path::PathBuf;

/// The workspace JSON value (lives in `sm_trace::json` so the trace
/// analyzers share the parser/serializer).
pub use sm_trace::json::Json;

/// Directory the artifacts are written to (`results/` under the current
/// directory, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir).expect("cannot create results directory");
    dir
}

/// One table cell: a typed value that renders once as the table text and
/// once as the JSON series value, so the two can never disagree.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A counter.
    Int(u64),
    /// A float printed with a fixed number of decimals.
    Fixed(f64, usize),
    /// A float printed in scientific notation with the given mantissa
    /// digits.
    Sci(f64, usize),
    /// As [`Cell::Sci`] with an explicit sign (signed errors).
    Signed(f64, usize),
    /// A label.
    Str(String),
    /// A yes/no property.
    Flag(bool),
    /// Measured wall seconds: report-only under the two-clock rule, never
    /// asserted and never gated.
    Wall(f64),
}

impl Cell {
    /// The text printed in the table and stored in `data.table.rows`.
    pub fn text(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Fixed(x, decimals) => format!("{x:.decimals$}"),
            Cell::Sci(x, digits) => format!("{x:.digits$e}"),
            Cell::Signed(x, digits) => format!("{x:+.digits$e}"),
            Cell::Str(s) => s.clone(),
            Cell::Flag(b) => b.to_string(),
            Cell::Wall(s) => format!("{s:.3e}"),
        }
    }

    /// The full-precision value stored in `data.series`.
    pub fn json(&self) -> Json {
        match self {
            Cell::Int(n) => Json::Num(*n as f64),
            Cell::Fixed(x, _) | Cell::Sci(x, _) | Cell::Signed(x, _) | Cell::Wall(x) => {
                Json::Num(*x)
            }
            Cell::Str(s) => Json::Str(s.clone()),
            Cell::Flag(b) => Json::Bool(*b),
        }
    }

    /// The numeric value (`None` for labels and flags) — what the shape
    /// checks after a sweep read back instead of re-parsing the text.
    pub fn value(&self) -> Option<f64> {
        self.json().as_f64()
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Str(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Str(s)
    }
}

/// What one experiment returns: a titled table of typed rows plus the
/// scalar facts of the run. [`Report::print`] renders it for the console
/// and [`Report::data`] as the `data` payload of `BENCH_<name>.json`.
#[derive(Debug, Clone)]
pub struct Report {
    /// Heading printed above the table.
    pub title: String,
    /// `(table column, series key)` per cell of a row. An empty table
    /// column keeps the cell out of the table (series only).
    pub columns: Vec<(&'static str, &'static str)>,
    /// The rows, one [`Cell`] per column.
    pub rows: Vec<Vec<Cell>>,
    /// Scalar facts of the run, written ahead of `series` and `table`.
    pub head: Vec<(&'static str, Json)>,
    /// Lines printed under the table, after a blank line (shape checks
    /// against the paper).
    pub notes: Vec<String>,
}

impl Report {
    /// A report whose series keys are its column names.
    pub fn new(title: &str, columns: &[&'static str]) -> Report {
        Report::keyed(title, columns.iter().map(|&c| (c, c)).collect())
    }

    /// A report whose series keys differ from the table columns (the
    /// baselined contract benches, whose key sets are pinned).
    pub fn keyed(title: &str, columns: Vec<(&'static str, &'static str)>) -> Report {
        Report {
            title: title.to_string(),
            columns,
            rows: Vec::new(),
            head: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row and echo it on stderr as progress.
    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width != column count");
        let echo: Vec<String> = self
            .columns
            .iter()
            .zip(&row)
            .map(|((_, key), cell)| format!("{key}={}", cell.text()))
            .collect();
        eprintln!("  {}", echo.join(" "));
        self.rows.push(row);
    }

    /// The numeric values of one series key, in row order.
    pub fn column(&self, key: &str) -> Vec<f64> {
        let at = self
            .columns
            .iter()
            .position(|(_, k)| *k == key)
            .expect("known series key");
        self.rows.iter().filter_map(|r| r[at].value()).collect()
    }

    /// The table as text: shown column names, then one text row per row.
    pub fn table(&self) -> (Vec<String>, Vec<Vec<String>>) {
        let shown: Vec<usize> = (0..self.columns.len())
            .filter(|&i| !self.columns[i].0.is_empty())
            .collect();
        let header = shown.iter().map(|&i| self.columns[i].0.to_string());
        let rows = self
            .rows
            .iter()
            .map(|r| shown.iter().map(|&i| r[i].text()).collect());
        (header.collect(), rows.collect())
    }

    /// Print the title, the aligned table and the notes to stdout.
    pub fn print(&self) {
        let (header, rows) = self.table();
        let lines = || std::iter::once(&header).chain(&rows);
        let mut widths = vec![0usize; header.len()];
        for row in lines() {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n{}", self.title);
        for row in lines() {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", cells.join("  "));
        }
        if !self.notes.is_empty() {
            println!("\n{}", self.notes.join("\n"));
        }
    }

    /// The `data` payload: the facts, then `series` (one object of
    /// full-precision values per row) and `table` (`columns` + the text
    /// rows exactly as printed).
    pub fn data(&self) -> Json {
        let series = self.rows.iter().map(|row| {
            Json::Obj(
                self.columns
                    .iter()
                    .zip(row)
                    .map(|((_, key), cell)| (key.to_string(), cell.json()))
                    .collect(),
            )
        });
        let strs = |cells: Vec<String>| Json::Arr(cells.into_iter().map(Json::Str).collect());
        let (header, rows) = self.table();
        let table = Json::obj([
            ("columns", strs(header)),
            ("rows", Json::Arr(rows.into_iter().map(strs).collect())),
        ]);
        let mut data = self.head.clone();
        data.push(("series", Json::Arr(series.collect())));
        data.push(("table", table));
        Json::obj(data)
    }

    /// Write `results/BENCH_<name>.json` — the experiment's one artifact —
    /// in the stamped envelope `{"bench", "schema_version", "git_commit",
    /// "generated_at", "data"}` (stable key order) `smdoctor` audits.
    pub fn write(&self, name: &str) -> PathBuf {
        let doc = Json::obj([
            ("bench", Json::Str(name.to_string())),
            ("schema_version", Json::Num(BENCH_SCHEMA_VERSION)),
            ("git_commit", Json::Str(workspace_git_commit())),
            ("generated_at", Json::Str(iso8601_utc_now())),
            ("data", self.data()),
        ]);
        let path = results_dir().join(format!("BENCH_{name}.json"));
        fs::write(&path, format!("{doc}\n")).expect("cannot write stamped json");
        println!("wrote {}", path.display());
        path
    }
}

/// Schema version of the stamped envelope. Bump only with a migration
/// note; `smdoctor` and the committed baselines key on it.
pub const BENCH_SCHEMA_VERSION: f64 = 1.0;

/// The workspace git commit (`git rev-parse HEAD`), or `"unknown"` when
/// git or the repository is unavailable — provenance stamping must never
/// fail a run.
pub fn workspace_git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Current UTC time as an ISO-8601 string (`2026-02-03T17:05:00Z`),
/// derived from the system clock without external crates.
pub fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    iso8601_from_unix(secs)
}

/// Render Unix seconds as an ISO-8601 UTC timestamp. Civil-from-days
/// conversion after Howard Hinnant's algorithm (proleptic Gregorian).
pub fn iso8601_from_unix(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (h, m, s) = (rem / 3600, (rem / 60) % 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097); // day of era [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // day of year [0, 365]
    let mp = (5 * doy + 2) / 153; // March-based month [0, 11]
    let d = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = if month <= 2 { y + 1 } else { y };
    format!("{year:04}-{month:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_render_text_and_full_precision_values() {
        assert_eq!(Cell::Sci(1234.5, 3).text(), "1.234e3");
        assert_eq!(Cell::Signed(0.00125, 2).text(), "+1.25e-3");
        assert_eq!(Cell::Fixed(1.23456, 2).text(), "1.23");
        assert_eq!(Cell::Fixed(1.23456, 2).json(), Json::Num(1.23456));
        assert_eq!(Cell::from(7usize).text(), "7");
        assert_eq!(Cell::Flag(true).json(), Json::Bool(true));
        assert_eq!(Cell::Wall(0.25).text(), "2.500e-1");
        assert_eq!(Cell::from("x").value(), None);
    }

    #[test]
    fn json_rendering() {
        let doc = Json::obj([
            ("name", Json::Str("x\"y".into())),
            ("n", Json::Num(4.0)),
            ("t", Json::Num(0.125)),
            ("ok", Json::Bool(true)),
            ("xs", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"name":"x\"y","n":4,"t":0.125,"ok":true,"xs":[1,2]}"#
        );
    }

    /// Round trip of the single `BENCH_<name>.json` writer: stable key
    /// order, stamps present, table cells equal the printed table, series
    /// carries the typed values under the series keys.
    #[test]
    fn bench_json_roundtrip() {
        let mut report = Report::keyed(
            "helper",
            vec![("a", "a"), ("b", "b_full"), ("", "hidden"), ("t_s", "t_s")],
        );
        report.head.push(("jobs", Json::Num(3.0)));
        report.push(vec![
            1usize.into(),
            Cell::Fixed(2.0625, 2),
            Cell::Flag(true),
            Cell::Wall(0.5),
        ]);
        let (header, rows) = report.table();
        assert_eq!(header, ["a", "b", "t_s"]);
        assert_eq!(rows, [["1", "2.06", "5.000e-1"]]);

        let path = report.write("test_output_helper");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(path, results_dir().join("BENCH_test_output_helper.json"));
        let doc = Json::parse(&text).expect("BENCH document parses");
        let keys = |j: &Json| -> Vec<String> {
            j.as_obj().unwrap().iter().map(|(k, _)| k.clone()).collect()
        };
        assert_eq!(
            keys(&doc),
            [
                "bench",
                "schema_version",
                "git_commit",
                "generated_at",
                "data"
            ]
        );
        assert_eq!(
            doc.get("bench").unwrap().as_str(),
            Some("test_output_helper")
        );
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64(),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert!(!doc.get("git_commit").unwrap().as_str().unwrap().is_empty());
        let stamp = doc.get("generated_at").unwrap().as_str().unwrap();
        assert!(
            stamp.len() == 20 && stamp.ends_with('Z') && &stamp[4..5] == "-",
            "ISO-8601 UTC stamp, got {stamp:?}"
        );
        let data = doc.get("data").unwrap();
        assert_eq!(keys(data), ["jobs", "series", "table"]);
        assert_eq!(
            data.get("table").unwrap().to_string(),
            r#"{"columns":["a","b","t_s"],"rows":[["1","2.06","5.000e-1"]]}"#
        );
        assert_eq!(
            data.get("series").unwrap().to_string(),
            r#"[{"a":1,"b_full":2.0625,"hidden":true,"t_s":0.5}]"#
        );
    }

    #[test]
    fn iso8601_conversion_matches_known_instants() {
        assert_eq!(iso8601_from_unix(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_from_unix(86_399), "1970-01-01T23:59:59Z");
        assert_eq!(iso8601_from_unix(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(iso8601_from_unix(1_700_000_000), "2023-11-14T22:13:20Z");
    }

    #[test]
    fn json_parser_roundtrips_serializer_output() {
        let doc = Json::obj([
            ("name", Json::Str("a \"quoted\" name\n".into())),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(-0.5)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            (
                "nested",
                Json::Arr(vec![Json::Num(1.0), Json::Obj(vec![]), Json::Arr(vec![])]),
            ),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Accessors walk the tree without pattern matching at call sites.
        assert_eq!(doc.get("count").and_then(Json::as_f64), Some(42.0));
        assert_eq!(doc.get("nested").unwrap().as_arr().unwrap().len(), 3);
        assert!(Json::parse("{\"x\": 1} trailing").is_err());
        assert!(Json::parse("{\"x\": }").is_err());
    }
}
