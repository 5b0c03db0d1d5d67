//! `smbench --repeat N`: the untraced benchmark N times over, each run on
//! its own seed, and what the runs say about the benchmark's own noise —
//! the check the driver applies before it accepts the benchmark, and the
//! tool to attach to any claim that a metric did or did not move.

use sm_trace::json::Json;

use crate::stats::{median, quartiles};
use crate::workloads;

/// `(metric, higher is better, regression bound)` as in `BENCHMARK.json`.
pub const GATES: &[(&str, bool, f64)] = &[
    ("op_wall_s", false, 0.15),
    ("solves_per_s", true, 0.15),
    ("setup_s", false, 0.25),
    ("peak_rss_mb", false, 0.1),
];

/// By how much of `first` the `second` reading is worse (negative: better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

pub fn run(n: usize, workload: Option<&str>, seed: u64, seconds: f64) -> Result<(), String> {
    let names: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => workloads::NAMES.to_vec(),
    };
    let mut over_bound = Vec::new();
    for name in names {
        let mut runs: Vec<Json> = Vec::with_capacity(n);
        for i in 0..n {
            let result = crate::run_child(name, seed + i as u64, seconds, false)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{name} seed {}: outputs failed verification",
                    seed + i as u64
                ));
            }
            runs.push(result);
        }
        println!("== {name}: {n} runs, seeds {seed}..{}", seed + n as u64 - 1);
        for &(metric, higher_is_better, bound) in GATES {
            let values: Vec<f64> = runs
                .iter()
                .map(|r| {
                    r.get("metrics")
                        .and_then(|m| m.get(metric))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .ok_or(format!("{name}: result line lacks {metric}"))
                })
                .collect::<Result<_, _>>()?;
            let mid = median(&values);
            let (q1, q3) = quartiles(&values);
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(0.0, f64::max);
            // The driver compares two sets of runs of the same code; the
            // two halves of this set stand in for them.
            let (a, b) = values.split_at(n / 2);
            let halves = worsening(median(a), median(b), higher_is_better).abs();
            println!("  {metric:<13} runs {values:.4?}");
            println!(
                "  {:<13} median {mid:.4}  quartile distance {:.4} of median  \
                 max disagreement {:.4}  halves {halves:.4}  bound {bound}",
                "",
                (q3 - q1) / mid,
                (max - min) / mid,
            );
            if halves > bound {
                over_bound.push(format!(
                    "{name}/{metric}: halves disagree by {halves:.4} > {bound}"
                ));
            }
        }
    }
    if over_bound.is_empty() {
        Ok(())
    } else {
        Err(over_bound.join("; "))
    }
}
