//! Metric names and units — the same tables `BENCHMARK.json` lists — and
//! the one-line JSON result the driver reads.

use sm_trace::json::Json;

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_wall_s", "s"),
    ("solves_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A metric whose layer
/// does no work on the workload at hand reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("linalg.gemm_f64_gflops", "GFLOP/s"),
    ("linalg.gemm_f32_gflops", "GFLOP/s"),
    ("linalg.peak_f64_gflops", "GFLOP/s"),
    ("linalg.peak_f32_gflops", "GFLOP/s"),
    ("linalg.gemm_f64_frac_peak", "ratio"),
    ("linalg.gemm_f32_frac_peak", "ratio"),
    ("linalg.gemm_flop_per_byte", "flop/B"),
    ("linalg.eigh_s", "s"),
    ("linalg.pade3_iterations", "count"),
    ("linalg.csr_flops", "count"),
    ("core.symbolic_s", "s"),
    ("core.plan_hit_s", "s"),
    ("core.assemble_s", "s"),
    ("core.solve_s", "s"),
    ("core.extract_s", "s"),
    ("core.solve_share", "ratio"),
    ("core.walk_over_execute", "ratio"),
    ("core.auto_over_dense_wall", "ratio"),
    ("core.fp32_over_fp64_wall", "ratio"),
    ("core.n_submatrices", "count"),
    ("core.avg_dim", "count"),
    ("core.max_dim", "count"),
    ("core.element_fill", "ratio"),
    ("core.cost_units", "count"),
    ("core.plan_builds", "count"),
    ("core.plan_hits", "count"),
    ("core.mu_bisect_iterations", "count"),
    ("dbcsr.gather_s", "s"),
    ("dbcsr.scatter_s", "s"),
    ("dbcsr.fingerprint_s", "s"),
    ("dbcsr.gather_value_bytes", "B"),
    ("dbcsr.scatter_value_bytes", "B"),
    ("dbcsr.ortho_s", "s"),
    ("comsim.msgs", "count"),
    ("comsim.bytes", "B"),
    ("comsim.allreduce_us", "us"),
    ("comsim.rank_spawn_us", "us"),
    ("chem.build_s", "s"),
    ("chem.energy_s", "s"),
    ("chem.scf_iter_s", "s"),
    ("chem.scf_iterations", "count"),
    ("chem.error_mev_per_atom", "meV/atom"),
    ("chem.electron_error", "count"),
    ("pipeline.epochs", "count"),
    ("pipeline.groups", "count"),
    ("pipeline.stolen_jobs", "count"),
    ("pipeline.result_gather_bytes", "B"),
    ("pipeline.estimate_s", "s"),
    ("pipeline.plan_epochs_s", "s"),
    ("pipeline.serial_wall_s", "s"),
    ("pipeline.overhead_s", "s"),
    ("pipeline.w2_over_w1_wall", "ratio"),
    ("accel.s_per_unit_spread", "ratio"),
    ("trace.session_overhead_frac", "ratio"),
    ("trace.events", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.op_wall_min_s", "s"),
    ("bench.op_wall_max_s", "s"),
    ("bench.ops", "count"),
    ("bench.cpu_s_per_op", "s"),
    ("bench.loadavg_1m", "count"),
    ("bench.unpinned_op_wall_s", "s"),
    ("bench.threads2_speedup", "ratio"),
];

/// Values measured in one run, keyed by the names of one of the tables.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the table"));
        self.values[i] = Some(value);
    }

    /// Rows `(name, unit, value)`; unset metrics read 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.table
            .iter()
            .zip(&self.values)
            .map(|(&(name, unit), v)| (name, unit, v.unwrap_or(0.0)))
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.rows()
                .map(|(name, unit, value)| {
                    let entry = Json::obj([
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]);
                    (name.to_string(), entry)
                })
                .collect(),
        )
    }
}

/// The driver's result line.
pub fn result_line(attempted: usize, failed: usize, metrics: &Metrics) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.to_json()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above name the same metrics, with
    /// the same units, in the same order; the bounds match `--repeat`'s.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            let field = |m: &Json, k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            let metrics = doc.get(key).and_then(Json::as_arr).unwrap();
            metrics
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(END_TO_END));
        assert_eq!(listed("per_layer"), table(PER_LAYER));
        for (m, &(name, higher, bound)) in doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(crate::repeat::GATES)
        {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
            let better = if higher { "higher" } else { "lower" };
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better));
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
