//! The experiment table behind the `repro` binary, each entry a
//! `fn(&Ctx) -> Report`: every figure and table of the paper's evaluation
//! (Fig. 3 is the method diagram), the contract benches CI gates against
//! `results/baseline/`, and the two ablations whose decision is still open.
//! A settled ablation is not an entry: its claim is a test and its walls
//! a README table.

mod ablations;
mod contracts;
mod figures;

use crate::output::Report;

/// What a run is told: `--paper` enlarges the workloads toward the
/// paper's sizes (the laptop-scale defaults finish in seconds to minutes).
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    /// Paper-scale workloads.
    pub paper: bool,
}

/// One entry of the experiment table.
pub struct Experiment {
    /// The name `repro` takes; the artifact is `results/BENCH_<name>.json`.
    pub name: &'static str,
    /// One line for `repro --list`.
    pub about: &'static str,
    /// Runs the experiment, asserting its contracts before it reports.
    pub run: fn(&Ctx) -> Report,
}

/// Every experiment, figures first.
#[rustfmt::skip]
pub const EXPERIMENTS: [Experiment; 20] = [
    Experiment { name: "fig01", about: "energy error per atom vs system size per eps_filter (Newton-Schulz)", run: figures::fig01 },
    Experiment { name: "fig02", about: "block sparsity pattern of the orthogonalized Kohn-Sham matrix, 864 H2O", run: figures::fig02 },
    Experiment { name: "fig04", about: "submatrix dimension vs matrix dimension, SZV and DZVP", run: figures::fig04 },
    Experiment { name: "fig05", about: "estimated speedup of column combination: k-means vs graph partitioning", run: figures::fig05 },
    Experiment { name: "fig06", about: "runtime vs eps_filter, submatrix method vs Newton-Schulz", run: figures::fig06 },
    Experiment { name: "fig07", about: "signed energy error vs eps_filter, submatrix method vs Newton-Schulz", run: figures::fig07 },
    Experiment { name: "fig08", about: "modeled 80-core runtime vs system size (linear scaling)", run: figures::fig08 },
    Experiment { name: "fig09", about: "strong scaling 80 to 320 cores (modeled)", run: figures::fig09 },
    Experiment { name: "fig10", about: "weak scaling, submatrix method vs Newton-Schulz (modeled)", run: figures::fig10 },
    Experiment { name: "fig11", about: "block- and element-wise sparsity of submatrices vs the full matrix", run: figures::fig11 },
    Experiment { name: "fig12", about: "energy convergence of the Pade-3 sign iteration per precision mode", run: figures::fig12 },
    Experiment { name: "fig13", about: "involutority per sign iteration per precision mode", run: figures::fig13 },
    Experiment { name: "table1", about: "modeled GPU/FPGA throughput per precision mode (Table I)", run: figures::table1 },
    Experiment { name: "combine_sweep", about: "column-combination group size: Eq. 15 estimate vs measured wall", run: ablations::combine_sweep },
    Experiment { name: "solve_paths", about: "diagonalization vs dense and CSR Pade per submatrix (Secs. IV-F, V-C)", run: ablations::solve_paths },
    Experiment { name: "faults", about: "contract: fault injection and epoch-level recovery (baselined)", run: contracts::faults },
    Experiment { name: "scf_service", about: "contract: batched SCF service vs serial driver loop (baselined, traced)", run: contracts::scf_service },
    Experiment { name: "service", about: "contract: resident streaming service (baselined)", run: contracts::service },
    Experiment { name: "sparse", about: "contract: dense vs sparse-CSR solve backend across fill (baselined)", run: contracts::sparse },
    Experiment { name: "stealing", about: "contract: static groups vs epoch work stealing (baselined)", run: contracts::stealing },
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// The `repro --list` text: one `name  about` line per entry.
pub fn listing() -> String {
    EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<17} {}\n", e.name, e.about))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The table holds figures, baselined contracts and the two open
    /// ablations only: names are unique, every figure has an entry, an
    /// entry that is neither a figure nor has a committed baseline is
    /// `combine_sweep` or `solve_paths` (a new ungated ablation fails
    /// here), and the entries that solve nothing and finish in about a
    /// second run to a non-empty report. (The other two model-only entries,
    /// `fig09` and `fig10`, plan 4000–14000 molecules and take half a
    /// minute each; `fig04` and `fig05` walk the same pattern → plan →
    /// report path at a size a unit test can afford.)
    #[test]
    fn table_is_complete_and_cheap_entries_run() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
        for fig in [1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13] {
            assert!(find(&format!("fig{fig:02}")).is_some(), "fig{fig:02}");
        }
        assert!(find("fig03").is_none(), "Fig. 3 is the method diagram");
        let baselines = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/baseline");
        let mut contracts = 0;
        for e in &EXPERIMENTS {
            let figure = e.name.starts_with("fig") || e.name == "table1";
            let baselined = baselines.join(format!("BENCH_{}.json", e.name)).is_file();
            contracts += usize::from(baselined);
            assert!(
                figure || baselined || ["combine_sweep", "solve_paths"].contains(&e.name),
                "{}: neither a figure, a baselined contract nor an open ablation; \
                 assert its claim in a test and move its walls to README",
                e.name
            );
        }
        assert_eq!(
            contracts, 5,
            "faults, scf_service, service, sparse, stealing"
        );
        assert_eq!(EXPERIMENTS.len(), 20);
        for name in ["fig02", "fig04", "fig05", "table1"] {
            let entry = find(name).expect(name);
            let report = (entry.run)(&Ctx::default());
            assert!(!report.rows.is_empty(), "{name} produced no rows");
            let (header, rows) = report.table();
            assert!(rows.iter().all(|r| r.len() == header.len()));
        }
        assert_eq!(listing().lines().count(), EXPERIMENTS.len());
    }
}
