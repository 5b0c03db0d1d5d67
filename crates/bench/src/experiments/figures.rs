//! The paper's figures and Table I. Each doc comment names the shape the
//! paper reports; solving experiments use the shortened
//! [`crate::workloads::accuracy_basis`], pattern/model experiments the standard ranges.

use sm_accel::pade::{energy_differences_mev_per_atom, pade3_sign_traced, PadeTraceOptions};
use sm_accel::perfmodel::{fpga_row, gpu_table, DeviceModel};
use sm_accel::PrecisionMode;
use sm_chem::builder::{block_pattern, build_system};
use sm_chem::energy::{band_energy, error_mev_per_atom, signed_error_mev_per_atom};
use sm_chem::{BasisSet, WaterBox};
use sm_comsim::{ClusterModel, SerialComm};
use sm_core::assembly::SubmatrixSpec;
use sm_core::baseline::newton_schulz_density;
use sm_core::cluster::{graph, groups_from_assignment, kmeans};
use sm_core::engine::{Grouping, NumericOptions, SubmatrixEngine};
use sm_core::model::{model_newton_schulz_run, model_submatrix_run, ns_iteration_estimate};
use sm_core::plan::{estimated_speedup, PatternPlan};
use sm_dbcsr::pattern::{stats, to_ascii};
use sm_linalg::gemm::f64_microkernel_peak_gflops;
use sm_linalg::Matrix;

use super::Ctx;
use crate::output::Cell::{Fixed, Sci, Signed, Wall};
use crate::output::{Json, Report};
use crate::workloads::{
    assemble_columns, filtered, ns_options, timed, water_pattern, water_system, SEED,
};

/// The filter sweep of Figs. 6 and 7.
const FILTER_SWEEP: [f64; 9] = [1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2];

/// Fig. 1: for a fixed ε_filter the error per atom stays roughly constant
/// as the system grows; smaller ε_filter gives a lower curve. Reference
/// energies use ε_filter = 1e-10 (the paper: 1e-12 at its magnitudes).
pub fn fig01(ctx: &Ctx) -> Report {
    let comm = SerialComm::new();
    let mut report = Report::new(
        "Fig. 1 — error per atom vs system size (Newton-Schulz purification)",
        &["atoms", "eps_filter", "error_mev_per_atom"],
    );
    for nrep in 1..=if ctx.paper { 4 } else { 3 } {
        let (water, sys, kt) = water_system(nrep);
        let energy_at = |eps: f64| -> f64 {
            let (d, ns) = newton_schulz_density(&kt, sys.mu, &ns_options(eps), &comm);
            assert!(ns.converged, "NS did not converge at eps {eps}");
            band_energy(&d, &kt, &comm)
        };
        let e_ref = energy_at(1e-10);
        for eps in [1e-4, 1e-5, 1e-6, 1e-7] {
            let err = error_mev_per_atom(energy_at(eps), e_ref, water.n_atoms());
            report.push(vec![water.n_atoms().into(), Sci(eps, 3), Sci(err, 6)]);
        }
    }
    report
}

/// Fig. 2: the banded structure from consecutive building-block indexing
/// (Sec. IV-B2), 864 molecules at ε = 1e-5 exactly as in the paper,
/// rendered as ASCII with its occupancy statistics.
pub fn fig02(_: &Ctx) -> Report {
    let water = WaterBox::cubic(3, SEED);
    let pattern = block_pattern(&water, &BasisSet::szv(), 1e-5, 1.0);
    let s = stats(&pattern);
    println!("{}", to_ascii(&pattern, 60));
    let mut report = Report::new(
        "Fig. 2 — block sparsity pattern, SZV, eps = 1e-5",
        &[
            "molecules",
            "nnz_blocks",
            "block_fill",
            "avg_col_nnz",
            "max_col_nnz",
        ],
    );
    report.push(vec![
        water.n_molecules().into(),
        s.nnz_blocks.into(),
        Fixed(s.block_fill, 6),
        Fixed(s.avg_col_nnz, 2),
        s.max_col_nnz.into(),
    ]);
    report
}

/// Fig. 4: dim(K̃) grows linearly with molecule count forever; dim(SM)
/// grows until the interaction sphere fits in the box (~200 molecules in
/// the paper), then flattens — the linear-scaling regime. DZVP sits above
/// SZV in both.
pub fn fig04(ctx: &Ctx) -> Report {
    let mut report = Report::new(
        "Fig. 4 — matrix dimension vs submatrix dimension",
        &["basis", "molecules", "dim_K", "dim_SM_avg", "dim_SM_max"],
    );
    let (szv_max, dzvp_max) = if ctx.paper { (8, 6) } else { (5, 4) };
    for (label, basis, nrep_max) in [
        ("SZV", BasisSet::szv(), szv_max),
        ("DZVP", BasisSet::dzvp(), dzvp_max),
    ] {
        for nrep in 1..=nrep_max {
            let water = WaterBox::cubic(nrep, SEED);
            let (pattern, dims) = water_pattern(&water, &basis, 1e-5);
            let plan = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
            report.push(vec![
                label.into(),
                water.n_molecules().into(),
                dims.n().into(),
                Fixed(plan.avg_dim, 0),
                plan.max_dim.into(),
            ]);
        }
    }
    let szv = &report.column("dim_SM_avg")[..szv_max];
    let growth = (szv[szv_max - 1] - szv[szv_max - 2]).abs() / szv[szv_max - 2].max(1.0);
    report.notes.push(format!(
        "linear-scaling check: last SZV dim(SM) step grew {:.1}% (flat = regime reached)",
        growth * 100.0
    ));
    report
}

/// Fig. 5 (Eq. 15): k-means on real-space coordinates and METIS-style
/// partitioning of the sparsity graph produce similar S despite using
/// completely different information; S peaks at intermediate submatrix
/// counts. Paper: 6912 molecules at ε = 1e-7; default here NREP = 4.
pub fn fig05(ctx: &Ctx) -> Report {
    let water = WaterBox::cubic(if ctx.paper { 6 } else { 4 }, SEED);
    let basis = BasisSet::szv();
    let (pattern, dims) = water_pattern(&water, &basis, 1e-7);
    let singles = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
    let nmol = water.n_molecules();
    println!(
        "{nmol} molecules, {} nonzero blocks, single-column cost {:.3e}",
        pattern.nnz(),
        singles.total_cost
    );

    let points: Vec<[f64; 3]> = water.centers().iter().map(|c| [c.x, c.y, c.z]).collect();
    // Edge weights follow the coupling magnitude (Gaussian decay of the
    // molecule distance): inside dense neighborhoods an unweighted cut is
    // geometry-blind, while METIS-quality partitions need the decay signal.
    let smax = basis.max_sigma();
    let edges: Vec<(usize, usize, f64)> = pattern
        .entries()
        .iter()
        .filter(|&&(r, c)| r < c)
        .map(|&(r, c)| {
            let d = water
                .cell
                .distance(water.molecules[r].center(), water.molecules[c].center());
            (r, c, (-d * d / (4.0 * smax * smax)).exp())
        })
        .collect();
    let g = graph::Graph::from_edges(nmol, &edges, vec![1.0; nmol]);
    println!("sparsity graph: {} vertices, {} edges", g.n(), edges.len());

    let mut report = Report::new(
        "Fig. 5 — estimated speedup S vs number of submatrices",
        &["n_sm_kmeans", "S_kmeans", "n_sm_graph", "S_graph"],
    );
    for k in [64, 32, 16, 8, 4, 2].map(|per| nmol / per) {
        if k < 2 {
            continue;
        }
        let plan_of = |assignment: &[usize]| {
            let groups = Grouping::Explicit(groups_from_assignment(assignment, k));
            PatternPlan::new(pattern.clone(), dims.clone(), &groups)
        };
        let km_plan = plan_of(&kmeans::kmeans(&points, k, 1, 100).assignment);
        let gp_plan = plan_of(&graph::partition_kway(
            &g,
            k,
            &graph::PartitionOptions::default(),
        ));
        report.push(vec![
            km_plan.n_submatrices().into(),
            Fixed(estimated_speedup(&singles, &km_plan), 4),
            gp_plan.n_submatrices().into(),
            Fixed(estimated_speedup(&singles, &gp_plan), 4),
        ]);
    }
    let close = report
        .column("S_kmeans")
        .iter()
        .zip(report.column("S_graph"))
        .any(|(a, b)| (a - b).abs() / a.max(b) < 0.2);
    report.notes.push(format!(
        "heuristic agreement within 20% at some cluster count: {}",
        if close {
            "yes (paper's observation)"
        } else {
            "no"
        }
    ));
    report
}

/// Fig. 6: both methods speed up as ε_filter grows; in the paper the
/// submatrix method benefits much more and overtakes Newton–Schulz beyond
/// ε ≈ 1e-5. Two time columns per method: measured wall here, and the
/// analytic 80-core cluster model at the same pattern (the substitution
/// for the paper's testbed). `ns_gflops` is Newton–Schulz's counted rate
/// (`MultiplyStats::local_flops` over its wall), read against the `f64`
/// microkernel's in-cache peak; the notes give the measured crossover.
pub fn fig06(ctx: &Ctx) -> Report {
    let comm = SerialComm::new();
    let (water, sys, kt) = water_system(if ctx.paper { 3 } else { 2 });
    println!(
        "system: {} molecules ({} atoms), n = {}",
        water.n_molecules(),
        water.n_atoms(),
        kt.n()
    );
    let peak = f64_microkernel_peak_gflops();
    let cluster = ClusterModel::paper_testbed();
    let mut report = Report::new(
        "Fig. 6 — runtime vs eps_filter, submatrix method vs Newton-Schulz",
        &[
            "eps_filter",
            "sm_wall_s",
            "ns_wall_s",
            "ns_gflops",
            "sm_model80_s",
            "ns_model80_s",
            "avg_sm_dim",
            "ns_iters",
        ],
    );
    for eps in FILTER_SWEEP {
        let kt_f = filtered(&kt, eps);
        let pattern = kt_f.global_pattern(&comm);
        let ((_, sm), t_sm) = timed(|| {
            SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm)
        });
        let ((_, ns), t_ns) =
            timed(|| newton_schulz_density(&kt_f, sys.mu, &ns_options(eps), &comm));

        let plan = PatternPlan::new(
            pattern.clone(),
            kt_f.dims().clone(),
            &Grouping::OnePerColumn,
        );
        let sm_model = model_submatrix_run(&plan, 80, &cluster);
        let ns_iters = ns_iteration_estimate(0.05, eps.max(1e-12));
        let ns_model =
            model_newton_schulz_run(&pattern, kt_f.dims(), 80, 5, ns_iters, 2.0, &cluster);
        report.push(vec![
            Sci(eps, 3),
            Wall(t_sm),
            Wall(t_ns),
            Fixed(ns.multiply.local_flops as f64 / t_ns / 1e9, 2),
            Fixed(sm_model.total(), 4),
            Fixed(ns_model.total(), 4),
            Fixed(sm.avg_dim, 0),
            ns.iterations.into(),
        ]);
    }
    let rate = report.column("ns_gflops")[0];
    report.notes.push(format!(
        "Newton-Schulz at eps {:.0e}: {rate:.2} GFLOP/s counted, {:.0}% of the f64 \
         microkernel's {peak:.1} GFLOP/s in-cache peak",
        FILTER_SWEEP[0],
        100.0 * rate / peak
    ));
    for (what, sm, ns) in [
        ("measured", "sm_wall_s", "ns_wall_s"),
        ("80-core model", "sm_model80_s", "ns_model80_s"),
    ] {
        let (sm, ns) = (report.column(sm), report.column(ns));
        report.notes.push(crossover(&FILTER_SWEEP, &sm, &ns, what));
    }
    report
}

/// Where the submatrix method (times `sm`) overtakes Newton–Schulz (`ns`)
/// over an ascending filter sweep: the tightest filter from which it is
/// faster at every looser one, or that there is none.
fn crossover(eps: &[f64], sm: &[f64], ns: &[f64], what: &str) -> String {
    let faster = |i: usize| sm[i] < ns[i];
    let ratio = |i: usize| ns[i] / sm[i];
    let last = eps.len() - 1;
    match (0..eps.len()).rev().take_while(|&i| faster(i)).last() {
        Some(0) => format!(
            "{what}: no crossover, the submatrix method is faster at every filter \
             ({:.1}x at {:.0e}, {:.1}x at {:.0e}; the paper: crossover near 1e-5)",
            ratio(0),
            eps[0],
            ratio(last),
            eps[last]
        ),
        Some(i) => format!(
            "{what}: crossover at eps {:.0e}, the submatrix method faster from there on \
             ({:.1}x at {:.0e}; the paper: near 1e-5)",
            eps[i],
            ratio(last),
            eps[last]
        ),
        None => format!(
            "{what}: no crossover, Newton-Schulz is faster at every filter \
             ({:.1}x at {:.0e}; the paper: crossover near 1e-5)",
            1.0 / ratio(last),
            eps[last]
        ),
    }
}

/// Fig. 7 (same system as Fig. 6): both errors grow with ε_filter and
/// stay within roughly an order of magnitude of each other — the
/// approximation inherent to the submatrix method does not dominate the
/// truncation error. The sign of the error can flip.
pub fn fig07(ctx: &Ctx) -> Report {
    let comm = SerialComm::new();
    let (water, sys, kt) = water_system(if ctx.paper { 3 } else { 2 });
    println!("system: {} molecules, n = {}", water.n_molecules(), kt.n());
    // Reference: Newton–Schulz at a near-build-precision filter (the paper
    // uses eps = 1e-15 against its 1e-9..1e-2 sweep).
    let (d_ref, _) = newton_schulz_density(&kt, sys.mu, &ns_options(1e-11), &comm);
    let e_ref = band_energy(&d_ref, &kt, &comm);
    println!("reference band energy: {e_ref:.8} Ha");
    let error_of =
        |d| signed_error_mev_per_atom(band_energy(&d, &kt, &comm), e_ref, water.n_atoms());

    let mut report = Report::new(
        "Fig. 7 — signed energy error vs eps_filter",
        &[
            "eps_filter",
            "submatrix_mev_per_atom",
            "newton_schulz_mev_per_atom",
        ],
    );
    for eps in FILTER_SWEEP {
        let kt_f = filtered(&kt, eps);
        let (d_sm, _) =
            SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm);
        let (d_ns, _) = newton_schulz_density(&kt_f, sys.mu, &ns_options(eps), &comm);
        report.push(vec![
            Sci(eps, 3),
            Signed(error_of(d_sm), 6),
            Signed(error_of(d_ns), 6),
        ]);
    }
    let sm = report.column("submatrix_mev_per_atom");
    report.notes.push(format!(
        "submatrix error grows {:.1e} -> {:.1e} meV/atom across the sweep",
        sm[0].abs(),
        sm[sm.len() - 1].abs()
    ));
    report
}

/// Fig. 8: once the linear-scaling regime is reached the modeled 80-core
/// time at ε = 1e-5 grows linearly in the number of atoms (the paper fits
/// a straight line). Times come from the cluster model over the exact
/// counted work of each plan; two small systems are also measured here.
pub fn fig08(ctx: &Ctx) -> Report {
    let cluster = ClusterModel::paper_testbed();
    let mut report = Report::new(
        "Fig. 8 — modeled 80-core runtime vs system size (eps = 1e-5)",
        &["atoms", "total_s", "compute_s", "comm_s"],
    );
    for nrep in 2..=if ctx.paper { 8 } else { 6 } {
        let water = WaterBox::cubic(nrep, SEED);
        let (pattern, dims) = water_pattern(&water, &BasisSet::szv(), 1e-5);
        let plan = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
        let t = model_submatrix_run(&plan, 80, &cluster);
        report.push(vec![
            water.n_atoms().into(),
            Fixed(t.total(), 4),
            Fixed(t.compute, 4),
            Fixed(t.init + t.writeback, 5),
        ]);
    }
    let (atoms, total) = (report.column("atoms"), report.column("total_s"));
    let k = atoms.len();
    report.notes.push(format!(
        "linearity: time ratio {:.2} vs size ratio {:.2} over the last step \
         (equal = perfectly linear)",
        total[k - 1] / total[k - 2],
        atoms[k - 1] / atoms[k - 2]
    ));

    let comm = SerialComm::new();
    let mut measured = Vec::new();
    for nrep in [1, 2] {
        let (water, sys, kt) = water_system(nrep);
        let kt_f = filtered(&kt, 1e-5);
        let (_, wall) = timed(|| {
            SubmatrixEngine::default().density(&kt_f, sys.mu, &NumericOptions::default(), &comm)
        });
        report.notes.push(format!(
            "measured on this machine: {} atoms in {wall:.3} s",
            water.n_atoms()
        ));
        measured.push(Json::obj([
            ("atoms", Json::Num(water.n_atoms() as f64)),
            ("wall_s", Json::Num(wall)),
        ]));
    }
    report.head.push(("measured_wall", Json::Arr(measured)));
    report
}

/// Fig. 9: fixed system (paper: NREP = 7, 32,928 atoms), cores scaled
/// from 80 to 320; efficiency relative to 80 cores stays ≳ 0.8 at 320
/// (the paper reports 83 %).
pub fn fig09(ctx: &Ctx) -> Report {
    let water = WaterBox::cubic(if ctx.paper { 7 } else { 5 }, SEED);
    let (pattern, dims) = water_pattern(&water, &BasisSet::szv(), 1e-5);
    let plan = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
    let cluster = ClusterModel::paper_testbed();
    println!(
        "system: {} atoms, {} submatrices, avg dim {:.0}",
        water.n_atoms(),
        plan.n_submatrices(),
        plan.avg_dim
    );
    let mut report = Report::new(
        "Fig. 9 — strong scaling (modeled, eps = 1e-5)",
        &["cores", "time_s", "efficiency"],
    );
    let mut base = None;
    for cores in [80usize, 120, 160, 200, 240, 280, 320] {
        let t = model_submatrix_run(&plan, cores, &cluster).total();
        let t80 = *base.get_or_insert(t);
        report.push(vec![
            cores.into(),
            Fixed(t, 4),
            Fixed(t80 * 80.0 / (t * cores as f64), 3),
        ]);
    }
    report.notes.push(format!(
        "efficiency at 4x cores: {:.2} (paper reports 0.83 on its testbed)",
        report.column("efficiency").last().expect("rows")
    ));
    report
}

/// Fig. 10: system size and cores grow together (12,000 atoms / 40 cores
/// per step, base box replicated along one dimension). Both methods lose
/// efficiency toward many nodes, but the submatrix method stays above
/// Newton–Schulz (whose Cannon communication grows with the grid).
pub fn fig10(ctx: &Ctx) -> Report {
    let base_nrep = if ctx.paper { 5 } else { 3 };
    let replications: &[usize] = if ctx.paper {
        &[1, 2, 4, 8, 16, 32]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let cluster = ClusterModel::paper_testbed();
    let ns_iters = ns_iteration_estimate(0.05, 1e-5);
    let mut report = Report::new(
        "Fig. 10 — weak scaling (modeled, eps = 1e-5)",
        &[
            "cores",
            "atoms",
            "sm_time_s",
            "sm_efficiency",
            "ns_time_s",
            "ns_efficiency",
        ],
    );
    let mut base = None;
    for &nx in replications {
        let water = WaterBox::elongated(base_nrep, nx, SEED);
        let cores = 40 * nx;
        let (pattern, dims) = water_pattern(&water, &BasisSet::szv(), 1e-5);
        let plan = PatternPlan::new(pattern.clone(), dims.clone(), &Grouping::OnePerColumn);
        let t_sm = model_submatrix_run(&plan, cores, &cluster).total();
        let t_ns =
            model_newton_schulz_run(&pattern, &dims, cores, 5, ns_iters, 2.0, &cluster).total();
        let (sm_base, ns_base) = *base.get_or_insert((t_sm, t_ns));
        report.push(vec![
            cores.into(),
            water.n_atoms().into(),
            Fixed(t_sm, 4),
            Fixed(sm_base / t_sm, 3),
            Fixed(t_ns, 4),
            Fixed(ns_base / t_ns, 3),
        ]);
    }
    report.notes.push(format!(
        "final weak-scaling efficiency: submatrix {:.2} vs Newton-Schulz {:.2} \
         (paper: submatrix higher)",
        report.column("sm_efficiency").last().expect("rows"),
        report.column("ns_efficiency").last().expect("rows")
    ));
    report
}

/// Fig. 11: in the linear-scaling regime the submatrices are nearly
/// block-dense while K̃'s global fill keeps dropping; element-wise, DZVP
/// submatrices are much sparser than block-wise storage suggests (< 20 %
/// in the paper) — the motivation for element-wise sparse kernels
/// (Sec. V-C).
pub fn fig11(ctx: &Ctx) -> Report {
    let eps = 1e-5;
    /// Element-wise nonzero fraction of four sampled single-column
    /// submatrices, assembled with real matrix values.
    fn element_fill(water: &WaterBox, basis: &BasisSet, eps: f64) -> f64 {
        let k = build_system(water, basis, 0, 1, eps).k;
        let (mut nonzero, mut elems) = (0, 0);
        for s in 0..4 {
            let (_, a) = assemble_columns(&k, &[s * water.n_molecules() / 4]);
            nonzero += a.count_above(eps);
            elems += a.nrows() * a.ncols();
        }
        nonzero as f64 / elems.max(1) as f64
    }
    let mut report = Report::new(
        "Fig. 11 — sparsity of K~ vs submatrices (block- and element-wise)",
        &[
            "basis",
            "molecules",
            "ktilde_block_fill",
            "sm_block_fill",
            "sm_element_fill",
        ],
    );
    let (szv_max, dzvp_max) = if ctx.paper { (6, 4) } else { (4, 3) };
    for (label, basis, nrep_max) in [
        ("SZV", BasisSet::szv(), szv_max),
        ("DZVP", BasisSet::dzvp(), dzvp_max),
    ] {
        for nrep in 1..=nrep_max {
            let water = WaterBox::cubic(nrep, SEED);
            let (pattern, dims) = water_pattern(&water, &basis, eps);
            let mid = SubmatrixSpec::build(&pattern, &dims, &[water.n_molecules() / 2]);
            let nb = mid.rows.len();
            let mut copied = Vec::new();
            mid.walk(&pattern, &dims, &mut copied);
            report.push(vec![
                label.into(),
                water.n_molecules().into(),
                Fixed(pattern.fill_fraction(), 4),
                Fixed(copied.len() as f64 / (nb * nb) as f64, 4),
                Fixed(element_fill(&water, &basis, eps), 4),
            ]);
        }
    }
    let fills = report.column("sm_element_fill");
    report.notes.push(format!(
        "element-wise fill at largest size: SZV {:.3} vs DZVP {:.3} \
         (paper: DZVP much sparser element-wise)",
        fills[szv_max - 1],
        fills[fills.len() - 1]
    ));
    report
}

/// The combined submatrix of the first molecules of the NREP = 2 box at
/// ε = 1e-6 (paper: 32 molecules of a 4000-molecule system), its µ and
/// its atom count — the input of Figs. 12 and 13.
fn combined_submatrix(ctx: &Ctx) -> (Matrix, f64, PadeTraceOptions) {
    let group_size = if ctx.paper { 32 } else { 8 };
    let (_, sys, kt) = water_system(2);
    let group: Vec<usize> = (0..group_size).collect();
    let (_, a) = assemble_columns(&filtered(&kt, 1e-6), &group);
    let n_atoms = 3 * group_size;
    println!(
        "combined submatrix of {group_size} molecules: dim {} ({n_atoms} atoms)",
        a.nrows()
    );
    let opts = PadeTraceOptions {
        iterations: 15,
        n_atoms,
    };
    (a, sys.mu, opts)
}

/// Fig. 12: all precision modes converge after ~6–8 iterations of the
/// 3rd-order Padé sign iteration; the reduced-precision energies land
/// within a few meV/atom of FP64 but fluctuate at their noise floor;
/// GPU-FP32 and FPGA-FP32 differ slightly (summation order).
pub fn fig12(ctx: &Ctx) -> Report {
    let (a, mu, opts) = combined_submatrix(ctx);
    let t64 = pade3_sign_traced(&a, mu, PrecisionMode::Fp64, &opts);
    let e_ref = t64.records.last().expect("records").energy;
    println!("converged FP64 energy: {e_ref:.8}");
    let mut report = Report::new(
        "Fig. 12 — energy difference from converged FP64 per iteration",
        &["mode", "iteration", "dE_mev_per_atom", "involutority"],
    );
    for mode in PrecisionMode::all() {
        let t = pade3_sign_traced(&a, mu, mode, &opts);
        let diffs = energy_differences_mev_per_atom(&t, e_ref, opts.n_atoms);
        for (r, d) in t.records.iter().zip(&diffs) {
            report.push(vec![
                mode.label().into(),
                r.iteration.into(),
                Signed(*d, 6),
                Sci(r.involutority, 3),
            ]);
        }
        let tail_max = diffs
            .iter()
            .rev()
            .take(5)
            .fold(0.0f64, |m, d| m.max(d.abs()));
        report.notes.push(format!(
            "{:<10}: final |dE| over last 5 iters <= {tail_max:.3e} meV/atom",
            mode.label()
        ));
    }
    report
}

/// Fig. 13: ‖Xₖ² − I‖_F per step. FP64 plunges to ~1e-12; FP32 (GPU and
/// FPGA) flattens around its rounding floor; FP16 and FP16' flatten
/// orders of magnitude higher — which is why involutority, not energy,
/// is the usable convergence criterion (Sec. VI-A).
pub fn fig13(ctx: &Ctx) -> Report {
    let (a, mu, opts) = combined_submatrix(ctx);
    let mut report = Report::new(
        "Fig. 13 — ||X^2 - I||_F per iteration",
        &["mode", "iteration", "involutority"],
    );
    report
        .notes
        .push("noise floors (expected ordering FP64 < FP32/FPGA << FP16'/FP16):".into());
    for mode in PrecisionMode::all() {
        let t = pade3_sign_traced(&a, mu, mode, &opts);
        for r in &t.records {
            report.push(vec![
                mode.label().into(),
                r.iteration.into(),
                Sci(r.involutority, 3),
            ]);
        }
        let floor = t
            .records
            .iter()
            .map(|r| r.involutority)
            .fold(f64::INFINITY, f64::min);
        report
            .notes
            .push(format!("  {:<10} {floor:.3e}", mode.label()));
    }
    report
}

/// Table I: peak, matrix-multiply and sign-algorithm throughput per
/// precision mode on an RTX 2080 Ti (n = 3972) plus the Stratix 10 FPGA
/// row of Sec. VI-B — **modelled** (published peaks + occupancy/overhead
/// model; no GPU exists here). FP16 > FP16' > FP32 ≫ FP64 at every level,
/// the sign algorithm paying a visible overhead on the fast modes.
pub fn table1(_: &Ctx) -> Report {
    let (n, iters) = (3972, 7);
    let mut report = Report::new(
        &format!("Table I — modelled throughputs at n = {n}, {iters} sign iterations"),
        &[
            "precision",
            "peak_tflops",
            "matmul_tflops",
            "sign_tflops",
            "gflops_per_watt",
        ],
    );
    let mut rows = gpu_table(&DeviceModel::rtx_2080_ti(), n, iters);
    rows.push(fpga_row(&DeviceModel::stratix_10(), n));
    for r in rows {
        report.push(vec![
            r.mode.into(),
            Fixed(r.peak_tflops, 1),
            Fixed(r.matmul_tflops, 1),
            Fixed(r.sign_tflops, 1),
            Fixed(r.gflops_per_watt(), 0),
        ]);
    }
    report.notes.push(
        "paper's measured anchors: FP16 56.4/35.2, FP16' 38.2/27.8, FP32 12.2/10.4, \
         FP64 0.5/0.5 TFLOP/s (matmul/sign); FPGA 2.7/1.75"
            .into(),
    );
    report
}
