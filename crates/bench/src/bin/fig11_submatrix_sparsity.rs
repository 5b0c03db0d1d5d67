//! Paper Fig. 11: block-wise and element-wise sparsity of the submatrices
//! compared to the block-wise sparsity of K̃, for SZV and DZVP.
//!
//! Expected shape: in the linear-scaling regime the submatrices are nearly
//! block-dense (fraction close to 1 relative to their own window), while
//! K̃'s global fill keeps dropping; element-wise, DZVP submatrices are
//! much sparser than block-wise storage suggests (< 20% in the paper) —
//! the motivation for future element-wise sparse kernels (Sec. V-C).

use sm_bench::output::{fixed, paper_scale, print_table, write_csv};
use sm_bench::workloads::{pattern_basis_dzvp, pattern_basis_szv, SEED};
use sm_chem::builder::{block_pattern, build_system};
use sm_chem::{BasisSet, WaterBox};
use sm_core::assembly::{AssemblyMap, SubmatrixSpec};
use sm_dbcsr::BlockedDims;

/// Element-wise nonzero fraction of a few sampled single-column
/// submatrices, assembled with real matrix values.
fn element_fill(water: &WaterBox, basis: &BasisSet, eps: f64, samples: usize) -> f64 {
    let sys = build_system(water, basis, 0, 1, eps);
    let comm = sm_comsim::SerialComm::new();
    let pattern = sys.k.global_pattern(&comm);
    let dims = sys.dims.clone();
    let nmol = water.n_molecules();
    let mut total_nonzero = 0usize;
    let mut total_elems = 0usize;
    for s in 0..samples {
        let col = (s * nmol) / samples;
        let spec = SubmatrixSpec::build(&pattern, &dims, &[col]);
        let a = AssemblyMap::build(&spec, &pattern).assemble(|r, c| sys.k.block(r, c));
        total_nonzero += a.count_above(eps);
        total_elems += a.nrows() * a.ncols();
    }
    total_nonzero as f64 / total_elems.max(1) as f64
}

fn series(basis: &BasisSet, label: &str, nreps: &[usize], eps: f64, rows: &mut Vec<Vec<String>>) {
    for &nrep in nreps {
        let water = WaterBox::cubic(nrep, SEED);
        let pattern = block_pattern(&water, basis, eps, 1.0);
        let dims = BlockedDims::uniform(water.n_molecules(), basis.n_per_molecule());
        // Block-wise fill of K̃ globally and of an interior submatrix.
        let global_fill = pattern.fill_fraction();
        let mid = water.n_molecules() / 2;
        let spec = SubmatrixSpec::build(&pattern, &dims, &[mid]);
        let sm_block_fill = spec.block_fill(&pattern);
        let sm_elem_fill = element_fill(&water, basis, eps, 4);
        rows.push(vec![
            label.to_string(),
            water.n_molecules().to_string(),
            fixed(global_fill, 4),
            fixed(sm_block_fill, 4),
            fixed(sm_elem_fill, 4),
        ]);
        eprintln!(
            "{label} {} mols: K~ fill {global_fill:.3}, SM block fill {sm_block_fill:.3}, \
             SM element fill {sm_elem_fill:.3}",
            water.n_molecules()
        );
    }
}

fn main() {
    let eps = 1e-5;
    let nreps_szv: &[usize] = if paper_scale() {
        &[1, 2, 3, 4, 5, 6]
    } else {
        &[1, 2, 3, 4]
    };
    let nreps_dzvp: &[usize] = if paper_scale() {
        &[1, 2, 3, 4]
    } else {
        &[1, 2, 3]
    };

    let mut rows = Vec::new();
    series(&pattern_basis_szv(), "SZV", nreps_szv, eps, &mut rows);
    series(&pattern_basis_dzvp(), "DZVP", nreps_dzvp, eps, &mut rows);

    println!("\nFig. 11 — sparsity of K~ vs submatrices (block- and element-wise)");
    let header = [
        "basis",
        "molecules",
        "ktilde_block_fill",
        "sm_block_fill",
        "sm_element_fill",
    ];
    print_table(&header, &rows);
    write_csv("fig11_submatrix_sparsity.csv", &header, &rows);

    // Shape check: DZVP element fill < SZV element fill at the largest
    // common size (the paper's key observation).
    let szv_last: f64 = rows.iter().rfind(|r| r[0] == "SZV").expect("SZV rows")[4]
        .parse()
        .expect("numeric");
    let dzvp_last: f64 = rows.iter().rfind(|r| r[0] == "DZVP").expect("DZVP rows")[4]
        .parse()
        .expect("numeric");
    println!(
        "\nelement-wise fill at largest size: SZV {szv_last:.3} vs DZVP {dzvp_last:.3} \
         (paper: DZVP much sparser element-wise)"
    );
}
