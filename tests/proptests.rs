//! Cross-crate property-based tests (proptest): randomized invariants of
//! the numerical core and the submatrix machinery.

use proptest::prelude::*;

use cp2k_submatrix::prelude::*;
use sm_core::assembly::SubmatrixSpec;
use sm_core::loadbalance::greedy_contiguous;
use sm_linalg::gemm::{matmul, matmul_naive};
use sm_linalg::Matrix;

/// Random symmetric matrix with entries in [-1, 1] and a diagonal shifted
/// away from zero so sign functions stay well conditioned.
fn symmetric_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
        let mut m = Matrix::from_col_major(n, n, data);
        m.symmetrize();
        for i in 0..n {
            let d = m[(i, i)];
            m[(i, i)] = d.signum().clamp(-1.0, 1.0) * (d.abs() + 1.5);
        }
        m
    })
}

/// Random banded symmetric block pattern (always includes the diagonal).
fn banded_pattern(nb: usize, half: usize) -> CooPattern {
    let mut coords = Vec::new();
    for i in 0..nb {
        for j in i.saturating_sub(half)..(i + half + 1).min(nb) {
            coords.push((i, j));
        }
    }
    CooPattern::from_coords(coords, nb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gemm_matches_naive_reference(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let a = Matrix::from_fn(m, k, |i, j| {
            (((i * 31 + j * 17 + seed as usize) % 23) as f64 - 11.0) * 0.1
        });
        let b = Matrix::from_fn(k, n, |i, j| {
            (((i * 13 + j * 29 + seed as usize) % 19) as f64 - 9.0) * 0.1
        });
        let fast = matmul(&a, &b).expect("shapes");
        let slow = matmul_naive(&a, &b).expect("shapes");
        prop_assert!(fast.allclose(&slow, 1e-12));
    }

    #[test]
    fn eigh_reconstructs_and_orthonormal(a in symmetric_matrix(7)) {
        let dec = sm_linalg::eigh::eigh(&a).expect("symmetric");
        let back = dec.apply(|l| l);
        prop_assert!(back.allclose(&a, 1e-9));
        let qtq = sm_linalg::gemm::matmul_tn(&dec.eigenvectors, &dec.eigenvectors)
            .expect("square");
        prop_assert!(qtq.allclose(&Matrix::identity(7), 1e-10));
        // Eigenvalues sorted.
        for w in dec.eigenvalues.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn sign_function_is_involutory_and_commutes(a in symmetric_matrix(6)) {
        let s = sm_linalg::sign::sign_eig(&a).expect("symmetric");
        let s2 = matmul(&s, &s).expect("square");
        prop_assert!(s2.allclose(&Matrix::identity(6), 1e-8));
        let as_ = matmul(&a, &s).expect("square");
        let sa = matmul(&s, &a).expect("square");
        prop_assert!(as_.allclose(&sa, 1e-8));
    }

    #[test]
    fn newton_schulz_sign_matches_eig(a in symmetric_matrix(6)) {
        let s_ref = sm_linalg::sign::sign_eig(&a).expect("symmetric");
        let r = sm_linalg::sign::newton_schulz_sign(&a, Default::default())
            .expect("square");
        prop_assert!(r.converged);
        prop_assert!(r.sign.allclose(&s_ref, 1e-6));
    }

    #[test]
    fn dbcsr_roundtrip_preserves_matrix(
        nb in 1usize..6,
        bs in 1usize..4,
        seed in 0u64..100,
    ) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let dense = Matrix::from_fn(n, n, |i, j| {
            (((i * 7 + j * 3 + seed as usize) % 11) as f64 - 5.0) * 0.2
        });
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        prop_assert!(m.to_dense(&comm).allclose(&dense, 0.0));
    }

    #[test]
    fn dbcsr_multiply_matches_dense(
        nb in 1usize..5,
        bs in 1usize..4,
        seed in 0u64..100,
    ) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let da = Matrix::from_fn(n, n, |i, j| {
            (((i * 5 + j * 11 + seed as usize) % 13) as f64 - 6.0) * 0.15
        });
        let db = Matrix::from_fn(n, n, |i, j| {
            (((i * 3 + j * 7 + seed as usize) % 17) as f64 - 8.0) * 0.1
        });
        let comm = SerialComm::new();
        let a = DbcsrMatrix::from_dense(&da, dims.clone(), 0, 1, 0.0);
        let b = DbcsrMatrix::from_dense(&db, dims, 0, 1, 0.0);
        let (c, _) = sm_dbcsr::multiply::multiply(&a, &b, &comm, None).expect("serial multiply");
        let expect = matmul(&da, &db).expect("shapes");
        prop_assert!(c.to_dense(&comm).allclose(&expect, 1e-11));
    }

    #[test]
    fn assembly_extract_identity_roundtrip(
        nb in 2usize..8,
        half in 0usize..3,
        col in 0usize..8,
    ) {
        let col = col % nb;
        let pattern = banded_pattern(nb, half);
        let dims = BlockedDims::uniform(nb, 2);
        let spec = SubmatrixSpec::build(&pattern, &dims, &[col]);
        // Identity on the submatrix extracts identity-pattern blocks.
        let f_a = Matrix::identity(spec.dim);
        let blocks = spec.maps(&pattern, &dims).extraction.extract(&f_a);
        for ((br, bc), blk) in blocks {
            prop_assert_eq!(bc, col);
            if br == col {
                prop_assert!(blk.allclose(&Matrix::identity(2), 0.0));
            } else {
                prop_assert!(blk.allclose(&Matrix::zeros(2, 2), 0.0));
            }
        }
    }

    #[test]
    fn submatrix_method_is_exact_on_block_diagonal(
        nb in 1usize..6,
        bs in 1usize..4,
        seed in 0u64..50,
    ) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::zeros(n, n);
        for b in 0..nb {
            for i in 0..bs {
                for j in 0..bs {
                    let v = if i == j {
                        if (b + i + seed as usize).is_multiple_of(2) { 2.0 } else { -2.0 }
                    } else {
                        0.15
                    };
                    dense[(b * bs + i, b * bs + j)] = v;
                }
            }
        }
        dense.symmetrize();
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let (sign, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sm_linalg::sign::sign_eig(&dense).expect("symmetric");
        prop_assert!(sign.to_dense(&comm).allclose(&expect, 1e-9));
    }

    #[test]
    fn load_balance_covers_all_and_bounds_imbalance(
        n_items in 1usize..200,
        n_ranks in 1usize..32,
        seed in 0u64..100,
    ) {
        let costs: Vec<f64> = (0..n_items)
            .map(|i| 1.0 + ((i as u64 * 31 + seed) % 17) as f64)
            .collect();
        let a = greedy_contiguous(&costs, n_ranks);
        // Partition property.
        let mut expect_start = 0usize;
        for r in &a.ranges {
            prop_assert_eq!(r.start, expect_start);
            expect_start = r.end;
        }
        prop_assert_eq!(expect_start, n_items);
        // No rank exceeds target + max item.
        let total: f64 = costs.iter().sum();
        let target = total / n_ranks as f64;
        let max_item = costs.iter().fold(0.0f64, |m, &c| m.max(c));
        for r in &a.ranges {
            let load: f64 = costs[r.clone()].iter().sum();
            prop_assert!(load <= target + max_item + 1e-9);
        }
    }

    #[test]
    fn assembled_submatrix_is_principal_minor(
        nb in 2usize..6,
        half in 1usize..3,
        seed in 0u64..50,
    ) {
        let pattern = banded_pattern(nb, half);
        let dims = BlockedDims::uniform(nb, 2);
        let n = dims.n();
        // Build a matrix whose nonzeros exactly follow the pattern.
        let mut dense = Matrix::zeros(n, n);
        for &(br, bc) in pattern.entries() {
            for i in 0..2 {
                for j in 0..2 {
                    dense[(br * 2 + i, bc * 2 + j)] =
                        ((br * 31 + bc * 7 + i * 3 + j + seed as usize) % 9) as f64 * 0.1;
                }
            }
        }
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let col = nb / 2;
        let spec = SubmatrixSpec::build(&pattern, &dims, &[col]);
        let a = spec.maps(&pattern, &dims).assembly.assemble(|r, c| m.block(r, c));
        // The assembled matrix equals the dense principal minor over the
        // spec's element rows wherever the pattern is nonzero.
        let idx: Vec<usize> = spec
            .rows
            .iter()
            .flat_map(|&b| dims.range(b))
            .collect();
        let minor = dense.principal_submatrix(&idx);
        for (pi, &bi) in spec.rows.iter().enumerate() {
            for (pj, &bj) in spec.rows.iter().enumerate() {
                if pattern.id_of(bi, bj).is_some() {
                    for i in 0..2 {
                        for j in 0..2 {
                            let (r, c) = (pi * 2 + i, pj * 2 + j);
                            prop_assert_eq!(a[(r, c)], minor[(r, c)]);
                        }
                    }
                }
            }
        }
    }
}
