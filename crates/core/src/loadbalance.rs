//! Load balancing: mapping submatrices to ranks.
//!
//! Submatrix dimensions vary with the local chemistry, so assigning equal
//! *counts* per rank is unbalanced. The paper (Sec. IV-E) uses a greedy
//! algorithm that assigns one **consecutive chunk** of submatrices to each
//! rank (consecutive ⇒ neighbouring columns share blocks ⇒ buffered-block
//! reuse, Sec. IV-B2) such that each rank's estimated `Σ n³` load stays
//! under `total/#ranks`, and every rank gets at least one submatrix.
//! `tests/paper_claims.rs` asserts the buffered-byte saving over round-robin.

use std::ops::Range;

/// Assignment of submatrices to ranks: `ranges[r]` is the contiguous index
/// range owned by rank `r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// Per-rank contiguous ranges over submatrix indices.
    pub ranges: Vec<Range<usize>>,
}

/// Greedy contiguous-chunk assignment (paper Sec. IV-E): walk submatrices
/// in order, moving to the next rank once its accumulated load would exceed
/// `total / n_ranks`, while guaranteeing (a) every rank gets at least one
/// submatrix when possible, and (b) no submatrices are left over.
pub fn greedy_contiguous(costs: &[f64], n_ranks: usize) -> Assignment {
    let ranges = greedy_ranges(costs, n_ranks).collect();
    Assignment { ranges }
}

/// [`greedy_contiguous`]'s ranges in rank order, dealt as they are asked
/// for: a rank's own range needs no list of the others.
pub fn greedy_ranges(costs: &[f64], n_ranks: usize) -> impl Iterator<Item = Range<usize>> + '_ {
    assert!(n_ranks >= 1);
    let n = costs.len();
    let (mut start, mut remaining) = (0usize, costs.iter().sum::<f64>());
    (0..n_ranks).map(move |rank| {
        let ranks_left = n_ranks - rank;
        let items_left = n - start;
        if items_left == 0 {
            return start..start;
        }
        // Reserve at least one item for each remaining rank; re-derive the
        // target from the *remaining* load so early rounding errors do not
        // accumulate onto the last ranks.
        let target = remaining / ranks_left as f64;
        let max_end = n - (ranks_left - 1).min(items_left - 1);
        let mut end = start + 1; // at least one submatrix
        let mut load = costs[start];
        // Round to nearest: take the next item if doing so lands closer to
        // the target than stopping short.
        while end < max_end && (load + costs[end] - target).abs() <= (target - load).abs() {
            load += costs[end];
            end += 1;
        }
        if rank + 1 == n_ranks {
            end = n; // last rank absorbs the remainder
            load = costs[start..end].iter().sum();
        }
        remaining -= load;
        std::mem::replace(&mut start, end)..end
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Load imbalance of `a`: `max_load / avg_load` (1.0 = perfect).
    fn imbalance(a: &Assignment, costs: &[f64]) -> f64 {
        let loads: Vec<f64> = (a.ranges.iter())
            .map(|r| costs[r.clone()].iter().sum())
            .collect();
        let avg = loads.iter().sum::<f64>() / loads.len() as f64;
        loads.into_iter().fold(0.0, f64::max) / avg
    }

    #[test]
    fn uniform_costs_split_evenly() {
        let costs = vec![1.0; 12];
        let a = greedy_contiguous(&costs, 4);
        assert_eq!(a.ranges.len(), 4);
        for r in &a.ranges {
            assert_eq!(r.len(), 3);
        }
        assert!((imbalance(&a, &costs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_costs_get_fewer_items() {
        // One huge submatrix (a large solute molecule, Sec. IV-E's example)
        // must sit alone on its rank.
        let mut costs = vec![1.0; 9];
        costs[0] = 100.0;
        let a = greedy_contiguous(&costs, 3);
        assert_eq!(a.ranges[0], 0..1, "heavy item should be alone");
        // Remaining 8 split across 2 ranks.
        let covered: usize = a.ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 9);
    }

    #[test]
    fn every_rank_gets_one_when_possible() {
        let costs = vec![100.0, 1.0, 1.0, 1.0];
        let a = greedy_contiguous(&costs, 4);
        for r in &a.ranges {
            assert_eq!(r.len(), 1);
        }
    }

    #[test]
    fn more_ranks_than_items_leaves_trailing_ranks_empty() {
        let costs = vec![1.0, 2.0];
        let a = greedy_contiguous(&costs, 4);
        let nonempty: usize = a.ranges.iter().filter(|r| !r.is_empty()).count();
        assert_eq!(nonempty, 2);
        let covered: usize = a.ranges.iter().map(|r| r.len()).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn ranges_are_contiguous_and_ordered() {
        let costs: Vec<f64> = (0..20).map(|i| 1.0 + (i % 5) as f64).collect();
        let a = greedy_contiguous(&costs, 6);
        let mut expect_start = 0;
        for r in &a.ranges {
            assert_eq!(r.start, expect_start);
            expect_start = r.end;
        }
        assert_eq!(expect_start, 20);
    }

    #[test]
    fn imbalance_bounded_for_moderate_costs() {
        // With costs bounded by the per-rank target, greedy stays within
        // 2x of perfect balance.
        let costs: Vec<f64> = (0..64).map(|i| 1.0 + ((i * 7) % 13) as f64).collect();
        let a = greedy_contiguous(&costs, 8);
        let imbalance = imbalance(&a, &costs);
        assert!(imbalance < 2.0, "imbalance {imbalance}");
    }

    #[test]
    fn single_rank_takes_all() {
        let costs = vec![3.0, 1.0, 2.0];
        let a = greedy_contiguous(&costs, 1);
        assert_eq!(a.ranges, vec![0..3]);
    }
}
