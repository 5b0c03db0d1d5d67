//! Submatrix plans: how block columns are grouped into submatrices.
//!
//! The baseline plan generates one submatrix per block column (paper
//! Sec. III-A applied at the DBCSR block level, Sec. IV-C). Combining
//! several block columns into one submatrix trades fewer, larger solves for
//! possibly redundant work; Eq. 15 estimates the net speedup `S` under the
//! `n³` cost model. The evaluation's "simple greedy heuristic" combines
//! consecutive block columns, while the cluster-based heuristics live in
//! [`crate::cluster`].

use sm_dbcsr::{BlockedDims, CooPattern};

use crate::assembly::SubmatrixSpec;
use crate::engine::Grouping;

/// A full plan: every block column appears in exactly one spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmatrixPlan {
    /// The submatrix specs, in deterministic order.
    pub specs: Vec<SubmatrixSpec>,
}

/// The column groups of `grouping` over `all = [0, 1, …, nb − 1]`, in plan
/// order: singletons, runs of `g` (the last one shorter), or the explicit
/// groups without the empty ones. The one enumeration of a grouping: the
/// engine's symbolic phase and [`SubmatrixPlan`] both take it.
///
/// # Panics
/// Panics if a run length is 0 or explicit groups do not partition `all`.
pub(crate) fn column_groups<'a>(grouping: &'a Grouping, all: &'a [usize]) -> Vec<&'a [usize]> {
    let groups = match grouping {
        Grouping::OnePerColumn => return all.chunks(1).collect(),
        Grouping::Consecutive(g) => return all.chunks(*g).collect(),
        Grouping::Explicit(groups) => groups,
    };
    let mut seen = vec![false; all.len()];
    for &c in groups.iter().flatten() {
        assert!(!seen[c], "block column {c} appears in two groups");
        seen[c] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "groups must cover every block column"
    );
    (groups.iter().filter(|g| !g.is_empty()).map(Vec::as_slice)).collect()
}

impl SubmatrixPlan {
    /// One spec per column group of `grouping`.
    fn grouped(pattern: &CooPattern, dims: &BlockedDims, grouping: &Grouping) -> Self {
        let all: Vec<usize> = (0..pattern.nb()).collect();
        let groups = column_groups(grouping, &all).into_iter();
        let specs = groups.map(|cols| SubmatrixSpec::build(pattern, dims, cols));
        SubmatrixPlan {
            specs: specs.collect(),
        }
    }

    /// One submatrix per block column (the method's default).
    pub fn one_per_column(pattern: &CooPattern, dims: &BlockedDims) -> Self {
        Self::grouped(pattern, dims, &Grouping::OnePerColumn)
    }

    /// Combine consecutive runs of `group_size` block columns — the greedy
    /// heuristic used in the paper's evaluation (Sec. V: "combining
    /// multiples of these basic regions").
    pub fn consecutive(pattern: &CooPattern, dims: &BlockedDims, group_size: usize) -> Self {
        Self::grouped(pattern, dims, &Grouping::Consecutive(group_size))
    }

    /// Build from explicit column groups (the clustering heuristics).
    ///
    /// # Panics
    /// Panics if the groups do not partition `0..nb`.
    pub fn from_groups(pattern: &CooPattern, dims: &BlockedDims, groups: &[Vec<usize>]) -> Self {
        Self::grouped(pattern, dims, &Grouping::Explicit(groups.to_vec()))
    }

    /// Number of submatrices `N_S`.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True if the plan is empty (zero-dimensional matrix).
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Total estimated cost `Σ nᵢ³` (paper Eq. 14).
    pub fn total_cost(&self) -> f64 {
        self.specs.iter().map(SubmatrixSpec::cost).sum()
    }

    /// Submatrix dimensions.
    pub fn dims(&self) -> Vec<usize> {
        self.specs.iter().map(|s| s.dim).collect()
    }

    /// Largest submatrix dimension (the `dim(SM)` series of paper Fig. 4).
    pub fn max_dim(&self) -> usize {
        self.specs.iter().map(|s| s.dim).max().unwrap_or(0)
    }

    /// Mean submatrix dimension.
    pub fn avg_dim(&self) -> f64 {
        if self.specs.is_empty() {
            return 0.0;
        }
        self.specs.iter().map(|s| s.dim as f64).sum::<f64>() / self.specs.len() as f64
    }
}

/// Estimated additional speedup `S` of a combined plan over the
/// one-per-column plan (paper Eq. 15): `S = Σ ñᵢ³ / Σ nᵢ³`.
pub fn estimated_speedup(single_columns: &SubmatrixPlan, combined: &SubmatrixPlan) -> f64 {
    let denom = combined.total_cost();
    if denom == 0.0 {
        return 1.0;
    }
    single_columns.total_cost() / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    fn banded_pattern(nb: usize, half: usize) -> CooPattern {
        let mut coords = Vec::new();
        for i in 0..nb {
            for j in i.saturating_sub(half)..(i + half + 1).min(nb) {
                coords.push((i, j));
            }
        }
        CooPattern::from_coords(coords, nb)
    }

    #[test]
    fn one_per_column_covers_all() {
        let p = banded_pattern(6, 1);
        let d = BlockedDims::uniform(6, 3);
        let plan = SubmatrixPlan::one_per_column(&p, &d);
        assert_eq!(plan.len(), 6);
        let cols: Vec<usize> = plan.specs.iter().flat_map(|s| s.cols.clone()).collect();
        assert_eq!(cols, (0..6).collect::<Vec<_>>());
        // Interior columns: 3 block rows of size 3 → dim 9.
        assert_eq!(plan.specs[2].dim, 9);
        assert_eq!(plan.max_dim(), 9);
    }

    #[test]
    fn consecutive_grouping() {
        let p = banded_pattern(7, 1);
        let d = BlockedDims::uniform(7, 2);
        let plan = SubmatrixPlan::consecutive(&p, &d, 3);
        assert_eq!(plan.len(), 3); // groups {0,1,2},{3,4,5},{6}
        assert_eq!(plan.specs[0].cols, vec![0, 1, 2]);
        assert_eq!(plan.specs[2].cols, vec![6]);
    }

    #[test]
    fn from_groups_partition_validation() {
        let p = banded_pattern(4, 1);
        let d = BlockedDims::uniform(4, 2);
        let plan = SubmatrixPlan::from_groups(&p, &d, &[vec![0, 1], vec![2, 3]]);
        assert_eq!(plan.len(), 2);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let p = banded_pattern(3, 1);
        let d = BlockedDims::uniform(3, 2);
        SubmatrixPlan::from_groups(&p, &d, &[vec![0, 1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "cover every block column")]
    fn incomplete_groups_rejected() {
        let p = banded_pattern(3, 1);
        let d = BlockedDims::uniform(3, 2);
        SubmatrixPlan::from_groups(&p, &d, &[vec![0, 1]]);
    }

    #[test]
    fn combining_shared_neighborhoods_gives_speedup() {
        // Banded pattern: adjacent columns share most of their rows, so
        // combining them is a win under the n³ model (the Fig. 5 regime).
        let p = banded_pattern(40, 3);
        let d = BlockedDims::uniform(40, 2);
        let singles = SubmatrixPlan::one_per_column(&p, &d);
        let combined = SubmatrixPlan::consecutive(&p, &d, 4);
        let s = estimated_speedup(&singles, &combined);
        assert!(s > 1.0, "expected combining speedup, got {s}");
        // Over-combining into one giant submatrix destroys the advantage.
        let giant = SubmatrixPlan::consecutive(&p, &d, 40);
        let s_giant = estimated_speedup(&singles, &giant);
        assert!(s_giant < s, "giant group should be worse than moderate");
    }

    #[test]
    fn total_cost_is_cubic_sum() {
        let p = banded_pattern(3, 0); // diagonal only
        let d = BlockedDims::uniform(3, 2);
        let plan = SubmatrixPlan::one_per_column(&p, &d);
        assert_eq!(plan.total_cost(), 3.0 * 8.0);
        assert_eq!(plan.avg_dim(), 2.0);
    }
}
