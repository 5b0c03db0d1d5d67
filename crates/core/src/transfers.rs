//! Block-transfer planning with deduplication.
//!
//! During initialization every rank determines which nonzero blocks its
//! submatrices need and fetches each block **once** per (owner → consumer)
//! pair, buffering it locally so submatrix assembly becomes a purely local
//! operation (paper Sec. IV-B1). This module computes the transfer plan and
//! quantifies the savings versus the naive per-submatrix transfer scheme;
//! `tests/paper_claims.rs` (`claim_transfers_are_deduplicated`) asserts
//! the savings on a water pattern.

use sm_dbcsr::BlockedDims;

/// Transfer requirements of one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTransferPlan {
    /// Deduplicated block coordinates this rank must obtain (its own
    /// blocks included — the caller filters locally-owned ones).
    pub unique_blocks: Vec<(usize, usize)>,
    /// Total block references across the rank's submatrices (what a naive
    /// per-submatrix exchange would transfer).
    pub total_references: usize,
}

impl RankTransferPlan {
    /// The plan of a rank's submatrices from the blocks their walks listed
    /// ([`SubmatrixSpec::walk`](crate::assembly::SubmatrixSpec::walk)),
    /// one entry per reference: sorted and deduplicated in place.
    pub fn from_blocks(mut unique: Vec<(usize, usize)>) -> Self {
        let total_references = unique.len();
        unique.sort_unstable();
        unique.dedup();
        RankTransferPlan {
            unique_blocks: unique,
            total_references,
        }
    }

    /// Bytes of the deduplicated transfers (8-byte elements).
    pub fn unique_bytes(&self, dims: &BlockedDims) -> u64 {
        self.unique_blocks
            .iter()
            .map(|&(br, bc)| (dims.size(br) * dims.size(bc) * 8) as u64)
            .sum()
    }
}

/// Whole-run transfer statistics across all ranks.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TransferStats {
    /// Bytes moved with deduplication.
    pub unique_bytes: u64,
    /// Bytes a naive per-submatrix scheme would move.
    pub naive_bytes: u64,
    /// Deduplicated block count over all ranks.
    pub unique_blocks: u64,
    /// Total block references over all ranks.
    pub total_references: u64,
}

impl TransferStats {
    /// Accumulate one rank's plan. Naive bytes are estimated from the
    /// rank's average block size times its total references (exact for
    /// uniform block partitions, which all water systems use).
    pub fn add_rank(&mut self, plan: &RankTransferPlan, dims: &BlockedDims) {
        self.unique_bytes += plan.unique_bytes(dims);
        self.unique_blocks += plan.unique_blocks.len() as u64;
        self.total_references += plan.total_references as u64;
        if !plan.unique_blocks.is_empty() {
            let avg_block_bytes = plan.unique_bytes(dims) as f64 / plan.unique_blocks.len() as f64;
            self.naive_bytes += (avg_block_bytes * plan.total_references as f64) as u64;
        }
    }
}

/// Field-wise sum: one more rank's, or one more iteration's, statistics.
impl std::ops::AddAssign for TransferStats {
    fn add_assign(&mut self, more: Self) {
        self.unique_bytes += more.unique_bytes;
        self.naive_bytes += more.naive_bytes;
        self.unique_blocks += more.unique_blocks;
        self.total_references += more.total_references;
    }
}

/// Whole-run totals of per-rank statistics (each a rank's
/// [`add_rank`](TransferStats::add_rank)).
impl std::iter::Sum for TransferStats {
    fn sum<I: Iterator<Item = Self>>(ranks: I) -> Self {
        let mut total = TransferStats::default();
        ranks.for_each(|rank| total += rank);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::SubmatrixSpec;
    use crate::engine::Grouping;
    use crate::loadbalance::greedy_contiguous;
    use crate::plan::column_groups;
    use proptest::prelude::*;
    use sm_dbcsr::CooPattern;

    fn banded(nb: usize, half: usize) -> (CooPattern, BlockedDims) {
        let mut coords = Vec::new();
        for i in 0..nb {
            for j in i.saturating_sub(half)..(i + half + 1).min(nb) {
                coords.push((i, j));
            }
        }
        (
            CooPattern::from_coords(coords, nb),
            BlockedDims::uniform(nb, 2),
        )
    }

    /// The plan of single-column submatrices `cols`.
    fn plan_of(p: &CooPattern, d: &BlockedDims, cols: &[usize]) -> RankTransferPlan {
        let mut blocks = Vec::new();
        for &c in cols {
            SubmatrixSpec::build(p, d, &[c]).walk(p, d, &mut blocks);
        }
        RankTransferPlan::from_blocks(blocks)
    }

    #[test]
    fn dedup_reduces_references_for_neighbouring_columns() {
        let (p, d) = banded(10, 2);
        let plan = plan_of(&p, &d, &[3, 4]);
        // Adjacent banded columns share most blocks.
        let unique = plan.unique_blocks.len();
        assert!(2 * plan.total_references > 3 * unique, "{plan:?}");
    }

    #[test]
    fn disjoint_columns_have_no_duplicates() {
        let (p, d) = banded(20, 1);
        let plan = plan_of(&p, &d, &[0, 10]);
        assert_eq!(plan.total_references, plan.unique_blocks.len());
    }

    #[test]
    fn unique_bytes_counts_block_areas() {
        let (p, d) = banded(3, 0); // diagonal-only pattern
        let plan = plan_of(&p, &d, &[1]);
        // One 2x2 block = 32 bytes.
        assert_eq!(plan.unique_bytes(&d), 32);
    }

    #[test]
    fn stats_accumulate_across_ranks() {
        let (p, d) = banded(8, 1);
        let mut stats = TransferStats::default();
        for c in 0..8 {
            stats.add_rank(&plan_of(&p, &d, &[c]), &d);
        }
        assert!(stats.unique_bytes > 0);
        assert_eq!(stats.unique_blocks, stats.total_references);
        assert_eq!(stats.unique_bytes, stats.naive_bytes);
    }

    #[test]
    fn empty_plan() {
        let plan = RankTransferPlan::from_blocks(Vec::new());
        assert_eq!((plan.unique_blocks.len(), plan.total_references), (0, 0));
        let (_, d) = banded(2, 1);
        assert_eq!(plan.unique_bytes(&d), 0);
    }

    /// The plan as it was built before it sorted one list: a `BTreeSet`
    /// fed by a walk of each spec's own (`rows` × pattern rows inside).
    /// The reference the sorted list is held to.
    fn plan_by_set(specs: &[SubmatrixSpec], pattern: &CooPattern) -> RankTransferPlan {
        let mut unique = std::collections::BTreeSet::new();
        let mut total = 0usize;
        for spec in specs {
            for &bc in &spec.rows {
                for br in pattern.rows_in_col(bc) {
                    if spec.position_of(br).is_some() {
                        total += 1;
                        unique.insert((br, bc));
                    }
                }
            }
        }
        RankTransferPlan {
            unique_blocks: unique.into_iter().collect(),
            total_references: total,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// On random patterns with their diagonal, one spec per column or
        /// runs of 1 to 3 columns, and every rank's slice of the load
        /// balance at 1 to 4 ranks: the same sorted unique blocks and the
        /// same reference count as the set.
        #[test]
        fn sorted_list_plan_matches_the_set(
            nb in 1usize..25,
            fill in 0u64..100,
            seed in 0u64..1000,
            group in 0usize..4,
            size in 1usize..5,
        ) {
            let hash = |r: usize, c: usize| {
                let h = (r as u64 * 7919 + c as u64 * 104_729 + seed * 31) % 1009;
                h * 100 / 1009
            };
            let coords = (0..nb)
                .flat_map(|c| (0..nb).map(move |r| (r, c)))
                .filter(|&(r, c)| r == c || hash(r, c) < fill)
                .collect();
            let pattern = CooPattern::from_coords(coords, nb);
            let dims = BlockedDims::new((0..nb).map(|b| 1 + (b + seed as usize) % 3).collect());
            let grouping = match group {
                0 => Grouping::OnePerColumn,
                g => Grouping::Consecutive(g),
            };
            let (cols, bounds) = column_groups(&grouping, nb);
            let all: Vec<SubmatrixSpec> = (bounds.windows(2))
                .map(|w| SubmatrixSpec::build(&pattern, &dims, &cols[w[0]..w[1]]))
                .collect();
            let costs: Vec<f64> = all.iter().map(SubmatrixSpec::cost).collect();
            for range in greedy_contiguous(&costs, size).ranges {
                let specs = &all[range];
                let mut blocks = Vec::new();
                for spec in specs {
                    spec.walk(&pattern, &dims, &mut blocks);
                }
                prop_assert_eq!(
                    RankTransferPlan::from_blocks(blocks),
                    plan_by_set(specs, &pattern)
                );
            }
        }
    }
}
