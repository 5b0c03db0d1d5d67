//! Block-transfer planning with deduplication.
//!
//! During initialization every rank determines which nonzero blocks its
//! submatrices need and fetches each block **once** per (owner → consumer)
//! pair, so submatrix assembly becomes a purely local operation (paper
//! Sec. IV-B1). [`UniqueIds`] keeps each pattern ID a rank's walks list
//! once, and [`TransferStats::of_rank`] prices the saving over a naive
//! per-submatrix exchange (`claim_transfers_are_deduplicated` asserts it).

use sm_dbcsr::{BlockedDims, CooPattern};

/// The distinct pattern IDs of a list of block references, in
/// first-reference order: a bitmap over the pattern's IDs marks each as it
/// is met, and only the marks set are cleared after, so a list costs
/// O(references), however large the pattern.
#[derive(Debug, Default)]
pub struct UniqueIds {
    seen: Vec<bool>,
    ids: Vec<usize>,
}

impl UniqueIds {
    /// The distinct IDs of `references`, each below `nnz`.
    pub fn of(&mut self, references: &[usize], nnz: usize) -> &[usize] {
        if self.seen.len() < nnz {
            self.seen.resize(nnz, false);
        }
        self.ids.clear();
        for &id in references {
            if !std::mem::replace(&mut self.seen[id], true) {
                self.ids.push(id);
            }
        }
        for &id in &self.ids {
            self.seen[id] = false;
        }
        &self.ids
    }

    /// What the last [`of`](Self::of) returned.
    pub fn ids(&self) -> &[usize] {
        &self.ids
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
    /// One rank's statistics from the distinct pattern IDs its walks listed
    /// and their number of references. Naive bytes are estimated from the
    /// rank's average block size times its references (exact for uniform
    /// block partitions, which all water systems use).
    pub fn of_rank(
        unique: &[usize],
        references: usize,
        pattern: &CooPattern,
        dims: &BlockedDims,
    ) -> Self {
        let bytes = |&id: &usize| {
            let (br, bc) = pattern.entries()[id];
            (dims.size(br) * dims.size(bc) * 8) as u64
        };
        let unique_bytes: u64 = unique.iter().map(bytes).sum();
        let avg_block_bytes = unique_bytes as f64 / unique.len().max(1) as f64;
        TransferStats {
            unique_bytes,
            naive_bytes: (avg_block_bytes * references as f64) as u64,
            unique_blocks: unique.len() as u64,
            total_references: references as u64,
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
/// [`of_rank`](TransferStats::of_rank)).
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

    /// The statistics of single-column submatrices `cols`.
    fn plan_of(p: &CooPattern, d: &BlockedDims, cols: &[usize]) -> TransferStats {
        let mut ids = Vec::new();
        for &c in cols {
            SubmatrixSpec::build(p, d, &[c]).walk(p, d, &mut ids, None);
        }
        let unique = UniqueIds::default().of(&ids, p.nnz()).to_vec();
        TransferStats::of_rank(&unique, ids.len(), p, d)
    }

    #[test]
    fn dedup_reduces_references_for_neighbouring_columns() {
        let (p, d) = banded(10, 2);
        let plan = plan_of(&p, &d, &[3, 4]);
        // Adjacent banded columns share most blocks.
        assert!(
            2 * plan.total_references > 3 * plan.unique_blocks,
            "{plan:?}"
        );
    }

    #[test]
    fn disjoint_columns_have_no_duplicates() {
        let (p, d) = banded(20, 1);
        let plan = plan_of(&p, &d, &[0, 10]);
        assert_eq!(plan.total_references, plan.unique_blocks);
    }

    #[test]
    fn unique_bytes_counts_block_areas() {
        let (p, d) = banded(3, 0); // diagonal-only pattern
        let plan = plan_of(&p, &d, &[1]);
        // One 2x2 block = 32 bytes.
        assert_eq!(plan.unique_bytes, 32);
    }

    #[test]
    fn stats_accumulate_across_ranks() {
        let (p, d) = banded(8, 1);
        let stats: TransferStats = (0..8).map(|c| plan_of(&p, &d, &[c])).sum();
        assert!(stats.unique_bytes > 0);
        assert_eq!(stats.unique_blocks, stats.total_references);
        assert_eq!(stats.unique_bytes, stats.naive_bytes);
    }

    #[test]
    fn empty_plan() {
        let (p, d) = banded(2, 1);
        assert!(UniqueIds::default().of(&[], p.nnz()).is_empty());
        assert_eq!(plan_of(&p, &d, &[]), TransferStats::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// On random patterns with their diagonal, one spec per column or
        /// runs of 1 to 3 columns, and every rank's slice of the load
        /// balance at 1 to 4 ranks, through one `UniqueIds` (so a mark
        /// left set would drop a later rank's block): each referenced block
        /// once, in first-reference order, and the statistics of the set
        /// the references make.
        #[test]
        fn id_dedup_matches_the_set(
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
            let mut unique = UniqueIds::default();
            for range in greedy_contiguous(&costs, size).ranges {
                let mut ids = Vec::new();
                for spec in &all[range] {
                    spec.walk(&pattern, &dims, &mut ids, None);
                }
                let mut first_seen = Vec::new();
                let mut set = std::collections::BTreeSet::new();
                for &id in &ids {
                    if set.insert(pattern.entries()[id]) {
                        first_seen.push(id);
                    }
                }
                prop_assert_eq!(unique.of(&ids, pattern.nnz()), &first_seen[..]);
                let bytes: usize = set.iter().map(|&(r, c)| dims.size(r) * dims.size(c) * 8).sum();
                let stats = TransferStats::of_rank(unique.ids(), ids.len(), &pattern, &dims);
                prop_assert_eq!(stats.unique_bytes, bytes as u64);
                prop_assert_eq!(stats.unique_blocks, set.len() as u64);
                prop_assert_eq!(stats.total_references, ids.len() as u64);
            }
        }
    }
}
