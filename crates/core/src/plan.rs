//! The symbolic phase, in two halves. Sec. IV-A1 replicates the block
//! pattern on every rank, so the submatrices, their `n³` costs (Eq. 14)
//! and the shape statistics are one function of the pattern, a
//! [`PatternPlan`], which owns its pattern and is what the engine caches;
//! a rank's share of it — its slice of the load balance (Sec. IV-E), one
//! walk per own group and the deduplicated transfers (Sec. IV-B) — is an
//! [`ExecutionPlan`], derived locally by [`PatternPlan::rank_view`]. The
//! engine, the figures and the scaling model ([`crate::model`], through
//! [`PatternPlan::rank_shares`]) all take this one split. Groups are one
//! block column each by default (Sec. III-A); combining columns trades
//! fewer, larger solves for redundant work, which Eq. 15 prices
//! ([`estimated_speedup`]; the clustering heuristics live in
//! [`crate::cluster`]).

use std::cell::Cell;
use std::ops::Range;

use sm_dbcsr::{BlockedDims, CooPattern};

use crate::assembly::{cost_of_dim, AssemblyMap, CopyPrograms, ExtractionMap, SubmatrixSpec};
use crate::engine::Grouping;
use crate::loadbalance::{greedy_contiguous, greedy_ranges};
use crate::transfers::{TransferStats, UniqueIds};

/// The column groups of `grouping` over `0..nb`, in plan order, as
/// `(cols, bounds)`: group `i` is `cols[bounds[i]..bounds[i + 1]]`.
/// Singletons, runs of `g` (the last one shorter), or the explicit groups
/// without the empty ones — the one enumeration of a grouping.
///
/// # Panics
/// Panics if a run length is 0 or explicit groups do not partition `0..nb`.
pub(crate) fn column_groups(grouping: &Grouping, nb: usize) -> (Vec<usize>, Vec<usize>) {
    let run = |g: usize| ((0..nb).collect(), (0..nb).step_by(g).chain([nb]).collect());
    let groups = match grouping {
        Grouping::OnePerColumn => return run(1),
        Grouping::Consecutive(g) => return run(*g),
        Grouping::Explicit(groups) => groups,
    };
    let mut seen = vec![false; nb];
    for &c in groups.iter().flatten() {
        assert!(!seen[c], "block column {c} appears in two groups");
        seen[c] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "groups must cover every block column"
    );
    let ends = groups.iter().filter(|g| !g.is_empty()).scan(0, |end, g| {
        *end += g.len();
        Some(*end)
    });
    let cols = groups.iter().flatten().copied().collect();
    (cols, [0].into_iter().chain(ends).collect())
}

/// What one walk after another reuses: the group's spec, the rank's block
/// references, their distinct IDs and its copy programs.
#[derive(Default)]
struct Scratch {
    spec: SubmatrixSpec,
    ids: Vec<usize>,
    unique: UniqueIds,
    programs: CopyPrograms,
}

thread_local!(static SCRATCH: Cell<Option<Scratch>> = const { Cell::new(None) });

/// Run `f` on the calling thread's scratch, taken out for the call and put
/// back after it (a nested call works on a fresh one), as `eigh` does.
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let kept = SCRATCH.try_with(Cell::take).ok().flatten();
    let mut scratch = kept.unwrap_or_default();
    let result = f(&mut scratch);
    let _ = SCRATCH.try_with(|cell| cell.set(Some(scratch)));
    result
}

/// The pattern-wide half of the symbolic phase, identical on every rank:
/// one plan-cache entry. Owns its pattern and partition.
#[derive(Debug)]
pub struct PatternPlan {
    /// The global block pattern.
    pub(crate) pattern: CooPattern,
    /// The block partition.
    pub(crate) dims: BlockedDims,
    /// The `n³` cost of each submatrix, in plan order (the ranks' deal).
    costs: Vec<f64>,
    /// Largest submatrix dimension (the `dim(SM)` series of paper Fig. 4).
    pub max_dim: usize,
    /// Mean submatrix dimension.
    pub avg_dim: f64,
    /// Total `Σ n³` cost estimate.
    pub total_cost: f64,
    /// Element-level fill fraction of the pattern: `Σ size(br)·size(bc)`
    /// over nonzero blocks, divided by `n²` (the Sec. V-C decision input).
    pub element_fill: f64,
    /// The column groups, as [`column_groups`] lays them out.
    cols: Vec<usize>,
    bounds: Vec<usize>,
}

/// One rank's view of a [`PatternPlan`]: everything the numeric phase
/// needs, with no remaining pattern queries. The global statistics are the
/// pattern plan's; the per-submatrix vectors hold the rank's in order.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Rank this plan serves.
    pub rank: usize,
    /// Communicator size this plan serves.
    pub size: usize,
    /// The block partition.
    pub dims: BlockedDims,
    /// Global number of submatrices.
    pub n_submatrices: usize,
    /// Largest submatrix dimension (global).
    pub max_dim: usize,
    /// Mean submatrix dimension (global).
    pub avg_dim: f64,
    /// Total `Σ n³` cost estimate (global).
    pub total_cost: f64,
    /// This rank's transfer statistics.
    pub transfers: TransferStats,
    /// Deduplicated remote block coordinates to gather each execution, in
    /// row-major order.
    pub remote_wanted: Vec<(usize, usize)>,
    /// Assembly copy program of each of this rank's submatrices.
    pub assembly: Vec<AssemblyMap>,
    /// Extraction copy program and contributing element columns
    /// (Algorithm 1) of each, parallel to `assembly`.
    pub extraction: Vec<ExtractionMap>,
    /// Element fill of the pattern ([`PatternPlan::element_fill`]), what
    /// the numeric phase resolves its solve representation against.
    pub element_fill: f64,
}

/// What one rank's view holds of work, transfers and results, without its
/// copy programs: the `n³` cost of each of its submatrices, its transfer
/// statistics and the elements of the result blocks it extracts.
#[derive(Debug, Clone, PartialEq)]
pub struct RankShare<'a> {
    pub costs: &'a [f64],
    pub transfers: TransferStats,
    pub extracted: usize,
}

impl PatternPlan {
    /// Each column group's dimension, from its index set alone, and the
    /// statistics over them.
    ///
    /// # Panics
    /// Panics if `grouping` does not partition the block columns (or runs
    /// zero columns) or a column's diagonal block is missing.
    pub fn new(pattern: CooPattern, dims: BlockedDims, grouping: &Grouping) -> Self {
        let (cols, bounds) = column_groups(grouping, pattern.nb());
        let (mut costs, mut max_dim, mut dim_sum) = (Vec::with_capacity(bounds.len()), 0, 0.0);
        with_scratch(|s| {
            for w in bounds.windows(2) {
                let dim = s.spec.rebuild(&pattern, &dims, &cols[w[0]..w[1]]);
                costs.push(cost_of_dim(dim));
                max_dim = max_dim.max(dim);
                dim_sum += dim as f64;
            }
        });
        let n_elems = (dims.n() * dims.n()) as f64;
        let nnz_elems: f64 = (pattern.entries().iter())
            .map(|&(br, bc)| (dims.size(br) * dims.size(bc)) as f64)
            .sum();
        PatternPlan {
            max_dim,
            avg_dim: dim_sum / costs.len().max(1) as f64, // 0 with no groups
            total_cost: costs.iter().sum(),
            costs,
            element_fill: nnz_elems / n_elems.max(1.0), // 0 for an empty partition
            pattern,
            dims,
            cols,
            bounds,
        }
    }

    /// Number of submatrices `N_S`.
    pub fn n_submatrices(&self) -> usize {
        self.costs.len()
    }

    /// Walk `groups` through the scratch spec, their block references to
    /// `s.ids` and, with `programs`, their copy programs to `s.programs`:
    /// the unique references' statistics and the elements extracted.
    fn walk(
        &self,
        groups: Range<usize>,
        s: &mut Scratch,
        programs: bool,
    ) -> (TransferStats, usize) {
        let (pattern, dims) = (&self.pattern, &self.dims);
        s.ids.clear();
        let mut extracted = 0;
        for i in groups {
            let cols = &self.cols[self.bounds[i]..self.bounds[i + 1]];
            s.spec.rebuild(pattern, dims, cols);
            let into = programs.then_some(&mut s.programs);
            extracted += s.spec.walk(pattern, dims, &mut s.ids, into);
        }
        let unique = s.unique.of(&s.ids, pattern.nnz());
        let stats = TransferStats::of_rank(unique, s.ids.len(), pattern, dims);
        (stats, extracted)
    }

    /// Rank `rank` of `size`: its slice of the greedy `n³` balance, one
    /// walk per own group — which lists the blocks the group needs by
    /// pattern ID and lays out its copy programs — and the exchange of
    /// those blocks, each fetched once per execution. Local: any rank
    /// holding the pattern plan derives any rank's view.
    pub fn rank_view(&self, rank: usize, size: usize) -> ExecutionPlan {
        let mut deal = greedy_ranges(&self.costs, size);
        let groups = deal
            .nth(rank)
            .expect("rank_view: rank outside the communicator");
        with_scratch(|s| {
            let (transfers, _) = self.walk(groups, s, true);
            // Owners come from the one distribution policy matrices route by.
            let grid = sm_dbcsr::process_grid(size);
            let blocks = s.unique.ids().iter();
            let mut remote_wanted: Vec<_> = (blocks.map(|&id| self.pattern.entries()[id]))
                .filter(|&(br, bc)| grid.owner_of_block(br, bc) != rank)
                .collect();
            remote_wanted.sort_unstable();
            let (assembly, extraction) = s.programs.share();
            ExecutionPlan {
                rank,
                size,
                dims: self.dims.clone(),
                n_submatrices: self.n_submatrices(),
                max_dim: self.max_dim,
                avg_dim: self.avg_dim,
                total_cost: self.total_cost,
                transfers,
                remote_wanted,
                assembly,
                extraction,
                element_fill: self.element_fill,
            }
        })
    }

    /// Each rank of `size`'s [`RankShare`], in rank order: the views' deal
    /// and walks, without copy programs.
    pub fn rank_shares(&self, size: usize) -> Vec<RankShare<'_>> {
        let deal = greedy_contiguous(&self.costs, size).ranges;
        with_scratch(|s| {
            let share = |groups: Range<usize>| {
                let (transfers, extracted) = self.walk(groups.clone(), s, false);
                let costs = &self.costs[groups];
                RankShare {
                    costs,
                    transfers,
                    extracted,
                }
            };
            deal.into_iter().map(share).collect()
        })
    }
}

/// Estimated additional speedup `S` of a combined plan over the
/// one-per-column plan (paper Eq. 15): `S = Σ ñᵢ³ / Σ nᵢ³`.
pub fn estimated_speedup(single_columns: &PatternPlan, combined: &PatternPlan) -> f64 {
    if combined.total_cost == 0.0 {
        return 1.0;
    }
    single_columns.total_cost / combined.total_cost
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every field of two views equal, `f64`s by bits. Destructured, so a
    /// new field must be named here.
    pub(crate) fn same_view(new: &ExecutionPlan, old: &ExecutionPlan) -> Result<(), TestCaseError> {
        let ExecutionPlan {
            rank,
            size,
            dims,
            n_submatrices,
            max_dim,
            avg_dim,
            total_cost,
            transfers,
            remote_wanted,
            assembly,
            extraction,
            element_fill,
        } = new;
        prop_assert_eq!((*rank, *size), (old.rank, old.size));
        prop_assert_eq!(dims, &old.dims);
        prop_assert_eq!((*n_submatrices, *max_dim), (old.n_submatrices, old.max_dim));
        prop_assert_eq!(avg_dim.to_bits(), old.avg_dim.to_bits());
        prop_assert_eq!(total_cost.to_bits(), old.total_cost.to_bits());
        prop_assert_eq!(element_fill.to_bits(), old.element_fill.to_bits());
        prop_assert_eq!(transfers, &old.transfers);
        prop_assert_eq!(remote_wanted, &old.remote_wanted);
        prop_assert_eq!(assembly, &old.assembly);
        prop_assert_eq!(extraction, &old.extraction);
        Ok(())
    }

    fn banded_pattern(nb: usize, half: usize) -> CooPattern {
        let mut coords = Vec::new();
        for i in 0..nb {
            for j in i.saturating_sub(half)..(i + half + 1).min(nb) {
                coords.push((i, j));
            }
        }
        CooPattern::from_coords(coords, nb)
    }

    fn groups_of(plan: &PatternPlan) -> Vec<Vec<usize>> {
        plan.bounds
            .windows(2)
            .map(|w| plan.cols[w[0]..w[1]].to_vec())
            .collect()
    }

    #[test]
    fn one_per_column_covers_all() {
        let p = banded_pattern(6, 1);
        let d = BlockedDims::uniform(6, 3);
        let plan = PatternPlan::new(p.clone(), d.clone(), &Grouping::OnePerColumn);
        assert_eq!(plan.n_submatrices(), 6);
        let cols: Vec<usize> = groups_of(&plan).concat();
        assert_eq!(cols, (0..6).collect::<Vec<_>>());
        // Interior columns: 3 block rows of size 3 → dim 9.
        assert_eq!(plan.costs[2], 729.0);
        assert_eq!(plan.max_dim, 9);
    }

    #[test]
    fn consecutive_grouping() {
        let p = banded_pattern(7, 1);
        let d = BlockedDims::uniform(7, 2);
        let plan = PatternPlan::new(p.clone(), d.clone(), &Grouping::Consecutive(3));
        assert_eq!(plan.n_submatrices(), 3); // groups {0,1,2},{3,4,5},{6}
        assert_eq!(groups_of(&plan)[0], vec![0, 1, 2]);
        assert_eq!(groups_of(&plan)[2], vec![6]);
    }

    #[test]
    fn from_groups_partition_validation() {
        let p = banded_pattern(4, 1);
        let d = BlockedDims::uniform(4, 2);
        let groups = Grouping::Explicit(vec![vec![0, 1], vec![], vec![2, 3]]);
        let plan = PatternPlan::new(p.clone(), d.clone(), &groups);
        assert_eq!(groups_of(&plan), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn overlapping_groups_rejected() {
        let p = banded_pattern(3, 1);
        let d = BlockedDims::uniform(3, 2);
        PatternPlan::new(
            p.clone(),
            d.clone(),
            &Grouping::Explicit(vec![vec![0, 1], vec![1, 2]]),
        );
    }

    #[test]
    #[should_panic(expected = "cover every block column")]
    fn incomplete_groups_rejected() {
        let p = banded_pattern(3, 1);
        let d = BlockedDims::uniform(3, 2);
        PatternPlan::new(p.clone(), d.clone(), &Grouping::Explicit(vec![vec![0, 1]]));
    }

    #[test]
    fn combining_shared_neighborhoods_gives_speedup() {
        // Banded pattern: adjacent columns share most of their rows, so
        // combining them is a win under the n³ model (the Fig. 5 regime).
        let p = banded_pattern(40, 3);
        let d = BlockedDims::uniform(40, 2);
        let singles = PatternPlan::new(p.clone(), d.clone(), &Grouping::OnePerColumn);
        let combined = PatternPlan::new(p.clone(), d.clone(), &Grouping::Consecutive(4));
        let s = estimated_speedup(&singles, &combined);
        assert!(s > 1.0, "expected combining speedup, got {s}");
        // Over-combining into one giant submatrix destroys the advantage.
        let giant = PatternPlan::new(p.clone(), d.clone(), &Grouping::Consecutive(40));
        let s_giant = estimated_speedup(&singles, &giant);
        assert!(s_giant < s, "giant group should be worse than moderate");
    }

    #[test]
    fn total_cost_is_cubic_sum() {
        let p = banded_pattern(3, 0); // diagonal only
        let d = BlockedDims::uniform(3, 2);
        let plan = PatternPlan::new(p.clone(), d.clone(), &Grouping::OnePerColumn);
        assert_eq!(plan.total_cost, 3.0 * 8.0);
        assert_eq!(plan.avg_dim, 2.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// On random patterns holding every diagonal block, with block
        /// sizes 1–5, one submatrix per column, runs of 2–4 columns or an
        /// explicit partition (unsorted groups, one empty): one shared
        /// `PatternPlan` serves every rank of worlds 1–6, derived in
        /// descending rank order through the thread's one scratch, and
        /// each view is what a fresh plan derives on a fresh thread.
        #[test]
        fn rank_views_match_the_engine_plan(
            nb in 1usize..20,
            fill in 0u64..100,
            seed in 0u64..1000,
            grouping in 0usize..5,
        ) {
            let hash = |r: usize, c: usize| {
                (r as u64 * 7919 + c as u64 * 104_729 + seed * 31) % 1009 * 100 / 1009
            };
            let coords = (0..nb)
                .flat_map(|c| (0..nb).map(move |r| (r, c)))
                .filter(|&(r, c)| r == c || hash(r, c) < fill)
                .collect();
            let pattern = CooPattern::from_coords(coords, nb);
            let dims = BlockedDims::new((0..nb).map(|b| 1 + (3 * b + seed as usize) % 5).collect());
            let grouping = match grouping {
                0 => Grouping::OnePerColumn,
                4 => {
                    let k = 1 + seed as usize % 4;
                    let mut groups = vec![Vec::new(); k + 1];
                    for c in (0..nb).rev() {
                        groups[hash(c, c) as usize % k].push(c);
                    }
                    Grouping::Explicit(groups)
                }
                g => Grouping::Consecutive(g + 1),
            };
            let shared = PatternPlan::new(pattern.clone(), dims.clone(), &grouping);
            for size in 1..=6 {
                for rank in (0..size).rev() {
                    let fresh = std::thread::scope(|s| {
                        let fresh = || {
                            PatternPlan::new(pattern.clone(), dims.clone(), &grouping)
                                .rank_view(rank, size)
                        };
                        s.spawn(fresh).join().expect("fresh thread")
                    });
                    same_view(&shared.rank_view(rank, size), &fresh)?;
                }
            }
        }
    }
}
