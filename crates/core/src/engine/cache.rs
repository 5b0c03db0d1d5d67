//! The symbolic phase's product and its cache: an [`ExecutionPlan`] is
//! the pattern-wide [`PatternPlan`] composed with one rank's
//! [`RankView`](crate::plan::RankView) of it, cached per `(fingerprint,
//! rank, size, grouping)`. Purely local given the global pattern;
//! collective only for the hit/miss consensus and for obtaining the
//! pattern itself on a miss. [`ExecutionPlan::build`] is the one
//! constructor of a plan: a manifest import calls it as a miss does.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

use sm_comsim::Comm;
use sm_dbcsr::wire::PatternFingerprint;
use sm_dbcsr::{BlockedDims, CooPattern, DbcsrMatrix};

use super::{EngineOptions, SubmatrixEngine};
use crate::assembly::{AssemblyMap, ExtractionMap};
use crate::plan::PatternPlan;
use crate::transfers::TransferStats;

/// Product of the symbolic phase for one rank: everything the numeric
/// phase needs, with no remaining pattern queries. The global statistics
/// are its [`PatternPlan`]'s, the per-submatrix vectors its rank view's.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Fingerprint of the pattern + partition this plan was built for.
    pub fingerprint: PatternFingerprint,
    /// Rank this plan serves.
    pub rank: usize,
    /// Communicator size this plan serves.
    pub size: usize,
    /// The global block pattern this plan was built from, moved in by
    /// [`build`](Self::build). With `dims` it is all a plan is a function
    /// of, so it is what a manifest stores and import rebuilds from.
    pub pattern: CooPattern,
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
    /// Deduplicated remote block coordinates to gather each execution.
    pub remote_wanted: Vec<(usize, usize)>,
    /// Assembly copy program of each of this rank's submatrices.
    pub assembly: Vec<AssemblyMap>,
    /// Extraction copy program of each, parallel to `assembly`.
    pub extraction: Vec<ExtractionMap>,
    /// Contributing element columns of each (Algorithm 1).
    pub contributing: Vec<Vec<usize>>,
    /// Element fill of the pattern ([`PatternPlan::element_fill`]), what
    /// the numeric phase resolves its solve representation against.
    pub element_fill: f64,
    /// Seconds the symbolic phase took to build this plan.
    pub symbolic_seconds: f64,
}

impl ExecutionPlan {
    /// Run the full symbolic phase for one rank: the pattern-wide
    /// [`PatternPlan`] and this rank's [`RankView`](crate::plan::RankView)
    /// of it. Local: the caller supplies the (already global) pattern,
    /// which the plan keeps.
    pub fn build(
        pattern: CooPattern,
        dims: BlockedDims,
        opts: &EngineOptions,
        rank: usize,
        size: usize,
    ) -> ExecutionPlan {
        let t0 = Instant::now();
        let mut shared = PatternPlan::new(&pattern, &dims, &opts.grouping);
        let view = shared.rank_view(rank, size);
        ExecutionPlan {
            fingerprint: shared.fingerprint,
            rank,
            size,
            n_submatrices: shared.n_submatrices(),
            max_dim: shared.max_dim,
            avg_dim: shared.avg_dim,
            total_cost: shared.total_cost,
            element_fill: shared.element_fill,
            transfers: view.transfers,
            remote_wanted: view.remote_wanted,
            assembly: view.assembly,
            extraction: view.extraction,
            contributing: view.contributing,
            pattern,
            dims,
            symbolic_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

type CacheKey = (u64, usize, usize);

/// Plan cache with optional LRU bounding. Recency is a monotone stamp
/// bumped on every hit and insert; eviction scans for the minimum stamp —
/// O(entries), irrelevant next to the cost of the symbolic build that
/// triggers it.
#[derive(Default)]
pub(super) struct PlanCache {
    pub(super) map: HashMap<CacheKey, (Arc<ExecutionPlan>, u64)>,
    pub(super) tick: u64,
}

impl PlanCache {
    fn get(&mut self, key: &CacheKey) -> Option<Arc<ExecutionPlan>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(plan, stamp)| {
            *stamp = tick;
            Arc::clone(plan)
        })
    }

    /// Insert a plan, evicting least-recently-used entries while over
    /// `capacity`. Returns how many plans were evicted.
    fn insert(
        &mut self,
        key: CacheKey,
        plan: Arc<ExecutionPlan>,
        capacity: Option<usize>,
    ) -> usize {
        if capacity == Some(0) {
            return 0; // caching disabled; nothing retained, nothing evicted
        }
        self.tick += 1;
        self.map.insert(key, (plan, self.tick));
        let mut evicted = 0;
        while self.map.len() > capacity.unwrap_or(usize::MAX) {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| *k)
                .expect("cache over capacity implies nonempty");
            self.map.remove(&oldest);
            evicted += 1;
        }
        evicted
    }
}

impl SubmatrixEngine {
    /// The plan cache. A panic while the lock was held cannot leave the
    /// map half-updated (every update is one `HashMap` call), so a poisoned
    /// lock is recovered rather than propagated.
    pub(super) fn cache(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drop all cached plans (e.g. after a basis change invalidates every
    /// pattern this engine has seen). Not counted as evictions.
    pub fn clear_cache(&self) {
        self.cache().map.clear();
    }

    /// Number of cached plans.
    pub fn cached_plans(&self) -> usize {
        self.cache().map.len()
    }

    pub(super) fn cache_key(&self, fp: PatternFingerprint, rank: usize, size: usize) -> CacheKey {
        (fp.0 ^ self.opts.grouping.cache_tag(), rank, size)
    }

    fn insert(&self, key: CacheKey, plan: Arc<ExecutionPlan>) {
        let evicted = self
            .cache()
            .insert(key, plan, self.opts.plan_cache_capacity);
        self.counters
            .evictions
            .fetch_add(evicted, Ordering::Relaxed);
        if sm_trace::enabled() {
            if evicted > 0 {
                sm_trace::counter_add(
                    &sm_trace::scoped_root("plan_cache.evictions"),
                    evicted as u64,
                );
            }
            sm_trace::gauge_set(
                &sm_trace::scoped_root("plan_cache.occupancy"),
                self.cached_plans() as f64,
            );
        }
    }

    /// Symbolic phase on a distributed matrix (collective). A cache hit
    /// costs one local hash pass plus a small allreduce; only a miss
    /// gathers the global pattern.
    pub fn plan_for_matrix<C: Comm>(&self, m: &DbcsrMatrix, comm: &C) -> Arc<ExecutionPlan> {
        self.plan_for_matrix_traced(m, comm).0
    }

    /// Like [`plan_for_matrix`](Self::plan_for_matrix), additionally
    /// reporting whether *this call* built the plan (`true`) or found it
    /// cached (`false`). The flag is derived from this call's own
    /// miss/build path, so it stays accurate when the engine is shared
    /// between rank threads.
    ///
    /// Hit/miss is decided by **consensus**: when the engine is shared
    /// between concurrent rank groups (the scheduler's multi-tenant mode),
    /// one group's insert or the LRU's eviction can land between two ranks
    /// of another group probing the same fingerprint — without consensus
    /// the hitting rank would skip the collective pattern gather the
    /// missing rank is entering, and the group would deadlock. The extra
    /// allreduce is one scalar; on a hit everyone still skips the gather.
    ///
    /// The consensus is **per-group per-epoch**: it carries no state
    /// between calls — the allreduce runs on whatever communicator this
    /// call was handed — so a scheduler that tears groups down and
    /// re-splits the world between epochs (changing every `(rank, size)`
    /// cache key) can never leave two ranks of one group disagreeing
    /// about entering the gather. Each traced call increments exactly one
    /// of the hit/build counters, so `hits + builds` equals the number of
    /// planning decisions across all groups and epochs — the accounting
    /// identity the `stealing_equivalence` suite uses to detect divergent
    /// consensus. (Precision stays out of the cache key entirely; see the
    /// module docs.)
    pub fn plan_for_matrix_traced<C: Comm>(
        &self,
        m: &DbcsrMatrix,
        comm: &C,
    ) -> (Arc<ExecutionPlan>, bool) {
        let fp = m.pattern_fingerprint(comm);
        let key = self.cache_key(fp, comm.rank(), comm.size());
        let local_hit = self.cache().get(&key);
        let mut any_miss = [if local_hit.is_some() { 0.0 } else { 1.0 }];
        comm.allreduce_f64(sm_comsim::ReduceOp::Max, &mut any_miss);
        // At least one rank misses: every rank enters the collective
        // gather; ranks that hit locally keep their cached plan.
        let pattern = (any_miss[0] != 0.0).then(|| m.global_pattern(comm));
        let (plan, built) = match local_hit {
            Some(hit) => {
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                (hit, false)
            }
            None => {
                let pattern = pattern.expect("a local miss makes the consensus a miss");
                let (rank, size) = (comm.rank(), comm.size());
                let plan = ExecutionPlan::build(pattern, m.dims().clone(), &self.opts, rank, size);
                let plan = Arc::new(plan);
                self.counters.builds.fetch_add(1, Ordering::Relaxed);
                self.insert(key, Arc::clone(&plan));
                (plan, true)
            }
        };
        self.trace_plan_decision(&plan, built);
        (plan, built)
    }

    /// Narrate one traced planning decision. Exactly one `plan.decision`
    /// event fires per rank per planning call, so traced span trees stay
    /// deterministic; the hit/build *split* can shift with benign
    /// cross-group cache races (only `hits + builds` is pinned), so it
    /// rides in the event's fields and in counters, both of which are
    /// excluded from the deterministic tree rendering.
    fn trace_plan_decision(&self, plan: &ExecutionPlan, built: bool) {
        if !sm_trace::enabled() {
            return;
        }
        let _phase = sm_trace::span(sm_trace::SpanKind::Phase, "plan");
        // The plan phase's wall annotation is the symbolic work this call
        // paid for — what `EngineReport::symbolic_seconds` reports.
        let wall_s = if built { plan.symbolic_seconds } else { 0.0 };
        sm_trace::emit(
            "plan.decision",
            plan.total_cost,
            wall_s,
            &[("built", if built { 1.0 } else { 0.0 })],
        );
        sm_trace::counter_add(
            &sm_trace::scoped_root(if built {
                "plan_cache.builds"
            } else {
                "plan_cache.hits"
            }),
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{AssemblySlot, ExtractionSlot, SubmatrixSpec};
    use crate::engine::tests::banded_gapped;
    use crate::engine::Grouping;
    use crate::engine::{BackendPolicy, NumericOptions};
    use crate::loadbalance::greedy_contiguous;
    use crate::plan::column_groups;
    use crate::solver::{SignMethod, SolveBackend, SolveOptions};
    use crate::transfers::RankTransferPlan;
    use proptest::prelude::*;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_linalg::sign::sign_eig;
    use sm_linalg::Precision;

    /// [`ExecutionPlan::build`] as it was before each own group was walked
    /// once: the global spec list over every column group, priced spec by
    /// spec, and the rank's specs moved out of it and walked four times —
    /// for the assembly, the extraction, the contributing columns and the
    /// transfer references. The reference the one walk is held to.
    fn reference_build(
        pattern: CooPattern,
        dims: BlockedDims,
        opts: &EngineOptions,
        rank: usize,
        size: usize,
    ) -> ExecutionPlan {
        let fingerprint = pattern.fingerprint(&dims);
        let (cols, bounds) = column_groups(&opts.grouping, pattern.nb());
        let specs: Vec<SubmatrixSpec> = (bounds.windows(2))
            .map(|w| SubmatrixSpec::build(&pattern, &dims, &cols[w[0]..w[1]]))
            .collect();
        let costs: Vec<f64> = specs.iter().map(|s| s.cost()).collect();
        let assignment = greedy_contiguous(&costs, size);
        let my_range = assignment.ranges[rank].clone();
        let n_submatrices = specs.len();
        let max_dim = specs.iter().map(|s| s.dim).max().unwrap_or(0);
        let avg_dim = match n_submatrices {
            0 => 0.0,
            n => specs.iter().map(|s| s.dim as f64).sum::<f64>() / n as f64,
        };
        let (total_cost, mut my_specs) = (specs.iter().map(SubmatrixSpec::cost).sum(), specs);
        my_specs.truncate(my_range.end);
        my_specs.drain(..my_range.start);

        let required_blocks = |spec: &SubmatrixSpec| {
            let mut out = Vec::new();
            for &bc in &spec.rows {
                let inside = pattern
                    .rows_in_col(bc)
                    .filter(|&br| spec.position_of(br).is_some());
                out.extend(inside.map(|br| (br, bc)));
            }
            out
        };
        let mut unique: Vec<(usize, usize)> = my_specs.iter().flat_map(required_blocks).collect();
        let total_references = unique.len();
        unique.sort_unstable();
        unique.dedup();
        let transfer_plan = RankTransferPlan {
            unique_blocks: unique,
            total_references,
        };
        let mut transfers = TransferStats::default();
        transfers.add_rank(&transfer_plan, &dims);
        let grid = sm_dbcsr::process_grid(size);
        let remote_wanted: Vec<(usize, usize)> = (transfer_plan.unique_blocks.iter().copied())
            .filter(|&(br, bc)| grid.owner_of_block(br, bc) != rank)
            .collect();

        let assembly_of = |spec: &SubmatrixSpec| {
            let mut slots = Vec::new();
            for (pj, &bc) in spec.rows.iter().enumerate() {
                let col_off = spec.row_offsets[pj];
                for br in pattern.rows_in_col(bc) {
                    let Some(pi) = spec.position_of(br) else {
                        continue;
                    };
                    let row_off = spec.row_offsets[pi];
                    slots.push(AssemblySlot {
                        br,
                        bc,
                        row_off,
                        col_off,
                    });
                }
            }
            AssemblyMap {
                dim: spec.dim,
                slots,
            }
        };
        let extraction_of = |spec: &SubmatrixSpec| {
            let mut slots = Vec::new();
            let mut sel_base = 0usize;
            for &bc in &spec.cols {
                let (ncols, col_off) = (dims.size(bc), spec.offset_of(bc).unwrap());
                for br in pattern.rows_in_col(bc) {
                    let Some(pi) = spec.position_of(br) else {
                        continue;
                    };
                    slots.push(ExtractionSlot {
                        br,
                        bc,
                        row_off: spec.row_offsets[pi],
                        col_off,
                        sel_off: sel_base,
                        nrows: dims.size(br),
                        ncols,
                    });
                }
                sel_base += ncols;
            }
            ExtractionMap {
                slots,
                n_sel_cols: sel_base,
            }
        };
        let contributing_rows = |spec: &SubmatrixSpec| {
            let mut out = Vec::new();
            for &bc in &spec.cols {
                let off = spec.offset_of(bc).unwrap();
                out.extend(off..off + dims.size(bc));
            }
            out
        };
        let assembly = my_specs.iter().map(assembly_of).collect();
        let extraction = my_specs.iter().map(extraction_of).collect();
        let contributing = my_specs.iter().map(contributing_rows).collect();

        let n_elems = (dims.n() * dims.n()) as f64;
        let nnz_elems: f64 = pattern
            .entries()
            .iter()
            .map(|&(br, bc)| (dims.size(br) * dims.size(bc)) as f64)
            .sum();
        let element_fill = if n_elems > 0.0 {
            nnz_elems / n_elems
        } else {
            0.0
        };
        ExecutionPlan {
            fingerprint,
            rank,
            size,
            n_submatrices,
            max_dim,
            avg_dim,
            total_cost,
            pattern,
            dims,
            transfers,
            remote_wanted,
            assembly,
            extraction,
            contributing,
            element_fill,
            symbolic_seconds: 0.0,
        }
    }

    /// Every field of two plans but `symbolic_seconds` equal, `f64`s by
    /// bits. Destructured, so a new field must be named here.
    fn same_plan(new: &ExecutionPlan, old: &ExecutionPlan) -> Result<(), TestCaseError> {
        let ExecutionPlan {
            fingerprint,
            rank,
            size,
            pattern,
            dims,
            n_submatrices,
            max_dim,
            avg_dim,
            total_cost,
            transfers,
            remote_wanted,
            assembly,
            extraction,
            contributing,
            element_fill,
            symbolic_seconds: _,
        } = new;
        prop_assert_eq!(*fingerprint, old.fingerprint);
        prop_assert_eq!((*rank, *size), (old.rank, old.size));
        prop_assert_eq!(pattern, &old.pattern);
        prop_assert_eq!(dims, &old.dims);
        prop_assert_eq!((*n_submatrices, *max_dim), (old.n_submatrices, old.max_dim));
        prop_assert_eq!(avg_dim.to_bits(), old.avg_dim.to_bits());
        prop_assert_eq!(total_cost.to_bits(), old.total_cost.to_bits());
        prop_assert_eq!(element_fill.to_bits(), old.element_fill.to_bits());
        prop_assert_eq!(transfers, &old.transfers);
        prop_assert_eq!(remote_wanted, &old.remote_wanted);
        prop_assert_eq!(assembly, &old.assembly);
        prop_assert_eq!(extraction, &old.extraction);
        prop_assert_eq!(contributing, &old.contributing);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        /// The plan oracle. On random patterns holding every diagonal
        /// block, with block sizes 1–5 that differ between neighbours,
        /// one submatrix per column, runs of 2–4 columns or an explicit
        /// partition (unsorted groups, one empty), at every rank of worlds
        /// 1–6: the one walk builds the reference's plan.
        #[test]
        fn one_walk_builds_the_reference_plan(
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
            let opts = EngineOptions { grouping, ..EngineOptions::default() };
            for size in 1..=6 {
                for rank in 0..size {
                    let new = ExecutionPlan::build(pattern.clone(), dims.clone(), &opts, rank, size);
                    let old = reference_build(pattern.clone(), dims.clone(), &opts, rank, size);
                    same_plan(&new, &old)?;
                }
            }
        }
    }

    #[test]
    fn repeated_executions_do_zero_symbolic_work() {
        let (dense, dims) = banded_gapped(6, 2);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let mut first = None;
        for it in 0..5 {
            // Values change every iteration; the pattern does not.
            let mut scaled = dense.clone();
            scaled.scale(1.0 + 0.1 * it as f64);
            let m = DbcsrMatrix::from_dense(&scaled, dims.clone(), 0, 1, 0.0);
            let (_, report) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
            if it == 0 {
                assert!(!report.plan_cached);
                first = Some(report);
            } else {
                assert!(report.plan_cached, "iteration {it} re-planned");
                assert_eq!(report.symbolic_seconds, 0.0);
            }
        }
        let stats = engine.stats();
        assert_eq!(stats.symbolic_builds, 1);
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.executions, 5);
        assert!(first.unwrap().symbolic_seconds > 0.0);
        assert_eq!(engine.cached_plans(), 1);
    }

    #[test]
    fn different_patterns_get_different_plans() {
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let (d1, dims1) = banded_gapped(5, 2);
        let (d2, dims2) = banded_gapped(7, 2);
        let m1 = DbcsrMatrix::from_dense(&d1, dims1, 0, 1, 0.0);
        let m2 = DbcsrMatrix::from_dense(&d2, dims2, 0, 1, 0.0);
        engine.sign(&m1, 0.0, &NumericOptions::default(), &comm);
        engine.sign(&m2, 0.0, &NumericOptions::default(), &comm);
        engine.sign(&m1, 0.0, &NumericOptions::default(), &comm);
        let stats = engine.stats();
        assert_eq!(stats.symbolic_builds, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(engine.cached_plans(), 2);
        engine.clear_cache();
        assert_eq!(engine.cached_plans(), 0);
    }

    #[test]
    fn lru_evicts_and_replans_deterministically() {
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(2),
            ..EngineOptions::default()
        });
        let mats: Vec<DbcsrMatrix> = [4, 6, 8]
            .iter()
            .map(|&nb| {
                let (d, dims) = banded_gapped(nb, 2);
                DbcsrMatrix::from_dense(&d, dims, 0, 1, 0.0)
            })
            .collect();
        // Fill: A, B -> both cached.
        engine.plan_for_matrix(&mats[0], &comm);
        engine.plan_for_matrix(&mats[1], &comm);
        assert_eq!(engine.cached_plans(), 2);
        assert_eq!(engine.stats().evictions, 0);
        // Touch A (now most recent), insert C -> B is the LRU victim.
        engine.plan_for_matrix(&mats[0], &comm);
        engine.plan_for_matrix(&mats[2], &comm);
        assert_eq!(engine.cached_plans(), 2);
        assert_eq!(engine.stats().evictions, 1);
        // A and C hit; B must re-plan (deterministically, every round).
        let (_, a_built) = engine.plan_for_matrix_traced(&mats[0], &comm);
        let (_, c_built) = engine.plan_for_matrix_traced(&mats[2], &comm);
        assert!(!a_built && !c_built, "survivors must still be cached");
        let (_, b_built) = engine.plan_for_matrix_traced(&mats[1], &comm);
        assert!(b_built, "evicted plan must be rebuilt");
        let stats = engine.stats();
        assert_eq!(stats.symbolic_builds, 4); // A, B, C, B again
        assert_eq!(stats.evictions, 2); // B once, then A or C for B's return
    }

    #[test]
    fn stats_windows_read_without_a_scheduler() {
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(2),
            ..EngineOptions::default()
        });
        let (d, dims) = banded_gapped(4, 2);
        let m = DbcsrMatrix::from_dense(&d, dims, 0, 1, 0.0);
        let before = engine.stats();
        engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let window = engine.stats().since(&before);
        assert_eq!(window.symbolic_builds, 1);
        assert_eq!(window.cache_hits, 1);
        assert_eq!(window.executions, 2);
        assert_eq!(window.evictions, 0);
        // Saturating: a stale "later" snapshot cannot underflow.
        assert_eq!(before.since(&engine.stats()).executions, 0);
    }

    #[test]
    fn capacity_one_cache_never_reuses_wrong_plan() {
        // Two alternating patterns through a capacity-1 cache: every access
        // evicts the other, every execution must still be correct.
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(1),
            ..EngineOptions::default()
        });
        let (d1, dims1) = banded_gapped(5, 2);
        let (d2, dims2) = banded_gapped(8, 2);
        let m1 = DbcsrMatrix::from_dense(&d1, dims1, 0, 1, 0.0);
        let m2 = DbcsrMatrix::from_dense(&d2, dims2, 0, 1, 0.0);
        let e1 = sign_eig(&d1).unwrap();
        let e2 = sign_eig(&d2).unwrap();
        for _ in 0..3 {
            let (s1, _) = engine.sign(&m1, 0.0, &NumericOptions::default(), &comm);
            assert!(s1.to_dense(&comm).max_abs_diff(&e1) < 0.05);
            let (s2, _) = engine.sign(&m2, 0.0, &NumericOptions::default(), &comm);
            assert!(s2.to_dense(&comm).max_abs_diff(&e2) < 0.05);
        }
        let stats = engine.stats();
        assert_eq!(engine.cached_plans(), 1);
        assert_eq!(stats.symbolic_builds, 6, "thrashing replans every access");
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.evictions, 5);
        assert_eq!(stats.executions, 6);
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(0),
            ..EngineOptions::default()
        });
        let (d, dims) = banded_gapped(4, 2);
        let m = DbcsrMatrix::from_dense(&d, dims, 0, 1, 0.0);
        engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let stats = engine.stats();
        assert_eq!(engine.cached_plans(), 0);
        assert_eq!(stats.symbolic_builds, 2);
        assert_eq!(stats.cache_hits, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn one_plan_serves_every_precision() {
        // Precision is numeric-only: all three modes hit the same cached
        // plan (no fingerprint or cache-key contamination), and their
        // results agree within the documented tolerances.
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let mut results = Vec::new();
        for precision in Precision::all() {
            let numeric = NumericOptions {
                precision,
                ..NumericOptions::default()
            };
            let (sign, report) = engine.sign(&m, 0.0, &numeric, &comm);
            assert_eq!(report.precision, precision);
            results.push(sign.to_dense(&comm));
        }
        let stats = engine.stats();
        assert_eq!(stats.symbolic_builds, 1, "precision must share one plan");
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(engine.cached_plans(), 1);
        assert!(results[1].max_abs_diff(&results[0]) < 1e-4, "fp32 vs fp64");
        assert!(
            results[2].max_abs_diff(&results[0]) < 1e-6,
            "fp32-refined vs fp64: {}",
            results[2].max_abs_diff(&results[0])
        );
    }

    #[test]
    fn one_plan_serves_both_solve_backends() {
        // The solve backend, like precision, is numeric-only: forcing
        // Dense and SparseCsr against the same engine shares one cached
        // plan (no fingerprint or cache-key contamination), and at
        // eps = 0 the sparse solve agrees with dense to 1e-10.
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let mut results = Vec::new();
        for policy in [BackendPolicy::Dense, BackendPolicy::SparseCsr] {
            let numeric = NumericOptions {
                backend: policy,
                solve: SolveOptions {
                    method: SignMethod::Pade(2),
                    ..SolveOptions::default()
                },
                ..NumericOptions::default()
            };
            let (sign, report) = engine.sign(&m, 0.0, &numeric, &comm);
            let expected = match policy {
                BackendPolicy::SparseCsr => SolveBackend::SparseCsr,
                _ => SolveBackend::Dense,
            };
            assert_eq!(report.backend, expected);
            if expected == SolveBackend::SparseCsr {
                assert!(report.sparse_flops > 0, "sparse path must count flops");
            }
            results.push(sign.to_dense(&comm));
        }
        let stats = engine.stats();
        assert_eq!(stats.symbolic_builds, 1, "backends must share one plan");
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(engine.cached_plans(), 1);
        assert!(
            results[1].max_abs_diff(&results[0]) < 1e-10,
            "sparse vs dense at eps = 0: {}",
            results[1].max_abs_diff(&results[0])
        );
    }

    #[test]
    fn consensus_survives_regrouping_with_bounded_cache() {
        // The scheduler's epoch pattern: the same engine (bounded cache)
        // is planned through by 2-rank groups, then — after a drop and a
        // fresh world-level re-split — by one 4-rank group. Every
        // membership change alters the (rank, size) keys, so the second
        // epoch's probes all miss; the per-call consensus must walk every
        // rank of the new group into the collective gather together (a
        // divergence deadlocks the barriered world). Counters: each traced
        // call bumps exactly one of hits/builds, so their sum equals the
        // 4 + 4 planning decisions regardless of cache races.
        let (dense, dims) = banded_gapped(8, 2);
        let serial = {
            let comm = SerialComm::new();
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.0, &NumericOptions::default(), &comm)
                .0
                .to_dense(&comm)
        };
        let engine = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(2),
            ..EngineOptions::default()
        });
        let (results, _) = run_ranks(4, |c| {
            // Epoch 0: two groups of two.
            let a = {
                let sub = c.split((c.rank() / 2) as u64, c.rank() as u64);
                let m = DbcsrMatrix::from_dense(&dense, dims.clone(), sub.rank(), sub.size(), 0.0);
                engine
                    .sign(&m, 0.0, &NumericOptions::default(), &sub)
                    .0
                    .to_dense(&sub)
            };
            // Epoch boundary: regroup into one group of four.
            let b = {
                let sub = c.split(1 << 32, c.rank() as u64);
                let m = DbcsrMatrix::from_dense(&dense, dims.clone(), sub.rank(), sub.size(), 0.0);
                engine
                    .sign(&m, 0.0, &NumericOptions::default(), &sub)
                    .0
                    .to_dense(&sub)
            };
            (a, b)
        });
        for (a, b) in results {
            assert!(a.allclose(&serial, 1e-13));
            assert!(b.allclose(&serial, 1e-13));
        }
        let stats = engine.stats();
        assert_eq!(
            stats.cache_hits + stats.symbolic_builds,
            8,
            "every rank decides hit/miss once per epoch: {stats:?}"
        );
        assert_eq!(stats.executions, 8);
        assert!(engine.cached_plans() <= 2, "bounded cache overflowed");
    }
}
