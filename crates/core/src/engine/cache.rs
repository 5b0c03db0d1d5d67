//! The plan cache: one entry per pattern, keyed by `(fingerprint,
//! grouping)`. An entry is the pattern's [`PatternPlan`] plus the rank
//! views ([`ExecutionPlan`]s) derived from it so far, memoised per `(rank,
//! size)`. Collective only for the hit/miss consensus and for obtaining
//! the pattern itself when some rank lacks it; a rank holding the pattern
//! derives a missing view locally. [`PatternPlan::new`] is the one
//! constructor of an entry, and a miss the one caller.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

use sm_comsim::Comm;
use sm_dbcsr::wire::PatternFingerprint;
use sm_dbcsr::DbcsrMatrix;

use super::SubmatrixEngine;
use crate::plan::{ExecutionPlan, PatternPlan};

/// What one planning call did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planning {
    /// The rank lacked the pattern: the call gathered it (a miss).
    pub built: bool,
    /// Seconds of symbolic work the call did: 0 when the rank's view was
    /// cached, the view's when derived from a cached pattern, the pattern
    /// plan's and the view's on a miss.
    pub symbolic_seconds: f64,
}

/// One cached pattern: its plan and the views derived from it.
struct CachedPattern {
    plan: Arc<PatternPlan>,
    views: Vec<Arc<ExecutionPlan>>,
}

/// A probe's find: the pattern plan and, if memoised, the rank's view.
type Found = (Arc<PatternPlan>, Option<Arc<ExecutionPlan>>);

/// Plan cache: every pattern planned stays until
/// [`SubmatrixEngine::clear_cache`].
#[derive(Default)]
pub(super) struct PlanCache {
    map: HashMap<u64, CachedPattern>,
}

impl PlanCache {
    /// `key`'s pattern plan and, if memoised, the view of `(rank, size)`.
    fn get(&self, key: u64, rank: usize, size: usize) -> Option<Found> {
        let entry = self.map.get(&key)?;
        let view = entry
            .views
            .iter()
            .find(|v| (v.rank, v.size) == (rank, size));
        Some((Arc::clone(&entry.plan), view.cloned()))
    }

    /// Memoise `view` in `key`'s entry, inserting it with `plan` if absent
    /// (without `plan`, an entry cleared since the probe stays cleared).
    fn remember(&mut self, key: u64, plan: Option<&Arc<PatternPlan>>, view: &Arc<ExecutionPlan>) {
        let entry = match (self.map.entry(key), plan) {
            (Entry::Occupied(entry), _) => entry.into_mut(),
            (Entry::Vacant(entry), Some(plan)) => entry.insert(CachedPattern {
                plan: Arc::clone(plan),
                views: Vec::new(),
            }),
            (Entry::Vacant(_), None) => return,
        };
        if !entry
            .views
            .iter()
            .any(|v| (v.rank, v.size) == (view.rank, view.size))
        {
            entry.views.push(Arc::clone(view));
        }
    }
}

impl SubmatrixEngine {
    /// The plan cache. A panic while the lock was held cannot leave an
    /// entry half-updated (each update is one call), so a poisoned lock is
    /// recovered rather than propagated.
    fn cache(&self) -> MutexGuard<'_, PlanCache> {
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Drop all cached plans (e.g. after a basis change invalidates every
    /// pattern this engine has seen).
    pub fn clear_cache(&self) {
        self.cache().map.clear();
    }

    /// Number of cached patterns (each with the rank views derived from it).
    pub fn cached_plans(&self) -> usize {
        self.cache().map.len()
    }

    fn cache_key(&self, fp: PatternFingerprint) -> u64 {
        fp.0 ^ self.opts.grouping.cache_tag()
    }

    /// Derive `rank`'s view of `shared` and memoise it in `key`'s entry,
    /// inserting the entry first on a miss (`insert`).
    fn derive(
        &self,
        key: u64,
        shared: &Arc<PatternPlan>,
        insert: bool,
        (rank, size): (usize, usize),
    ) -> Arc<ExecutionPlan> {
        let view = Arc::new(shared.rank_view(rank, size));
        (self.cache()).remember(key, insert.then_some(shared), &view);
        view
    }

    /// Symbolic phase on a distributed matrix (collective). A cache hit
    /// costs one local hash pass plus a small allreduce; only a pattern
    /// some rank lacks is gathered.
    pub fn plan_for_matrix<C: Comm>(&self, m: &DbcsrMatrix, comm: &C) -> Arc<ExecutionPlan> {
        self.plan_for_matrix_traced(m, comm).0
    }

    /// Like [`plan_for_matrix`](Self::plan_for_matrix), additionally
    /// reporting what *this call* did — its own path, so it stays accurate
    /// when rank threads share the engine.
    ///
    /// Whether to gather is decided by **consensus** (ARCHITECTURE,
    /// Invariant 1): a concurrent group's insert or a `clear_cache` can land
    /// between two ranks of one group probing the same pattern, and a rank
    /// holding it must not skip the collective gather a rank lacking it
    /// enters. The allreduce is one scalar per call on the communicator
    /// handed in, "does any rank lack the pattern?", with no state between
    /// calls, so regrouping between epochs cannot diverge it. A rank
    /// holding the pattern but not its view derives the view locally. Each
    /// call counts one hit (a derivation included, also counted in
    /// `view_derivations`) or one build, so `hits + builds` equals the
    /// planning decisions across all groups and epochs.
    pub fn plan_for_matrix_traced<C: Comm>(
        &self,
        m: &DbcsrMatrix,
        comm: &C,
    ) -> (Arc<ExecutionPlan>, Planning) {
        let (rank, size) = (comm.rank(), comm.size());
        let key = self.cache_key(m.pattern_fingerprint(comm));
        let local = self.cache().get(key, rank, size);
        let mut any_miss = [if local.is_some() { 0.0 } else { 1.0 }];
        comm.allreduce_f64(sm_comsim::ReduceOp::Max, &mut any_miss);
        // Some rank lacks the pattern: every rank enters the collective
        // gather; ranks that hold it keep their cached pattern plan.
        let pattern = (any_miss[0] != 0.0).then(|| m.global_pattern(comm));
        // The call's symbolic work is timed unless the view was cached.
        let t0 = (!matches!(local, Some((_, Some(_))))).then(Instant::now);
        let c = &self.counters;
        let (plan, built) = match local {
            Some((_, Some(view))) => (view, false),
            Some((shared, None)) => {
                c.view_derivations.fetch_add(1, Ordering::Relaxed);
                (self.derive(key, &shared, false, (rank, size)), false)
            }
            None => {
                let pattern = pattern.expect("a local miss makes the consensus a miss");
                let grouping = &self.opts.grouping;
                let shared = Arc::new(PatternPlan::new(pattern, m.dims().clone(), grouping));
                (self.derive(key, &shared, true, (rank, size)), true)
            }
        };
        (if built { &c.builds } else { &c.hits }).fetch_add(1, Ordering::Relaxed);
        let planning = Planning {
            built,
            symbolic_seconds: t0.map_or(0.0, |t| t.elapsed().as_secs_f64()),
        };
        self.trace_plan_decision(&plan, planning);
        (plan, planning)
    }

    /// Narrate one traced planning decision: exactly one `plan.decision`
    /// event per rank per call, so span trees stay deterministic; the
    /// hit/build *split* can shift with benign cross-group races, so it
    /// rides in the event's fields — with the cache's occupancy after the
    /// call — which the deterministic tree rendering excludes.
    fn trace_plan_decision(&self, plan: &ExecutionPlan, planning: Planning) {
        if !sm_trace::enabled() {
            return;
        }
        let _phase = sm_trace::span(sm_trace::SpanKind::Phase, "plan");
        // The plan phase's wall annotation is the symbolic work this call
        // paid for — what `EngineReport::symbolic_seconds` reports.
        sm_trace::emit(
            "plan.decision",
            plan.total_cost,
            planning.symbolic_seconds,
            &[
                ("built", if planning.built { 1.0 } else { 0.0 }),
                ("occupancy", self.cached_plans() as f64),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assembly::{
        AssemblyMap, AssemblySlot, ExtractionMap, ExtractionSlot, SubmatrixSpec,
    };
    use crate::engine::tests::banded_gapped;
    use crate::engine::{BackendPolicy, EngineOptions, Grouping, NumericOptions};
    use crate::loadbalance::greedy_contiguous;
    use crate::plan::column_groups;
    use crate::plan::tests::same_view;
    use crate::solver::{SignMethod, SolveBackend, SolveOptions};
    use crate::transfers::TransferStats;
    use proptest::prelude::*;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_dbcsr::{BlockedDims, CooPattern};
    use sm_linalg::sign::sign_eig;
    use sm_linalg::Precision;

    /// A rank's plan as it was built before each own group was walked
    /// once: the global spec list over every column group, priced spec by
    /// spec, and the rank's specs moved out of it and walked four times —
    /// for the assembly, the extraction, the contributing columns and the
    /// transfer references, the last deduplicated by one sort of the
    /// coordinates. The reference the one walk is held to.
    fn reference_build(
        pattern: CooPattern,
        dims: BlockedDims,
        opts: &EngineOptions,
        rank: usize,
        size: usize,
    ) -> ExecutionPlan {
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
        let unique_bytes: u64 = (unique.iter())
            .map(|&(br, bc)| (dims.size(br) * dims.size(bc) * 8) as u64)
            .sum();
        let mut transfers = TransferStats {
            unique_bytes,
            unique_blocks: unique.len() as u64,
            total_references: total_references as u64,
            ..TransferStats::default()
        };
        if !unique.is_empty() {
            let avg_block_bytes = unique_bytes as f64 / unique.len() as f64;
            transfers.naive_bytes = (avg_block_bytes * total_references as f64) as u64;
        }
        let grid = sm_dbcsr::process_grid(size);
        let remote_wanted: Vec<(usize, usize)> = (unique.iter().copied())
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
            (slots, spec.dim)
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
            slots
        };
        let contributing_rows = |spec: &SubmatrixSpec| {
            let mut out = Vec::new();
            for &bc in &spec.cols {
                let off = spec.offset_of(bc).unwrap();
                out.extend(off..off + dims.size(bc));
            }
            out
        };
        // Each run in a buffer of its own: views compare their runs,
        // wherever the runs sit.
        let assembly = (my_specs.iter().map(assembly_of))
            .map(|(slots, dim)| AssemblyMap {
                dim,
                slots: slots.into(),
            })
            .collect();
        let extraction = (my_specs.iter())
            .map(|spec| ExtractionMap {
                dim: spec.dim,
                slots: extraction_of(spec).into(),
                contributing: contributing_rows(spec).into(),
            })
            .collect();

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
            rank,
            size,
            n_submatrices,
            max_dim,
            avg_dim,
            total_cost,
            dims,
            transfers,
            remote_wanted,
            assembly,
            extraction,
            element_fill,
        }
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
                    let shared = PatternPlan::new(pattern.clone(), dims.clone(), &opts.grouping);
                    let old = reference_build(pattern.clone(), dims.clone(), &opts, rank, size);
                    same_view(&shared.rank_view(rank, size), &old)?;
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
    fn stats_windows_read_without_a_scheduler() {
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let (d, dims) = banded_gapped(4, 2);
        let m = DbcsrMatrix::from_dense(&d, dims, 0, 1, 0.0);
        let before = engine.stats();
        engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let window = engine.stats().since(&before);
        assert_eq!(window.symbolic_builds, 1);
        assert_eq!(window.cache_hits, 1);
        assert_eq!(window.executions, 2);
        // Saturating: a stale "later" snapshot cannot underflow.
        assert_eq!(before.since(&engine.stats()).executions, 0);
    }

    #[test]
    fn alternating_patterns_never_reuse_a_wrong_plan() {
        // Two alternating patterns through one cache: each access finds
        // its own pattern's plan, and every execution is correct.
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
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
        assert_eq!(engine.cached_plans(), 2);
        assert_eq!(stats.symbolic_builds, 2, "one build per pattern");
        assert_eq!(stats.cache_hits, 4);
        assert_eq!(stats.executions, 6);
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
    fn consensus_survives_regrouping() {
        // The scheduler's epoch pattern: the same engine is planned
        // through by 2-rank groups, then — after a drop and a fresh
        // world-level re-split — by one 4-rank group. The first
        // epoch's probes race on one pattern, and the per-call consensus
        // must walk every rank of a group into the collective gather
        // together when any of them lacks the pattern (a divergence
        // deadlocks the barriered world). The second epoch's group holds
        // the pattern on every rank but none of its (rank, size) views:
        // each rank derives its own, and nobody gathers. Counters: each
        // traced call bumps exactly one of hits/builds, so their sum equals
        // the 4 + 4 planning decisions regardless of cache races.
        let (dense, dims) = banded_gapped(8, 2);
        let serial = {
            let comm = SerialComm::new();
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.0, &NumericOptions::default(), &comm)
                .0
                .to_dense(&comm)
        };
        let engine = SubmatrixEngine::default();
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
            // Epoch boundary: every rank has planned epoch 0 before any
            // reads the counters, and none plans epoch 1 before all have.
            c.barrier();
            let first = engine.stats();
            c.barrier();
            // Regroup into one group of four.
            let b = {
                let sub = c.split(1 << 32, c.rank() as u64);
                let m = DbcsrMatrix::from_dense(&dense, dims.clone(), sub.rank(), sub.size(), 0.0);
                engine
                    .sign(&m, 0.0, &NumericOptions::default(), &sub)
                    .0
                    .to_dense(&sub)
            };
            (a, b, first)
        });
        let first = results[0].2;
        for (a, b, _) in results {
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
        let second = engine.stats().since(&first);
        assert_eq!(
            (second.symbolic_builds, second.view_derivations),
            (0, 4),
            "the regrouped epoch derives its views from the cached pattern"
        );
    }
}
