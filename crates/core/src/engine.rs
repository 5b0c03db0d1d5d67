//! The persistent submatrix engine: symbolic/numeric phase split with plan
//! caching.
//!
//! In the paper's target workload (SCF iterations inside CP2K, Sec. IV) the
//! sparsity pattern is *fixed* across iterations while matrix values
//! change, so the whole symbolic pipeline — global pattern, column
//! grouping, load balancing, deduplicated transfer planning, assembly index
//! computation — is hoisted into a one-time **symbolic phase** whose
//! product, an [`ExecutionPlan`], is cached under a cheap
//! [pattern fingerprint](sm_dbcsr::wire::PatternFingerprint) and replayed
//! by an allocation-light **numeric phase**:
//!
//! * **symbolic** (`plan*`): `SubmatrixPlan` → greedy `n³` load balance →
//!   [`RankTransferPlan`] → flat assembly/extraction index maps. Purely
//!   local given the global pattern; collective only for obtaining the
//!   pattern itself on a cache miss.
//! * **numeric** (`execute*`): gather values along the cached transfer
//!   plan, assemble through the cached index maps, solve with any
//!   [`SignMethod`], bisect µ on the stored decompositions for canonical
//!   ensembles, scatter results. No pattern queries, no re-planning.
//!
//! The engine is an SPMD object like [`DbcsrMatrix`]: every rank calls the
//! same methods collectively. Plans are cached per `(fingerprint, rank,
//! size, grouping)`, so one engine instance may be shared between
//! rank-per-thread executors.
//!
//! **Precision is numeric-phase-only.** [`NumericOptions::precision`]
//! selects the solve kernels' scalar type and the wire encoding of
//! gathered/scattered block values (`f32` payloads move half the bytes),
//! but it deliberately does **not** appear in the pattern fingerprint, the
//! plan-cache key, or any symbolic decision: precision changes *values*,
//! never *patterns*, so one cached plan serves every precision — and the
//! collective hit/miss consensus below stays precision-blind (two groups
//! running the same pattern at different precisions must still agree on
//! hit/miss, or they would deadlock in the pattern gather).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use rayon::prelude::*;

use sm_comsim::Comm;
use sm_dbcsr::wire::{PatternFingerprint, ValueFormat};
use sm_dbcsr::{ops, wire, BlockedDims, CooPattern, DbcsrMatrix};
use sm_linalg::{Matrix, Precision};

use crate::assembly::SubmatrixSpec;
pub use crate::assembly::{AssemblyMap, AssemblySlot, ExtractionMap, ExtractionSlot};
use crate::loadbalance::greedy_contiguous;
use crate::mu::{adjust_mu, contributing_rows, StoredDecomposition};
use crate::plan::SubmatrixPlan;
use crate::solver::{
    sign_columns_from_decomposition, sign_from_decomposition, solve_sign, SignMethod, SolveBackend,
    SolveOptions, SolveResult,
};
use crate::transfers::{RankTransferPlan, TransferStats};

/// How block columns are grouped into submatrices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Grouping {
    /// One submatrix per block column (the method's default).
    OnePerColumn,
    /// Combine runs of this many consecutive block columns (the
    /// evaluation's greedy heuristic).
    Consecutive(usize),
    /// Explicit column groups (from the clustering heuristics).
    Explicit(Vec<Vec<usize>>),
}

impl Grouping {
    /// Stable hash of the grouping, mixed into plan-cache keys.
    fn cache_tag(&self) -> u64 {
        use sm_dbcsr::wire::mix64 as mix;
        match self {
            Grouping::OnePerColumn => mix(1),
            Grouping::Consecutive(g) => mix(2 ^ ((*g as u64) << 8)),
            Grouping::Explicit(groups) => {
                let mut h = mix(3);
                for g in groups {
                    h = mix(h ^ (g.len() as u64) << 32);
                    for &c in g {
                        h = mix(h ^ c as u64);
                    }
                }
                h
            }
        }
    }
}

/// Statistical ensemble of the density-matrix computation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Ensemble {
    /// Fixed chemical potential (paper's evaluation mode, Sec. V).
    #[default]
    GrandCanonical,
    /// Fixed electron count: µ adjusted by Algorithm 1. Requires the
    /// diagonalization solver.
    Canonical {
        /// Target electron count (closed shell: 2 per occupied orbital).
        n_electrons: f64,
        /// Electron-count tolerance.
        tol: f64,
        /// Bisection budget.
        max_iter: usize,
    },
}

/// Symbolic-phase configuration: everything that shapes an
/// [`ExecutionPlan`]. Numeric knobs live in [`NumericOptions`] so one plan
/// serves every solver and ensemble.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Column grouping strategy.
    pub grouping: Grouping,
    /// Solve local submatrices in parallel over the shared pool.
    pub parallel: bool,
    /// Plan-cache capacity in *entries* (plans), evicted least-recently-
    /// used by `(fingerprint, rank, size)` key. `None` (the default) keeps
    /// every plan, the historical behavior. Note that plans are per-rank:
    /// a pattern evaluated by a `size`-rank communicator occupies `size`
    /// entries, so long-running multi-tenant services should budget
    /// `capacity ≥ live_patterns × world_size`. `Some(0)` disables caching
    /// entirely (every call replans; nothing is retained).
    pub plan_cache_capacity: Option<usize>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            grouping: Grouping::OnePerColumn,
            parallel: true,
            plan_cache_capacity: None,
        }
    }
}

/// Element-fill fraction below which [`BackendPolicy::Auto`] routes
/// iterative solves through the sparse CSR backend. Paper Sec. V-C: DZVP
/// submatrices are block-dense but element-wise < 20% full, which is where
/// filtered Gustavson multiplication beats the dense kernels.
pub const SPARSE_FILL_THRESHOLD: f64 = 0.2;

/// Engine-level solve-backend selection, resolved per execution against
/// the plan's element fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendPolicy {
    /// Choose from the element fill the symbolic phase computed: below
    /// [`SPARSE_FILL_THRESHOLD`] the iterative solves run sparse, else
    /// dense. The fill is a deterministic plan property, identical on all
    /// ranks, so every rank resolves the same backend.
    #[default]
    Auto,
    /// Force the dense kernels.
    Dense,
    /// Force the element-wise sparse CSR backend.
    SparseCsr,
}

impl BackendPolicy {
    /// Resolve the policy to a concrete [`SolveBackend`] for a plan with
    /// the given element fill. This is the single definition both the
    /// engine (routing the solve) and the scheduler (costing the job)
    /// apply, so they can never disagree about which backend a job runs.
    pub fn resolve(self, element_fill: f64) -> SolveBackend {
        match self {
            BackendPolicy::Dense => SolveBackend::Dense,
            BackendPolicy::SparseCsr => SolveBackend::SparseCsr,
            BackendPolicy::Auto => {
                if element_fill < SPARSE_FILL_THRESHOLD {
                    SolveBackend::SparseCsr
                } else {
                    SolveBackend::Dense
                }
            }
        }
    }
}

/// Numeric-phase configuration; may vary call-to-call on one cached plan.
/// The default is the paper's method of choice: diagonalization at fixed µ,
/// `Fp64`, backend chosen from the plan's fill.
#[derive(Debug, Clone, Copy, Default)]
pub struct NumericOptions {
    /// Per-submatrix solver configuration.
    pub solve: SolveOptions,
    /// Ensemble handling.
    pub ensemble: Ensemble,
    /// Compute only the *contributing* columns of each submatrix's sign
    /// function (the paper's Sec. VII future-work optimization). Requires
    /// the diagonalization solver, a grand-canonical ensemble, and `Fp64`.
    pub use_selected_columns: bool,
    /// Numeric precision of the whole execution (paper Sec. VI): the dense
    /// solve kernels *and* the value encoding of the rank-transfer wire.
    /// With `Fp32`/`Fp32Refined` the gather moves `f32` value payloads
    /// (half the bytes); plain `Fp32` also scatters results as `f32`
    /// (losslessly — the solve rounds its output to `f32` storage), while
    /// `Fp32Refined` scatters its `f64` refinement intact. Overrides
    /// `solve.precision` during execution: the engine-level source of
    /// truth, and numeric-phase-only (module docs).
    pub precision: Precision,
    /// Solve-backend policy (paper Sec. V-C). Resolved against the plan's
    /// [`ExecutionPlan::element_fill`] at execution time and threaded into
    /// `solve.backend` the same way `precision` overrides
    /// `solve.precision`; numeric-phase-only like it.
    pub backend: BackendPolicy,
}

/// Product of the symbolic phase for one rank: everything the numeric
/// phase needs, with no remaining pattern queries.
#[derive(Debug, Clone)]
pub struct ExecutionPlan {
    /// Fingerprint of the pattern + partition this plan was built for.
    pub fingerprint: PatternFingerprint,
    /// Rank this plan serves.
    pub rank: usize,
    /// Communicator size this plan serves.
    pub size: usize,
    /// Nonzero blocks of the pattern this plan was built from. The pattern
    /// itself is *not* retained: the assembly/extraction maps resolved
    /// every query symbolically, and dropping it keeps cached plans small.
    pub pattern_nnz: usize,
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
    /// This rank's submatrix specs (a contiguous chunk of the global plan).
    pub my_specs: Vec<SubmatrixSpec>,
    /// This rank's transfer statistics.
    pub transfers: TransferStats,
    /// Deduplicated remote block coordinates to gather each execution.
    pub remote_wanted: Vec<(usize, usize)>,
    /// Assembly copy programs, parallel to `my_specs`.
    pub assembly: Vec<AssemblyMap>,
    /// Extraction copy programs, parallel to `my_specs`.
    pub extraction: Vec<ExtractionMap>,
    /// Contributing element columns per spec (Algorithm 1 / selected
    /// columns).
    pub contributing: Vec<Vec<usize>>,
    /// Element-level fill fraction of the pattern: `Σ size(br)·size(bc)`
    /// over nonzero blocks, divided by `n²`. A deterministic global plan
    /// property (identical on every rank), it is what the numeric phase
    /// resolves its solve representation against (paper Sec. V-C).
    pub element_fill: f64,
    /// Seconds the symbolic phase took to build this plan.
    pub symbolic_seconds: f64,
}

impl ExecutionPlan {
    /// Run the full symbolic phase for one rank. Local: the caller supplies
    /// the (already global) pattern.
    pub fn build(
        pattern: CooPattern,
        dims: BlockedDims,
        opts: &EngineOptions,
        rank: usize,
        size: usize,
    ) -> ExecutionPlan {
        let t0 = Instant::now();
        let fingerprint = pattern.fingerprint(&dims);
        let plan = match &opts.grouping {
            Grouping::OnePerColumn => SubmatrixPlan::one_per_column(&pattern, &dims),
            Grouping::Consecutive(g) => SubmatrixPlan::consecutive(&pattern, &dims, *g),
            Grouping::Explicit(groups) => SubmatrixPlan::from_groups(&pattern, &dims, groups),
        };
        let costs: Vec<f64> = plan.specs.iter().map(|s| s.cost()).collect();
        let assignment = greedy_contiguous(&costs, size);
        let my_range = assignment.ranges[rank].clone();
        let my_specs: Vec<SubmatrixSpec> = plan.specs[my_range].to_vec();

        // Deduplicated block exchange (Sec. IV-B): every remote block the
        // rank's submatrices need, fetched exactly once per execution.
        let spec_refs: Vec<&SubmatrixSpec> = my_specs.iter().collect();
        let transfer_plan = RankTransferPlan::for_specs(&spec_refs, &pattern);
        let mut transfers = TransferStats::default();
        transfers.add_rank(&transfer_plan, &dims);
        // Owner mapping comes from the one shared distribution policy so
        // transfer planning can never drift from how matrices route blocks.
        let grid = sm_dbcsr::process_grid(size);
        let remote_wanted: Vec<(usize, usize)> = transfer_plan
            .unique_blocks
            .iter()
            .copied()
            .filter(|&(br, bc)| grid.owner_of_block(br, bc) != rank)
            .collect();

        let assembly: Vec<AssemblyMap> = my_specs
            .iter()
            .map(|s| AssemblyMap::build(s, &pattern))
            .collect();
        let extraction: Vec<ExtractionMap> = my_specs
            .iter()
            .map(|s| ExtractionMap::build(s, &pattern, &dims))
            .collect();
        let contributing: Vec<Vec<usize>> = my_specs
            .iter()
            .map(|s| contributing_rows(s, &dims))
            .collect();

        // Element fill of the global pattern — the quantity Sec. V-C's
        // backend decision keys off. Global and deterministic: every rank
        // computes the same value from the same replicated pattern.
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
            n_submatrices: plan.len(),
            max_dim: plan.max_dim(),
            avg_dim: plan.avg_dim(),
            total_cost: plan.total_cost(),
            pattern_nnz: pattern.nnz(),
            dims,
            my_specs,
            transfers,
            remote_wanted,
            assembly,
            extraction,
            contributing,
            element_fill,
            symbolic_seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

/// Instrumentation of one numeric execution.
#[derive(Debug, Clone, Default)]
pub struct EngineReport {
    /// Number of submatrices in the plan.
    pub n_submatrices: usize,
    /// Largest submatrix dimension.
    pub max_dim: usize,
    /// Mean submatrix dimension.
    pub avg_dim: f64,
    /// Total `Σ n³` cost estimate.
    pub total_cost: f64,
    /// This rank's transfer statistics (from the cached plan).
    pub transfers: TransferStats,
    /// Numeric precision this execution ran in.
    pub precision: Precision,
    /// Value-payload bytes this rank received from remote ranks during the
    /// gather (deterministic; halves under the `f32` wire format).
    pub gather_value_bytes: u64,
    /// Value-payload bytes this rank sent to remote ranks during the
    /// result scatter (deterministic).
    pub scatter_value_bytes: u64,
    /// The µ actually used (after canonical adjustment, if any).
    pub mu: f64,
    /// Bisection steps of Algorithm 1 (0 for grand canonical).
    pub bisect_iterations: usize,
    /// Solve backend the iterative solves resolved to (from
    /// [`NumericOptions::backend`] against the plan's element fill).
    pub backend: SolveBackend,
    /// Elements dropped by the sparse backend's per-iteration filtering,
    /// summed over this rank's submatrix solves (0 on the dense path).
    pub sparse_filtered_nnz: u64,
    /// Scalar flops spent in sparse (CSR) multiplications (0 on dense).
    pub sparse_flops: u64,
    /// True if the plan came from the cache (no symbolic work this call).
    pub plan_cached: bool,
    /// Seconds of symbolic work this call (0 on cache hits).
    pub symbolic_seconds: f64,
    /// Seconds gathering remote blocks.
    pub gather_seconds: f64,
    /// Seconds assembling + solving submatrices.
    pub solve_seconds: f64,
    /// Seconds extracting + scattering results.
    pub scatter_seconds: f64,
}

impl EngineReport {
    /// Record the planning outcome the caller observed: whether *this
    /// call* built `plan` (a cache miss it paid for) or found it cached.
    /// The single definition every plan-then-execute path (engine
    /// drivers, `JobQueue`, the scheduler) applies, so their telemetry
    /// stays comparable.
    pub fn record_planning(&mut self, built_now: bool, plan: &ExecutionPlan) {
        self.plan_cached = !built_now;
        self.symbolic_seconds = if built_now {
            plan.symbolic_seconds
        } else {
            0.0
        };
    }

    /// Fold a later iteration's report into this one, turning a
    /// per-execution report into a whole-run aggregate — the accounting an
    /// iterative driver (an SCF loop) needs to describe *all* of its
    /// engine executions as one record.
    ///
    /// Additive instrumentation — transfer statistics, gather/scatter
    /// value bytes, bisection steps, and every phase timing — is summed.
    /// Plan-shape figures (`n_submatrices`, `max_dim`, `avg_dim`,
    /// `total_cost`) are invariants of the cached plan, identical across
    /// iterations of a fixed pattern, and are kept from `self`. `mu` and
    /// `precision` take the *latest* iteration's values (µ may drift under
    /// canonical adjustment; the last value is the converged one).
    /// `plan_cached` becomes the conjunction: the aggregate reports a
    /// fully-amortized run only if *every* folded execution hit the cache.
    pub fn absorb_iteration(&mut self, later: &EngineReport) {
        self.transfers.unique_bytes += later.transfers.unique_bytes;
        self.transfers.naive_bytes += later.transfers.naive_bytes;
        self.transfers.unique_blocks += later.transfers.unique_blocks;
        self.transfers.total_references += later.transfers.total_references;
        self.gather_value_bytes += later.gather_value_bytes;
        self.scatter_value_bytes += later.scatter_value_bytes;
        self.sparse_filtered_nnz += later.sparse_filtered_nnz;
        self.sparse_flops += later.sparse_flops;
        self.bisect_iterations += later.bisect_iterations;
        self.symbolic_seconds += later.symbolic_seconds;
        self.gather_seconds += later.gather_seconds;
        self.solve_seconds += later.solve_seconds;
        self.scatter_seconds += later.scatter_seconds;
        self.mu = later.mu;
        self.precision = later.precision;
        self.backend = later.backend;
        self.plan_cached &= later.plan_cached;
    }
}

/// Cumulative engine counters (monotone; snapshot via
/// [`SubmatrixEngine::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Symbolic plans built (cache misses).
    pub symbolic_builds: usize,
    /// Plan-cache hits.
    pub cache_hits: usize,
    /// Plans evicted by the LRU policy (0 when the cache is unbounded).
    pub evictions: usize,
    /// Numeric executions.
    pub executions: usize,
}

impl EngineStats {
    /// Saturating component-wise difference `self − earlier`: the
    /// counter deltas accumulated between two [`SubmatrixEngine::stats`]
    /// snapshots — the windowed reading an observer takes around a batch
    /// without a scheduler round-trip.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            symbolic_builds: self.symbolic_builds.saturating_sub(earlier.symbolic_builds),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            executions: self.executions.saturating_sub(earlier.executions),
        }
    }
}

#[derive(Default)]
struct Counters {
    builds: AtomicUsize,
    hits: AtomicUsize,
    evictions: AtomicUsize,
    executions: AtomicUsize,
}

type CacheKey = (u64, usize, usize);

/// Plan cache with optional LRU bounding. Recency is a monotone stamp
/// bumped on every hit and insert; eviction scans for the minimum stamp —
/// O(entries), irrelevant next to the cost of the symbolic build that
/// triggers it.
#[derive(Default)]
struct PlanCache {
    map: HashMap<CacheKey, (Arc<ExecutionPlan>, u64)>,
    tick: u64,
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

/// The persistent engine: symbolic plans cached by pattern fingerprint,
/// numeric executions replayed on top (see the module docs).
pub struct SubmatrixEngine {
    opts: EngineOptions,
    cache: Mutex<PlanCache>,
    counters: Counters,
}

impl Default for SubmatrixEngine {
    fn default() -> Self {
        SubmatrixEngine::new(EngineOptions::default())
    }
}

impl SubmatrixEngine {
    /// Create an engine with the given symbolic options.
    pub fn new(opts: EngineOptions) -> Self {
        SubmatrixEngine {
            opts,
            cache: Mutex::new(PlanCache::default()),
            counters: Counters::default(),
        }
    }

    /// The symbolic options.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// Counter snapshot.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            symbolic_builds: self.counters.builds.load(Ordering::Relaxed),
            cache_hits: self.counters.hits.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            executions: self.counters.executions.load(Ordering::Relaxed),
        }
    }

    /// The plan cache. A panic while the lock was held cannot leave the
    /// map half-updated (every update is one `HashMap` call), so a poisoned
    /// lock is recovered rather than propagated.
    fn cache(&self) -> MutexGuard<'_, PlanCache> {
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

    fn cache_key(&self, fp: PatternFingerprint, rank: usize, size: usize) -> CacheKey {
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
        sm_trace::emit(
            "plan.decision",
            plan.total_cost,
            0.0,
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

    /// Map `f` over the indices of this rank's specs, in order — over the
    /// shared pool iff the engine was built with `parallel`.
    fn map_specs<T: Send>(
        &self,
        plan: &ExecutionPlan,
        f: impl Fn(&usize) -> T + Sync + Send,
    ) -> Vec<T> {
        let indices: Vec<usize> = (0..plan.my_specs.len()).collect();
        if self.opts.parallel {
            indices.par_iter().map(f).collect()
        } else {
            indices.iter().map(f).collect()
        }
    }

    /// Numeric phase: compute `sign(values − µI)` along a cached plan
    /// (collective). Performs zero symbolic work — no pattern queries, no
    /// re-planning, no transfer-plan rebuild.
    pub fn execute<C: Comm>(
        &self,
        plan: &ExecutionPlan,
        values: &DbcsrMatrix,
        mu0: f64,
        numeric: &NumericOptions,
        comm: &C,
    ) -> (DbcsrMatrix, EngineReport) {
        assert_eq!(plan.rank, comm.rank(), "plan built for a different rank");
        assert_eq!(
            plan.size,
            comm.size(),
            "plan built for a different communicator size"
        );
        assert_eq!(
            plan.dims,
            *values.dims(),
            "values partitioned differently from the plan"
        );
        debug_assert!(
            values.local_nnz_blocks() <= plan.pattern_nnz,
            "values hold more blocks than the planned pattern has in total"
        );
        self.counters.executions.fetch_add(1, Ordering::Relaxed);

        // Precision and backend are engine-authoritative: thread both into
        // the per-submatrix solve options so the solver, the wire, and the
        // scheduler's cost model agree. The backend resolves against the
        // plan's element fill — a deterministic plan property — so every
        // rank of the collective makes the same choice.
        let precision = numeric.precision;
        let backend = numeric.backend.resolve(plan.element_fill);
        let mut numeric = *numeric;
        numeric.solve.precision = precision;
        numeric.solve.backend = backend;
        let numeric = &numeric;
        let wire_format = |is_f32| match is_f32 {
            true => ValueFormat::F32,
            false => ValueFormat::F64,
        };
        let gather_format = wire_format(precision.gather_is_f32());
        let scatter_format = wire_format(precision.scatter_is_f32());

        // Gather: fetch every remote block once, along the cached transfer
        // plan. Under f32 precision the value payloads move half the
        // bytes; the rounding is idempotent with the solve's own f32
        // input rounding, so results are independent of the distribution.
        let t0 = Instant::now();
        let (fetched, gather_value_bytes) =
            ops::fetch_blocks_prec(values, &plan.remote_wanted, gather_format, comm);
        let block_of =
            |br: usize, bc: usize| values.block(br, bc).or_else(|| fetched.get(&(br, bc)));
        let gather_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let (mu, bisect_iterations, extracted, (sparse_filtered_nnz, sparse_flops)) =
            if numeric.use_selected_columns {
                assert_eq!(
                    precision,
                    Precision::Fp64,
                    "selected-columns evaluation is Fp64-only"
                );
                assert_eq!(
                    numeric.solve.method,
                    SignMethod::Diagonalization,
                    "selected-columns evaluation requires the diagonalization solver"
                );
                assert!(
                    matches!(numeric.ensemble, Ensemble::GrandCanonical),
                    "selected-columns evaluation supports grand-canonical runs only"
                );
                let solve_one = |i: &usize| {
                    let a = plan.assembly[*i].assemble(block_of);
                    let dec = sm_linalg::eigh::eigh(&a)
                        .unwrap_or_else(|e| panic!("submatrix eigendecomposition failed: {e}"));
                    let cols_mat = sign_columns_from_decomposition(
                        &dec,
                        mu0,
                        numeric.solve.kt,
                        &plan.contributing[*i],
                    );
                    plan.extraction[*i].extract_from_columns(&cols_mat)
                };
                let extracted = self.map_specs(plan, solve_one);
                (mu0, 0, extracted, (0u64, 0u64))
            } else {
                let solve_one = |i: &usize| {
                    let a = plan.assembly[*i].assemble(block_of);
                    solve_sign(&a, mu0, &numeric.solve)
                        .unwrap_or_else(|e| panic!("submatrix solve failed: {e}"))
                };
                let results: Vec<SolveResult> = self.map_specs(plan, solve_one);
                // Sparse-backend tallies before the results are consumed.
                let sparse_tally = results.iter().fold((0u64, 0u64), |acc, r| match r.sparse {
                    Some(s) => (acc.0 + s.filtered_nnz, acc.1 + s.flops),
                    None => acc,
                });

                // Canonical ensemble: Algorithm 1 on the stored decompositions,
                // then re-evaluate the sign at the adjusted µ (collective).
                let (mu, bisect_iterations, signs) = match numeric.ensemble {
                    Ensemble::GrandCanonical => {
                        let signs: Vec<Matrix> = results.into_iter().map(|r| r.sign).collect();
                        (mu0, 0, signs)
                    }
                    Ensemble::Canonical {
                        n_electrons,
                        tol,
                        max_iter,
                    } => {
                        assert_eq!(
                            numeric.solve.method,
                            SignMethod::Diagonalization,
                            "canonical ensembles require the diagonalization solver (Sec. IV-G)"
                        );
                        let stored: Vec<StoredDecomposition> = plan
                            .my_specs
                            .iter()
                            .zip(&results)
                            .map(|(spec, r)| {
                                StoredDecomposition::from_eigh(
                                    r.decomposition.as_ref().expect("diagonalization stores Q"),
                                    spec,
                                    &plan.dims,
                                )
                            })
                            .collect();
                        let adj = adjust_mu(
                            &stored,
                            mu0,
                            n_electrons / 2.0,
                            numeric.solve.kt,
                            tol / 2.0,
                            max_iter,
                            comm,
                        );
                        let signs: Vec<Matrix> = results
                            .iter()
                            .map(|r| {
                                let mut s = sign_from_decomposition(
                                    r.decomposition.as_ref().expect("diagonalization stores Q"),
                                    adj.mu,
                                    numeric.solve.kt,
                                );
                                crate::solver::round_sign_output(&mut s, precision);
                                s
                            })
                            .collect();
                        (adj.mu, adj.iterations, signs)
                    }
                };
                let extracted: Vec<BTreeMap<(usize, usize), Matrix>> = signs
                    .iter()
                    .enumerate()
                    .map(|(i, sign)| plan.extraction[i].extract(sign))
                    .collect();
                (mu, bisect_iterations, extracted, sparse_tally)
            };
        let solve_seconds = t1.elapsed().as_secs_f64();

        // Scatter result blocks to their owning ranks. Plain-Fp32 results
        // are f32-representable, so the f32 result wire is lossless;
        // refined results ship in f64 to keep the recovered accuracy.
        let t2 = Instant::now();
        let mut result = DbcsrMatrix::new(plan.dims.clone(), comm.rank(), comm.size());
        let mut outgoing: Vec<BTreeMap<(usize, usize), Matrix>> =
            (0..comm.size()).map(|_| BTreeMap::new()).collect();
        for (coord, blk) in extracted.into_iter().flatten() {
            outgoing[result.owner(coord.0, coord.1)].insert(coord, blk);
        }
        let (received, scatter_value_bytes) =
            wire::exchange_blocks_prec(outgoing, &plan.dims, scatter_format, comm);
        for ((br, bc), blk) in received {
            result.insert_block(br, bc, blk);
        }
        let scatter_seconds = t2.elapsed().as_secs_f64();

        if sm_trace::enabled() {
            // One `engine.phase` event per phase per rank per execution —
            // deterministic counts with deterministic costs (planned cost,
            // planned value bytes); wall seconds ride as annotations.
            let phase = |name: &str, cost: f64, seconds: f64, fields: &[(&'static str, f64)]| {
                let _p = sm_trace::span(sm_trace::SpanKind::Phase, name);
                sm_trace::emit("engine.phase", cost, seconds, fields);
            };
            let n_sub = [("n_submatrices", plan.n_submatrices as f64)];
            phase("gather", gather_value_bytes as f64, gather_seconds, &[]);
            phase("solve", plan.total_cost, solve_seconds, &n_sub);
            phase("scatter", scatter_value_bytes as f64, scatter_seconds, &[]);
            // Backend decision: one deterministic event per execution
            // recording which representation the iterative solves resolved
            // to and what the filtering saved (cost = backend code so
            // deterministic replay distinguishes the paths).
            {
                let _p = sm_trace::span(sm_trace::SpanKind::Phase, "solve");
                sm_trace::emit(
                    "engine.solve.backend",
                    match backend {
                        SolveBackend::Dense => 0.0,
                        SolveBackend::SparseCsr => 1.0,
                    },
                    0.0,
                    &[
                        ("element_fill", plan.element_fill),
                        ("filtered_nnz", sparse_filtered_nnz as f64),
                        ("sparse_flops", sparse_flops as f64),
                    ],
                );
            }
            if sparse_filtered_nnz > 0 {
                sm_trace::counter_add(
                    &sm_trace::scoped_root("engine.sparse.filtered_nnz"),
                    sparse_filtered_nnz,
                );
            }
            if sparse_flops > 0 {
                sm_trace::counter_add(&sm_trace::scoped_root("engine.sparse.flops"), sparse_flops);
            }
            // Byte budget by precision: exact whole-batch tallies (each
            // rank's value bytes are themselves deterministic).
            let prec = match precision {
                Precision::Fp64 => "fp64",
                Precision::Fp32 => "fp32",
                Precision::Fp32Refined => "fp32_refined",
            };
            sm_trace::counter_add(
                &sm_trace::scoped_root(&format!("engine.value_bytes.{prec}")),
                gather_value_bytes + scatter_value_bytes,
            );
            sm_trace::hist_bytes(
                &sm_trace::scoped_root("engine.gather_bytes"),
                gather_value_bytes,
            );
            sm_trace::hist_bytes(
                &sm_trace::scoped_root("engine.scatter_bytes"),
                scatter_value_bytes,
            );
        }

        let report = EngineReport {
            n_submatrices: plan.n_submatrices,
            max_dim: plan.max_dim,
            avg_dim: plan.avg_dim,
            total_cost: plan.total_cost,
            transfers: plan.transfers,
            precision,
            gather_value_bytes,
            scatter_value_bytes,
            backend,
            sparse_filtered_nnz,
            sparse_flops,
            mu,
            bisect_iterations,
            // A direct execute performs no symbolic work by contract;
            // callers that plan-then-execute (sign(), JobQueue) overwrite
            // these two fields with the planning outcome they observed.
            plan_cached: true,
            symbolic_seconds: 0.0,
            gather_seconds,
            solve_seconds,
            scatter_seconds,
        };
        (result, report)
    }

    /// Plan (cached) + execute: `sign(values − µI)` (collective).
    pub fn sign<C: Comm>(
        &self,
        values: &DbcsrMatrix,
        mu0: f64,
        numeric: &NumericOptions,
        comm: &C,
    ) -> (DbcsrMatrix, EngineReport) {
        let (plan, built_now) = self.plan_for_matrix_traced(values, comm);
        let (result, mut report) = self.execute(&plan, values, mu0, numeric, comm);
        report.record_planning(built_now, &plan);
        (result, report)
    }

    /// Plan (cached) + execute: density matrix `D̃ = (I − sign)/2`
    /// (collective).
    pub fn density<C: Comm>(
        &self,
        values: &DbcsrMatrix,
        mu0: f64,
        numeric: &NumericOptions,
        comm: &C,
    ) -> (DbcsrMatrix, EngineReport) {
        let (mut sign, report) = self.sign(values, mu0, numeric, comm);
        ops::scale(&mut sign, -0.5);
        ops::shift_diag(&mut sign, 0.5);
        (sign, report)
    }
}

// ---------------------------------------------------------------------------
// Plan-cache persistence: spill cached plans to a versioned on-disk
// manifest (`sm_dbcsr::wire::PlanManifest`) so a warm restart replans
// nothing. The symbolic phase is the cost the paper amortizes across SCF
// iterations; persistence amortizes it across *process lifetimes*.
// ---------------------------------------------------------------------------

/// Failure of [`SubmatrixEngine::export_plans`] /
/// [`SubmatrixEngine::import_plans`].
#[derive(Debug)]
pub enum PlanPersistError {
    /// Filesystem error reading or writing the manifest.
    Io(std::io::Error),
    /// The file is not a decodable plan manifest (wrong magic, foreign
    /// schema version, truncated, or a payload failing its checksum).
    Wire(wire::ManifestError),
    /// The manifest was produced under a different grouping policy; its
    /// plans would be wrong for this engine, so the import refuses.
    ForeignGrouping {
        /// Producer tag found in the manifest header.
        found: u64,
        /// This engine's grouping cache tag.
        expected: u64,
    },
    /// The container decoded but an entry's plan payload is malformed.
    Corrupt(String),
}

impl std::fmt::Display for PlanPersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanPersistError::Io(e) => write!(f, "plan manifest io: {e}"),
            PlanPersistError::Wire(e) => write!(f, "{e}"),
            PlanPersistError::ForeignGrouping { found, expected } => write!(
                f,
                "plan manifest was exported under grouping tag {found:#x} but this \
                 engine groups under {expected:#x} — refusing to import foreign plans"
            ),
            PlanPersistError::Corrupt(what) => {
                write!(f, "plan manifest entry corrupt: {what}")
            }
        }
    }
}

impl std::error::Error for PlanPersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanPersistError::Io(e) => Some(e),
            PlanPersistError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for PlanPersistError {
    fn from(e: std::io::Error) -> Self {
        PlanPersistError::Io(e)
    }
}

impl From<wire::ManifestError> for PlanPersistError {
    fn from(e: wire::ManifestError) -> Self {
        PlanPersistError::Wire(e)
    }
}

/// Word-stream writer for the plan codec (`u64` words; `f64` fields travel
/// bit-exactly via `to_bits`, so an imported plan replays the original's
/// numeric behavior byte-for-byte).
fn push_usize_slice(out: &mut Vec<u64>, xs: &[usize]) {
    out.push(xs.len() as u64);
    out.extend(xs.iter().map(|&x| x as u64));
}

fn encode_plan(plan: &ExecutionPlan) -> Vec<u64> {
    let mut w: Vec<u64> = vec![
        plan.pattern_nnz as u64,
        plan.n_submatrices as u64,
        plan.max_dim as u64,
        plan.avg_dim.to_bits(),
        plan.total_cost.to_bits(),
        plan.element_fill.to_bits(),
        plan.symbolic_seconds.to_bits(),
    ];
    push_usize_slice(&mut w, plan.dims.sizes());
    w.push(plan.transfers.unique_bytes);
    w.push(plan.transfers.naive_bytes);
    w.push(plan.transfers.unique_blocks);
    w.push(plan.transfers.total_references);
    w.push(plan.my_specs.len() as u64);
    for spec in &plan.my_specs {
        push_usize_slice(&mut w, &spec.cols);
        push_usize_slice(&mut w, &spec.rows);
        push_usize_slice(&mut w, &spec.row_offsets);
        w.push(spec.dim as u64);
    }
    w.push(plan.remote_wanted.len() as u64);
    for &(br, bc) in &plan.remote_wanted {
        w.push(br as u64);
        w.push(bc as u64);
    }
    w.push(plan.assembly.len() as u64);
    for map in &plan.assembly {
        w.push(map.dim as u64);
        w.push(map.slots.len() as u64);
        for s in &map.slots {
            w.extend_from_slice(&[s.br as u64, s.bc as u64, s.row_off as u64, s.col_off as u64]);
        }
    }
    w.push(plan.extraction.len() as u64);
    for map in &plan.extraction {
        w.push(map.n_sel_cols as u64);
        w.push(map.slots.len() as u64);
        for s in &map.slots {
            w.extend_from_slice(&[
                s.br as u64,
                s.bc as u64,
                s.row_off as u64,
                s.col_off as u64,
                s.sel_off as u64,
                s.nrows as u64,
                s.ncols as u64,
            ]);
        }
    }
    w.push(plan.contributing.len() as u64);
    for cols in &plan.contributing {
        push_usize_slice(&mut w, cols);
    }
    w
}

fn corrupt(what: &str) -> PlanPersistError {
    PlanPersistError::Corrupt(what.into())
}

/// Bounds-checked reader over a plan payload.
struct PlanReader<'a> {
    words: &'a [u64],
    pos: usize,
}

impl PlanReader<'_> {
    fn u(&mut self) -> Result<u64, PlanPersistError> {
        let w = *self
            .words
            .get(self.pos)
            .ok_or_else(|| corrupt("payload ends early"))?;
        self.pos += 1;
        Ok(w)
    }

    fn us(&mut self) -> Result<usize, PlanPersistError> {
        Ok(self.u()? as usize)
    }

    fn f(&mut self) -> Result<f64, PlanPersistError> {
        Ok(f64::from_bits(self.u()?))
    }

    /// A count, then that many items of at least `item_words` words each.
    /// The count is bounded by the words that remain, so a damaged one can
    /// neither reserve memory for items that are not there nor drive a
    /// long loop.
    fn items<T>(
        &mut self,
        item_words: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, PlanPersistError>,
    ) -> Result<Vec<T>, PlanPersistError> {
        let n = self.us()?;
        if n > (self.words.len() - self.pos) / item_words {
            return Err(corrupt("count overruns payload"));
        }
        (0..n).map(|_| read(self)).collect()
    }

    fn usize_vec(&mut self) -> Result<Vec<usize>, PlanPersistError> {
        self.items(1, Self::us)
    }
}

fn decode_plan(entry: &wire::PlanManifestEntry) -> Result<ExecutionPlan, PlanPersistError> {
    let mut r = PlanReader {
        words: &entry.words,
        pos: 0,
    };
    let pattern_nnz = r.us()?;
    let n_submatrices = r.us()?;
    let max_dim = r.us()?;
    let avg_dim = r.f()?;
    let total_cost = r.f()?;
    let element_fill = r.f()?;
    let symbolic_seconds = r.f()?;
    let sizes = r.usize_vec()?;
    let n = sizes.iter().try_fold(0usize, |n, &s| n.checked_add(s));
    if sizes.contains(&0) || n.is_none() {
        return Err(corrupt("zero-sized block or overflowing partition"));
    }
    let dims = BlockedDims::new(sizes);
    let transfers = TransferStats {
        unique_bytes: r.u()?,
        naive_bytes: r.u()?,
        unique_blocks: r.u()?,
        total_references: r.u()?,
    };
    // Struct fields are evaluated in the order written: the wire order.
    let my_specs = r.items(4, |r| {
        Ok(SubmatrixSpec {
            cols: r.usize_vec()?,
            rows: r.usize_vec()?,
            row_offsets: r.usize_vec()?,
            dim: r.us()?,
        })
    })?;
    let remote_wanted = r.items(2, |r| Ok((r.us()?, r.us()?)))?;
    let assembly = r.items(2, |r| {
        let dim = r.us()?;
        let slots = r.items(4, |r| {
            Ok(AssemblySlot {
                br: r.us()?,
                bc: r.us()?,
                row_off: r.us()?,
                col_off: r.us()?,
            })
        })?;
        Ok(AssemblyMap { dim, slots })
    })?;
    let extraction = r.items(2, |r| {
        let n_sel_cols = r.us()?;
        let slots = r.items(7, |r| {
            Ok(ExtractionSlot {
                br: r.us()?,
                bc: r.us()?,
                row_off: r.us()?,
                col_off: r.us()?,
                sel_off: r.us()?,
                nrows: r.us()?,
                ncols: r.us()?,
            })
        })?;
        Ok(ExtractionMap { slots, n_sel_cols })
    })?;
    let contributing = r.items(1, PlanReader::usize_vec)?;
    if r.pos != entry.words.len() {
        return Err(corrupt("trailing words in payload"));
    }
    let plan = ExecutionPlan {
        fingerprint: PatternFingerprint(entry.fingerprint),
        rank: entry.rank as usize,
        size: entry.size as usize,
        pattern_nnz,
        dims,
        n_submatrices,
        max_dim,
        avg_dim,
        total_cost,
        my_specs,
        transfers,
        remote_wanted,
        assembly,
        extraction,
        contributing,
        element_fill,
        symbolic_seconds,
    };
    check_copy_programs(&plan)?;
    Ok(plan)
}

/// Everything the numeric phase indexes with must agree with the decoded
/// partition, or `execute` would read past a matrix (a panic) or copy the
/// wrong elements (a wrong density without an error). A spec's assembly
/// slots name every pattern block inside its principal submatrix — all
/// that the spec and both copy programs were built from — so the three
/// are rebuilt from those blocks and must come out as decoded.
fn check_copy_programs(plan: &ExecutionPlan) -> Result<(), PlanPersistError> {
    let (dims, nb) = (&plan.dims, plan.dims.nb());
    let in_grid = |&(br, bc): &(usize, usize)| br < nb && bc < nb;
    let n = plan.my_specs.len();
    if plan.assembly.len() != n || plan.extraction.len() != n || plan.contributing.len() != n {
        return Err(corrupt("copy programs not parallel to specs"));
    }
    if !plan.remote_wanted.iter().all(in_grid) {
        return Err(corrupt("remote block outside the partition"));
    }
    for (i, spec) in plan.my_specs.iter().enumerate() {
        let blocks: Vec<(usize, usize)> = plan.assembly[i]
            .slots
            .iter()
            .map(|s| (s.br, s.bc))
            .collect();
        if !blocks.iter().all(in_grid) {
            return Err(corrupt("assembly block outside the partition"));
        }
        let pattern = CooPattern::from_coords(blocks, nb);
        // What `SubmatrixSpec::build` would otherwise panic on.
        let has_diagonals = !spec.cols.is_empty()
            && spec
                .cols
                .iter()
                .all(|&c| c < nb && pattern.rows_in_col(c).any(|r| r == c));
        if !has_diagonals
            || *spec != SubmatrixSpec::build(&pattern, dims, &spec.cols)
            || plan.assembly[i] != AssemblyMap::build(spec, &pattern)
            || plan.extraction[i] != ExtractionMap::build(spec, &pattern, dims)
            || plan.contributing[i] != contributing_rows(spec, dims)
        {
            return Err(corrupt("copy program disagrees with its spec"));
        }
    }
    Ok(())
}

impl SubmatrixEngine {
    /// Spill every cached plan to a versioned manifest at `path`
    /// ([`wire::PLAN_MANIFEST_SCHEMA_VERSION`]), preserving LRU stamps so
    /// a later [`import_plans`](Self::import_plans) restores eviction
    /// order faithfully. Entries are sorted by `(fingerprint, rank,
    /// size)`, so equal caches export byte-identical manifests. Returns
    /// the number of plans exported.
    pub fn export_plans(&self, path: &std::path::Path) -> Result<usize, PlanPersistError> {
        let stats = self.stats();
        let manifest = {
            let cache = self.cache();
            let mut entries: Vec<wire::PlanManifestEntry> = cache
                .map
                .values()
                .map(|(plan, stamp)| wire::PlanManifestEntry {
                    fingerprint: plan.fingerprint.0,
                    rank: plan.rank as u64,
                    size: plan.size as u64,
                    lru_stamp: *stamp,
                    words: encode_plan(plan),
                })
                .collect();
            entries.sort_by_key(|e| (e.fingerprint, e.rank, e.size));
            wire::PlanManifest {
                tag: self.opts.grouping.cache_tag(),
                capacity: self.opts.plan_cache_capacity.map_or(u64::MAX, |c| c as u64),
                tick: cache.tick,
                evictions: stats.evictions as u64,
                hits: stats.cache_hits as u64,
                builds: stats.symbolic_builds as u64,
                entries,
            }
        };
        let n = manifest.entries.len();
        std::fs::write(path, manifest.encode())?;
        Ok(n)
    }

    /// Restore plans from a manifest written by
    /// [`export_plans`](Self::export_plans). Rejects manifests from a
    /// different schema version or grouping policy. Imported plans keep
    /// their original LRU stamps (the clock resumes at or above the
    /// newest stamp); if the manifest holds more plans than this engine's
    /// capacity, only the most recently used survive and the overflow
    /// counts as evictions. Importing touches neither the hit nor the
    /// build counter — a warm restart that replans nothing reports
    /// `builds == 0` on resubmission. Returns the number of plans
    /// restored.
    pub fn import_plans(&self, path: &std::path::Path) -> Result<usize, PlanPersistError> {
        let bytes = std::fs::read(path)?;
        let manifest = wire::PlanManifest::decode(&bytes)?;
        let expected = self.opts.grouping.cache_tag();
        if manifest.tag != expected {
            return Err(PlanPersistError::ForeignGrouping {
                found: manifest.tag,
                expected,
            });
        }
        if self.opts.plan_cache_capacity == Some(0) {
            return Ok(0); // caching disabled; nothing to restore into
        }
        let mut decoded = Vec::with_capacity(manifest.entries.len());
        for entry in &manifest.entries {
            decoded.push((decode_plan(entry)?, entry.lru_stamp));
        }
        // Keep only the most recently used plans when over capacity; the
        // dropped overflow is an eviction like any other.
        let cap = self.opts.plan_cache_capacity.unwrap_or(usize::MAX);
        decoded.sort_by_key(|(_, stamp)| std::cmp::Reverse(*stamp));
        let overflow = decoded.len().saturating_sub(cap);
        decoded.truncate(cap);
        let restored = decoded.len();
        {
            let mut cache = self.cache();
            for (plan, stamp) in decoded {
                let key = self.cache_key(plan.fingerprint, plan.rank, plan.size);
                cache.tick = cache.tick.max(stamp);
                cache.map.insert(key, (Arc::new(plan), stamp));
            }
        }
        self.counters
            .evictions
            .fetch_add(overflow, Ordering::Relaxed);
        if sm_trace::enabled() {
            sm_trace::counter_add(
                &sm_trace::scoped_root("plan_cache.imported"),
                restored as u64,
            );
            sm_trace::gauge_set(
                &sm_trace::scoped_root("plan_cache.occupancy"),
                self.cached_plans() as f64,
            );
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_linalg::sign::sign_eig;

    fn banded_gapped(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            let bi = (i / bs) as isize;
            let bj = (j / bs) as isize;
            if (bi - bj).abs() > 1 {
                0.0
            } else if i == j {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.05 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        (dense, dims)
    }

    #[test]
    fn engine_sign_matches_dense_reference() {
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let (sign, report) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sign_eig(&dense).unwrap();
        assert!(sign.to_dense(&comm).max_abs_diff(&expect) < 0.05);
        assert!(!report.plan_cached);
        assert_eq!(report.n_submatrices, 8);
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
    fn report_aggregation_sums_counters_and_keeps_plan_shape() {
        let (dense, dims) = banded_gapped(6, 2);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let (_, first) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let (_, second) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let mut agg = first.clone();
        agg.absorb_iteration(&second);
        // Additive counters sum; plan-shape figures stay those of the
        // (identical) cached plan.
        assert_eq!(
            agg.transfers.unique_bytes,
            first.transfers.unique_bytes + second.transfers.unique_bytes
        );
        assert_eq!(
            agg.gather_value_bytes,
            first.gather_value_bytes + second.gather_value_bytes
        );
        assert_eq!(
            agg.scatter_value_bytes,
            first.scatter_value_bytes + second.scatter_value_bytes
        );
        assert_eq!(agg.n_submatrices, first.n_submatrices);
        assert_eq!(agg.total_cost, first.total_cost);
        // The first execution built the plan, the second hit: the
        // aggregate must NOT claim a fully-amortized run.
        assert!(!first.plan_cached && second.plan_cached);
        assert!(!agg.plan_cached);
        // Folding two hits keeps plan_cached true.
        let mut hits = second.clone();
        hits.absorb_iteration(&second);
        assert!(hits.plan_cached);
    }

    #[test]
    fn reused_engine_matches_throwaway_engine_bitwise() {
        let (dense, dims) = banded_gapped(9, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let _ = engine.sign(&m, 0.1, &NumericOptions::default(), &comm);
        let (a, hit) = engine.sign(&m, 0.1, &NumericOptions::default(), &comm);
        assert!(hit.plan_cached);
        let (b, _) = SubmatrixEngine::default().sign(&m, 0.1, &NumericOptions::default(), &comm);
        assert!(a.to_dense(&comm).allclose(&b.to_dense(&comm), 0.0));
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
    fn one_plan_serves_multiple_numeric_options() {
        let (dense, dims) = banded_gapped(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let plan = engine.plan_for_matrix(&m, &comm);
        for method in [SignMethod::Diagonalization, SignMethod::NewtonSchulz] {
            let numeric = NumericOptions {
                solve: SolveOptions {
                    method,
                    ..SolveOptions::default()
                },
                ..NumericOptions::default()
            };
            let (sign, _) = engine.execute(&plan, &m, 0.0, &numeric, &comm);
            let expect = sign_eig(&dense).unwrap();
            assert!(sign.to_dense(&comm).max_abs_diff(&expect) < 0.05);
        }
        assert_eq!(engine.stats().symbolic_builds, 1);
    }

    #[test]
    fn distributed_engine_matches_serial() {
        let (dense, dims) = banded_gapped(9, 2);
        let comm = SerialComm::new();
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            let engine = SubmatrixEngine::default();
            engine
                .sign(&m, 0.0, &NumericOptions::default(), &comm)
                .0
                .to_dense(&comm)
        };
        // One engine shared by all rank threads: plans are per-rank.
        let engine = SubmatrixEngine::default();
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            let (sign, _) = engine.sign(&m, 0.0, &NumericOptions::default(), c);
            let (sign2, r2) = engine.sign(&m, 0.0, &NumericOptions::default(), c);
            assert!(r2.plan_cached);
            assert!(sign.to_dense(c).allclose(&sign2.to_dense(c), 0.0));
            sign.to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&serial, 1e-13));
        }
        assert_eq!(engine.stats().symbolic_builds, 4); // one per rank
        assert_eq!(engine.stats().cache_hits, 4);
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
                    method: SignMethod::NewtonSchulz,
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
    fn auto_policy_resolves_backend_from_plan_fill() {
        // `BackendPolicy::Auto` keys off the plan's element fill — a
        // deterministic symbolic property, identical on every rank — so
        // the selected backend is itself deterministic. A banded-gapped
        // pattern is sparse enough for CSR; a full matrix is not.
        let (dense, dims) = banded_gapped(10, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            solve: SolveOptions {
                method: SignMethod::NewtonSchulz,
                ..SolveOptions::default()
            },
            ..NumericOptions::default()
        };
        assert_eq!(numeric.backend, BackendPolicy::Auto);

        let engine = SubmatrixEngine::default();
        let plan = engine.plan_for_matrix(&m, &comm);
        assert!(plan.element_fill > 0.0 && plan.element_fill <= 1.0);
        let expected = if plan.element_fill < SPARSE_FILL_THRESHOLD {
            SolveBackend::SparseCsr
        } else {
            SolveBackend::Dense
        };
        let (_, report) = engine.sign(&m, 0.0, &numeric, &comm);
        assert_eq!(report.backend, expected);

        let full = Matrix::from_fn(8, 8, |i, j| if i == j { 1.0 } else { 0.1 });
        let mfull = DbcsrMatrix::from_dense(&full, BlockedDims::uniform(4, 2), 0, 1, 0.0);
        let plan_full = engine.plan_for_matrix(&mfull, &comm);
        assert_eq!(plan_full.element_fill, 1.0);
        let (_, report) = engine.sign(&mfull, 0.0, &numeric, &comm);
        assert_eq!(report.backend, SolveBackend::Dense);
    }

    #[test]
    fn fp32_serial_execution_has_zero_wire_value_bytes() {
        let (dense, dims) = banded_gapped(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let numeric = NumericOptions {
            precision: Precision::Fp32,
            ..NumericOptions::default()
        };
        let (_, report) = engine.sign(&m, 0.0, &numeric, &comm);
        // Single rank: everything is local, nothing crosses a wire.
        assert_eq!(report.gather_value_bytes, 0);
        assert_eq!(report.scatter_value_bytes, 0);
    }

    #[test]
    fn distributed_fp32_gather_moves_half_the_value_bytes_of_fp64() {
        let (dense, dims) = banded_gapped(9, 2);
        let engine = SubmatrixEngine::default();
        let bytes_for = |precision: Precision| {
            let numeric = NumericOptions {
                precision,
                ..NumericOptions::default()
            };
            let (results, _) = run_ranks(4, |c| {
                let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
                let (_, report) = engine.sign(&m, 0.0, &numeric, c);
                (report.gather_value_bytes, report.scatter_value_bytes)
            });
            let gather: u64 = results.iter().map(|r| r.0).sum();
            let scatter: u64 = results.iter().map(|r| r.1).sum();
            (gather, scatter)
        };
        let (g64, s64) = bytes_for(Precision::Fp64);
        let (g32, s32) = bytes_for(Precision::Fp32);
        let (gref, sref) = bytes_for(Precision::Fp32Refined);
        assert!(g64 > 0 && s64 > 0, "4-rank run must move value bytes");
        assert_eq!(g32 * 2, g64, "f32 gather must move exactly half");
        assert_eq!(s32 * 2, s64, "f32 scatter must move exactly half");
        // Refined gathers in f32 but scatters the f64 refinement.
        assert_eq!(gref, g32);
        assert_eq!(sref, s64);
    }

    #[test]
    fn distributed_fp32_matches_serial_bitwise() {
        // The keystone determinism property: f32 wire rounding is
        // idempotent with the solve's input rounding, and plain-Fp32
        // results are f32-representable, so any distribution produces the
        // identical matrix.
        let (dense, dims) = banded_gapped(8, 2);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            precision: Precision::Fp32,
            ..NumericOptions::default()
        };
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.1, &numeric, &comm)
                .0
                .to_dense(&comm)
        };
        let engine = SubmatrixEngine::default();
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            engine.sign(&m, 0.1, &numeric, c).0.to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&serial, 0.0), "fp32 distribution changed bits");
        }
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

    fn manifest_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sm_engine_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn plan_codec_roundtrips_word_exactly() {
        let (dense, dims) = banded_gapped(5, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let plan = ExecutionPlan::build(
            m.global_pattern(&comm),
            dims,
            &EngineOptions::default(),
            0,
            1,
        );
        let words = encode_plan(&plan);
        let entry = wire::PlanManifestEntry {
            fingerprint: plan.fingerprint.0,
            rank: 0,
            size: 1,
            lru_stamp: 3,
            words,
        };
        let back = decode_plan(&entry).expect("decode");
        // Re-encoding the decode reproduces the words exactly, so every
        // field (including f64 bit patterns) survived.
        assert_eq!(encode_plan(&back), entry.words);
        assert_eq!(back.fingerprint, plan.fingerprint);
        assert_eq!(back.my_specs, plan.my_specs);
        assert_eq!(back.assembly, plan.assembly);
        assert_eq!(back.extraction, plan.extraction);

        // A truncated payload is rejected, not misparsed.
        let mut chopped = entry.clone();
        chopped.words.truncate(entry.words.len() - 1);
        assert!(matches!(
            decode_plan(&chopped),
            Err(PlanPersistError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_plan_payload_is_a_typed_error_never_a_panic_or_a_wrong_result() {
        let (dense, dims) = banded_gapped(5, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let plan = ExecutionPlan::build(
            m.global_pattern(&comm),
            dims,
            &EngineOptions::default(),
            0,
            1,
        );
        let entry = wire::PlanManifestEntry {
            fingerprint: plan.fingerprint.0,
            rank: 0,
            size: 1,
            lru_stamp: 1,
            words: encode_plan(&plan),
        };
        let manifest = wire::PlanManifest {
            entries: vec![entry.clone()],
            ..Default::default()
        };
        let bytes = manifest.encode();
        // A one-entry manifest ends with that entry's payload words.
        let payload_start = bytes.len() - 8 * entry.words.len();

        let engine = SubmatrixEngine::default();
        let selected = NumericOptions {
            use_selected_columns: true,
            ..Default::default()
        };
        let expect = engine
            .execute(&plan, &m, 0.0, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        let (mut decoded_ok, mut rejected) = (0, 0);
        for (k, &word) in entry.words.iter().enumerate() {
            for bad in [1u64 << 62, word.wrapping_add(1), 1000] {
                if bad == word {
                    continue;
                }
                // Past the container's checksum the codec's own checks
                // must hold: a plan that decodes also executes, and on the
                // same copy programs.
                let mut damaged = entry.clone();
                damaged.words[k] = bad;
                match decode_plan(&damaged) {
                    Ok(p) => {
                        decoded_ok += 1;
                        for numeric in [NumericOptions::default(), selected] {
                            let (got, _) = engine.execute(&p, &m, 0.0, &numeric, &comm);
                            assert!(got.to_dense(&comm).allclose(&expect, 1e-12));
                        }
                    }
                    Err(PlanPersistError::Corrupt(_)) => rejected += 1,
                    Err(other) => panic!("word {k} := {bad:#x}: unexpected {other}"),
                }
                // Through the container every damaged payload is refused.
                let mut file = bytes.clone();
                let at = payload_start + 8 * k;
                file[at..at + 8].copy_from_slice(&bad.to_le_bytes());
                assert_eq!(
                    wire::PlanManifest::decode(&file),
                    Err(wire::ManifestError::Checksum { entry: 0 }),
                    "word {k} := {bad:#x}"
                );
            }
        }
        // Only words no copy program reads (the reported plan shape and
        // timings) can change without the codec noticing.
        assert!(decoded_ok > 0 && decoded_ok <= 3 * 11, "{decoded_ok}");
        assert!(rejected > 2 * entry.words.len());
    }

    #[test]
    fn export_import_roundtrip_replans_nothing() {
        let (dense, dims) = banded_gapped(6, 2);
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);

        let warm = SubmatrixEngine::default();
        let _ = warm.sign(&m, 0.0, &NumericOptions::default(), &comm);
        assert_eq!(warm.stats().symbolic_builds, 1);
        let path = manifest_path("roundtrip.smplans");
        let exported = warm.export_plans(&path).expect("export");
        assert_eq!(exported, 1);

        // Fresh process: import, resubmit the same pattern — zero builds.
        let cold = SubmatrixEngine::default();
        let imported = cold.import_plans(&path).expect("import");
        assert_eq!(imported, exported);
        assert_eq!(cold.cached_plans(), 1);
        let (expect, _) = warm.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let (got, report) = cold.sign(&m, 0.0, &NumericOptions::default(), &comm);
        assert!(
            report.plan_cached,
            "imported plan must serve the resubmission"
        );
        let stats = cold.stats();
        assert_eq!(stats.symbolic_builds, 0, "warm restart must replan nothing");
        assert_eq!(stats.cache_hits, 1);
        assert!(got.to_dense(&comm).allclose(&expect.to_dense(&comm), 0.0));
    }

    #[test]
    fn import_rejects_foreign_grouping_and_respects_capacity() {
        let comm = SerialComm::new();
        let producer = SubmatrixEngine::default();
        // Three distinct patterns, touched in a known LRU order.
        let mut mats = Vec::new();
        for nb in [4usize, 5, 6] {
            let (dense, dims) = banded_gapped(nb, 2);
            let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
            let _ = producer.sign(&m, 0.0, &NumericOptions::default(), &comm);
            mats.push(m);
        }
        let path = manifest_path("capacity.smplans");
        assert_eq!(producer.export_plans(&path).expect("export"), 3);

        // A grouping mismatch is refused outright.
        let foreign = SubmatrixEngine::new(EngineOptions {
            grouping: Grouping::Consecutive(2),
            ..EngineOptions::default()
        });
        assert!(matches!(
            foreign.import_plans(&path),
            Err(PlanPersistError::ForeignGrouping { .. })
        ));

        // A bounded importer keeps only the most recently used plans and
        // books the overflow as evictions.
        let bounded = SubmatrixEngine::new(EngineOptions {
            plan_cache_capacity: Some(2),
            ..EngineOptions::default()
        });
        assert_eq!(bounded.import_plans(&path).expect("import"), 2);
        assert_eq!(bounded.cached_plans(), 2);
        assert_eq!(bounded.stats().evictions, 1);
        // The two newest patterns hit; the evicted oldest must rebuild.
        // (Touch newest-first so the rebuild's own insert can't thrash the
        // bounded cache mid-check.)
        for (i, m) in mats.iter().enumerate().rev() {
            let _ = bounded.sign(m, 0.0, &NumericOptions::default(), &comm);
            let stats = bounded.stats();
            if i == 0 {
                assert_eq!(
                    stats.symbolic_builds, 1,
                    "oldest plan was dropped at import"
                );
            }
        }
        let stats = bounded.stats();
        assert_eq!(stats.symbolic_builds, 1);
        assert_eq!(stats.cache_hits, 2);

        // Garbage and missing files surface typed errors.
        let junk = manifest_path("junk.smplans");
        std::fs::write(&junk, b"not a manifest at all").expect("write junk");
        assert!(matches!(
            SubmatrixEngine::default().import_plans(&junk),
            Err(PlanPersistError::Wire(_))
        ));
        assert!(matches!(
            SubmatrixEngine::default().import_plans(&manifest_path("absent.smplans")),
            Err(PlanPersistError::Io(_))
        ));
    }

    #[test]
    #[should_panic(expected = "different communicator size")]
    fn plan_for_wrong_comm_rejected() {
        let (dense, dims) = banded_gapped(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let plan = ExecutionPlan::build(
            m.global_pattern(&comm),
            dims,
            &EngineOptions::default(),
            0,
            4,
        );
        let _ = engine.execute(&plan, &m, 0.0, &NumericOptions::default(), &comm);
    }
}

#[cfg(test)]
mod sign_density_tests {
    use super::*;
    use crate::engine::{BackendPolicy, EngineOptions, Grouping};
    use crate::solver::SolveOptions;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_dbcsr::BlockedDims;
    use sm_linalg::sign::sign_eig;
    use sm_linalg::Matrix;

    /// Block-diagonal symmetric matrix: the submatrix method is exact.
    fn block_diagonal(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::zeros(n, n);
        for b in 0..nb {
            for i in 0..bs {
                for j in 0..bs {
                    let (gi, gj) = (b * bs + i, b * bs + j);
                    dense[(gi, gj)] = if i == j {
                        if (b + i) % 2 == 0 {
                            1.0 + b as f64 * 0.1
                        } else {
                            -1.0 - i as f64 * 0.1
                        }
                    } else {
                        0.1
                    };
                }
            }
        }
        dense.symmetrize();
        (dense, dims)
    }

    /// Banded symmetric matrix with decaying off-diagonals and a gap at 0.
    fn banded_gapped(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            let bi = (i / bs) as isize;
            let bj = (j / bs) as isize;
            if (bi - bj).abs() > 1 {
                0.0
            } else if i == j {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.05 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        (dense, dims)
    }

    #[test]
    fn exact_on_block_diagonal() {
        let (dense, dims) = block_diagonal(5, 3);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (sign, report) =
            SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sign_eig(&dense).unwrap();
        let got = sign.to_dense(&comm);
        assert!(
            got.allclose(&expect, 1e-10),
            "block-diagonal case must be exact, max diff {}",
            got.max_abs_diff(&expect)
        );
        assert_eq!(report.n_submatrices, 5);
        assert_eq!(report.max_dim, 3);
    }

    #[test]
    fn approximate_on_banded_matrix() {
        let (dense, dims) = banded_gapped(10, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (sign, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sign_eig(&dense).unwrap();
        let got = sign.to_dense(&comm);
        // Weak coupling: the approximation must be decent but needn't be
        // exact.
        assert!(
            got.max_abs_diff(&expect) < 0.05,
            "max diff {}",
            got.max_abs_diff(&expect)
        );
        // The result keeps the input's block pattern.
        assert_eq!(
            sign.global_pattern(&comm).entries(),
            m.global_pattern(&comm).entries()
        );
    }

    #[test]
    fn combining_columns_does_not_hurt() {
        let (dense, dims) = banded_gapped(12, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let expect = sign_eig(&dense).unwrap();
        let single = SubmatrixEngine::default()
            .sign(&m, 0.0, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        let combined = SubmatrixEngine::new(EngineOptions {
            grouping: Grouping::Consecutive(3),
            ..Default::default()
        })
        .sign(&m, 0.0, &NumericOptions::default(), &comm)
        .0
        .to_dense(&comm);
        let err_single = single.max_abs_diff(&expect);
        let err_combined = combined.max_abs_diff(&expect);
        assert!(
            err_combined <= err_single * 1.5 + 1e-12,
            "combined {err_combined} much worse than single {err_single}"
        );
    }

    #[test]
    fn iterative_solvers_match_diagonalization_driver() {
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let diag = SubmatrixEngine::default()
            .sign(&m, 0.0, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        for method in [SignMethod::NewtonSchulz, SignMethod::Pade(3)] {
            let numeric = NumericOptions {
                solve: SolveOptions {
                    method,
                    ..SolveOptions::default()
                },
                backend: BackendPolicy::Dense,
                ..Default::default()
            };
            let it = SubmatrixEngine::default()
                .sign(&m, 0.0, &numeric, &comm)
                .0
                .to_dense(&comm);
            assert!(it.allclose(&diag, 1e-6), "{method:?} deviates");
        }
    }

    #[test]
    fn distributed_matches_serial_exactly() {
        let (dense, dims) = banded_gapped(9, 2);
        let comm = SerialComm::new();
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.0, &NumericOptions::default(), &comm)
                .0
                .to_dense(&comm)
        };
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            let (sign, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), c);
            sign.to_dense(c)
        });
        for r in results {
            assert!(
                r.allclose(&serial, 1e-13),
                "distributed result differs from serial"
            );
        }
    }

    #[test]
    fn density_is_half_one_minus_sign() {
        let (dense, dims) = block_diagonal(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (d, _) = SubmatrixEngine::default().density(&m, 0.0, &NumericOptions::default(), &comm);
        let (s, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let dd = d.to_dense(&comm);
        let mut expect = s.to_dense(&comm);
        expect.scale(-0.5);
        expect.shift_diag(0.5);
        assert!(dd.allclose(&expect, 1e-14));
        // Projector-ish: eigenvalues of D in [0,1].
        let eigs = sm_linalg::eigh::eigvalsh(&dd).unwrap();
        for e in eigs {
            assert!((-1e-9..=1.0 + 1e-9).contains(&e));
        }
    }

    #[test]
    fn canonical_ensemble_hits_target_electron_count() {
        let (dense, dims) = block_diagonal(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        // The spectrum has 6 negative eigenvalues (half of 12); ask for a
        // different occupation: 4 orbitals = 8 electrons.
        let numeric = NumericOptions {
            ensemble: Ensemble::Canonical {
                n_electrons: 8.0,
                tol: 1e-8,
                max_iter: 200,
            },
            ..Default::default()
        };
        let (d, report) = SubmatrixEngine::default().density(&m, 0.0, &numeric, &comm);
        let n = sm_chem_free_electron_count(&d, &comm);
        assert!(
            (n - 8.0).abs() < 1e-5,
            "canonical electron count {n} != 8 (µ = {})",
            report.mu
        );
        assert!(report.bisect_iterations > 0);
    }

    /// 2·Tr(D) without depending on sm-chem.
    fn sm_chem_free_electron_count<C: Comm>(d: &DbcsrMatrix, comm: &C) -> f64 {
        2.0 * ops::trace(d, comm)
    }

    #[test]
    fn finite_temperature_driver() {
        let (dense, dims) = block_diagonal(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            solve: SolveOptions {
                kt: 0.05,
                ..SolveOptions::default()
            },
            ..Default::default()
        };
        let (d, _) = SubmatrixEngine::default().density(&m, 0.0, &numeric, &comm);
        let dd = d.to_dense(&comm);
        // Fermi-smeared density of the exact (block-diagonal) problem.
        let dec = sm_linalg::eigh::eigh(&dense).unwrap();
        let expect = dec.apply(|l| sm_linalg::fermi::fermi_occupation(l, 0.0, 0.05));
        assert!(dd.allclose(&expect, 1e-9));
    }

    #[test]
    fn report_timings_are_populated() {
        let (dense, dims) = banded_gapped(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (_, report) =
            SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        assert!(report.symbolic_seconds + report.gather_seconds >= 0.0);
        assert!(report.solve_seconds > 0.0);
        assert!(report.scatter_seconds >= 0.0);
        assert!(report.total_cost > 0.0);
        assert!(report.transfers.unique_bytes > 0);
        assert!(report.avg_dim > 0.0);
    }

    #[test]
    fn sequential_flag_gives_same_result() {
        let (dense, dims) = banded_gapped(7, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let par = SubmatrixEngine::default()
            .sign(&m, 0.0, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        let seq = SubmatrixEngine::new(EngineOptions {
            parallel: false,
            ..Default::default()
        })
        .sign(&m, 0.0, &NumericOptions::default(), &comm)
        .0
        .to_dense(&comm);
        assert!(
            par.allclose(&seq, 0.0),
            "parallelism must not change results"
        );
    }
}

#[cfg(test)]
mod selected_columns_tests {
    use super::*;
    use crate::engine::{EngineOptions, Grouping};
    use crate::solver::SolveOptions;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_dbcsr::BlockedDims;
    use sm_linalg::Matrix;

    fn banded_gapped(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            let bi = (i / bs) as isize;
            let bj = (j / bs) as isize;
            if (bi - bj).abs() > 1 {
                0.0
            } else if i == j {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.06 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        (dense, dims)
    }

    #[test]
    fn selected_columns_driver_matches_full_driver() {
        let (dense, dims) = banded_gapped(10, 3);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let full = SubmatrixEngine::default()
            .sign(&m, 0.1, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        let selected = NumericOptions {
            use_selected_columns: true,
            ..Default::default()
        };
        let sel = SubmatrixEngine::default()
            .sign(&m, 0.1, &selected, &comm)
            .0
            .to_dense(&comm);
        assert!(
            sel.allclose(&full, 1e-12),
            "selected-columns path deviates, max diff {}",
            sel.max_abs_diff(&full)
        );
    }

    #[test]
    fn selected_columns_with_combined_groups() {
        let (dense, dims) = banded_gapped(12, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        for grouping in [Grouping::OnePerColumn, Grouping::Consecutive(3)] {
            let engine = SubmatrixEngine::new(EngineOptions {
                grouping,
                ..Default::default()
            });
            let fast = NumericOptions {
                use_selected_columns: true,
                ..Default::default()
            };
            let full = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
            let sel = engine.sign(&m, 0.0, &fast, &comm);
            let (full, sel) = (full.0.to_dense(&comm), sel.0.to_dense(&comm));
            assert!(sel.allclose(&full, 1e-12));
        }
    }

    #[test]
    fn selected_columns_finite_temperature() {
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let solve = SolveOptions {
            kt: 0.04,
            ..SolveOptions::default()
        };
        let base = NumericOptions {
            solve,
            ..Default::default()
        };
        let fast = NumericOptions {
            use_selected_columns: true,
            ..base
        };
        let engine = SubmatrixEngine::default();
        let full = engine.sign(&m, 0.0, &base, &comm).0.to_dense(&comm);
        let sel = engine.sign(&m, 0.0, &fast, &comm).0.to_dense(&comm);
        assert!(sel.allclose(&full, 1e-12));
    }

    #[test]
    fn selected_columns_distributed_matches_serial() {
        let (dense, dims) = banded_gapped(9, 2);
        let comm = SerialComm::new();
        let selected = NumericOptions {
            use_selected_columns: true,
            ..Default::default()
        };
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.0, &selected, &comm)
                .0
                .to_dense(&comm)
        };
        let engine = SubmatrixEngine::default();
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            engine.sign(&m, 0.0, &selected, c).0.to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&serial, 1e-13));
        }
    }

    #[test]
    #[should_panic(expected = "grand-canonical")]
    fn selected_columns_rejects_canonical() {
        let (dense, dims) = banded_gapped(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            use_selected_columns: true,
            ensemble: Ensemble::Canonical {
                n_electrons: 4.0,
                tol: 1e-8,
                max_iter: 50,
            },
            ..Default::default()
        };
        let _ = SubmatrixEngine::default().sign(&m, 0.0, &numeric, &comm);
    }
}
