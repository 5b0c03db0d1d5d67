//! The persistent submatrix engine: symbolic/numeric phase split with plan
//! caching.
//!
//! In the paper's target workload (SCF iterations inside CP2K, Sec. IV) the
//! sparsity pattern is *fixed* across iterations while matrix values
//! change, so the whole symbolic pipeline is hoisted into a one-time
//! **symbolic phase** whose product, a [`PatternPlan`](crate::plan::PatternPlan),
//! is cached under a cheap [pattern fingerprint](sm_dbcsr::wire::PatternFingerprint)
//! until `clear_cache`; each rank's [`ExecutionPlan`] is derived from it
//! locally and replayed by an allocation-light **numeric phase**. `cache`
//! holds the plan cache and its hit/miss consensus, `exec` the numeric
//! phase. The engine is an SPMD object like [`sm_dbcsr::DbcsrMatrix`], and
//! one engine may be shared between rank-per-thread executors.
//!
//! **Precision and the solve backend are numeric-phase-only**
//! ([`NumericOptions::precision`], [`NumericOptions::backend`]): neither
//! appears in the fingerprint, the cache key or any symbolic decision, so
//! one cached plan serves all of them and two groups running one pattern
//! at different precisions still agree on hit/miss. `cache` does not
//! import the types, and CI checks that it does not.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sm_linalg::Precision;

use crate::solver::{SolveBackend, SolveOptions};
use crate::transfers::TransferStats;

mod cache;
mod exec;

pub use crate::assembly::{AssemblyMap, AssemblySlot, ExtractionMap, ExtractionSlot};
pub use crate::plan::ExecutionPlan;
use cache::PlanCache;
pub use cache::Planning;

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
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            grouping: Grouping::OnePerColumn,
            parallel: true,
        }
    }
}

/// Element-fill fraction below which [`BackendPolicy::Auto`] routes
/// iterative solves through the sparse CSR backend: the "< 20 % full" of
/// paper Sec. V-C, not a measured crossover. Measured, the CSR solve takes
/// 1.8–5.3× the dense wall at every fill tried (README's Sec. V-C table).
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
    /// Read by nothing: every diagonalization evaluates only the
    /// contributing columns of each submatrix's sign (Sec. VII), in every
    /// ensemble and precision. Kept while smbench names it.
    #[deprecated(note = "read by nothing; every diagonalization evaluates selected columns")]
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
    /// True if the pattern came from the cache (no gather this call).
    pub plan_cached: bool,
    /// Seconds of symbolic work this call: 0 when the rank's view was
    /// cached, a view derivation's when only the pattern was.
    pub symbolic_seconds: f64,
    /// Seconds gathering remote blocks.
    pub gather_seconds: f64,
    /// Seconds assembling + solving submatrices.
    pub solve_seconds: f64,
    /// Seconds extracting + scattering results.
    pub scatter_seconds: f64,
}

impl EngineReport {
    /// Record what *this call*'s planning did ([`Planning`]): the single
    /// definition every plan-then-execute path (engine drivers,
    /// `JobQueue`, the scheduler) applies, so their telemetry stays
    /// comparable.
    pub fn record_planning(&mut self, planning: Planning) {
        self.plan_cached = !planning.built;
        self.symbolic_seconds = planning.symbolic_seconds;
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
        self.transfers += later.transfers;
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
    /// Pattern entries built (cache misses: the decisions that gathered).
    pub symbolic_builds: usize,
    /// Pattern hits, a view derivation included.
    pub cache_hits: usize,
    /// Rank views derived locally from a cached pattern (no gather).
    pub view_derivations: usize,
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
            view_derivations: self
                .view_derivations
                .saturating_sub(earlier.view_derivations),
            executions: self.executions.saturating_sub(earlier.executions),
        }
    }
}

#[derive(Default)]
struct Counters {
    builds: AtomicUsize,
    hits: AtomicUsize,
    view_derivations: AtomicUsize,
    executions: AtomicUsize,
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
            view_derivations: self.counters.view_derivations.load(Ordering::Relaxed),
            executions: self.counters.executions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use sm_dbcsr::BlockedDims;
    use sm_linalg::Matrix;

    /// Banded block matrix with a spectral gap at 0, shared by the test
    /// modules of `cache` and `exec`.
    pub(super) fn banded_gapped(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
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
}
