//! The five workloads. Each is built from `--seed`, runs ops of fixed
//! work through the crates' public front-ends, and checks every op's
//! output against a reference computed another way.
//!
//! Why these five (one line each is also in `BENCHMARK.json`; sizes and
//! the reasons for them are in `benchmark/README.md`):
//!
//! * `dense_fp64` — one 512-dimensional Padé-3 solve per op: `gemm` f64
//!   does ≥ 95 % of the work. What a microkernel change claims on.
//! * `dense_fp32` — the same inputs and plan at `Precision::Fp32`: f32
//!   storage, the `matmul_wide` kernel, f32 wire. A gain for one
//!   precision that costs the other shows here.
//! * `sparse_auto` — a 64-molecule water box whose element fill (0.14)
//!   makes `BackendPolicy::Auto` pick the CSR kernel: the only workload
//!   where `SPARSE_FILL_THRESHOLD` and the CSR kernel do the work and
//!   dense GEMM does none.
//! * `scf_md_w2` — three canonical-ensemble SCF systems through
//!   `ScfService::run(2, …)`, values resubmitted on warm plans: the
//!   eigensolver, µ bisection, plan hits, and — the third job is re-dealt
//!   onto both ranks — real gather/scatter and allreduce traffic.
//! * `batch_tiny_w2` — batches of 60 distinct-pattern jobs of dimension
//!   6–16 through `Scheduler::run(2, …)` on a cleared plan cache:
//!   fingerprinting, symbolic planning, epoch splits and wire packing
//!   outweigh the solves. Where a scheduler rewrite must not regress.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sm_chem::energy::{band_energy, electron_count, error_mev_per_atom};
use sm_chem::reference::DenseReference;
use sm_chem::{ScfEnsemble, ScfOptions};
use sm_comsim::{run_ranks, Comm, SerialComm};
use sm_core::engine::{
    BackendPolicy, EngineOptions, EngineReport, Ensemble, ExecutionPlan, Grouping, NumericOptions,
    SubmatrixEngine, SPARSE_FILL_THRESHOLD,
};
use sm_core::solver::{solve_sign, SignMethod, SolveBackend, SolveOptions};
use sm_dbcsr::wire::{self, ValueFormat};
use sm_dbcsr::{ops, DbcsrMatrix};
use sm_linalg::{Matrix, Precision};
use sm_pipeline::{
    estimate_batch_job_cost, partition, plan_epochs, serial_scf_loop, BatchJob, JobQueue,
    JobResult, MatrixJob, RankBudget, ScfJobSpec, ScfService, Scheduler, SchedulerOutcome,
    StealPolicy,
};
use sm_trace::TraceSession;

use crate::inputs::{self, WaterSystem};
use crate::report::Metrics;
use crate::spans::Recorder;
use crate::stats::{median, median_seconds, seconds};

pub const NAMES: [&str; 5] = [
    "dense_fp64",
    "dense_fp32",
    "sparse_auto",
    "scf_md_w2",
    "batch_tiny_w2",
];

/// World size of the two scheduler workloads.
const WORLD: usize = 2;
/// SCF iterations per system per op (`tol = 0` makes the count exact).
const SCF_ITERATIONS: usize = 2;
/// Electronic temperature of the SCF systems. At `kT = 0` the occupation
/// is a step function of µ and the canonical bisection cannot meet its
/// electron-count tolerance on most liquid arrangements; a little smearing
/// (paper Sec. IV-F) gives it a solution, and a repeatable iteration count.
const SCF_KT: f64 = 0.01;
/// Factor the timed ops' Kohn–Sham values (and µ) are scaled by relative
/// to the matrices the plans were built and warmed on.
const MD_STEP_SCALE: f64 = 1.0 + 1.0 / 128.0;
/// Batches of 60 jobs in one `batch_tiny_w2` op (calibrated to ~0.35 s).
const TINY_BATCHES_PER_OP: usize = 80;

/// What the measurement loop needs from a workload.
pub trait Workload {
    /// Everything one op produced.
    type Output;
    /// What every op's output is checked against.
    type Expected;

    /// One timed op, untraced.
    fn op(&self) -> Self::Output;

    /// The same work with spans at every layer boundary.
    fn traced_op(&self, rec: &mut Recorder) -> Self::Output;

    /// Submatrix solves one op completes.
    fn solves_per_op(&self) -> f64;

    /// The reference result, computed once, outside the timed region,
    /// through another path than `op` takes.
    fn expected(&self) -> Self::Expected;

    /// Verify one op's output (right after the op, outside its timing, so
    /// that a run holds one output at a time however many ops it makes).
    fn check(&self, out: &Self::Output, expected: &Self::Expected) -> Result<(), String>;

    /// Workload-specific per-layer metrics. `untraced` holds the walls of
    /// this run's untraced ops, `traced` the outputs of its traced ops (op
    /// ids `0..traced.len()` in `rec`); untraced op `k` ran just before
    /// traced op `k`.
    fn layers(
        &self,
        untraced: &[f64],
        traced: &[Self::Output],
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<(), String>;
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

fn bitwise_equal(a: &DbcsrMatrix, b: &DbcsrMatrix) -> bool {
    a.store().len() == b.store().len()
        && a.store()
            .iter()
            .zip(b.store().iter())
            .all(|((ca, ma), (cb, mb))| {
                ca == cb
                    && ma.shape() == mb.shape()
                    && ma
                        .as_slice()
                        .iter()
                        .zip(mb.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
}

/// Largest elementwise difference; infinite when the patterns differ.
fn max_abs_diff(a: &DbcsrMatrix, b: &DbcsrMatrix) -> f64 {
    if a.store().len() != b.store().len() {
        return f64::INFINITY;
    }
    a.store()
        .iter()
        .zip(b.store().iter())
        .map(|((ca, ma), (cb, mb))| {
            if ca == cb && ma.shape() == mb.shape() {
                ma.max_abs_diff(mb)
            } else {
                f64::INFINITY
            }
        })
        .fold(0.0, f64::max)
}

/// Order-sensitive hash of every result bit of a batch.
fn fingerprint(results: &[JobResult]) -> u64 {
    let mut h = 0u64;
    for r in results {
        for (&(br, bc), blk) in r.result.store().iter() {
            h = wire::mix64(h ^ ((br as u64) << 32 | bc as u64));
            for x in blk.as_slice() {
                h = wire::mix64(h ^ x.to_bits());
            }
        }
    }
    h
}

fn serial_engine() -> Arc<SubmatrixEngine> {
    // The configuration `JobQueue::default` and `Scheduler::default` use.
    Arc::new(SubmatrixEngine::new(EngineOptions {
        parallel: false,
        ..EngineOptions::default()
    }))
}

/// Seconds per perfmodel cost unit, max ÷ min over `(seconds, units)`.
fn per_unit_spread(samples: impl Iterator<Item = (f64, f64)>) -> f64 {
    let rates: Vec<f64> = samples
        .filter(|&(s, u)| s > 0.0 && u > 0.0)
        .map(|(s, u)| s / u)
        .collect();
    let max = rates.iter().copied().fold(0.0, f64::max);
    let min = rates.iter().copied().fold(f64::INFINITY, f64::min);
    if rates.is_empty() {
        0.0
    } else {
        max / min
    }
}

fn dense_cost_units(n: usize) -> f64 {
    2.0 * (n as f64).powi(3) / sm_accel::perfmodel::matmul_utilization(1.0, n)
}

/// What one walk measured besides its spans.
#[derive(Default)]
pub struct WalkStats {
    pub iterations: usize,
    pub csr_flops: u64,
    /// `(dimension, solve seconds)` per submatrix.
    pub solves: Vec<(usize, f64)>,
}

/// `SubmatrixEngine::execute`, taken apart: the same public calls in the
/// same order — `fetch_blocks_prec` → per submatrix `AssemblyMap::assemble`
/// → `solve_sign` → `ExtractionMap::extract` → `exchange_blocks_prec` —
/// each under its own span. Grand-canonical, full-column evaluations only.
/// The result must equal `execute`'s bit for bit; `check` verifies that.
pub fn walk<C: Comm>(
    plan: &ExecutionPlan,
    values: &DbcsrMatrix,
    mu: f64,
    numeric: &NumericOptions,
    comm: &C,
    rec: &mut Recorder,
) -> (DbcsrMatrix, WalkStats) {
    assert!(matches!(numeric.ensemble, Ensemble::GrandCanonical) && !numeric.use_selected_columns);
    let solve = SolveOptions {
        precision: numeric.precision,
        backend: numeric.backend.resolve(plan.element_fill),
        ..numeric.solve
    };
    let format = |f32_wire: bool| {
        if f32_wire {
            ValueFormat::F32
        } else {
            ValueFormat::F64
        }
    };
    let mut stats = WalkStats::default();

    let (fetched, _) = rec.scope("dbcsr.gather", |_| {
        ops::fetch_blocks_prec(
            values,
            &plan.remote_wanted,
            format(numeric.precision.gather_is_f32()),
            comm,
        )
    });
    let block_of = |br: usize, bc: usize| values.block(br, bc).or_else(|| fetched.get(&(br, bc)));

    let mut extracted: Vec<BTreeMap<(usize, usize), Matrix>> = Vec::new();
    for (assembly, extraction) in plan.assembly.iter().zip(&plan.extraction) {
        let a = rec.scope("core.assemble", |_| assembly.assemble(block_of));
        let (solved, solve_s) = rec.timed("core.solve", |_| {
            solve_sign(&a, mu, &solve).unwrap_or_else(|e| panic!("submatrix solve failed: {e}"))
        });
        stats.iterations += solved.iterations;
        stats.csr_flops += solved.sparse.map_or(0, |s| s.flops);
        stats.solves.push((assembly.dim, solve_s));
        extracted.push(rec.scope("core.extract", |_| extraction.extract(&solved.sign)));
    }

    let result = rec.scope("dbcsr.scatter", |_| {
        let mut result = DbcsrMatrix::new(plan.dims.clone(), comm.rank(), comm.size());
        let mut outgoing: Vec<BTreeMap<(usize, usize), Matrix>> =
            (0..comm.size()).map(|_| BTreeMap::new()).collect();
        for (coord, blk) in extracted.into_iter().flatten() {
            outgoing[result.owner(coord.0, coord.1)].insert(coord, blk);
        }
        let (received, _) = wire::exchange_blocks_prec(
            outgoing,
            &plan.dims,
            format(numeric.precision.scatter_is_f32()),
            comm,
        );
        for ((br, bc), blk) in received {
            result.insert_block(br, bc, blk);
        }
        result
    });
    (result, stats)
}

/// Median over the traced ops of each op's summed span time.
fn median_op_total(rec: &Recorder, ops: usize, name: &str) -> f64 {
    median(
        &(0..ops)
            .map(|op| rec.op_total(op, name))
            .collect::<Vec<_>>(),
    )
}

/// Cold plan, cache hit and fingerprint seconds over `matrices` (summed:
/// one op's worth of distinct patterns), on a fresh cache each repeat.
fn planning_metrics(engine: &SubmatrixEngine, matrices: &[&DbcsrMatrix], m: &mut Metrics) {
    let comm = SerialComm::new();
    let sum_of = |f: &dyn Fn(&DbcsrMatrix)| seconds(|| matrices.iter().for_each(|&x| f(x)));
    let (mut cold, mut hit, mut fp) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..5 {
        engine.clear_cache();
        cold.push(sum_of(&|x| drop(engine.plan_for_matrix(x, &comm))));
        hit.push(sum_of(&|x| drop(engine.plan_for_matrix(x, &comm))));
        fp.push(sum_of(&|x| {
            std::hint::black_box(x.pattern_fingerprint(&comm));
        }));
    }
    m.set("core.symbolic_s", median(&cold));
    m.set("core.plan_hit_s", median(&hit));
    m.set("dbcsr.fingerprint_s", median(&fp));
}

fn plan_shape_metrics(plans: &[Arc<ExecutionPlan>], m: &mut Metrics) {
    let n: usize = plans.iter().map(|p| p.n_submatrices).sum();
    let dim_sum: f64 = plans
        .iter()
        .map(|p| p.avg_dim * p.n_submatrices as f64)
        .sum();
    let elems: f64 = plans.iter().map(|p| (p.dims.n() * p.dims.n()) as f64).sum();
    let filled: f64 = plans
        .iter()
        .map(|p| p.element_fill * (p.dims.n() * p.dims.n()) as f64)
        .sum();
    m.set("core.n_submatrices", n as f64);
    m.set("core.avg_dim", dim_sum / n as f64);
    m.set(
        "core.max_dim",
        plans.iter().map(|p| p.max_dim).max().unwrap_or(0) as f64,
    );
    m.set("core.element_fill", filled / elems);
    m.set("core.cost_units", plans.iter().map(|p| p.total_cost).sum());
}

// ---------------------------------------------------------------------------
// World-1 engine workloads: dense_fp64, dense_fp32, sparse_auto
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
pub enum EngineKind {
    DenseFp64,
    DenseFp32,
    SparseAuto,
}

pub struct EngineWorkload {
    kind: EngineKind,
    matrix: DbcsrMatrix,
    mu: f64,
    engine: SubmatrixEngine,
    plan: Arc<ExecutionPlan>,
    numeric: NumericOptions,
    /// Counts of the latest traced op (the spans carry only times).
    last_walk: RefCell<WalkStats>,
}

impl EngineWorkload {
    /// Inputs → engine → cold symbolic plan → one warm-up op.
    pub fn setup(kind: EngineKind, seed: u64, rec: &mut Recorder) -> Self {
        let comm = SerialComm::new();
        let pade3 = SolveOptions {
            method: SignMethod::Pade(3),
            ..SolveOptions::default()
        };
        let (matrix, mu, grouping, numeric) = match kind {
            EngineKind::DenseFp64 | EngineKind::DenseFp32 => (
                rec.scope("bench.inputs", |_| inputs::dense_banded(seed)),
                0.0,
                Grouping::Consecutive(inputs::DENSE_GROUP),
                NumericOptions {
                    solve: pade3,
                    precision: if kind == EngineKind::DenseFp32 {
                        Precision::Fp32
                    } else {
                        Precision::Fp64
                    },
                    backend: BackendPolicy::Dense,
                    ..NumericOptions::default()
                },
            ),
            EngineKind::SparseAuto => {
                let w = inputs::water_system(2, 0, 1e-5, 1e-4, seed, rec);
                let numeric = NumericOptions {
                    solve: pade3,
                    backend: BackendPolicy::Auto,
                    ..NumericOptions::default()
                };
                (w.kt, w.mu, Grouping::OnePerColumn, numeric)
            }
        };
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping,
            ..EngineOptions::default()
        });
        let plan = rec.scope("core.symbolic", |_| engine.plan_for_matrix(&matrix, &comm));
        let w = EngineWorkload {
            kind,
            matrix,
            mu,
            engine,
            plan,
            numeric,
            last_walk: RefCell::default(),
        };
        rec.scope("bench.warmup", |_| drop(w.op()));
        w
    }

    fn execute_with(&self, numeric: &NumericOptions) -> (DbcsrMatrix, EngineReport) {
        let comm = SerialComm::new();
        self.engine
            .execute(&self.plan, &self.matrix, self.mu, numeric, &comm)
    }

    /// Wall of this workload's op over the wall of the same op under
    /// another numeric configuration: median of three adjacent pairs.
    fn wall_over_variant(&self, other: &NumericOptions) -> f64 {
        let wall = |numeric: &NumericOptions| seconds(|| drop(self.execute_with(numeric)));
        let ratios: Vec<f64> = (0..3).map(|_| wall(&self.numeric) / wall(other)).collect();
        median(&ratios)
    }

    fn fp64_variant(&self) -> NumericOptions {
        NumericOptions {
            precision: Precision::Fp64,
            ..self.numeric
        }
    }

    fn dense_variant(&self) -> NumericOptions {
        NumericOptions {
            backend: BackendPolicy::Dense,
            ..self.numeric
        }
    }
}

impl Workload for EngineWorkload {
    /// The result and the solve backend the op resolved to.
    type Output = (DbcsrMatrix, SolveBackend);
    /// The layer walk's result, and whether it passed its own cross-check.
    type Expected = (DbcsrMatrix, Result<(), String>);

    fn op(&self) -> Self::Output {
        let (result, report) = self.execute_with(&self.numeric);
        (result, report.backend)
    }

    fn traced_op(&self, rec: &mut Recorder) -> Self::Output {
        let comm = SerialComm::new();
        let (result, stats) = walk(&self.plan, &self.matrix, self.mu, &self.numeric, &comm, rec);
        *self.last_walk.borrow_mut() = stats;
        (result, self.numeric.backend.resolve(self.plan.element_fill))
    }

    fn solves_per_op(&self) -> f64 {
        self.plan.n_submatrices as f64
    }

    fn expected(&self) -> Self::Expected {
        let comm = SerialComm::new();
        let mut off = Recorder::off();
        let (reference, _) = walk(
            &self.plan,
            &self.matrix,
            self.mu,
            &self.numeric,
            &comm,
            &mut off,
        );
        // One check of the reference itself per kind; it holds for every
        // op whose output equals the reference bit for bit.
        let within = |what: &str, other: &NumericOptions, limit: f64| {
            let d = max_abs_diff(&reference, &self.execute_with(other).0);
            if d <= limit {
                Ok(())
            } else {
                Err(format!(
                    "result is {d:.3e} from the {what} result (limit {limit:e})"
                ))
            }
        };
        let cross_check = match self.kind {
            EngineKind::DenseFp64 => Ok(()),
            EngineKind::DenseFp32 => within("fp64", &self.fp64_variant(), 1e-4),
            EngineKind::SparseAuto => within("forced-dense", &self.dense_variant(), 1e-10),
        };
        (reference, cross_check)
    }

    fn check(&self, out: &Self::Output, expected: &Self::Expected) -> Result<(), String> {
        let (result, backend) = out;
        let (reference, cross_check) = expected;
        cross_check.clone()?;
        // Below the threshold `Auto` must have picked the CSR kernel; a
        // change that moves the threshold under this fill turns the
        // workload dense, and says so in its wall.
        if self.kind == EngineKind::SparseAuto
            && self.plan.element_fill < SPARSE_FILL_THRESHOLD
            && *backend != SolveBackend::SparseCsr
        {
            return Err(format!(
                "Auto resolved to {backend:?} at fill {:.4} (threshold {SPARSE_FILL_THRESHOLD})",
                self.plan.element_fill
            ));
        }
        if bitwise_equal(result, reference) {
            Ok(())
        } else {
            Err("output differs from the layer walk's".to_string())
        }
    }

    fn layers(
        &self,
        untraced: &[f64],
        traced: &[Self::Output],
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let ops = traced.len();
        let phase = |name: &str| median_op_total(rec, ops, name);
        let (gather, assemble, solve, extract, scatter) = (
            phase("dbcsr.gather"),
            phase("core.assemble"),
            phase("core.solve"),
            phase("core.extract"),
            phase("dbcsr.scatter"),
        );
        let walk_total = gather + assemble + solve + extract + scatter;
        m.set("dbcsr.gather_s", gather);
        m.set("core.assemble_s", assemble);
        m.set("core.solve_s", solve);
        m.set("core.extract_s", extract);
        m.set("dbcsr.scatter_s", scatter);
        let share = solve / walk_total;
        m.set("core.solve_share", share);
        // Layer seconds of traced op k over the wall of the untraced op
        // that ran just before it: the pairing keeps the host's drift,
        // which moves whole seconds of a run by a third, out of the ratio.
        let layer_sum = |op: usize| -> f64 {
            [
                "dbcsr.gather",
                "core.assemble",
                "core.solve",
                "core.extract",
                "dbcsr.scatter",
            ]
            .iter()
            .map(|name| rec.op_total(op, name))
            .sum()
        };
        let ratios: Vec<f64> = (0..ops).map(|k| layer_sum(k) / untraced[k]).collect();
        let ratio = median(&ratios);
        m.set("core.walk_over_execute", ratio);
        // What the layers cover of the traced op they were measured in —
        // one interval, so the host cannot move one side of this ratio.
        let coverage: Vec<f64> = (0..ops)
            .map(|k| layer_sum(k) / rec.op_total(k, "bench.op"))
            .collect();
        let coverage = median(&coverage);

        let stats = self.last_walk.borrow();
        m.set("linalg.pade3_iterations", stats.iterations as f64);
        m.set("linalg.csr_flops", stats.csr_flops as f64);
        m.set(
            "accel.s_per_unit_spread",
            per_unit_spread(stats.solves.iter().map(|&(n, s)| (s, dense_cost_units(n)))),
        );

        match self.kind {
            EngineKind::DenseFp64 => {}
            EngineKind::DenseFp32 => m.set(
                "core.fp32_over_fp64_wall",
                self.wall_over_variant(&self.fp64_variant()),
            ),
            EngineKind::SparseAuto => m.set(
                "core.auto_over_dense_wall",
                self.wall_over_variant(&self.dense_variant()),
            ),
        }

        plan_shape_metrics(std::slice::from_ref(&self.plan), m);
        let before = self.engine.stats();
        planning_metrics(&self.engine, &[&self.matrix], m);
        // The probe above plans on a cleared cache five times; report the
        // run's own counters, taken before it.
        m.set("core.plan_builds", before.symbolic_builds as f64);
        m.set("core.plan_hits", before.cache_hits as f64);

        if coverage < 0.95 {
            return Err(format!(
                "the layers cover {coverage:.4} of the traced op, under 0.95"
            ));
        }
        if !(0.95..=1.05).contains(&ratio) {
            eprintln!("smbench: warning: core.walk_over_execute = {ratio:.4}, outside 0.95–1.05");
        }
        if self.kind != EngineKind::SparseAuto && share < 0.95 {
            return Err(format!(
                "core.solve_share = {share:.4} < 0.95 on a dense workload"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// World-2 scheduler workloads: scf_md_w2, batch_tiny_w2
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq)]
pub enum SchedKind {
    ScfMd,
    BatchTiny,
}

enum Front {
    Scf {
        service: ScfService,
        /// The systems as built (what the plans were warmed on).
        systems: Vec<WaterSystem>,
        /// What every timed op submits: the systems at [`MD_STEP_SCALE`].
        specs: Vec<ScfJobSpec>,
    },
    Tiny {
        sched: Scheduler,
        jobs: Vec<MatrixJob>,
    },
}

pub struct SchedWorkload {
    front: Front,
    /// Front-end calls per op.
    batches: usize,
}

/// One op's outcome: the last batch in full, every batch by fingerprint,
/// and the op's counters.
pub struct SchedOutput {
    last: SchedulerOutcome,
    fingerprints: Vec<u64>,
    plan_builds: usize,
    plan_hits: usize,
    msgs: u64,
    bytes: u64,
}

fn scf_spec(index: usize, sys: &WaterSystem, scale: f64) -> ScfJobSpec {
    let mut spec = ScfJobSpec::new(
        format!("water-{index}"),
        inputs::scaled(&sys.kt, scale),
        sys.mu * scale,
        sys.n_electrons,
    );
    spec.scf = ScfOptions {
        max_iter: SCF_ITERATIONS,
        tol: 0.0,
        ensemble: ScfEnsemble::Canonical,
        ..ScfOptions::default()
    };
    spec.scf.numeric.solve.kt = SCF_KT;
    spec
}

impl SchedWorkload {
    /// Inputs → front-end → cold serial plans → one warm-up op (which also
    /// builds the group-sized plans the serial pass cannot).
    pub fn setup(kind: SchedKind, seed: u64, rec: &mut Recorder) -> Self {
        let comm = SerialComm::new();
        let w = match kind {
            SchedKind::ScfMd => {
                let systems: Vec<WaterSystem> = (0..3)
                    .map(|g| inputs::water_system(1, g, 1e-5, 1e-5, seed.wrapping_add(g), rec))
                    .collect();
                let service = ScfService::default();
                rec.scope("core.symbolic", |_| {
                    for sys in &systems {
                        service.engine().plan_for_matrix(&sys.kt, &comm);
                    }
                });
                let warm = systems.iter().enumerate().map(|(i, s)| scf_spec(i, s, 1.0));
                let warm: Vec<ScfJobSpec> = warm.collect();
                rec.scope("bench.warmup", |_| drop(service.run(WORLD, warm)));
                let specs = systems
                    .iter()
                    .enumerate()
                    .map(|(i, s)| scf_spec(i, s, MD_STEP_SCALE))
                    .collect();
                SchedWorkload {
                    front: Front::Scf {
                        service,
                        systems,
                        specs,
                    },
                    batches: 1,
                }
            }
            SchedKind::BatchTiny => {
                let jobs: Vec<MatrixJob> = rec.scope("bench.inputs", |_| {
                    inputs::tiny_matrices(seed)
                        .into_iter()
                        .enumerate()
                        .map(|(i, m)| MatrixJob::density(format!("tiny-{i}"), m, 0.0))
                        .collect()
                });
                let sched = Scheduler::default();
                rec.scope("core.symbolic", |_| {
                    for job in &jobs {
                        sched.engine().plan_for_matrix(&job.matrix, &comm);
                    }
                });
                let w = SchedWorkload {
                    front: Front::Tiny { sched, jobs },
                    batches: TINY_BATCHES_PER_OP,
                };
                rec.scope("bench.warmup", |_| drop(w.op()));
                w
            }
        };
        w
    }

    fn engine(&self) -> &Arc<SubmatrixEngine> {
        match &self.front {
            Front::Scf { service, .. } => service.engine(),
            Front::Tiny { sched, .. } => sched.engine(),
        }
    }

    fn matrices(&self) -> Vec<&DbcsrMatrix> {
        match &self.front {
            Front::Scf { specs, .. } => specs.iter().map(|s| &s.kt0).collect(),
            Front::Tiny { jobs, .. } => jobs.iter().map(|j| &j.matrix).collect(),
        }
    }

    fn batch_jobs(&self) -> Vec<BatchJob> {
        match &self.front {
            Front::Scf { specs, .. } => specs.iter().cloned().map(BatchJob::Scf).collect(),
            Front::Tiny { jobs, .. } => jobs.iter().cloned().map(BatchJob::Matrix).collect(),
        }
    }

    /// One op at `world` ranks: `batches` front-end calls, each under a
    /// `pipeline.run` span. The tiny batches start from an empty plan
    /// cache, so every batch fingerprints and plans all 60 patterns.
    fn run_batches(&self, world: usize, rec: &mut Recorder) -> SchedOutput {
        let before = self.engine().stats();
        let mut fingerprints = Vec::with_capacity(self.batches);
        let (mut msgs, mut bytes) = (0, 0);
        let mut last = None;
        for _ in 0..self.batches {
            let outcome = rec.scope("pipeline.run", |_| match &self.front {
                Front::Scf { service, specs, .. } => service.run(world, specs.clone()),
                Front::Tiny { sched, jobs } => {
                    sched.engine().clear_cache();
                    sched.run(world, jobs.clone())
                }
            });
            fingerprints.push(fingerprint(&outcome.results));
            msgs += outcome.world_stats.total_msgs();
            bytes += outcome.world_stats.total_bytes();
            last = Some(outcome);
        }
        let delta = self.engine().stats().since(&before);
        SchedOutput {
            last: last.expect("at least one batch per op"),
            fingerprints,
            plan_builds: delta.symbolic_builds,
            plan_hits: delta.cache_hits,
            msgs,
            bytes,
        }
    }

    /// The same op through the serial front-end (`serial_scf_loop` /
    /// `JobQueue::run`) on a fresh engine: wall seconds, the results, and
    /// per job `(solve seconds, estimated cost units)`.
    fn serial_op(&self) -> (f64, Vec<DbcsrMatrix>, Vec<(f64, f64)>) {
        let engine = serial_engine();
        let costs: Vec<f64> = self
            .batch_jobs()
            .iter()
            .map(estimate_batch_job_cost)
            .collect();
        let t = Instant::now();
        let mut out = Vec::new();
        for _ in 0..self.batches {
            out = match &self.front {
                Front::Scf { specs, .. } => serial_scf_loop(&engine, specs)
                    .into_iter()
                    .map(|r| (r.density, r.report.solve_seconds))
                    .collect::<Vec<_>>(),
                Front::Tiny { jobs, .. } => {
                    engine.clear_cache();
                    JobQueue::new(engine.clone())
                        .run(jobs.clone())
                        .into_iter()
                        .map(|r| (r.result, r.report.solve_seconds))
                        .collect()
                }
            };
        }
        let wall = t.elapsed().as_secs_f64();
        let solves = out.iter().zip(costs).map(|((_, s), c)| (*s, c)).collect();
        (wall, out.into_iter().map(|(m, _)| m).collect(), solves)
    }

    /// World-2 layer walk of one input on a grand-canonical
    /// diagonalization solve: what `execute` does on a two-rank group,
    /// rank 0's spans adopted under `bench.walk_w2`.
    fn walk_probe(&self, rec: &mut Recorder, m: &mut Metrics) {
        let input = self
            .matrices()
            .into_iter()
            .max_by_key(|x| x.n())
            .expect("workloads have jobs");
        let engine = serial_engine();
        let numeric = NumericOptions::default();
        rec.scope("bench.walk_w2", |rec| {
            let (mut per_rank, _) = run_ranks(WORLD, |comm| {
                let mut local = DbcsrMatrix::new(input.dims().clone(), comm.rank(), comm.size());
                for (&(br, bc), blk) in input.store().iter() {
                    if local.is_mine(br, bc) {
                        local.insert_block(br, bc, blk.clone());
                    }
                }
                let plan = engine.plan_for_matrix(&local, comm);
                comm.barrier();
                let mut rank_rec = Recorder::new(comm.rank() == 0, Instant::now());
                walk(&plan, &local, 0.0, &numeric, comm, &mut rank_rec);
                rank_rec
            });
            let rank0 = per_rank.swap_remove(0);
            for (metric, span) in [
                ("dbcsr.gather_s", "dbcsr.gather"),
                ("core.assemble_s", "core.assemble"),
                ("core.solve_s", "core.solve"),
                ("core.extract_s", "core.extract"),
                ("dbcsr.scatter_s", "dbcsr.scatter"),
            ] {
                let spans = rank0.spans().iter().filter(|s| s.name == span);
                m.set(metric, spans.map(|s| s.duration()).sum());
            }
            for s in rank0.spans() {
                rec.adopt(s.name, s.start_s, s.duration());
            }
        });
    }
}

impl Workload for SchedWorkload {
    type Output = SchedOutput;
    /// The jobs' results through the serial front-end.
    type Expected = Vec<DbcsrMatrix>;

    fn op(&self) -> SchedOutput {
        self.run_batches(WORLD, &mut Recorder::off())
    }

    fn traced_op(&self, rec: &mut Recorder) -> SchedOutput {
        self.run_batches(WORLD, rec)
    }

    fn solves_per_op(&self) -> f64 {
        let comm = SerialComm::new();
        let per_batch: usize = match &self.front {
            Front::Scf { specs, .. } => specs
                .iter()
                .map(|s| {
                    self.engine().plan_for_matrix(&s.kt0, &comm).n_submatrices * SCF_ITERATIONS
                })
                .sum(),
            Front::Tiny { jobs, .. } => jobs.iter().map(|j| j.matrix.nb()).sum(),
        };
        (per_batch * self.batches) as f64
    }

    fn expected(&self) -> Vec<DbcsrMatrix> {
        self.serial_op().1
    }

    fn check(&self, out: &SchedOutput, reference: &Vec<DbcsrMatrix>) -> Result<(), String> {
        let results = &out.last.results;
        if results.len() != reference.len() {
            return Err(format!(
                "{} results for {} jobs",
                results.len(),
                reference.len()
            ));
        }
        if out.fingerprints.iter().any(|f| *f != out.fingerprints[0]) {
            return Err("batches of one op disagree".to_string());
        }
        match &self.front {
            Front::Tiny { .. } => {
                for (r, expect) in results.iter().zip(reference) {
                    if !bitwise_equal(&r.result, expect) {
                        return Err(format!("job {} differs from JobQueue::run", r.name));
                    }
                }
            }
            Front::Scf { specs, .. } => {
                let mut decisions = 0;
                for ((r, expect), spec) in results.iter().zip(reference).zip(specs) {
                    let d = max_abs_diff(&r.result, expect);
                    if d > 1e-8 {
                        return Err(format!("job {}: {d:.3e} from serial_scf_loop", r.name));
                    }
                    let scf = r.scf.as_ref().ok_or("SCF job without SCF telemetry")?;
                    if scf.iterations != SCF_ITERATIONS {
                        return Err(format!("job {}: {} iterations", r.name, scf.iterations));
                    }
                    let de = (scf.final_electrons - spec.n_electrons).abs();
                    if de > 1e-6 {
                        return Err(format!("job {}: electron count off by {de:.3e}", r.name));
                    }
                    decisions += r.group_size * scf.iterations;
                }
                // Invariant 1: one planning decision per rank per
                // iteration, each either a hit or a build.
                if out.plan_hits + out.plan_builds != decisions {
                    return Err(format!(
                        "hits {} + builds {} != Σ group_size × iterations = {decisions}",
                        out.plan_hits, out.plan_builds
                    ));
                }
            }
        }
        Ok(())
    }

    fn layers(
        &self,
        untraced: &[f64],
        traced: &[SchedOutput],
        rec: &mut Recorder,
        m: &mut Metrics,
    ) -> Result<(), String> {
        let untraced_op_s = median(untraced);
        let comm = SerialComm::new();
        let matrices = self.matrices();
        let probe_engine = serial_engine();
        let plans: Vec<_> = matrices
            .iter()
            .map(|x| probe_engine.plan_for_matrix(x, &comm))
            .collect();
        plan_shape_metrics(&plans, m);
        planning_metrics(&probe_engine, &matrices, m);

        // Counters of one op; they repeat exactly.
        let out = &traced[0];
        let results = &out.last.results;
        let per_op = self.batches as f64;
        let sum =
            |f: &dyn Fn(&JobResult) -> u64| results.iter().map(f).sum::<u64>() as f64 * per_op;
        m.set("core.plan_builds", out.plan_builds as f64);
        m.set("core.plan_hits", out.plan_hits as f64);
        m.set(
            "core.mu_bisect_iterations",
            sum(&|r| r.report.bisect_iterations as u64),
        );
        m.set(
            "dbcsr.gather_value_bytes",
            sum(&|r| r.report.gather_value_bytes),
        );
        m.set(
            "dbcsr.scatter_value_bytes",
            sum(&|r| r.report.scatter_value_bytes),
        );
        m.set("comsim.msgs", out.msgs as f64);
        m.set("comsim.bytes", out.bytes as f64);
        let schedule = &out.last.schedule;
        m.set("pipeline.epochs", schedule.epochs.len() as f64 * per_op);
        m.set(
            "pipeline.groups",
            schedule
                .epochs
                .iter()
                .map(|e| e.groups.len())
                .sum::<usize>() as f64
                * per_op,
        );
        m.set(
            "pipeline.stolen_jobs",
            out.last.steal_stats.stolen_jobs as f64 * per_op,
        );
        // Bytes that crossed the world outside any job's group: the result
        // and telemetry gather to rank 0 plus the epoch control traffic.
        m.set(
            "pipeline.result_gather_bytes",
            out.bytes as f64 - sum(&|r| r.comm_bytes),
        );
        m.set(
            "chem.scf_iterations",
            sum(&|r| r.scf.as_ref().map_or(0, |s| s.iterations as u64)),
        );

        let jobs = self.batch_jobs();
        let budget = RankBudget::default();
        let mut estimate = Vec::new();
        let mut epochs = Vec::new();
        for _ in 0..5 {
            let mut costs = Vec::new();
            estimate.push(seconds(|| {
                costs = jobs.iter().map(estimate_batch_job_cost).collect();
            }));
            epochs.push(seconds(|| {
                drop(partition(&costs, WORLD, &budget));
                drop(plan_epochs(&costs, WORLD, &budget, StealPolicy::default()));
            }));
        }
        m.set("pipeline.estimate_s", median(&estimate) * per_op);
        m.set("pipeline.plan_epochs_s", median(&epochs) * per_op);

        // Share of the ranks' time inside the engine's solve phase, from
        // the op's own job reports: both sides of the ratio come from one
        // interval, so the host's drift cancels.
        let solve_rank_s = results.iter().map(|r| r.report.solve_seconds).sum::<f64>() * per_op;
        let share = solve_rank_s / (WORLD as f64 * rec.op_total(0, "bench.op"));
        m.set("core.solve_share", share);

        let (serial_s, _, solves) = self.serial_op();
        m.set("pipeline.serial_wall_s", serial_s);
        m.set("pipeline.overhead_s", untraced_op_s - serial_s);
        m.set(
            "accel.s_per_unit_spread",
            per_unit_spread(solves.into_iter()),
        );
        let mut off = Recorder::off();
        let w2_s = seconds(|| drop(self.run_batches(WORLD, &mut off)));
        let w1_s = seconds(|| drop(self.run_batches(1, &mut off)));
        m.set("pipeline.w2_over_w1_wall", w2_s / w1_s);

        self.walk_probe(rec, m);

        if let Front::Scf { systems, .. } = &self.front {
            let sys = &systems[0];
            let plan = probe_engine.plan_for_matrix(&sys.kt, &comm);
            let a = plan.assembly[0].assemble(|br, bc| sys.kt.block(br, bc));
            m.set(
                "linalg.eigh_s",
                median_seconds(5, || drop(sm_linalg::eigh::eigh(&a))),
            );

            // Accuracy of the method itself on the workload's own matrix:
            // one grand-canonical density build at the model µ against
            // exact diagonalization.
            let (density, _) =
                probe_engine.density(&sys.kt, sys.mu, &NumericOptions::default(), &comm);
            let t = Instant::now();
            let energy = band_energy(&density, &sys.kt, &comm);
            let electrons = electron_count(&density, &comm);
            m.set("chem.energy_s", t.elapsed().as_secs_f64());
            let exact = DenseReference::new(&sys.kt.to_dense(&comm)).map_err(|e| e.to_string())?;
            m.set(
                "chem.error_mev_per_atom",
                error_mev_per_atom(energy, exact.band_energy(sys.mu), sys.n_atoms),
            );
            m.set(
                "chem.electron_error",
                (electrons - exact.electron_count(sys.mu, 0.0)).abs(),
            );
            m.set(
                "chem.scf_iter_s",
                serial_s / (SCF_ITERATIONS * systems.len()) as f64,
            );

            // `sm_trace` live against off on this workload's own op, in
            // adjacent pairs.
            let wall = || seconds(|| drop(self.op()));
            let mut events = 0;
            let ratios: Vec<f64> = (0..3)
                .map(|_| {
                    let off = wall();
                    let session = TraceSession::start("smbench");
                    let live = wall();
                    events = session.events().len();
                    live / off
                })
                .collect();
            m.set("trace.events", events as f64);
            m.set("trace.session_overhead_frac", median(&ratios) - 1.0);
        }

        if matches!(self.front, Front::Tiny { .. }) && share > 0.5 {
            return Err(format!(
                "core.solve_share = {share:.4} > 0.5 on batch_tiny_w2"
            ));
        }
        Ok(())
    }
}
