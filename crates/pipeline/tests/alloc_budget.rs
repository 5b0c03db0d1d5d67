//! Allocation budget of a tiny job (the instrument of ROADMAP's "Nothing
//! is created per call"), counts of one 60-job batch of distinct patterns:
//!
//! * heap allocations per job through `JobQueue::run` — fingerprint, plan,
//!   execute — under a committed ceiling, and those of its cold
//!   `plan_for_matrix` alone under one of their own;
//! * how many more a job costs through `Scheduler::run(2, ..)`: the solves
//!   and the planning are the same on both sides, so the difference is the
//!   data path around them — input scatter, the ranks' shares and their
//!   merge into results, the schedule;
//! * the OS threads a warm `Scheduler::run(2, ..)` starts, which must be
//!   none: the scheduler's rank world outlives its batches;
//! * the allocations of the batch's epoch schedule (`plan_epochs` at world
//!   2), under a committed ceiling;
//! * what a warm `execute` on a cached plan allocates beyond the result it
//!   returns, which must not grow with the number of submatrices;
//! * the most heap bytes a Padé-3 `solve_sign` of an owned 256-dimensional
//!   block holds at once above its input, per precision: the four `n²`
//!   buffers of the iteration and the GEMM's pack buffers, no copy of the
//!   input.
//!
//! The counters are process-wide, so the tests of this binary take turns
//! (`ONE_AT_A_TIME`): a test running beside another would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use sm_comsim::SerialComm;
use sm_core::solver::{solve_sign, SignMethod, SolveOptions};
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::{Matrix, Precision};
use sm_pipeline::{
    estimate_batch_job_cost, plan_epochs, BatchJob, JobQueue, MatrixJob, RankBudget, Scheduler,
    StealPolicy,
};

/// Committed ceiling on `(scheduler − queue) / jobs`: the commit that last
/// lowered it reads 7.7–7.9 on two CPUs and 8.6 pinned to one (its parent
/// 31.4–31.9 and 32.3, while results were gathered to world rank 0), and
/// the rest is slack for the queue's run-to-run spread. The queue's pool
/// spawns its threads inside the measured call and the scheduler's warm
/// world none, so fewer CPUs read higher.
const EXTRA_ALLOCATIONS_PER_JOB_CEILING: f64 = 9.5;

/// Committed ceiling on `JobQueue::run`'s allocations per job with a pool
/// of two threads: the commit that last lowered it reads 42.7 (its parent
/// 74.4–74.9: one set of copy-program buffers per submatrix, and a
/// partition copied by every plan, view and matrix), and the rest is the
/// same slack for the pool threads' share.
const QUEUE_ALLOCATIONS_PER_JOB_CEILING: f64 = 43.8;

/// Committed ceiling on a cold one-rank `plan_for_matrix` of a tiny job —
/// the pattern gather, the pattern plan and the rank's view with its copy
/// programs in three buffers: the commit that introduced it reads 13.0
/// (its parent 37.05, one set of buffers per submatrix).
const COLD_PLAN_ALLOCATIONS_CEILING: f64 = 14.0;

/// Committed ceiling on the allocations of the batch's `plan_epochs` at
/// world 2 (30 epochs): the commit that introduced it reads 245, of which
/// the schedule it returns holds 221 (its parent read 786).
const PLAN_ALLOCATIONS_CEILING: u64 = 245;

/// What each further pool thread may add to the batch: its spawn and its
/// own eigensolver scratch (37 measured from one thread to two).
const ALLOCATIONS_PER_POOL_THREAD: f64 = 40.0;

const JOBS: usize = 60;

/// Dimension of the dense solve whose high-water mark is measured: the
/// size at which its products first split into one column panel per pool
/// thread (`PAR_THRESHOLD_FLOPS = 2 · 256³`).
const DENSE_N: usize = 256;

/// Bytes of one GEMM pack buffer at depth `KC = 256`: a packed block of at
/// most 128 rows of `op(A)`, a panel of at most 128 columns of `op(B)` and
/// one tile of at most 128 × 16, all in `f64` (the engine's `f32`
/// iteration packs in `f64` too). Each column panel of a product packs
/// into one of these.
const PACK_BYTES: u64 = ((256 * (128 + 128) + 128 * 16) * 8) as u64;

/// `System`, counting every allocation and reallocation it serves and the
/// bytes live, with their peak.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// Taken by every test for its whole run, so none is counted in another's
/// figures.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn grow(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are relaxed statistics
// that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: the caller's `alloc` obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // Counted as the new block's allocation before the old one's
        // release: the moment both are live.
        grow(new_size);
        shrink(layout.size());
        // SAFETY: `ptr`, `layout` and `new_size` are passed through as the
        // caller guarantees them for `System`'s own block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while `f` runs, on any thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The most heap bytes live at once while `f` runs, above those live when
/// it started, and `f`'s result.
fn peak_bytes_above_start<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let start = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(start, Ordering::Relaxed);
    let r = f();
    (PEAK_BYTES.load(Ordering::Relaxed) - start, r)
}

/// A gapped symmetric block: diagonal ±1 with couplings halving per step
/// from 0.1, so every eigenvalue lies within 0.2 of ±1.
fn gapped_block(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
        0 if i % 2 == 0 => 1.0,
        0 => -1.0,
        d => 0.1 * 0.5f64.powi(d as i32),
    })
}

/// A Padé-3 `solve_sign` of an owned `DENSE_N`-dimensional block iterates
/// in the block it is handed: above its input it holds at most the four
/// `n²` buffers of the iteration in the precision's storage, and for
/// `Fp32Refined` the three `f64` buffers of the refinement step, plus one
/// pack buffer per column panel of a product. A copy of the input on top
/// (a clone to shift, a clone to iterate in, the `f64` block kept beside
/// the `f32` iteration, or the `f32` iterate kept beside the refinement)
/// exceeds the bound.
#[test]
fn dense_solve_keeps_four_n2_buffers() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let a = gapped_block(DENSE_N);
    let n2 = (DENSE_N * DENSE_N) as u64;
    let panels = rayon::current_num_threads() as u64;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    for precision in Precision::all() {
        let opts = SolveOptions {
            method: SignMethod::Pade(3),
            precision,
            ..SolveOptions::default()
        };
        let input = a.clone();
        let (peak, r) = peak_bytes_above_start(|| solve_sign(input, 0.0, &opts));
        let r = r.expect("a gapped block converges");
        let buffers = match precision {
            Precision::Fp64 => 4 * 8 * n2,
            Precision::Fp32 => 4 * 4 * n2,
            Precision::Fp32Refined => 3 * 8 * n2,
        };
        let bound = buffers + panels * PACK_BYTES;
        println!(
            "{}: Padé-3 solve at n = {DENSE_N} ({} iterations) holds {:.3} MiB above its \
             {:.3} MiB input (bound {:.3} MiB: {:.3} MiB of n² buffers and {panels} pack \
             buffers)",
            precision.label(),
            r.iterations,
            mib(peak),
            mib(8 * n2),
            mib(bound),
            mib(buffers)
        );
        assert!(
            peak <= bound,
            "{}: the solve held {peak} bytes above its input, over {bound}",
            precision.label()
        );
    }
}

/// `JOBS` gapped matrices of 5–8 blocks of size 2 with `JOBS` distinct
/// block patterns: a tridiagonal block band plus the far couplings named
/// by the bits of the job index.
fn tiny_jobs() -> Vec<MatrixJob> {
    (0..JOBS)
        .map(|k| {
            let nb = 5 + k % 4;
            let mask = k / 4;
            let far: Vec<(usize, usize)> = (0..nb)
                .flat_map(|a| (a + 2..nb).map(move |b| (a, b)))
                .enumerate()
                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, pair)| pair)
                .collect();
            let n = 2 * nb;
            let mut dense = Matrix::zeros(n, n);
            for j in 0..n {
                for i in j..n {
                    if i / 2 - j / 2 > 1 && !far.contains(&(j / 2, i / 2)) {
                        continue;
                    }
                    let v = if i == j {
                        (if i % 2 == 0 { 1.0 } else { -1.0 }) + 0.001 * k as f64
                    } else {
                        0.04 / (1.0 + (i - j) as f64)
                    };
                    dense[(i, j)] = v;
                    dense[(j, i)] = v;
                }
            }
            let matrix = DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, 2), 0, 1, 0.0);
            MatrixJob::density(format!("tiny-{k}"), matrix, 0.0)
        })
        .collect()
}

#[test]
fn a_scheduled_tiny_job_stays_inside_its_allocation_budget() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let jobs = tiny_jobs();
    let patterns: std::collections::BTreeSet<_> =
        jobs.iter().map(|j| j.matrix.store().coords()).collect();
    assert_eq!(patterns.len(), JOBS, "the block patterns must be distinct");

    // Each front-end: one warm-up batch, then the measured batch on a
    // cleared plan cache (every job fingerprints and plans, on both
    // sides), its inputs cloned outside the measurement.
    let queue = JobQueue::default();
    let serial = queue.run(jobs.clone());
    queue.engine().clear_cache();
    let batch = jobs.clone();
    let through_queue = allocations_during(|| drop(queue.run(batch)));

    let sched = Scheduler::default();
    let warm = sched.run(2, jobs.clone());
    let threads_before = sched.world().threads_started();
    for (s, q) in warm.results.iter().zip(&serial) {
        assert_eq!(
            s.result, q.result,
            "job '{}' differs from the queue",
            s.name
        );
    }
    let remote = (0..JOBS).filter(|&j| warm.schedule.root_of_job(j) != 0);
    assert!(
        (1..JOBS).contains(&remote.count()),
        "both world ranks must root jobs, so both return shares to be merged"
    );
    sched.engine().clear_cache();
    let batch = jobs.clone();
    let through_scheduler = allocations_during(|| drop(sched.run(2, batch)));
    let warm_threads = sched.world().threads_started() - threads_before;

    let batch: Vec<BatchJob> = jobs.iter().cloned().map(BatchJob::Matrix).collect();
    let costs: Vec<f64> = batch.iter().map(estimate_batch_job_cost).collect();
    let mut schedule = None;
    let (budget, policy) = (RankBudget::default(), StealPolicy::default());
    let planning = allocations_during(|| schedule = Some(plan_epochs(&costs, 2, &budget, policy)));
    let schedule = schedule.expect("the planner ran");
    let held = allocations_during(|| drop(schedule.clone()));

    let extra = (through_scheduler as f64 - through_queue as f64) / JOBS as f64;
    let per_queued_job = through_queue as f64 / JOBS as f64;
    let threads = rayon::current_num_threads().min(JOBS);
    let queue_ceiling = QUEUE_ALLOCATIONS_PER_JOB_CEILING
        + ALLOCATIONS_PER_POOL_THREAD * threads.saturating_sub(2) as f64 / JOBS as f64;
    let beyond_result = [0, 3].map(|k| warm_execute_beyond_result(&jobs[k]));
    let cold_plan = cold_plan_allocations(&jobs);
    println!(
        "allocations per batch of {JOBS} tiny jobs: JobQueue::run {through_queue} \
         ({per_queued_job:.1} per job on {threads} pool threads, ceiling {queue_ceiling:.1}), \
         Scheduler::run(2, ..) {through_scheduler}: {extra:.1} extra per job \
         (ceiling {EXTRA_ALLOCATIONS_PER_JOB_CEILING}), starting {warm_threads} threads warm; \
         plan_epochs at world 2: {planning} over {} epochs, its schedule holding {held} \
         (ceiling {PLAN_ALLOCATIONS_CEILING}); a warm execute beyond its result: \
         {} (5 blocks), {} (8 blocks); a cold plan_for_matrix: {cold_plan:.2} \
         (ceiling {COLD_PLAN_ALLOCATIONS_CEILING})",
        schedule.epochs.len(),
        beyond_result[0],
        beyond_result[1]
    );
    assert!(
        per_queued_job <= queue_ceiling,
        "a queued job costs {per_queued_job:.1} allocations, over the committed ceiling \
         of {queue_ceiling:.1} on {threads} pool threads"
    );
    assert!(
        extra <= EXTRA_ALLOCATIONS_PER_JOB_CEILING,
        "a scheduled job costs {extra:.1} allocations more than a queued one, \
         over the committed ceiling of {EXTRA_ALLOCATIONS_PER_JOB_CEILING}"
    );
    assert_eq!(warm_threads, 0, "a warm Scheduler::run started threads");
    assert!(
        planning <= PLAN_ALLOCATIONS_CEILING,
        "plan_epochs made {planning} allocations, over the committed ceiling of \
         {PLAN_ALLOCATIONS_CEILING}"
    );
    assert_eq!(
        beyond_result[0], beyond_result[1],
        "what a warm execute allocates beyond its result grows with the submatrix count"
    );
    assert_eq!(
        beyond_result[0], 2,
        "a warm one-rank execute allocates more beyond its result than the 2 committed"
    );
    assert!(
        cold_plan <= COLD_PLAN_ALLOCATIONS_CEILING,
        "a cold plan_for_matrix makes {cold_plan:.2} allocations, over the committed \
         ceiling of {COLD_PLAN_ALLOCATIONS_CEILING}"
    );
}

/// Allocations per job of a cold one-rank `plan_for_matrix` over the
/// batch's distinct patterns, on a cache cleared after one warm-up pass
/// (which sizes the planner's per-thread scratch).
fn cold_plan_allocations(jobs: &[MatrixJob]) -> f64 {
    let engine = JobQueue::default().engine().clone();
    let comm = SerialComm::new();
    let plan_all = || {
        jobs.iter()
            .for_each(|j| drop(engine.plan_for_matrix(&j.matrix, &comm)))
    };
    plan_all();
    engine.clear_cache();
    allocations_during(plan_all) as f64 / jobs.len() as f64
}

/// Allocations of a warm `execute` of `job` on its cached plan, less those
/// of a copy of the result it returns (its blocks and the map holding
/// them): what the execute creates that is not its output.
fn warm_execute_beyond_result(job: &MatrixJob) -> i64 {
    let engine = JobQueue::default().engine().clone();
    let comm = SerialComm::new();
    let plan = engine.plan_for_matrix(&job.matrix, &comm);
    let execute = || engine.execute(&plan, &job.matrix, job.mu0, &job.numeric, &comm);
    let _warm = execute();
    let mut result = None;
    let executing = allocations_during(|| result = Some(execute().0));
    let result = result.expect("the execute ran");
    let copying = allocations_during(|| drop(result.clone()));
    executing as i64 - copying as i64
}
