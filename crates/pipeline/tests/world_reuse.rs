//! A `Scheduler` runs every batch on one world of rank threads that
//! outlives them, so nothing a batch leaves on those threads may reach
//! the next one. One scheduler runs a traced batch, a fault-plan batch
//! with a planned rank death, and a batch whose rank panics; its next
//! fault-free traced batch must then equal the same batch on a fresh
//! scheduler in its results (bit for bit), its `EngineReport` counters
//! and its deterministic trace, event sequence numbers included.
//!
//! One `#[test]` in a binary of its own: trace sessions are process-wide.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sm_comsim::FaultPlan;
use sm_dbcsr::{BlockedDims, DbcsrMatrix};
use sm_linalg::Matrix;
use sm_pipeline::{EngineReport, MatrixJob, Scheduler, SchedulerOutcome};
use sm_trace::TraceSession;

mod common;
use common::with_watchdog;

/// `n` gapped matrices of 5–8 blocks of size 2 with distinct block
/// patterns (a tridiagonal band plus the far couplings named by the bits
/// of the job index), so message counts are a function of the schedule.
fn tiny_jobs(n: usize) -> Vec<MatrixJob> {
    (0..n)
        .map(|k| {
            let nb = 5 + k % 4;
            let mask = k / 4;
            let far: Vec<(usize, usize)> = (0..nb)
                .flat_map(|a| (a + 2..nb).map(move |b| (a, b)))
                .enumerate()
                .filter(|&(bit, _)| mask >> bit & 1 == 1)
                .map(|(_, pair)| pair)
                .collect();
            let dim = 2 * nb;
            let mut dense = Matrix::zeros(dim, dim);
            for j in 0..dim {
                for i in j..dim {
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

/// The deterministic view of a traced batch: its events under
/// `batch:<label>` as `(path, name, seq, cost bits)`, sorted.
type TraceView = Vec<(String, String, u64, u64)>;

/// Run `jobs` on `sched` at world 2 under a trace session, from a thread
/// of its own so the caller-side narration numbers its events from 0.
fn traced(sched: &Scheduler, label: &str, jobs: &[MatrixJob]) -> (SchedulerOutcome, TraceView) {
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = TraceSession::start(label);
            let outcome = sched.run(2, jobs.to_vec());
            let root = format!("batch:{label}");
            let mut view: TraceView = session
                .events()
                .into_iter()
                .filter(|e| e.path == root || e.path.starts_with(&format!("{root}/")))
                .map(|e| (e.path, e.name.into_owned(), e.seq, e.cost.to_bits()))
                .collect();
            view.sort();
            (outcome, view)
        })
        .join()
        .expect("the traced batch ran")
    })
}

/// A report's counters: everything but its wall-clock seconds.
fn counters(r: &EngineReport) -> String {
    let deterministic = EngineReport {
        symbolic_seconds: 0.0,
        gather_seconds: 0.0,
        solve_seconds: 0.0,
        scatter_seconds: 0.0,
        ..r.clone()
    };
    format!("{deterministic:?}")
}

#[test]
fn a_batch_on_a_reused_world_equals_one_on_a_fresh_scheduler() {
    let jobs = tiny_jobs(12);
    let label = "reuse";
    let (reused, reference) = with_watchdog(240, move || {
        let sched = Scheduler::default().with_trace_label(label);
        // A traced batch numbers events on rank threads 0 and 1.
        let (first, _) = traced(&sched, label, &jobs);
        assert_eq!(first.results.len(), jobs.len());

        // The fault suite's scripted death: rank 3 dies at epoch 1, on
        // the same world, grown to four threads.
        let sched = sched.with_fault_plan(FaultPlan::new().fail_rank(3, 1));
        let faulted = sched.run(4, jobs.clone());
        assert_eq!(faulted.fault_stats.rank_failures, 1);
        assert_eq!(sched.world().threads_started(), 4);

        // A rank panics mid-batch: a NaN input fails its submatrix solve.
        let sched = sched.with_fault_plan(FaultPlan::new());
        let mut poisoned = jobs.clone();
        let mut nan = poisoned[5]
            .matrix
            .block(0, 0)
            .expect("a diagonal block")
            .clone();
        nan[(0, 0)] = f64::NAN;
        poisoned[5].matrix.insert_block(0, 0, nan);
        let panicked = catch_unwind(AssertUnwindSafe(|| sched.run(2, poisoned)));
        let cause = panicked.err().expect("the NaN job must fail its batch");
        let msg = cause.downcast_ref::<String>().expect("formatted panic");
        // The solving rank's own panic, or its peer's, poisoned on a recv.
        assert!(
            msg.contains("submatrix solve failed") || msg.contains("was blocked in recv"),
            "not a rank panic: {msg}"
        );

        sched.engine().clear_cache();
        let reused = traced(&sched, label, &jobs);
        assert_eq!(
            sched.world().threads_started(),
            4,
            "no batch started a thread"
        );
        let fresh = Scheduler::default().with_trace_label(label);
        (reused, traced(&fresh, label, &jobs))
    });

    let ((reused, reused_trace), (reference, reference_trace)) = (reused, reference);
    assert_eq!(reused.results.len(), reference.results.len());
    for (a, b) in reused.results.iter().zip(&reference.results) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.result, b.result, "job '{}' differs bitwise", a.name);
        assert_eq!(counters(&a.report), counters(&b.report), "job '{}'", a.name);
        let placement = |r: &sm_pipeline::JobResult| {
            (r.group_size, r.comm_bytes, r.comm_msgs, r.epoch, r.attempts)
        };
        assert_eq!(placement(a), placement(b), "job '{}'", a.name);
    }
    assert_eq!(
        reused.world_stats.total_msgs(),
        reference.world_stats.total_msgs()
    );
    assert_eq!(
        reused.world_stats.total_bytes(),
        reference.world_stats.total_bytes()
    );
    assert!(!reference_trace.is_empty(), "the batch was traced");
    assert_eq!(
        reused_trace, reference_trace,
        "the deterministic trace differs"
    );
}
