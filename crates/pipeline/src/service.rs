//! The resident streaming SCF service: a long-lived queue in front of
//! the [`Scheduler`] for a continuous stream of [`ScfJobSpec`]s.
//!
//! [`Scheduler::run`] is batch-shaped: one call per workload. A service
//! that faces a stream of users needs the complementary shape — a process
//! that stays up, **admits** jobs as they arrive, and periodically closes
//! an **admission window** into one scheduled batch.
//! [`StreamingScfService`] is that layer:
//!
//! * **Admission queue with priorities and bounded backpressure.**
//!   [`StreamingScfService::submit`] enqueues a spec at a [`Priority`];
//!   when the queue is at [`ServiceConfig::queue_capacity`] the submission
//!   is refused with [`ServiceError::Backpressure`] — the caller sheds
//!   load instead of the daemon growing without bound. A spec the
//!   scheduler's one admission check refuses is refused at the door
//!   ([`ServiceError::Rejected`]), so it cannot fail the whole window at
//!   close.
//! * **Admission-window determinism.** [`StreamingScfService::close_window`]
//!   drains the queue in the canonical order (priority descending,
//!   submission sequence ascending within a priority) and runs the batch
//!   through the epoch-stealing [`Scheduler`]. Everything downstream —
//!   LPT partition, steal horizon, epoch fill — is already a pure
//!   function of the admitted set and its perfmodel estimates
//!   (ARCHITECTURE.md invariant 3), so the window's results are
//!   bitwise-identical to a serial [`sm_chem::ScfDriver`] loop over the
//!   same admitted set in the same order, at any world size and steal
//!   schedule. *When* a job was submitted never affects its numbers;
//!   only *which window* admitted it does.
//!
//! Plans persist across restarts through the engine's manifest spill
//! (`SubmatrixEngine::export_plans` / `import_plans`), so a restarted
//! daemon replans nothing for patterns it has already seen; the `smserved`
//! binary wraps a line protocol around exactly these calls.
//!
//! Each closed window narrates one `service.window` trace event (window
//! index, jobs admitted, queue depth, backpressure rejects) under a
//! `batch:<label>.w<N>` root span, `<label>` being the scheduler's trace
//! label; `smdoctor serve-report` reconstructs the daemon's admission
//! history from exactly this narration.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use sm_core::engine::SubmatrixEngine;
use sm_trace::SpanKind;

use crate::jobs::{BatchJob, ScfJobSpec};
use crate::sched::{admit, SchedError, Scheduler, SchedulerOutcome};

/// Admission priority of a streamed job. Higher priorities drain first
/// when a window closes; within a priority, submission order is kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work (bulk resubmission, warming).
    Low,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-sensitive work; drains ahead of everything else.
    High,
}

impl Priority {
    /// Stable label used in trace narration and the `smserved` protocol.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parse the [`Priority::label`] form.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// Typed admission failure of [`StreamingScfService::submit`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The admission queue is full; the caller must shed or retry after
    /// the next window closes.
    Backpressure {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The scheduler's admission check refused the spec.
    Rejected(SchedError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Backpressure { capacity } => write!(
                f,
                "admission queue full ({capacity} jobs queued); close a window or retry"
            ),
            ServiceError::Rejected(e) => write!(f, "admission rejected: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// What the streaming service adds to its [`Scheduler`]'s settings.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated world size every window is scheduled at.
    pub world_size: usize,
    /// Bound on the admission queue; submissions beyond it get
    /// [`ServiceError::Backpressure`].
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            world_size: 4,
            queue_capacity: 64,
        }
    }
}

struct Pending {
    job: BatchJob,
    priority: Priority,
    seq: u64,
}

/// Lifetime counters of one service instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Windows closed so far.
    pub windows: usize,
    /// Jobs run to completion across all windows.
    pub jobs_run: usize,
    /// Submissions refused by backpressure.
    pub backpressure_rejects: u64,
    /// Submissions refused by admission validation.
    pub admission_rejects: u64,
    /// Deepest the admission queue has been.
    pub queue_high_water: usize,
}

/// The result of one closed admission window.
pub struct WindowOutcome {
    /// Zero-based window index within this service's lifetime.
    pub window: usize,
    /// Names of the admitted jobs in the canonical run order (priority
    /// descending, submission sequence ascending) — the order
    /// `outcome.results` is in.
    pub admitted: Vec<String>,
    /// The scheduled batch's outcome.
    pub outcome: SchedulerOutcome,
}

/// The resident streaming service. See the module docs for the admission
/// and determinism contract.
pub struct StreamingScfService {
    /// One scheduler, and so one rank world, for the daemon's life; it
    /// carries the rank budget, the steal policy and the base trace label.
    sched: Scheduler,
    config: ServiceConfig,
    queue: VecDeque<Pending>,
    next_seq: u64,
    stats: ServiceStats,
}

impl StreamingScfService {
    /// Build a service that runs its windows on `sched` (and so shares
    /// that scheduler's engine and plan cache).
    pub fn new(sched: Scheduler, config: ServiceConfig) -> Self {
        assert!(config.world_size >= 1, "need at least one rank");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must admit something"
        );
        StreamingScfService {
            sched,
            config,
            queue: VecDeque::new(),
            next_seq: 0,
            stats: ServiceStats::default(),
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Arc<SubmatrixEngine> {
        self.sched.engine()
    }

    /// The static configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Jobs currently queued for the next window.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServiceStats {
        self.stats
    }

    /// Admit one spec at `priority`, returning its submission sequence
    /// number. Fails with [`ServiceError::Backpressure`] when the queue
    /// is full and [`ServiceError::Rejected`] when the scheduler's
    /// admission check refuses the spec — the check every window runs at
    /// close, pulled forward so one bad spec cannot fail a whole window.
    pub fn submit(&mut self, spec: ScfJobSpec, priority: Priority) -> Result<u64, ServiceError> {
        let job = BatchJob::Scf(spec);
        let verdict = admit(&job);
        self.enqueue(job, priority, verdict)
    }

    /// Admission with the scheduler's verdict already in hand (the
    /// testable seam).
    fn enqueue(
        &mut self,
        job: BatchJob,
        priority: Priority,
        verdict: Result<f64, SchedError>,
    ) -> Result<u64, ServiceError> {
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.backpressure_rejects += 1;
            return Err(ServiceError::Backpressure {
                capacity: self.config.queue_capacity,
            });
        }
        if let Err(e) = verdict {
            self.stats.admission_rejects += 1;
            return Err(ServiceError::Rejected(e));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Pending { job, priority, seq });
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.queue.len());
        Ok(seq)
    }

    /// Close the admission window: drain the queue in canonical order and
    /// run the admitted set as one scheduled batch. An empty queue closes
    /// an empty window (no epoch runs). On scheduler failure the admitted
    /// jobs are **not** re-queued — the error carries the whole window.
    pub fn close_window(&mut self) -> Result<WindowOutcome, SchedError> {
        let window = self.stats.windows;
        self.stats.windows += 1;
        let mut admitted: Vec<Pending> = self.queue.drain(..).collect();
        admitted.sort_by_key(|p| (std::cmp::Reverse(p.priority), p.seq));
        let names: Vec<String> = admitted.iter().map(|p| p.job.name().to_string()).collect();
        let label = format!("{}.w{}", self.sched.trace_label, window);

        let t0 = Instant::now();
        let jobs: Vec<BatchJob> = admitted.into_iter().map(|p| p.job).collect();
        let n_jobs = jobs.len();
        let outcome = self.sched.run_as(self.config.world_size, jobs, &label)?;
        self.stats.jobs_run += n_jobs;

        if sm_trace::enabled() {
            // One narration event per window, under the same batch root
            // the scheduler traced the epochs beneath; `smdoctor
            // serve-report` keys on exactly this event.
            let _root = sm_trace::span(SpanKind::Batch, &label);
            sm_trace::emit(
                "service.window",
                0.0,
                t0.elapsed().as_secs_f64(),
                &[
                    ("window", window as f64),
                    ("admitted", n_jobs as f64),
                    ("queue_rejects", self.stats.backpressure_rejects as f64),
                ],
            );
        }
        Ok(WindowOutcome {
            window,
            admitted: names,
            outcome,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scf_service::serial_scf_loop;
    use sm_core::engine::EngineOptions;
    use sm_dbcsr::{BlockedDims, DbcsrMatrix};
    use sm_linalg::Matrix;

    fn banded(nb: usize, bs: usize, seed: u64) -> DbcsrMatrix {
        let n = nb * bs;
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            let bi = (i / bs) as isize;
            let bj = (j / bs) as isize;
            if (bi - bj).abs() > 1 {
                0.0
            } else if i == j {
                (if i % 2 == 0 { 1.0 } else { -1.0 }) + ((seed % 13) as f64) * 0.011
            } else {
                0.05 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        DbcsrMatrix::from_dense(&dense, BlockedDims::uniform(nb, bs), 0, 1, 0.0)
    }

    fn gc_spec(name: &str, nb: usize, seed: u64) -> ScfJobSpec {
        let kt0 = banded(nb, 2, seed);
        let n_electrons = kt0.n() as f64;
        let mut spec = ScfJobSpec::new(name, kt0, 0.0, n_electrons);
        spec.scf.max_iter = 6;
        spec.scf.tol = 1e-9;
        spec.scf.ensemble = sm_chem::ScfEnsemble::GrandCanonical;
        spec
    }

    fn fresh_service(capacity: usize) -> StreamingScfService {
        StreamingScfService::new(
            Scheduler::default().with_trace_label("svc-test"),
            ServiceConfig {
                queue_capacity: capacity,
                ..ServiceConfig::default()
            },
        )
    }

    fn serial(specs: &[ScfJobSpec]) -> Vec<sm_chem::ScfResult> {
        let engine = Arc::new(SubmatrixEngine::new(EngineOptions {
            parallel: false,
            ..EngineOptions::default()
        }));
        serial_scf_loop(&engine, specs)
    }

    #[test]
    fn backpressure_bounds_the_admission_queue() {
        let mut svc = fresh_service(2);
        svc.submit(gc_spec("a", 4, 1), Priority::Normal).unwrap();
        svc.submit(gc_spec("b", 4, 2), Priority::Normal).unwrap();
        let err = svc.submit(gc_spec("c", 4, 3), Priority::High).unwrap_err();
        assert_eq!(err, ServiceError::Backpressure { capacity: 2 });
        assert_eq!(svc.queue_depth(), 2, "refused submission must not enqueue");
        assert_eq!(svc.stats().backpressure_rejects, 1);
        // Draining the window frees the queue.
        let w = svc.close_window().expect("window");
        assert_eq!(w.admitted, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(svc.queue_depth(), 0);
        svc.submit(gc_spec("c", 4, 3), Priority::High).unwrap();
        assert_eq!(svc.queue_depth(), 1);
    }

    #[test]
    fn canonical_order_is_priority_then_submission_seq() {
        let mut svc = fresh_service(8);
        svc.submit(gc_spec("n1", 4, 1), Priority::Normal).unwrap();
        svc.submit(gc_spec("l1", 4, 2), Priority::Low).unwrap();
        svc.submit(gc_spec("h1", 4, 3), Priority::High).unwrap();
        svc.submit(gc_spec("n2", 4, 4), Priority::Normal).unwrap();
        svc.submit(gc_spec("h2", 4, 5), Priority::High).unwrap();
        let want = ["h1", "h2", "n1", "n2", "l1"];
        let w = svc.close_window().expect("window");
        assert_eq!(w.admitted, want);
        // Results come back in the same canonical order.
        let names: Vec<&str> = w.outcome.results.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, want);
    }

    #[test]
    fn streamed_window_matches_serial_loop_bitwise() {
        let mut svc = fresh_service(16);
        svc.submit(gc_spec("s1", 5, 1), Priority::Low).unwrap();
        svc.submit(gc_spec("s2", 4, 2), Priority::High).unwrap();
        svc.submit(gc_spec("s3", 6, 3), Priority::Normal).unwrap();
        let w = svc.close_window().expect("window");
        assert_eq!(w.admitted, ["s2", "s3", "s1"]);

        // Serial reference over the same admitted set in the same order.
        let specs = [
            gc_spec("s2", 4, 2),
            gc_spec("s3", 6, 3),
            gc_spec("s1", 5, 1),
        ];
        assert_same_densities(&w, &serial(&specs));
    }

    fn assert_same_densities(w: &WindowOutcome, serial: &[sm_chem::ScfResult]) {
        assert_eq!(w.outcome.results.len(), serial.len());
        for (r, s) in w.outcome.results.iter().zip(serial) {
            let d = r.result.to_dense(&sm_comsim::SerialComm::new());
            let ds = s.density.to_dense(&sm_comsim::SerialComm::new());
            assert!(
                d.allclose(&ds, 0.0),
                "{}: streamed density diverged",
                r.name
            );
        }
    }

    #[test]
    fn later_windows_start_no_thread() {
        let mut svc = fresh_service(4);
        svc.submit(gc_spec("a", 4, 1), Priority::Normal).unwrap();
        svc.close_window().expect("window");
        let started = svc.sched.world().threads_started();
        assert_eq!(started, svc.config.world_size, "one job spans the world");
        svc.submit(gc_spec("b", 4, 2), Priority::Normal).unwrap();
        let w = svc.close_window().expect("window");
        assert_eq!(w.admitted, ["b"]);
        let again = svc.sched.world().threads_started();
        assert_eq!(again, started, "the second window started threads");
    }

    #[test]
    fn admission_rejects_non_finite_estimates() {
        // A real spec cannot carry a NaN estimate from this construction,
        // so drive the admission seam directly with the verdict the
        // scheduler's check returns for one.
        let mut svc = fresh_service(8);
        let nan = BatchJob::Scf(gc_spec("nan", 4, 1));
        let verdict = Err(SchedError::BadEstimate {
            name: "nan".to_string(),
            cost: f64::NAN,
        });
        match svc.enqueue(nan, Priority::Normal, verdict) {
            Err(ServiceError::Rejected(SchedError::BadEstimate { name, cost })) => {
                assert_eq!(name, "nan");
                assert!(cost.is_nan());
            }
            other => panic!(
                "expected BadEstimate rejection, got {:?}",
                other.map(|_| ())
            ),
        }
        assert_eq!(svc.stats().admission_rejects, 1);
        assert_eq!(svc.queue_depth(), 0);

        // Specs the scheduler would refuse at window close are refused at
        // the door, one admission reject each, with the queue untouched.
        svc.submit(gc_spec("ok-a", 4, 1), Priority::Normal).unwrap();
        let mut no_iteration = gc_spec("no-iteration", 4, 2);
        no_iteration.scf.max_iter = 0;
        let mut no_diagonal = gc_spec("no-diagonal", 4, 3);
        no_diagonal.kt0.store_mut().remove(&(2, 2));
        let mut smeared_pade = gc_spec("smeared-pade", 4, 4);
        smeared_pade.scf.numeric.solve.method = sm_core::solver::SignMethod::Pade(3);
        smeared_pade.scf.numeric.solve.kt = 0.1;
        for (k, bad) in [no_iteration, no_diagonal, smeared_pade]
            .into_iter()
            .enumerate()
        {
            let name = bad.name.clone();
            match svc.submit(bad, Priority::High) {
                Err(ServiceError::Rejected(SchedError::InvalidJob { name: n, .. })) => {
                    assert_eq!(n, name);
                }
                other => panic!("{name} was not refused: {:?}", other.map(|_| ())),
            }
            assert_eq!(svc.stats().admission_rejects, 2 + k as u64);
            assert_eq!(svc.queue_depth(), 1, "{name} touched the queue");
        }
        svc.submit(gc_spec("ok-b", 5, 5), Priority::Normal).unwrap();

        // The window runs the valid specs, bit for bit as the serial loop.
        let w = svc
            .close_window()
            .expect("the refused specs cannot sink the window");
        assert_eq!(w.admitted, ["ok-a", "ok-b"]);
        assert_same_densities(&w, &serial(&[gc_spec("ok-a", 4, 1), gc_spec("ok-b", 5, 5)]));
    }
}
