//! The resident streaming SCF service: a long-lived daemon loop over a
//! continuous stream of [`ScfJobSpec`]s.
//!
//! [`crate::scf_service::ScfService`] is batch-shaped: one `run` call per
//! workload, no state between calls. A service that faces a stream of
//! users needs the complementary shape — a process that stays up,
//! **admits** jobs as they arrive, and periodically closes an **admission
//! window** into one scheduled batch. [`StreamingScfService`] is that
//! layer:
//!
//! * **Admission queue with priorities and bounded backpressure.**
//!   [`StreamingScfService::submit`] enqueues a spec at a [`Priority`];
//!   when the queue is at [`ServiceConfig::queue_capacity`] the submission
//!   is refused with [`ServiceError::Backpressure`] — the caller sheds
//!   load instead of the daemon growing without bound. Non-finite cost
//!   estimates are rejected at the door ([`ServiceError::Rejected`] over
//!   [`SchedError::BadEstimate`]) so one degenerate spec cannot fail the
//!   whole window at close.
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
//! * **A daemon loop.** [`StreamingScfService::serve`] parks on a request
//!   channel and services [`ServiceRequest`]s until the channel closes or
//!   a [`ServiceRequest::Shutdown`] arrives — the resident shape the
//!   `smserved` binary wraps a line protocol around. Plans persist across
//!   restarts through the engine's manifest spill
//!   ([`ServiceRequest::ExportPlans`] / [`ServiceRequest::ImportPlans`];
//!   see `SubmatrixEngine::export_plans`), so a restarted daemon replans
//!   nothing for patterns it has already seen.
//!
//! Each closed window narrates one `service.window` trace event (window
//! index, jobs admitted, queue depth, backpressure rejects) under a
//! `batch:<label>.w<N>` root span; `smdoctor serve-report` reconstructs
//! the daemon's admission history from exactly this narration.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use sm_core::engine::SubmatrixEngine;
use sm_trace::SpanKind;

use crate::jobs::{BatchJob, ScfJobSpec};
use crate::sched::{
    estimate_batch_job_cost, RankBudget, SchedError, Scheduler, SchedulerOutcome, StealPolicy,
};

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
    /// The spec failed admission validation (today: a non-finite cost
    /// estimate, [`SchedError::BadEstimate`]).
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

/// Static configuration of a [`StreamingScfService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulated world size every window is scheduled at.
    pub world_size: usize,
    /// Bound on the admission queue; submissions beyond it get
    /// [`ServiceError::Backpressure`].
    pub queue_capacity: usize,
    /// Rank budget handed to the scheduler.
    pub budget: RankBudget,
    /// Steal policy for every window.
    pub policy: StealPolicy,
    /// Root trace label; window `N` runs under `batch:<label>.w<N>`.
    pub trace_label: String,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            world_size: 4,
            queue_capacity: 64,
            budget: RankBudget::default(),
            policy: StealPolicy::default(),
            trace_label: "serve".to_string(),
        }
    }
}

struct Pending {
    spec: ScfJobSpec,
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

/// Requests the daemon loop ([`StreamingScfService::serve`]) understands.
pub enum ServiceRequest {
    /// Enqueue a spec at a priority (boxed: a spec carries its whole
    /// matrix, far larger than any other request).
    Submit(Box<ScfJobSpec>, Priority),
    /// Close the admission window and run everything admitted so far.
    CloseWindow,
    /// Spill the engine's plan cache to a manifest file.
    ExportPlans(PathBuf),
    /// Restore plans from a manifest file.
    ImportPlans(PathBuf),
    /// Report lifetime counters.
    Stats,
    /// Stop the loop (it also stops when the request channel closes).
    Shutdown,
}

/// Events the daemon loop emits, one or more per request.
pub enum ServiceEvent {
    /// A submission was admitted to the queue.
    Admitted {
        /// Monotone submission sequence number.
        seq: u64,
        /// The spec's name.
        name: String,
        /// Queue depth after admission.
        queue_depth: usize,
    },
    /// A submission was refused.
    Refused {
        /// The spec's name.
        name: String,
        /// Why it was refused.
        error: ServiceError,
    },
    /// A window closed and ran.
    Window(Box<WindowOutcome>),
    /// A window closed but the scheduler failed the batch.
    WindowFailed(SchedError),
    /// Plans were exported: `(path, count)`.
    PlansExported(PathBuf, usize),
    /// Plans were imported: `(path, count)`.
    PlansImported(PathBuf, usize),
    /// A plan export/import failed (rendered engine error).
    PlanIoFailed(String),
    /// Lifetime counters, answering [`ServiceRequest::Stats`].
    Stats(ServiceStats),
    /// The loop stopped; final counters.
    Stopped(ServiceStats),
}

/// The resident streaming service. See the module docs for the admission
/// and determinism contract.
pub struct StreamingScfService {
    /// One scheduler, and so one rank world, for the daemon's life.
    sched: Scheduler,
    config: ServiceConfig,
    queue: VecDeque<Pending>,
    next_seq: u64,
    stats: ServiceStats,
}

impl StreamingScfService {
    /// Build a service over an existing engine (sharing its plan cache
    /// with anything else running on that engine).
    pub fn new(engine: Arc<SubmatrixEngine>, config: ServiceConfig) -> Self {
        assert!(config.world_size >= 1, "need at least one rank");
        assert!(
            config.queue_capacity >= 1,
            "queue capacity must admit something"
        );
        StreamingScfService {
            sched: Scheduler::new(engine, config.budget).with_policy(config.policy),
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
    /// is full and [`ServiceError::Rejected`] when the spec's cost
    /// estimate is non-finite (the same check `try_run_batch` applies,
    /// pulled forward so one bad spec cannot fail a whole window).
    pub fn submit(&mut self, spec: ScfJobSpec, priority: Priority) -> Result<u64, ServiceError> {
        let cost = estimate_batch_job_cost(&BatchJob::Scf(spec.clone()));
        self.admit(spec, priority, cost)
    }

    /// Admission with the cost already estimated (the testable seam).
    fn admit(
        &mut self,
        spec: ScfJobSpec,
        priority: Priority,
        cost: f64,
    ) -> Result<u64, ServiceError> {
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.backpressure_rejects += 1;
            return Err(ServiceError::Backpressure {
                capacity: self.config.queue_capacity,
            });
        }
        if !cost.is_finite() {
            self.stats.admission_rejects += 1;
            return Err(ServiceError::Rejected(SchedError::BadEstimate {
                name: spec.name.clone(),
                cost,
            }));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(Pending {
            spec,
            priority,
            seq,
        });
        self.stats.queue_high_water = self.stats.queue_high_water.max(self.queue.len());
        Ok(seq)
    }

    /// The canonical run order of the currently queued jobs: priority
    /// descending, submission sequence ascending within a priority. This
    /// is the order [`close_window`](Self::close_window) admits (and the
    /// order its results come back in) — a pure function of the admitted
    /// set, independent of arrival timing.
    pub fn pending_order(&self) -> Vec<String> {
        let mut order: Vec<&Pending> = self.queue.iter().collect();
        order.sort_by_key(|p| (std::cmp::Reverse(p.priority), p.seq));
        order.iter().map(|p| p.spec.name.clone()).collect()
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
        let names: Vec<String> = admitted.iter().map(|p| p.spec.name.clone()).collect();
        let label = format!("{}.w{}", self.config.trace_label, window);

        let t0 = Instant::now();
        self.sched.trace_label.clone_from(&label);
        let jobs: Vec<BatchJob> = admitted
            .into_iter()
            .map(|p| BatchJob::Scf(p.spec))
            .collect();
        let n_jobs = jobs.len();
        let outcome = self.sched.try_run_batch(self.config.world_size, jobs)?;
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

    /// The daemon loop: service requests until the channel closes or a
    /// [`ServiceRequest::Shutdown`] arrives, emitting [`ServiceEvent`]s.
    /// Event-send failures (a departed listener) also stop the loop — a
    /// daemon nobody is listening to has no reason to keep running.
    pub fn serve(mut self, requests: Receiver<ServiceRequest>, events: Sender<ServiceEvent>) {
        while let Ok(req) = requests.recv() {
            let event = match req {
                ServiceRequest::Submit(spec, priority) => {
                    let name = spec.name.clone();
                    match self.submit(*spec, priority) {
                        Ok(seq) => ServiceEvent::Admitted {
                            seq,
                            name,
                            queue_depth: self.queue_depth(),
                        },
                        Err(error) => ServiceEvent::Refused { name, error },
                    }
                }
                ServiceRequest::CloseWindow => match self.close_window() {
                    Ok(outcome) => ServiceEvent::Window(Box::new(outcome)),
                    Err(e) => ServiceEvent::WindowFailed(e),
                },
                ServiceRequest::ExportPlans(path) => match self.engine().export_plans(&path) {
                    Ok(n) => ServiceEvent::PlansExported(path, n),
                    Err(e) => ServiceEvent::PlanIoFailed(e.to_string()),
                },
                ServiceRequest::ImportPlans(path) => match self.engine().import_plans(&path) {
                    Ok(n) => ServiceEvent::PlansImported(path, n),
                    Err(e) => ServiceEvent::PlanIoFailed(e.to_string()),
                },
                ServiceRequest::Stats => ServiceEvent::Stats(self.stats()),
                ServiceRequest::Shutdown => break,
            };
            if events.send(event).is_err() {
                return; // listener gone; stop without the final event
            }
        }
        let _ = events.send(ServiceEvent::Stopped(self.stats()));
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
            Arc::new(SubmatrixEngine::new(EngineOptions {
                parallel: false,
                ..EngineOptions::default()
            })),
            ServiceConfig {
                queue_capacity: capacity,
                trace_label: "svc-test".to_string(),
                ..ServiceConfig::default()
            },
        )
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
        assert_eq!(svc.pending_order(), want);
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
        let order = svc.pending_order();
        let w = svc.close_window().expect("window");
        assert_eq!(w.admitted, order);

        // Serial reference over the same admitted set in the same order.
        let serial_engine = Arc::new(SubmatrixEngine::new(EngineOptions {
            parallel: false,
            ..EngineOptions::default()
        }));
        let specs: Vec<ScfJobSpec> = w
            .admitted
            .iter()
            .map(|name| {
                let (nb, seed) = match name.as_str() {
                    "s1" => (5, 1),
                    "s2" => (4, 2),
                    "s3" => (6, 3),
                    _ => unreachable!(),
                };
                gc_spec(name, nb, seed)
            })
            .collect();
        let serial = serial_scf_loop(&serial_engine, &specs);
        for (r, s) in w.outcome.results.iter().zip(&serial) {
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
        // so drive the admission seam directly with a forged cost — the
        // same check `try_run_batch` applies at window close.
        let mut svc = fresh_service(4);
        match svc.admit(gc_spec("nan", 4, 1), Priority::Normal, f64::NAN) {
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
        // The happy path still admits.
        assert!(svc.submit(gc_spec("ok", 4, 1), Priority::Normal).is_ok());
        assert_eq!(svc.queue_depth(), 1);
    }

    #[test]
    fn daemon_loop_services_requests_until_shutdown() {
        let svc = fresh_service(8);
        let engine = Arc::clone(svc.engine());
        let (req_tx, req_rx) = std::sync::mpsc::channel();
        let (evt_tx, evt_rx) = std::sync::mpsc::channel();
        let daemon = std::thread::spawn(move || svc.serve(req_rx, evt_tx));

        req_tx
            .send(ServiceRequest::Submit(
                Box::new(gc_spec("d1", 4, 1)),
                Priority::Normal,
            ))
            .unwrap();
        match evt_rx.recv().unwrap() {
            ServiceEvent::Admitted {
                seq,
                name,
                queue_depth,
            } => {
                assert_eq!((seq, name.as_str(), queue_depth), (0, "d1", 1));
            }
            _ => panic!("expected Admitted"),
        }
        req_tx.send(ServiceRequest::CloseWindow).unwrap();
        match evt_rx.recv().unwrap() {
            ServiceEvent::Window(w) => {
                assert_eq!(w.window, 0);
                assert_eq!(w.admitted, vec!["d1".to_string()]);
            }
            _ => panic!("expected Window"),
        }
        // Persistence through the daemon: export, then re-import.
        let dir = std::env::temp_dir().join("sm_service_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("daemon.smplans");
        req_tx
            .send(ServiceRequest::ExportPlans(manifest.clone()))
            .unwrap();
        let exported = match evt_rx.recv().unwrap() {
            ServiceEvent::PlansExported(p, n) => {
                assert_eq!(p, manifest);
                assert!(n > 0);
                n
            }
            _ => panic!("expected PlansExported"),
        };
        assert_eq!(engine.cached_plans(), exported);
        req_tx.send(ServiceRequest::Stats).unwrap();
        match evt_rx.recv().unwrap() {
            ServiceEvent::Stats(s) => {
                assert_eq!(s.windows, 1);
                assert_eq!(s.jobs_run, 1);
            }
            _ => panic!("expected Stats"),
        }
        req_tx.send(ServiceRequest::Shutdown).unwrap();
        match evt_rx.recv().unwrap() {
            ServiceEvent::Stopped(s) => assert_eq!(s.windows, 1),
            _ => panic!("expected Stopped"),
        }
        daemon.join().unwrap();
    }
}
