//! The five contract benches whose artifacts are gated against
//! `results/baseline/` by `smdoctor compare`. Each asserts its acceptance
//! contract in place before reporting; the `data` key sets are pinned by
//! the baselines. Wall columns are host-dependent annotations (thread
//! ranks share cores) — the deterministic counters are the signal.

use std::sync::Arc;

use sm_comsim::{FaultPlan, SerialComm};
use sm_core::engine::{BackendPolicy, NumericOptions, SPARSE_FILL_THRESHOLD};
use sm_core::solver::{SignMethod, SolveBackend, SolveOptions};
use sm_pipeline::{
    serial_scf_loop, EpochSchedule, JobOutput, JobQueue, MatrixJob, Priority, RankBudget,
    ScfJobSpec, ScfOutcomeExt, Scheduler, ServiceConfig, ServiceError, StealPolicy,
    StreamingScfService, SubmatrixEngine,
};

use super::Ctx;
use crate::output::Cell::{Fixed, Flag, Sci, Wall};
use crate::output::{results_dir, Json, Report};
use crate::workloads::{
    assert_scf_bitwise, banded, banded_with, consensus_decisions, fresh_engine, gc_spec, same_bits,
    timed,
};

/// One large job plus `smalls` small ones of a recurring pattern — the
/// straggler shape of the scheduler contracts.
fn straggler_jobs(smalls: u64) -> Vec<MatrixJob> {
    let mut jobs = vec![MatrixJob::density("large", banded(10, 2, 1), 0.0)];
    jobs.extend(
        (0..smalls).map(|i| MatrixJob::density(format!("small-{i}"), banded(4, 2, i), 0.0)),
    );
    jobs
}

fn policy_name(policy: StealPolicy) -> &'static str {
    match policy {
        StealPolicy::Disabled => "static",
        StealPolicy::EpochRebalance => "stealing",
    }
}

/// Static per-batch scheduler groups vs epoch-based work stealing on a
/// straggler batch (1 large + 18 small: under LPT at 6 ranks the large
/// job pins the steal horizon while three groups queue beyond it, so a
/// tail of smalls defers to a second epoch and runs on re-dealt ranks).
/// Asserts: grand-canonical results bitwise-identical to the serial
/// `JobQueue` under any steal schedule, the batch at world 6 steals, and
/// the re-deal lowers the max-rank idle estimate.
pub fn stealing(_: &Ctx) -> Report {
    let jobs = straggler_jobs(18);
    let (serial, serial_seconds) = timed(|| JobQueue::new(fresh_engine()).run(jobs.clone()));

    let mut report = Report::keyed(
        "Ablation — static scheduler groups vs epoch-based work stealing",
        vec![
            ("world", "world"),
            ("policy", "policy"),
            ("epochs", "epochs"),
            ("stolen_jobs", "stolen_jobs"),
            ("stolen_ranks", "stolen_ranks"),
            ("est_max_idle_static", "est_max_rank_idle_static"),
            ("est_max_idle_epochs", "est_max_rank_idle_epochs"),
            ("est_idle_recovered", "est_idle_recovered"),
            ("measured_idle_s", "measured_idle_s"),
            ("", "measured_max_rank_idle_s"),
            ("total_s", "total_s"),
        ],
    );
    report.head = vec![
        (
            "workload",
            Json::Str("straggler batch: 1 large + 18 small".into()),
        ),
        ("jobs", Json::Num(jobs.len() as f64)),
        ("serial_total_s", Json::Num(serial_seconds)),
    ];
    for world in [4usize, 6, 8] {
        for policy in [StealPolicy::Disabled, StealPolicy::EpochRebalance] {
            let sched = Scheduler::new(fresh_engine(), RankBudget::default()).with_policy(policy);
            let (outcome, seconds) = timed(|| sched.run(world, jobs.clone()));
            assert!(
                outcome.results.len() == serial.len()
                    && outcome
                        .results
                        .iter()
                        .zip(&serial)
                        .all(|(x, y)| same_bits(&x.result, &y.result)),
                "world {world} policy {policy:?} deviates from the serial queue"
            );
            let s = outcome.steal_stats;
            if policy == StealPolicy::Disabled {
                assert_eq!(s.epochs, 1, "static baseline must stay single-epoch");
                assert_eq!(s.stolen_jobs, 0);
            } else if world == 6 {
                // The acceptance contract of the stealing PR (at 6 ranks;
                // larger worlds may legitimately balance statically — the
                // proportional rank deal absorbs the straggler — which is
                // a single-epoch schedule with nothing to steal).
                assert!(s.stolen_jobs >= 1, "straggler batch must steal: {s:?}");
                assert!(
                    s.est_max_rank_idle_epochs < s.est_max_rank_idle_static,
                    "stealing must lower the max-rank idle estimate: {s:?}"
                );
            }
            report.push(vec![
                world.into(),
                policy_name(policy).into(),
                s.epochs.into(),
                s.stolen_jobs.into(),
                s.stolen_ranks.into(),
                Sci(s.est_max_rank_idle_static, 3),
                Sci(s.est_max_rank_idle_epochs, 3),
                Sci(s.est_idle_cost_recovered(), 3),
                Wall(s.measured_idle_seconds),
                Wall(s.measured_max_rank_idle_seconds),
                Wall(seconds),
            ]);
        }
    }
    report
}

/// Dense vs sparse-CSR solve backend across three element-fill levels
/// (below the auto-selection threshold, mid-band, near-dense), each the
/// same Padé-2 (Newton–Schulz) sign job through the serial `JobQueue`. Asserts:
/// unfiltered sparse within 1e-10 of dense, the sparse telemetry counts
/// flops, `Auto` follows [`SPARSE_FILL_THRESHOLD`], and both fill and
/// sparse work grow across the sweep.
pub fn sparse(_: &Ctx) -> Report {
    let comm = SerialComm::new();
    let run = |matrix, backend| {
        let numeric = NumericOptions {
            backend,
            solve: SolveOptions {
                method: SignMethod::Pade(2),
                ..SolveOptions::default()
            },
            ..NumericOptions::default()
        };
        let job = MatrixJob {
            name: "banded/sign".into(),
            matrix,
            mu0: 0.0,
            numeric,
            output: JobOutput::Sign,
        };
        let (mut results, wall) = timed(|| JobQueue::default().run(vec![job]));
        (results.remove(0), wall)
    };
    let backend_label = |b| match b {
        SolveBackend::Dense => "dense",
        SolveBackend::SparseCsr => "sparse-csr",
    };

    let mut report = Report::new(
        "Ablation — dense vs sparse-CSR solve backend across fill fractions",
        &[
            "fill_level",
            "element_fill",
            "auto_backend",
            "max_err_vs_dense",
            "sparse_flops",
            "sparse_filtered_nnz",
            "dense_wall_s",
            "sparse_wall_s",
        ],
    );
    report.head = vec![
        (
            "workload",
            Json::Str("banded Newton–Schulz sign (serial queue)".into()),
        ),
        ("fill_threshold", Json::Num(SPARSE_FILL_THRESHOLD)),
    ];
    let mut fills = Vec::new();
    let mut flops_by_level = Vec::new();
    for (label, half) in [("low", 1usize), ("mid", 3), ("high", 12)] {
        let matrix = banded_with(16, 3, half, 1.2, 3.0 * 0.017, 0.04);
        let fill = SubmatrixEngine::default()
            .plan_for_matrix(&matrix, &comm)
            .element_fill;
        let (dense_out, dense_wall) = run(matrix.clone(), BackendPolicy::Dense);
        let (sparse_out, sparse_wall) = run(matrix.clone(), BackendPolicy::SparseCsr);
        let (auto_out, _) = run(matrix, BackendPolicy::Auto);
        let max_err = sparse_out
            .result
            .to_dense(&comm)
            .max_abs_diff(&dense_out.result.to_dense(&comm));
        let sparse_report = &sparse_out.report;
        let auto_backend = auto_out.report.backend;

        // Contracts, asserted before reporting (the sparse_equivalence
        // suite pins the same bounds in-test).
        assert!(
            max_err < 1e-10,
            "{label}: unfiltered sparse deviates by {max_err}"
        );
        assert_eq!(dense_out.report.backend, SolveBackend::Dense);
        assert_eq!(sparse_report.backend, SolveBackend::SparseCsr);
        assert!(
            sparse_report.sparse_flops > 0,
            "{label}: sparse path counted no flops"
        );
        assert_eq!(
            auto_backend,
            if fill < SPARSE_FILL_THRESHOLD {
                SolveBackend::SparseCsr
            } else {
                SolveBackend::Dense
            },
            "{label}: auto policy must follow the shared threshold rule"
        );
        fills.push(fill);
        flops_by_level.push(sparse_report.sparse_flops);
        report.push(vec![
            label.into(),
            Fixed(fill, 6),
            backend_label(auto_backend).into(),
            Sci(max_err, 3),
            sparse_report.sparse_flops.into(),
            sparse_report.sparse_filtered_nnz.into(),
            Wall(dense_wall),
            Wall(sparse_wall),
        ]);
    }

    // Cross-level contracts: the sweep actually spans the threshold, and
    // sparse work grows with fill.
    assert!(
        fills.windows(2).all(|w| w[0] < w[1]),
        "fill levels must be strictly increasing: {fills:?}"
    );
    assert!(
        fills[0] < SPARSE_FILL_THRESHOLD && fills[2] > 0.5,
        "sweep must straddle the auto threshold: {fills:?}"
    );
    assert!(
        flops_by_level.windows(2).all(|w| w[0] < w[1]),
        "sparse flops must grow with fill: {flops_by_level:?}"
    );
    report
}

/// Recovered-rank utilization: the fraction of (survivor × epoch) slots
/// that executed at least one non-poisoned attempt — a pure function of
/// the schedule, measuring how well the re-split keeps the shrunken
/// world busy (wait epochs and idle leftover ranks count against it).
fn survivor_utilization(rec: &EpochSchedule) -> f64 {
    let (mut busy, mut slots) = (0usize, 0usize);
    for ep in &rec.epochs {
        slots += ep.survivors.len();
        busy += ep
            .groups
            .iter()
            .filter(|g| g.jobs.iter().any(|a| !a.poisoned))
            .map(|g| g.ranks.len())
            .sum::<usize>();
    }
    if slots == 0 {
        1.0
    } else {
        busy as f64 / slots as f64
    }
}

/// Deterministic fault injection and epoch-level recovery: a straggler
/// batch (1 large + 12 small) under a scripted rank-death + quarantine
/// plan and a seeded chaos sweep (3 seeds × worlds {2, 4, 6}). Asserts:
/// every non-quarantined job bitwise-identical to the fault-free serial
/// `JobQueue`, an epoch-boundary rank failure strictly shrinks the
/// surviving world (and never hangs — the comm layer's receives carry
/// deadlines), and a rerun reproduces the counters field for field.
pub fn faults(_: &Ctx) -> Report {
    let jobs = straggler_jobs(12);
    let serial = JobQueue::new(fresh_engine()).run(jobs.clone());

    let mut report = Report::keyed(
        "Ablation — deterministic fault injection and epoch-level recovery",
        vec![
            ("world", "world"),
            ("scenario", "scenario"),
            ("rank_failures", "rank_failures"),
            ("poisoned", "poisoned_attempts"),
            ("retries", "retries"),
            ("quarantined", "quarantined_jobs"),
            ("recovery_epochs", "recovery_epochs"),
            ("final_world", "final_world_size"),
            ("", "slow_stalls"),
            ("survivor_util", "survivor_utilization"),
            ("total_s", "total_s"),
        ],
    );
    report.head = vec![
        (
            "workload",
            Json::Str("fault batch: 1 large + 12 small".into()),
        ),
        ("jobs", Json::Num(jobs.len() as f64)),
    ];

    // Scenario 1 (deterministic): a rank death at the epoch-1 boundary
    // plus a job poisoned past its budget — the full recovery contract
    // in one run.
    let det_plan = FaultPlan::new()
        .fail_rank(3, 1)
        .poison_job(2, 1)
        .poison_job(2, 2)
        .poison_job(2, 3);
    let scenarios = std::iter::once((4usize, "det-death+quarantine".to_string(), det_plan)).chain(
        [1u64, 2, 3].into_iter().flat_map(|seed| {
            [2usize, 4, 6].into_iter().map(move |world| {
                (
                    world,
                    format!("chaos-seed-{seed}"),
                    FaultPlan::random(seed, world, 13),
                )
            })
        }),
    );
    for (world, scenario, plan) in scenarios {
        let run = || {
            let sched =
                Scheduler::new(fresh_engine(), RankBudget::default()).with_fault_plan(plan.clone());
            timed(|| sched.run(world, jobs.clone()))
        };
        let (outcome, seconds) = run();
        let f = outcome.fault_stats;
        let rec = &outcome.schedule;

        // The acceptance contract, asserted in place.
        assert!(
            outcome.results.len() == serial.len()
                && outcome
                    .results
                    .iter()
                    .zip(&serial)
                    .all(|(x, y)| x.quarantined || same_bits(&x.result, &y.result)),
            "world {world} {scenario}: non-quarantined results deviate from the serial queue"
        );
        assert_eq!(
            f.final_world_size,
            world - f.rank_failures,
            "world {world} {scenario}: survivor count off"
        );
        for ep in &rec.epochs {
            assert!(
                ep.survivors.len() + ep.newly_failed.len() <= world,
                "resurrected rank in {scenario}"
            );
        }
        // Counters are exactly reproducible per plan.
        let (again, _) = run();
        assert_eq!(
            f, again.fault_stats,
            "world {world} {scenario}: counters not reproducible"
        );
        if scenario == "det-death+quarantine" {
            assert_eq!(f.rank_failures, 1);
            assert_eq!(f.quarantined_jobs, 1);
            assert!(outcome.results[2].quarantined);
        }
        report.push(vec![
            world.into(),
            scenario.into(),
            f.rank_failures.into(),
            f.poisoned_attempts.into(),
            f.retries.into(),
            f.quarantined_jobs.into(),
            f.recovery_epochs.into(),
            f.final_world_size.into(),
            f.slow_stalls.into(),
            Fixed(survivor_utilization(rec), 3),
            Wall(seconds),
        ]);
    }
    report
}

/// The batched multi-system SCF service vs a serial loop of `ScfDriver`
/// runs: a straggler batch of grand-canonical SCF systems (1 large + 18
/// small, damped SCF at fixed µ = 0, half filling) at several world
/// sizes, stealing off and on. Asserts: densities bitwise-identical to
/// the serial loop under any schedule, iteration counts and convergence
/// flags agree, and the consensus accounting `hits + builds = Σ_jobs
/// group_size × iterations` holds exactly. A traced rerun then writes
/// `TRACE_scf_service.jsonl`, the one input of every `smdoctor` trace
/// view (critical path, Perfetto timeline, calibration fit).
pub fn scf_service(_: &Ctx) -> Report {
    let mut specs = vec![gc_spec("large", 10, 1, 30, 1e-7)];
    specs.extend((0..18u64).map(|i| gc_spec(&format!("small-{i}"), 4, i, 30, 1e-7)));
    let n_jobs = specs.len();

    let serial_engine = fresh_engine();
    let (serial, serial_seconds) = timed(|| serial_scf_loop(&serial_engine, &specs));
    let serial_iters: usize = serial.iter().map(|r| r.iterations.len()).sum();
    let serial_stats = serial_engine.stats();
    println!(
        "serial driver loop: {serial_iters} SCF iterations, {} plan builds, {} cache hits, \
         {serial_seconds:.3} s",
        serial_stats.symbolic_builds, serial_stats.cache_hits
    );

    let mut report = Report::keyed(
        "Ablation — batched SCF service vs serial ScfDriver loop",
        vec![
            ("world", "world"),
            ("policy", "policy"),
            ("iterations", "iterations"),
            ("converged", "converged_jobs"),
            ("epochs", "epochs"),
            ("stolen_jobs", "stolen_jobs"),
            ("stolen_ranks", "stolen_ranks"),
            ("plan_builds", "plan_builds"),
            ("cache_hits", "cache_hits"),
            ("consensus_decisions", "consensus_decisions"),
            ("", "bitwise_vs_serial"),
            ("total_s", "total_s"),
        ],
    );
    report.head = vec![
        (
            "workload",
            Json::Str("SCF straggler batch: 1 large + 18 small, grand canonical".into()),
        ),
        ("jobs", Json::Num(n_jobs as f64)),
        ("serial_iterations", Json::Num(serial_iters as f64)),
        ("serial_total_s", Json::Num(serial_seconds)),
    ];
    for world in [2usize, 4, 6] {
        for policy in [StealPolicy::Disabled, StealPolicy::EpochRebalance] {
            let engine = fresh_engine();
            let service = Scheduler::new(engine.clone(), RankBudget::default()).with_policy(policy);
            let (outcome, seconds) = timed(|| service.run(world, specs.clone()));
            let policy_name = policy_name(policy);

            // Acceptance contract, asserted in place.
            assert_scf_bitwise(&outcome, &serial, &format!("world {world} {policy_name}"));
            let stats = engine.stats();
            let decisions = consensus_decisions(&outcome);
            assert_eq!(
                stats.cache_hits + stats.symbolic_builds,
                decisions,
                "consensus accounting broken at world {world} {policy_name}"
            );
            let s = outcome.steal_stats;
            if policy == StealPolicy::Disabled {
                assert_eq!(s.epochs, 1, "static baseline must stay single-epoch");
            } else if world == 6 {
                // Same relative cost skew as the one-shot straggler batch
                // (iteration budgets are uniform), so the steal contract
                // carries over.
                assert!(s.stolen_jobs >= 1, "SCF straggler batch must steal: {s:?}");
            }
            report.push(vec![
                world.into(),
                policy_name.into(),
                outcome.results.total_iterations().into(),
                outcome.results.converged_jobs().into(),
                s.epochs.into(),
                s.stolen_jobs.into(),
                s.stolen_ranks.into(),
                stats.symbolic_builds.into(),
                stats.cache_hits.into(),
                decisions.into(),
                Flag(true),
                Wall(seconds),
            ]);
        }
    }

    // Instrumented rerun at the largest world, stealing on: the trace
    // must not perturb the numerics (bitwise contract re-asserted with
    // every span and event live), and its JSONL artifact feeds `smdoctor`.
    let session = sm_trace::TraceSession::start("svc");
    let service = Scheduler::new(fresh_engine(), RankBudget::default())
        .with_policy(StealPolicy::EpochRebalance)
        .with_trace_label("svc");
    let outcome = service.run(6, specs.clone());
    assert_scf_bitwise(&outcome, &serial, "world 6 stealing, traced");
    let trace_path = results_dir().join("TRACE_scf_service.jsonl");
    session.write_jsonl(&trace_path).expect("write trace JSONL");
    let doc = session.to_doc();
    println!(
        "wrote {} ({} events)",
        trace_path.display(),
        doc.events.len()
    );
    let cp = sm_trace::analyze::critical_path(&doc, Some("svc"))
        .expect("critical path of the traced run");
    println!(
        "critical path: {:.6e} cost units over {} epoch(s), straggler job {:?}",
        cp.total_units,
        cp.epochs.len(),
        cp.straggler_job
    );
    report
}

/// The streamed workload of [`service`]: three admission windows of
/// mixed priorities, with recurring patterns across windows (plan reuse
/// on the resident engine).
fn stream() -> Vec<Vec<(ScfJobSpec, Priority)>> {
    let job = |name, nb, seed, priority| (gc_spec(name, nb, seed, 8, 1e-7), priority);
    vec![
        vec![
            job("w0-bulk", 10, 1, Priority::Low),
            job("w0-urgent", 4, 2, Priority::High),
            job("w0-steady", 5, 3, Priority::Normal),
        ],
        vec![
            job("w1-a", 4, 4, Priority::Normal),
            job("w1-b", 6, 5, Priority::Normal),
            job("w1-c", 4, 6, Priority::High),
            job("w1-d", 5, 7, Priority::Low),
        ],
        // Window 2 resubmits window 0's systems — pure plan reuse.
        vec![
            job("w0-bulk", 10, 1, Priority::Normal),
            job("w0-urgent", 4, 2, Priority::Normal),
            job("w0-steady", 5, 3, Priority::Normal),
        ],
    ]
}

/// Run the whole stream through one service on 4 ranks and a fresh
/// engine, asserting per-window bitwise equivalence and consensus
/// accounting, pushing one row per window (phase `cold`: the engine starts
/// empty). Returns the engine.
fn run_stream(
    workload: &[Vec<(ScfJobSpec, Priority)>],
    report: &mut Report,
) -> Arc<SubmatrixEngine> {
    let engine = fresh_engine();
    let phase = "cold";
    let mut svc = StreamingScfService::new(
        Scheduler::new(Arc::clone(&engine), RankBudget::default()).with_trace_label("svc-cold"),
        ServiceConfig {
            world_size: 4,
            queue_capacity: 16,
        },
    );
    for window in workload {
        for (spec, priority) in window {
            svc.submit(spec.clone(), *priority).expect("admission");
        }
        let before = engine.stats();
        let (w, seconds) = timed(|| svc.close_window().expect("window runs"));
        let after = engine.stats();

        // Acceptance contract, asserted in place: the window is a pure
        // function of the admitted set.
        let specs: Vec<ScfJobSpec> = w
            .admitted
            .iter()
            .map(|name| {
                window
                    .iter()
                    .find(|(s, _)| &s.name == name)
                    .expect("admitted job came from this window")
                    .0
                    .clone()
            })
            .collect();
        let serial = serial_scf_loop(&fresh_engine(), &specs);
        assert_scf_bitwise(&w.outcome, &serial, &format!("{phase} window {}", w.window));

        let (builds, hits) = (
            after.symbolic_builds - before.symbolic_builds,
            after.cache_hits - before.cache_hits,
        );
        let decisions = consensus_decisions(&w.outcome);
        assert_eq!(
            builds + hits,
            decisions,
            "consensus accounting broken in {phase} window {}",
            w.window
        );
        report.push(vec![
            phase.into(),
            w.window.into(),
            w.admitted.len().into(),
            w.outcome.schedule.epochs.len().into(),
            builds.into(),
            hits.into(),
            decisions.into(),
            Flag(true),
            Wall(seconds),
        ]);
    }
    engine
}

/// The resident streaming service vs a serial driver loop. Asserts: every
/// closed window bitwise-identical to a serial `ScfDriver` loop over the
/// same admitted set in canonical order (admission-window determinism);
/// `hits + builds` equal to the window's consensus decisions; and a full
/// queue sheds the overflow submission deterministically without
/// disturbing the admitted window.
pub fn service(_: &Ctx) -> Report {
    let workload = stream();
    let n_jobs: usize = workload.iter().map(Vec::len).sum();
    let mut report = Report::keyed(
        "Ablation — resident streaming service",
        vec![
            ("phase", "phase"),
            ("window", "window"),
            ("admitted", "admitted"),
            ("epochs", "epochs"),
            ("plan_builds", "plan_builds"),
            ("cache_hits", "cache_hits"),
            ("consensus_decisions", "consensus_decisions"),
            ("", "bitwise_vs_serial"),
            ("total_s", "total_s"),
        ],
    );

    // One engine streams every window: its plans live as long as it does.
    let engine = run_stream(&workload, &mut report);
    let cold_stats = engine.stats();
    assert!(
        cold_stats.symbolic_builds > 0,
        "cold stream must build plans"
    );
    println!(
        "cold stream: {} builds, {} hits",
        cold_stats.symbolic_builds, cold_stats.cache_hits
    );

    // Deterministic backpressure: a capacity-2 queue sheds the third
    // submission and the admitted window is undisturbed.
    let mut small = StreamingScfService::new(
        Scheduler::new(fresh_engine(), RankBudget::default()).with_trace_label("svc-bp"),
        ServiceConfig {
            world_size: 4,
            queue_capacity: 2,
        },
    );
    let bp_spec = |name, nb, seed| gc_spec(name, nb, seed, 8, 1e-7);
    small
        .submit(bp_spec("bp-a", 4, 1), Priority::Normal)
        .expect("admit");
    small
        .submit(bp_spec("bp-b", 5, 2), Priority::Normal)
        .expect("admit");
    let shed = small.submit(bp_spec("bp-c", 6, 3), Priority::High);
    assert!(
        matches!(shed, Err(ServiceError::Backpressure { capacity: 2 })),
        "third submission must shed"
    );
    let bp = small.close_window().expect("backpressured window");
    assert_eq!(bp.admitted, vec!["bp-a", "bp-b"]);
    assert_eq!(small.stats().backpressure_rejects, 1);
    println!("backpressure: 2 admitted, 1 shed at capacity 2");

    report.head = vec![
        (
            "workload",
            Json::Str("3 admission windows, 10 mixed-priority GC jobs, world 4".into()),
        ),
        ("jobs", Json::Num(n_jobs as f64)),
        ("windows", Json::Num(workload.len() as f64)),
        ("cold_builds", Json::Num(cold_stats.symbolic_builds as f64)),
        ("cold_hits", Json::Num(cold_stats.cache_hits as f64)),
        ("backpressure_rejects", Json::Num(1.0)),
    ];
    report
}
