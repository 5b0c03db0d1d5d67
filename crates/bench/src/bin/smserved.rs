//! `smserved` — the resident streaming SCF daemon.
//!
//! Wraps [`StreamingScfService::serve`] (the long-lived admission loop
//! over `ScfJobSpec` streams) in a line protocol on stdin, one reply line
//! per request on stdout:
//!
//! ```text
//! submit <name> <nb> <seed> [low|normal|high]   enqueue a banded GC system
//! window                                        close the admission window and run it
//! export <manifest.smplans>                     spill the plan cache to disk
//! import <manifest.smplans>                     restore plans from a spill
//! stats                                         lifetime counters
//! quit                                          stop the daemon
//! ```
//!
//! Flags: `--world <N>` (default 4), `--capacity <N>` (default 64),
//! `--label <s>` (trace label, default `serve`), `--trace <path>`
//! (record the session's structured trace and write it as JSONL on
//! exit — the input `smdoctor serve-report` reads), `--demo` (scripted
//! kill-and-restart session, no stdin).
//!
//! The demo session exercises the whole resident story end to end: a
//! cold daemon admits a mixed-priority window, spills its plan cache,
//! "dies"; a second daemon on a **fresh engine** imports the manifest,
//! replays the same systems and asserts the warm window replans nothing
//! (`symbolic_builds == 0`) with bitwise-identical densities — the
//! restart is invisible except in the wall clock.
//!
//! Jobs are deterministic banded grand-canonical systems (the scheduler
//! ablations' construction), so a session transcript is reproducible:
//! the same lines always produce the same densities, whatever the
//! arrival timing — only window membership matters (admission-window
//! determinism, ARCHITECTURE.md).

use std::io::BufRead;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use sm_bench::workloads::{fresh_engine, gc_spec, same_bits};
use sm_pipeline::{
    Priority, ServiceConfig, ServiceEvent, ServiceRequest, StreamingScfService, SubmatrixEngine,
};

/// Exit code for usage errors (mirrors `smdoctor`).
const EXIT_USAGE: u8 = 2;

/// Largest `nb` a `submit` line may ask for. A job is built dense before it
/// is blocked — `(2·nb)²` doubles, 32 MiB here — so an unbounded `nb` from
/// the wire overflows that product or aborts in the allocator.
const MAX_NB: usize = 1024;

/// One reply line per [`ServiceEvent`].
fn render(event: &ServiceEvent) -> String {
    match event {
        ServiceEvent::Admitted {
            seq,
            name,
            queue_depth,
        } => format!("admitted seq={seq} name={name} queue={queue_depth}"),
        ServiceEvent::Refused { name, error } => format!("refused name={name}: {error}"),
        ServiceEvent::Window(w) => {
            let jobs: Vec<String> = w
                .outcome
                .results
                .iter()
                .map(|r| {
                    let (iters, conv) = r
                        .scf
                        .as_ref()
                        .map_or((0, false), |s| (s.iterations, s.converged));
                    format!("{}(iters={iters},converged={conv})", r.name)
                })
                .collect();
            format!(
                "window {} ran {} job(s) in {} epoch(s): {}",
                w.window,
                w.admitted.len(),
                w.outcome.schedule.epochs.len(),
                jobs.join(" ")
            )
        }
        ServiceEvent::WindowFailed(e) => format!("window-failed: {e}"),
        ServiceEvent::PlansExported(path, n) => {
            format!("exported {n} plan(s) to {}", path.display())
        }
        ServiceEvent::PlansImported(path, n) => {
            format!("imported {n} plan(s) from {}", path.display())
        }
        ServiceEvent::PlanIoFailed(e) => format!("plan-io-failed: {e}"),
        ServiceEvent::Stats(s) => format!(
            "stats windows={} jobs={} backpressure={} rejected={} high-water={}",
            s.windows, s.jobs_run, s.backpressure_rejects, s.admission_rejects, s.queue_high_water
        ),
        ServiceEvent::Stopped(s) => format!("stopped windows={} jobs={}", s.windows, s.jobs_run),
    }
}

/// Parse one protocol line into a request; `Err` is a message for the
/// user, `Ok(None)` a blank/comment line.
fn parse_line(line: &str) -> Result<Option<ServiceRequest>, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        [] | ["#", ..] => Ok(None),
        ["submit", name, nb, seed] | ["submit", name, nb, seed, _] => {
            let priority = match words.get(4) {
                None => Priority::Normal,
                Some(p) => Priority::parse(p)
                    .ok_or_else(|| format!("bad priority '{p}' (low|normal|high)"))?,
            };
            let nb: usize = match nb.parse() {
                Ok(n) if (1..=MAX_NB).contains(&n) => n,
                _ => return Err(format!("bad nb '{nb}' (1..={MAX_NB})")),
            };
            let seed: u64 = seed.parse().map_err(|_| format!("bad seed '{seed}'"))?;
            Ok(Some(ServiceRequest::Submit(
                Box::new(gc_spec(name, nb, seed, 8, 1e-9)),
                priority,
            )))
        }
        ["window"] => Ok(Some(ServiceRequest::CloseWindow)),
        ["export", path] => Ok(Some(ServiceRequest::ExportPlans(PathBuf::from(path)))),
        ["import", path] => Ok(Some(ServiceRequest::ImportPlans(PathBuf::from(path)))),
        ["stats"] => Ok(Some(ServiceRequest::Stats)),
        ["quit"] | ["shutdown"] => Ok(Some(ServiceRequest::Shutdown)),
        other => Err(format!(
            "unknown request '{}' (submit|window|export|import|stats|quit)",
            other.join(" ")
        )),
    }
}

/// Stand up a daemon thread over channels.
fn spawn_daemon(
    engine: Arc<SubmatrixEngine>,
    config: ServiceConfig,
) -> (
    Sender<ServiceRequest>,
    Receiver<ServiceEvent>,
    std::thread::JoinHandle<()>,
) {
    let svc = StreamingScfService::new(engine, config);
    let (req_tx, req_rx) = channel();
    let (evt_tx, evt_rx) = channel();
    let handle = std::thread::spawn(move || svc.serve(req_rx, evt_tx));
    (req_tx, evt_rx, handle)
}

/// The interactive loop: one request line in, one reply line out.
fn run_stdin(engine: Arc<SubmatrixEngine>, config: ServiceConfig) -> ExitCode {
    let (req_tx, evt_rx, handle) = spawn_daemon(engine, config);
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("smserved: stdin: {e}");
                break;
            }
        };
        let req = match parse_line(&line) {
            Ok(Some(req)) => req,
            Ok(None) => continue,
            Err(msg) => {
                println!("error: {msg}");
                continue;
            }
        };
        let shutdown = matches!(req, ServiceRequest::Shutdown);
        if req_tx.send(req).is_err() {
            break;
        }
        match evt_rx.recv() {
            Ok(event) => println!("{}", render(&event)),
            Err(_) => break,
        }
        if shutdown {
            break;
        }
    }
    // EOF without `quit`: dropping the request channel stops the loop,
    // which answers with the final Stopped event.
    drop(req_tx);
    if let Ok(event) = evt_rx.recv() {
        println!("{}", render(&event));
    }
    let _ = handle.join();
    ExitCode::SUCCESS
}

/// The scripted kill-and-restart session (`--demo`).
fn run_demo(config: ServiceConfig) -> ExitCode {
    let submit =
        |name: &str, nb: usize, seed: u64, p: &str| format!("submit {name} {nb} {seed} {p}");
    let manifest = std::env::temp_dir().join("smserved_demo.smplans");
    let manifest_str = manifest.display().to_string();

    println!("# cold daemon: admit a mixed-priority window, run it, spill plans");
    let cold_engine = fresh_engine();
    let (req_tx, evt_rx, handle) = spawn_daemon(Arc::clone(&cold_engine), config.clone());
    let script = [
        submit("bulk-a", 6, 1, "low"),
        submit("urgent", 4, 2, "high"),
        submit("steady", 5, 3, "normal"),
        "window".to_string(),
        format!("export {manifest_str}"),
        "stats".to_string(),
        "quit".to_string(),
    ];
    let mut cold_window = None;
    for line in &script {
        println!("> {line}");
        let req = parse_line(line)
            .expect("demo script parses")
            .expect("non-empty");
        let shutdown = matches!(req, ServiceRequest::Shutdown);
        req_tx.send(req).expect("daemon alive");
        let event = evt_rx.recv().expect("daemon replies");
        println!("{}", render(&event));
        if let ServiceEvent::Window(w) = event {
            cold_window = Some(w);
        }
        if shutdown {
            break;
        }
    }
    let _ = handle.join();
    let cold_stats = cold_engine.stats();
    let cold_window = cold_window.expect("cold window ran");
    assert!(
        cold_stats.symbolic_builds > 0,
        "cold window must build plans"
    );

    println!("\n# restart: fresh engine (a new process in miniature), import, replay");
    let warm_engine = fresh_engine();
    let (req_tx, evt_rx, handle) = spawn_daemon(Arc::clone(&warm_engine), config);
    let script = [
        format!("import {manifest_str}"),
        submit("bulk-a", 6, 1, "low"),
        submit("urgent", 4, 2, "high"),
        submit("steady", 5, 3, "normal"),
        "window".to_string(),
        "quit".to_string(),
    ];
    let mut warm_window = None;
    for line in &script {
        println!("> {line}");
        let req = parse_line(line)
            .expect("demo script parses")
            .expect("non-empty");
        let shutdown = matches!(req, ServiceRequest::Shutdown);
        req_tx.send(req).expect("daemon alive");
        let event = evt_rx.recv().expect("daemon replies");
        println!("{}", render(&event));
        match event {
            ServiceEvent::Window(w) => warm_window = Some(w),
            ServiceEvent::PlanIoFailed(e) => {
                eprintln!("smserved: demo import failed: {e}");
                return ExitCode::FAILURE;
            }
            _ => {}
        }
        if shutdown {
            break;
        }
    }
    let _ = handle.join();
    let warm_stats = warm_engine.stats();
    let warm_window = warm_window.expect("warm window ran");

    // The resident contract, asserted in-binary: a warm restart replans
    // nothing and changes no numbers.
    assert_eq!(
        warm_stats.symbolic_builds, 0,
        "warm restart must replan nothing"
    );
    assert_eq!(
        warm_stats.cache_hits, warm_stats.executions,
        "every warm planning decision is a hit"
    );
    for (c, w) in cold_window
        .outcome
        .results
        .iter()
        .zip(&warm_window.outcome.results)
    {
        assert_eq!(c.name, w.name);
        assert!(
            same_bits(&c.result, &w.result),
            "job '{}' density changed across the restart",
            c.name
        );
    }
    println!(
        "\ndemo OK: warm restart replanned nothing ({} hits / 0 builds), \
         densities bitwise-identical across the restart; manifest at {manifest_str}",
        warm_stats.cache_hits
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServiceConfig::default();
    let mut demo = false;
    let mut trace: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |what: &str| -> Result<&String, ExitCode> {
            it.next().ok_or_else(|| {
                eprintln!("smserved: {what} needs a value");
                ExitCode::from(EXIT_USAGE)
            })
        };
        match arg.as_str() {
            "--demo" => demo = true,
            "--world" => match flag_value("--world").map(|v| v.parse()) {
                Ok(Ok(n)) if n >= 1 => config.world_size = n,
                Ok(_) => {
                    eprintln!("smserved: --world must be a positive integer");
                    return ExitCode::from(EXIT_USAGE);
                }
                Err(code) => return code,
            },
            "--capacity" => match flag_value("--capacity").map(|v| v.parse()) {
                Ok(Ok(n)) if n >= 1 => config.queue_capacity = n,
                Ok(_) => {
                    eprintln!("smserved: --capacity must be a positive integer");
                    return ExitCode::from(EXIT_USAGE);
                }
                Err(code) => return code,
            },
            "--label" => match flag_value("--label") {
                Ok(v) => config.trace_label = v.clone(),
                Err(code) => return code,
            },
            "--trace" => match flag_value("--trace") {
                Ok(v) => trace = Some(PathBuf::from(v)),
                Err(code) => return code,
            },
            "--help" | "-h" => {
                println!(
                    "smserved [--world N] [--capacity N] [--label s] [--trace path] [--demo]\n\
                     stdin protocol: submit <name> <nb> <seed> [low|normal|high] | window |\n\
                     export <path> | import <path> | stats | quit"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("smserved: unknown flag '{other}' (try --help)");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }
    let session = trace
        .as_ref()
        .map(|_| sm_trace::TraceSession::start(&config.trace_label));
    let code = if demo {
        run_demo(config)
    } else {
        run_stdin(fresh_engine(), config)
    };
    if let (Some(path), Some(session)) = (trace, session) {
        if let Err(e) = session.write_jsonl(&path) {
            eprintln!("smserved: cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!(
            "wrote {} ({} events, {} metrics)",
            path.display(),
            session.events().len(),
            session.metrics().len()
        );
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(nb: &str) -> Result<Option<ServiceRequest>, String> {
        parse_line(&format!("submit a {nb} 1"))
    }

    #[test]
    fn parse_line_bounds_nb() {
        assert!(matches!(
            submit(&MAX_NB.to_string()),
            Ok(Some(ServiceRequest::Submit(..)))
        ));
        let refused = [0, MAX_NB + 1, 4_000_000_000, usize::MAX].map(|n| n.to_string());
        for nb in refused.iter().map(String::as_str).chain(["-1", "x"]) {
            match submit(nb) {
                Err(e) => assert!(e.starts_with(&format!("bad nb '{nb}'")), "{e}"),
                Ok(_) => panic!("nb '{nb}' is outside 1..={MAX_NB} and must be refused"),
            }
        }
    }
}
