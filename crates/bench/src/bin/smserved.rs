//! `smserved` — the resident streaming SCF daemon.
//!
//! Drives a [`StreamingScfService`] (the admission queue in front of the
//! scheduler) from a line protocol on stdin, one reply line per request
//! on stdout:
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
use std::sync::Arc;

use sm_bench::workloads::{fresh_engine, gc_spec, same_bits};
use sm_pipeline::{
    Priority, RankBudget, ScfJobSpec, Scheduler, ServiceConfig, StreamingScfService,
    SubmatrixEngine, WindowOutcome,
};

/// Exit code for usage errors (mirrors `smdoctor`).
const EXIT_USAGE: u8 = 2;

/// Largest `nb` a `submit` line may ask for. A job is built dense before it
/// is blocked — `(2·nb)²` doubles, 32 MiB here — so an unbounded `nb` from
/// the wire overflows that product or aborts in the allocator.
const MAX_NB: usize = 1024;

/// One parsed protocol line.
enum Request {
    Submit(Box<ScfJobSpec>, Priority),
    Window,
    Export(PathBuf),
    Import(PathBuf),
    Stats,
    Quit,
}

/// Parse one protocol line into a request; `Err` is a message for the
/// user, `Ok(None)` a blank/comment line.
fn parse_line(line: &str) -> Result<Option<Request>, String> {
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
            let spec = gc_spec(name, nb, seed, 8, 1e-9);
            Ok(Some(Request::Submit(Box::new(spec), priority)))
        }
        ["window"] => Ok(Some(Request::Window)),
        ["export", path] => Ok(Some(Request::Export(PathBuf::from(path)))),
        ["import", path] => Ok(Some(Request::Import(PathBuf::from(path)))),
        ["stats"] => Ok(Some(Request::Stats)),
        ["quit"] | ["shutdown"] => Ok(Some(Request::Quit)),
        other => Err(format!(
            "unknown request '{}' (submit|window|export|import|stats|quit)",
            other.join(" ")
        )),
    }
}

/// The reply line once the daemon stops.
fn stopped(svc: &StreamingScfService) -> String {
    let s = svc.stats();
    format!("stopped windows={} jobs={}", s.windows, s.jobs_run)
}

/// Carry out one request on `svc` and return its reply line — `Err` for a
/// refusal or a failure. A closed window's outcome is left in `window`.
fn answer(
    svc: &mut StreamingScfService,
    req: Request,
    window: &mut Option<WindowOutcome>,
) -> Result<String, String> {
    match req {
        Request::Submit(spec, priority) => {
            let name = spec.name.clone();
            match svc.submit(*spec, priority) {
                Ok(seq) => Ok(format!(
                    "admitted seq={seq} name={name} queue={}",
                    svc.queue_depth()
                )),
                Err(error) => Err(format!("refused name={name}: {error}")),
            }
        }
        Request::Window => {
            let w = svc
                .close_window()
                .map_err(|e| format!("window-failed: {e}"))?;
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
            let line = format!(
                "window {} ran {} job(s) in {} epoch(s): {}",
                w.window,
                w.admitted.len(),
                w.outcome.schedule.epochs.len(),
                jobs.join(" ")
            );
            *window = Some(w);
            Ok(line)
        }
        Request::Export(path) => match svc.engine().export_plans(&path) {
            Ok(n) => Ok(format!("exported {n} plan(s) to {}", path.display())),
            Err(e) => Err(format!("plan-io-failed: {e}")),
        },
        Request::Import(path) => match svc.engine().import_plans(&path) {
            Ok(n) => Ok(format!("imported {n} plan(s) from {}", path.display())),
            Err(e) => Err(format!("plan-io-failed: {e}")),
        },
        Request::Stats => {
            let s = svc.stats();
            Ok(format!(
                "stats windows={} jobs={} backpressure={} rejected={} high-water={}",
                s.windows,
                s.jobs_run,
                s.backpressure_rejects,
                s.admission_rejects,
                s.queue_high_water
            ))
        }
        Request::Quit => Ok(stopped(svc)),
    }
}

/// A daemon over `engine`, its windows traced under `label`.
fn daemon(engine: Arc<SubmatrixEngine>, label: &str, config: ServiceConfig) -> StreamingScfService {
    let sched = Scheduler::new(engine, RankBudget::default()).with_trace_label(label);
    StreamingScfService::new(sched, config)
}

/// The interactive loop: one request line in, one reply line out.
fn run_stdin(mut svc: StreamingScfService) -> ExitCode {
    let mut window = None;
    for line in std::io::stdin().lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("smserved: stdin: {e}");
                break;
            }
        };
        match parse_line(&line) {
            Ok(Some(Request::Quit)) => break,
            Ok(Some(req)) => match answer(&mut svc, req, &mut window) {
                Ok(reply) | Err(reply) => println!("{reply}"),
            },
            Ok(None) => {}
            Err(msg) => println!("error: {msg}"),
        }
    }
    println!("{}", stopped(&svc));
    ExitCode::SUCCESS
}

/// Run one scripted daemon session, echoing each line and its reply;
/// returns the last window it closed, or the first failed reply.
fn script(svc: &mut StreamingScfService, lines: &[String]) -> Result<WindowOutcome, String> {
    let mut window = None;
    for line in lines {
        println!("> {line}");
        let req = parse_line(line)
            .expect("demo script parses")
            .expect("non-empty");
        let reply = answer(svc, req, &mut window);
        println!("{}", reply.as_ref().unwrap_or_else(|e| e));
        reply?;
    }
    window.ok_or_else(|| "the script closed no window".to_string())
}

/// The scripted kill-and-restart session (`--demo`).
fn run_demo(label: &str, config: ServiceConfig) -> ExitCode {
    let submit =
        |name: &str, nb: usize, seed: u64, p: &str| format!("submit {name} {nb} {seed} {p}");
    let manifest = std::env::temp_dir().join("smserved_demo.smplans");
    let manifest_str = manifest.display().to_string();

    println!("# cold daemon: admit a mixed-priority window, run it, spill plans");
    let cold_engine = fresh_engine();
    let mut cold = daemon(Arc::clone(&cold_engine), label, config.clone());
    let cold_window = script(
        &mut cold,
        &[
            submit("bulk-a", 6, 1, "low"),
            submit("urgent", 4, 2, "high"),
            submit("steady", 5, 3, "normal"),
            "window".to_string(),
            format!("export {manifest_str}"),
            "stats".to_string(),
            "quit".to_string(),
        ],
    );
    let cold_stats = cold_engine.stats();
    let cold_window = match cold_window {
        Ok(w) => w,
        Err(e) => {
            eprintln!("smserved: demo cold session failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    assert!(
        cold_stats.symbolic_builds > 0,
        "cold window must build plans"
    );

    println!("\n# restart: fresh engine (a new process in miniature), import, replay");
    let warm_engine = fresh_engine();
    let mut warm = daemon(Arc::clone(&warm_engine), label, config);
    let warm_window = script(
        &mut warm,
        &[
            format!("import {manifest_str}"),
            submit("bulk-a", 6, 1, "low"),
            submit("urgent", 4, 2, "high"),
            submit("steady", 5, 3, "normal"),
            "window".to_string(),
            "quit".to_string(),
        ],
    );
    let warm_stats = warm_engine.stats();
    let warm_window = match warm_window {
        Ok(w) => w,
        Err(e) => {
            eprintln!("smserved: demo warm session failed: {e}");
            return ExitCode::FAILURE;
        }
    };

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
    let mut label = "serve".to_string();
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
                Ok(v) => label = v.clone(),
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
        .map(|_| sm_trace::TraceSession::start(&label));
    let code = if demo {
        run_demo(&label, config)
    } else {
        run_stdin(daemon(fresh_engine(), &label, config))
    };
    if let (Some(path), Some(session)) = (trace, session) {
        if let Err(e) = session.write_jsonl(&path) {
            eprintln!("smserved: cannot write trace {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        let events = session.events().len();
        println!("wrote {} ({events} events)", path.display());
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(nb: &str) -> Result<Option<Request>, String> {
        parse_line(&format!("submit a {nb} 1"))
    }

    #[test]
    fn parse_line_bounds_nb() {
        assert!(matches!(
            submit(&MAX_NB.to_string()),
            Ok(Some(Request::Submit(..)))
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
