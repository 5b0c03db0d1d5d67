//! `smserved` — the resident streaming SCF daemon.
//!
//! Drives a [`StreamingScfService`] (the admission queue in front of the
//! scheduler) from a line protocol on stdin, one reply line per request
//! on stdout:
//!
//! ```text
//! submit <name> <nb> <seed> [low|normal|high]   enqueue a banded GC system
//! window                                        close the admission window and run it
//! stats                                         lifetime counters
//! quit                                          stop the daemon
//! ```
//!
//! Flags: `--world <N>` (default 4), `--capacity <N>` (default 64),
//! `--label <s>` (trace label, default `serve`), `--trace <path>`
//! (record the session's structured trace and write it as JSONL on
//! exit — the input `smdoctor serve-report` reads), `--demo` (scripted
//! two-window session, no stdin).
//!
//! The demo session exercises the resident contract end to end: one
//! daemon admits a mixed-priority window of three systems, runs it, then
//! admits the same three systems again; it asserts that the second window
//! replans nothing (0 symbolic builds, every planning decision a hit) and
//! that its densities are bitwise-identical to the first window's. The
//! plan cache lives as long as the daemon; a new daemon plans each
//! pattern on first use.
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

/// Iteration budget of a submitted job. The damped SCF's energy change
/// halves each iteration from about 5e-6, so the demo's systems (nb 4 to
/// 6) reach the 1e-9 tolerance in 16 or 17 iterations.
const SCF_ITERATIONS: usize = 24;

/// One parsed protocol line.
enum Request {
    Submit(Box<ScfJobSpec>, Priority),
    Window,
    Stats,
    Quit,
}

/// Parse one protocol line into a request; `Err` is a message for the
/// user, `Ok(None)` a blank line or a comment (a line whose first word
/// starts with `#`).
fn parse_line(line: &str) -> Result<Option<Request>, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    match words.as_slice() {
        [] => Ok(None),
        [first, ..] if first.starts_with('#') => Ok(None),
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
            let spec = gc_spec(name, nb, seed, SCF_ITERATIONS, 1e-9);
            Ok(Some(Request::Submit(Box::new(spec), priority)))
        }
        ["window"] => Ok(Some(Request::Window)),
        ["stats"] => Ok(Some(Request::Stats)),
        ["quit"] | ["shutdown"] => Ok(Some(Request::Quit)),
        other => Err(format!(
            "unknown request '{}' (submit|window|stats|quit)",
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

/// The scripted two-window session (`--demo`).
fn run_demo(label: &str, config: ServiceConfig) -> ExitCode {
    let submit =
        |name: &str, nb: usize, seed: u64, p: &str| format!("submit {name} {nb} {seed} {p}");
    let systems = [
        submit("bulk-a", 6, 1, "low"),
        submit("urgent", 4, 2, "high"),
        submit("steady", 5, 3, "normal"),
    ];
    let engine = fresh_engine();
    let mut svc = daemon(Arc::clone(&engine), label, config);
    let mut windows = Vec::new();
    let mut stats = Vec::new();
    for (w, tail) in [
        (0, &["window", "stats"][..]),
        (1, &["window", "stats", "quit"]),
    ] {
        println!("# window {w}: admit three systems of mixed priority, run them");
        let before = engine.stats();
        let lines: Vec<String> = (systems.iter().cloned())
            .chain(tail.iter().map(|l| l.to_string()))
            .collect();
        match script(&mut svc, &lines) {
            Ok(window) => windows.push(window),
            Err(e) => {
                eprintln!("smserved: demo window {w} failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        stats.push(engine.stats().since(&before));
    }
    assert!(stats[0].symbolic_builds > 0, "window 0 must build plans");

    // The resident contract, asserted in-binary: the second window
    // replans nothing and changes no numbers.
    let warm = stats[1];
    assert_eq!(warm.symbolic_builds, 0, "window 1 must replan nothing");
    assert_eq!(
        warm.cache_hits, warm.executions,
        "every planning decision of window 1 is a hit"
    );
    let pairs = windows[0]
        .outcome
        .results
        .iter()
        .zip(&windows[1].outcome.results);
    for (first, second) in pairs {
        assert_eq!(first.name, second.name);
        assert!(
            same_bits(&first.result, &second.result),
            "job '{}' density changed between the windows",
            first.name
        );
    }
    // Every job must converge within its budget: a demo whose jobs stop
    // short shows six failed SCF runs, however stable their bits.
    let unconverged: Vec<&str> = (windows.iter())
        .flat_map(|w| &w.outcome.results)
        .filter(|r| !r.scf.as_ref().is_some_and(|s| s.converged))
        .map(|r| r.name.as_str())
        .collect();
    if !unconverged.is_empty() {
        eprintln!(
            "smserved: demo job(s) did not converge in {SCF_ITERATIONS} iterations: {}",
            unconverged.join(" ")
        );
        return ExitCode::FAILURE;
    }
    println!(
        "\ndemo OK: window 1 replanned nothing ({} hits / 0 builds), \
         densities bitwise-identical to window 0's, every job converged",
        warm.cache_hits
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
                     stats | quit"
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
    use sm_dbcsr::wire::mix64;

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

    /// A deterministic sweep of generated lines: each parses to `Ok` or
    /// `Err` and none panics. It covers every request word with too few
    /// and too many arguments; `nb` and `seed` at, just past and far past
    /// their bounds; empty, whitespace-only, comment and non-ASCII lines;
    /// and random word sequences drawn with `mix64`.
    #[test]
    fn generated_lines_parse_or_refuse_without_a_panic() {
        // The one job of the largest `nb` (32 MiB dense) comes first.
        let mut lines = vec![format!("submit big {MAX_NB} 0 high")];
        let specials = [
            "",
            " \t ",
            "#",
            "# a comment",
            "#window",
            "#note",
            "  #x y",
            "ü",
            "日本語",
            "\u{0}",
        ];
        lines.extend(specials.map(String::from));
        // A line whose first word starts with `#` is a comment.
        for comment in ["#", "# a comment", "#window", "#note", "  #x y"] {
            assert!(
                matches!(parse_line(comment), Ok(None)),
                "{comment:?} is a comment"
            );
        }
        for word in [
            "submit", "window", "stats", "quit", "shutdown", "export", "import", "Ü",
        ] {
            lines.extend((0..=6).map(|n| format!("{word}{}", " 7".repeat(n))));
        }
        let nbs = format!("0 1 {} 4294967296 18446744073709551616 -1 ½", MAX_NB + 1);
        let seeds = "0 18446744073709551615 18446744073709551616 99999999999999999999999 -1 x";
        for nb in nbs.split(' ') {
            lines.extend(seeds.split(' ').map(|seed| format!("submit ü {nb} {seed}")));
        }
        for priority in ["low", "normal", "high", "HIGH", "urgent", "ü"] {
            lines.push(format!("submit a 1 1 {priority}"));
        }
        let pool = format!("submit window stats quit a 1 0 -1 {} low # ü", MAX_NB + 1);
        let pool: Vec<&str> = pool.split(' ').collect();
        let mut h = 0x5eed;
        let mut draw = || {
            h = mix64(h);
            h as usize
        };
        for _ in 0..2000 {
            let words: Vec<&str> = (0..draw() % 7).map(|_| pool[draw() % pool.len()]).collect();
            lines.push(words.join(" "));
        }
        for line in &lines {
            let parsed = std::panic::catch_unwind(|| parse_line(line).map(drop));
            assert!(parsed.is_ok(), "line {line:?} panicked");
        }
        // `export` and `import` are not requests.
        for line in ["export plans.bin", "import plans.bin"] {
            let err = parse_line(line).err().expect("refused");
            assert_eq!(
                err,
                format!("unknown request '{line}' (submit|window|stats|quit)")
            );
        }
    }
}
