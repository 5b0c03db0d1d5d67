//! `smbench` — the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! smbench --workload W --seed N --seconds S --trace 0|1   one pinned run
//! smbench [--seed N] [--seconds S] [--trace 0|1]          all five, one child each
//! smbench --repeat N [--workload W] [--seed N]            N untraced runs, spread report
//! ```
//!
//! A run is: pin to one CPU → set up (inputs from `--seed`, engine, cold
//! symbolic plan, one warm-up op; three times, median reported) → timed
//! ops of fixed work, each framed by two measurements of the reference
//! kernel, until `--seconds` have passed and at least seven are done →
//! read `VmHWM` → verify every op's output. The last line of standard
//! output is the result as one JSON object.

mod inputs;
mod layers;
mod reference;
mod repeat;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::Instant;

use sm_trace::json::Json;

use reference::{at_quiet, Reference};
use report::{result_line, Metrics, END_TO_END, PER_LAYER};
use spans::Recorder;
use stats::median;
use workloads::{EngineKind, EngineWorkload, SchedKind, SchedWorkload, Workload};

/// Seed of a run that names none. A claim made on it must also hold on
/// the held-out seed named in [`USAGE`], which no workload was sized on.
pub const DEFAULT_SEED: u64 = 2020;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;

/// Fewest timed ops of an untraced run.
const MIN_OPS: usize = 7;
/// Complete set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Untraced and traced ops of a traced run, interleaved.
const TRACE_OPS: usize = 5;
/// Ops of the unpinned probe.
const UNPINNED_OPS: usize = 3;
/// An op this short means the work is gone, not that it got faster.
const OP_FLOOR_S: f64 = 0.05;
/// Below this the workload should be re-sized (warning only: a kernel
/// change that makes an op this fast must still be able to report it).
const OP_RESIZE_S: f64 = 0.1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    unpinned_probe: bool,
}

const USAGE: &str = "usage: smbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--repeat N]
  workloads: dense_fp64 dense_fp32 sparse_auto scf_md_w2 batch_tiny_w2 (default: all, one child each)
  seeds: 2020 by default; 7919 is held out — no workload was sized on it";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: None,
        unpinned_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--unpinned-probe" {
            args.unpinned_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload '{value}' (one of {:?})",
                        workloads::NAMES
                    ));
                }
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("within (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                let n: usize = value.parse().map_err(|_| bad("a whole number"))?;
                if n < 2 {
                    return Err(bad("at least 2"));
                }
                args.repeat = Some(n);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let t0 = Instant::now();
    let outcome = parse_args().and_then(|args| match (&args.workload, args.repeat) {
        (_, Some(n)) => repeat::run(n, args.workload.as_deref(), args.seed, args.seconds),
        (Some(w), None) => single(w, &args, t0),
        (None, None) => all_workloads(&args),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("smbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One workload in this process.
fn single(name: &str, args: &Args, t0: Instant) -> Result<(), String> {
    match name {
        "dense_fp64" => dispatch(name, args, t0, |s, r| {
            EngineWorkload::setup(EngineKind::DenseFp64, s, r)
        }),
        "dense_fp32" => dispatch(name, args, t0, |s, r| {
            EngineWorkload::setup(EngineKind::DenseFp32, s, r)
        }),
        "sparse_auto" => dispatch(name, args, t0, |s, r| {
            EngineWorkload::setup(EngineKind::SparseAuto, s, r)
        }),
        "scf_md_w2" => dispatch(name, args, t0, |s, r| {
            SchedWorkload::setup(SchedKind::ScfMd, s, r)
        }),
        "batch_tiny_w2" => dispatch(name, args, t0, |s, r| {
            SchedWorkload::setup(SchedKind::BatchTiny, s, r)
        }),
        _ => unreachable!("parse_args admits only known workloads"),
    }
}

fn dispatch<W: Workload>(
    name: &str,
    args: &Args,
    t0: Instant,
    setup: impl Fn(u64, &mut Recorder) -> W,
) -> Result<(), String> {
    if args.unpinned_probe {
        return unpinned_probe(args.seed, setup);
    }
    // Before any thread exists: rank threads and the rayon shim's workers
    // inherit the mask.
    let cpu = sys::pin_to_one_cpu()
        .ok_or("could not pin to one CPU; unpinned timings on this host do not repeat")?;
    println!("workload {name}  seed {}  pinned to cpu {cpu}", args.seed);
    if args.trace {
        traced_run(name, args, t0, setup)
    } else {
        untraced_run(args, t0, setup)
    }
}

/// Time one op and verify its output, catching panics: an op that panics
/// or fails verification is a failed op, not a failed benchmark. Returns
/// the op's wall, whether it passed, and the output if there is one.
fn timed_op<W: Workload>(
    w: &W,
    expected: &W::Expected,
    op: impl FnOnce() -> W::Output,
) -> (f64, bool, Option<W::Output>) {
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(op));
    let wall = t.elapsed().as_secs_f64();
    let verdict = match &out {
        Ok(out) => w.check(out, expected),
        Err(_) => Err("the op panicked".to_string()),
    };
    if let Err(why) = &verdict {
        eprintln!("smbench: op failed: {why}");
    }
    (wall, verdict.is_ok(), out.ok())
}

fn check_op_time(op_wall_s: f64) -> Result<(), String> {
    if op_wall_s < OP_FLOOR_S {
        return Err(format!(
            "op median {op_wall_s:.4} s: the workload does no work"
        ));
    }
    if op_wall_s < OP_RESIZE_S {
        eprintln!("smbench: warning: op median {op_wall_s:.3} s < {OP_RESIZE_S} s — re-size this workload");
    }
    Ok(())
}

fn untraced_run<W: Workload>(
    args: &Args,
    t0: Instant,
    setup: impl Fn(u64, &mut Recorder) -> W,
) -> Result<(), String> {
    let mut rec = Recorder::new(false, t0);
    // Every set-up and every op is framed by two measurements of the
    // reference kernel (see `reference.rs`); a measurement closes one frame
    // and opens the next.
    let mut reference = Reference::new();
    let mut setup_refs = vec![reference.measure()];
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        drop(workload.take()); // one workload's memory at a time
        let t = Instant::now();
        workload = Some(setup(args.seed, &mut rec));
        setups.push(t.elapsed().as_secs_f64());
        setup_refs.push(reference.measure());
    }
    let w = workload.expect("SETUP_REPEATS >= 1");
    let expected = w.expected();

    let mut op_refs = vec![reference.measure()];
    let mut walls = Vec::new();
    let mut failed = 0;
    let section = Instant::now();
    while walls.len() < MIN_OPS || section.elapsed().as_secs_f64() < args.seconds {
        let (wall, ok, _) = timed_op(&w, &expected, || w.op());
        walls.push(wall);
        failed += usize::from(!ok);
        op_refs.push(reference.measure());
    }
    let section_s = section.elapsed().as_secs_f64();
    let peak_rss = sys::peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;

    let op_wall_s = at_quiet(&walls, &op_refs);
    check_op_time(op_wall_s)?;
    let attempted = walls.len();

    let mut m = Metrics::new(END_TO_END);
    m.set("op_wall_s", op_wall_s);
    m.set("solves_per_s", w.solves_per_op() / op_wall_s);
    m.set("setup_s", at_quiet(&setups, &setup_refs));
    m.set("peak_rss_mb", peak_rss);
    let (min, max) = walls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
        (lo.min(x), hi.max(x))
    });
    println!(
        "ops {attempted} in {section_s:.2} s (failed {failed}); {} solves per op; raw op wall min {min:.4} \
         median {:.4} max {max:.4} s; raw set-ups {setups:.3?} s",
        w.solves_per_op(),
        median(&walls),
    );
    println!(
        "reference kernel: median {:.4} s over {} measurements (quiet: {} s)",
        median(&op_refs),
        op_refs.len(),
        reference::QUIET_S
    );
    println!("op walls {walls:.4?} s");
    println!("reference {op_refs:.4?} s");
    for (name, unit, value) in m.rows() {
        println!("  {name:<14} {value:>12.4} {unit}");
    }
    println!("{}", result_line(attempted, failed, &m));
    Ok(())
}

fn traced_run<W: Workload>(
    name: &str,
    args: &Args,
    t0: Instant,
    setup: impl Fn(u64, &mut Recorder) -> W,
) -> Result<(), String> {
    let mut rec = Recorder::new(true, t0);
    let mut m = Metrics::new(PER_LAYER);
    let failed = rec.scope("bench.run", |rec| -> Result<usize, String> {
        let w = rec.scope("bench.setup", |rec| setup(args.seed, rec));
        let expected = rec.scope("bench.expected", |_| w.expected());

        // Untraced and traced ops take turns, so drift hits both alike.
        let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
        let mut traced = Vec::new();
        let (mut failed, mut plain_cpu) = (0, 0.0);
        for k in 0..TRACE_OPS {
            let cpu = sys::cpu_seconds();
            let (wall, ok, _) =
                rec.scope("bench.op_untraced", |_| timed_op(&w, &expected, || w.op()));
            plain_cpu += sys::cpu_seconds().zip(cpu).map_or(0.0, |(a, b)| a - b);
            plain_walls.push(wall);
            failed += usize::from(!ok);
            let ((_, ok, out), wall) =
                rec.op(k, |rec| timed_op(&w, &expected, || w.traced_op(rec)));
            traced_walls.push(wall);
            failed += usize::from(!ok);
            traced.extend(out);
        }
        let op_wall_s = median(&plain_walls);
        check_op_time(op_wall_s)?;
        println!("untraced op walls {plain_walls:.4?} s; traced op walls {traced_walls:.4?} s");
        if traced.len() < TRACE_OPS {
            return Err("a traced op panicked".to_string());
        }
        rec.scope("bench.layers", |rec| {
            w.layers(&plain_walls, &traced, rec, &mut m)
        })?;
        drop(traced);

        // Op k traced over op k untraced, which ran just before it.
        let pairs: Vec<f64> = traced_walls
            .iter()
            .zip(&plain_walls)
            .map(|(t, p)| t / p)
            .collect();
        m.set("bench.trace_overhead_frac", median(&pairs) - 1.0);
        m.set(
            "bench.op_wall_min_s",
            plain_walls.iter().copied().fold(f64::INFINITY, f64::min),
        );
        m.set(
            "bench.op_wall_max_s",
            plain_walls.iter().copied().fold(0.0, f64::max),
        );
        m.set("bench.ops", TRACE_OPS as f64);
        m.set("bench.cpu_s_per_op", plain_cpu / TRACE_OPS as f64);
        m.set("bench.loadavg_1m", sys::loadavg_1m().unwrap_or(0.0));

        // The same ops on every CPU the host gives us, in a child that
        // does not pin itself.
        let unpinned = rec.scope("bench.unpinned", |_| unpinned_child(name, args.seed))?;
        m.set("bench.unpinned_op_wall_s", unpinned);
        m.set("bench.threads2_speedup", op_wall_s / unpinned);
        Ok(failed)
    })?;
    rec.scope("bench.machine_probes", |_| layers::machine_probes(&mut m));
    let total = |span: &str| -> f64 {
        let spans = rec.spans().iter().filter(|s| s.name == span);
        spans.fold(0.0, |sum, s| sum + s.duration())
    };
    m.set("chem.build_s", total("chem.build"));
    m.set("dbcsr.ortho_s", total("dbcsr.ortho"));

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let path = dir.join(format!("TRACE_{name}.json"));
    let doc = Json::obj([
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("spans", rec.to_json()),
    ]);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, doc.to_string()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{} spans written to {}", rec.spans().len(), path.display());
    for (name, unit, value) in m.rows() {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    println!("{}", result_line(2 * TRACE_OPS, failed, &m));
    Ok(())
}

/// Child side of the unpinned probe: one set-up, a few ops, the median op
/// wall as the only line of output.
fn unpinned_probe<W: Workload>(
    seed: u64,
    setup: impl Fn(u64, &mut Recorder) -> W,
) -> Result<(), String> {
    let w = setup(seed, &mut Recorder::off());
    println!("{}", stats::median_seconds(UNPINNED_OPS, || drop(w.op())));
    Ok(())
}

fn self_command() -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    Ok(Command::new(exe))
}

/// Parent side of the unpinned probe. `output` waits for the child to end.
fn unpinned_child(name: &str, seed: u64) -> Result<f64, String> {
    let out = self_command()?
        .args([
            "--unpinned-probe",
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start the unpinned probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim().parse().map_err(|_| {
        format!(
            "unpinned probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// Run one workload in a child process and return its result line,
/// echoing everything it printed before that. `output` waits for the
/// child to end.
pub fn run_child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let out = self_command()?
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (report, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    if !report.is_empty() {
        println!("{report}");
    }
    if !out.status.success() {
        return Err(format!("{name} exited with {}", out.status));
    }
    Json::parse(last).map_err(|e| format!("{name}: unreadable result line: {e}"))
}

/// All five workloads, one pinned child each; one result line per
/// workload, in `BENCHMARK.json` order.
fn all_workloads(args: &Args) -> Result<(), String> {
    let mut lines = Vec::new();
    for name in workloads::NAMES {
        let result = run_child(name, args.seed, args.seconds, args.trace)?;
        lines.push(format!("{{\"workload\":\"{name}\",\"result\":{result}}}"));
    }
    lines.iter().for_each(|l| println!("{l}"));
    Ok(())
}
