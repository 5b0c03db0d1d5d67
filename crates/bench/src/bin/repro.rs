//! `repro` — run experiments of the table in `sm_bench::experiments`.
//!
//! ```text
//! repro <name>… [--paper]   run the named experiments, in the order given
//! repro --list              print every experiment with its one-line summary
//! ```
//!
//! Each experiment prints its table and writes `results/BENCH_<name>.json`.
//! Exit codes: `0` all ran, `2` usage (no name, unknown name); a broken
//! contract `assert!` panics (exit 101).

use std::process::ExitCode;

use sm_bench::experiments::{find, listing, Ctx};

fn main() -> ExitCode {
    let (flags, names): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    if flags.iter().any(|f| f == "--list") {
        print!("{}", listing());
        return ExitCode::SUCCESS;
    }
    let unknown = flags
        .iter()
        .find(|f| *f != "--paper")
        .or_else(|| names.iter().find(|n| find(n).is_none()));
    if unknown.is_some() || names.is_empty() {
        if let Some(bad) = unknown {
            eprintln!("repro: unknown experiment or flag '{bad}'");
        }
        eprint!(
            "usage: repro <name>… [--paper] | repro --list\n{}",
            listing()
        );
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        paper: flags.iter().any(|f| f == "--paper"),
    };
    for name in &names {
        let entry = find(name).expect("checked above");
        println!("== {} — {} ==", entry.name, entry.about);
        let report = (entry.run)(&ctx);
        report.print();
        report.write(entry.name);
    }
    ExitCode::SUCCESS
}
