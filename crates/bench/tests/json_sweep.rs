//! A deterministic sweep of the JSON reader, the last decoder of the
//! workspace without one: every generated document ends as `Ok` or `Err`,
//! none panics and none hangs, and every document it accepts passes
//! through the views `smdoctor` reads (`compare`, `--check`, `faults`)
//! without a panic either.
//!
//! The inputs are truncations and byte flips of a committed bench
//! document, nesting at and one past `MAX_DEPTH`, huge and malformed
//! numbers, bad escapes, NUL and non-ASCII bytes, and token sequences
//! drawn with `mix64`. One worker thread parses them in order and reports
//! after each; the test fails if any input takes longer than the watchdog
//! allows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use sm_bench::compare::compare_docs;
use sm_bench::doctor::{audit_bench, fault_report};
use sm_bench::output::Json;
use sm_dbcsr::wire::mix64;
use sm_trace::json::MAX_DEPTH;

/// The real document the truncations and flips start from.
const BENCH_FAULTS: &str = include_str!("../../../results/baseline/BENCH_faults.json");

/// How long one input may take before the sweep counts it as a hang.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Every input of the sweep, as bytes (a flip may leave invalid UTF-8;
/// the reader gets its lossy decoding, as `smdoctor` reads a file).
fn inputs() -> Vec<Vec<u8>> {
    let real = BENCH_FAULTS.as_bytes();
    let mut out: Vec<Vec<u8>> = vec![real.to_vec()];
    // Every truncation.
    out.extend((0..real.len()).map(|n| real[..n].to_vec()));
    // Byte flips: one, two or three positions set to a drawn byte, NUL and
    // bytes past ASCII among them.
    let mut h = 0x5eed_u64;
    let mut draw = || {
        h = mix64(h.wrapping_add(0x9e37_79b9_7f4a_7c15));
        h as usize
    };
    for _ in 0..3000 {
        let mut doc = real.to_vec();
        for _ in 0..1 + draw() % 3 {
            let at = draw() % doc.len();
            doc[at] = match draw() % 4 {
                0 => 0,
                1 => 0x80 | (draw() % 0x80) as u8,
                _ => (draw() % 0x80) as u8,
            };
        }
        out.push(doc);
    }
    // Nesting at the limit and one past it, bare and inside a document.
    for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        let objects = "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        let wrapped = format!("{{\"bench\":\"x\",\"data\":{}}}", "[".repeat(depth - 1))
            + &"]".repeat(depth - 1)
            + "}";
        out.extend([arrays, objects, wrapped].map(String::into_bytes));
    }
    // Numbers, escapes and bytes the writer never produces.
    let odd = [
        "1e999999",
        "-1e999999",
        "1e-999999",
        "123456789012345678901234567890123456789",
        "0.000000000000000000000000000000000000000001",
        "1.2.3",
        "--1",
        "1e",
        "1e+",
        ".5",
        "+5",
        "0x10",
        "NaN",
        "Infinity",
        "1_000",
        "-",
        "{\"rows\":[[1e999,-1e999,1e-999]],\"columns\":[\"a_s\",\"b\",\"c_err\"]}",
        "\"\\x\"",
        "\"\\u12\"",
        "\"\\uZZZZ\"",
        "\"\\ud800\"",
        "\"\\u0000\"",
        "\"\\",
        "\"unterminated",
        "\u{0}",
        "\"\u{0}\"",
        "{\"\u{0}\":\u{0}}",
        "\"ü\"",
        "ü",
        "{\"ü\":\"日本語\"}",
        "\u{feff}{}",
        "",
        " ",
        "nul",
        "tru",
        "[1,]",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "[1 2]",
    ];
    out.extend(odd.map(|s| s.as_bytes().to_vec()));
    out.push(vec![0xff, 0xfe, b'{', b'}']);
    out.push(vec![b'"', 0xc3, b'"']);
    // Token sequences drawn from the grammar's pieces.
    let pool: Vec<&str> =
        r#"{|}|[|]|:|,|"a"|"rows"|"columns"|"data"|1|-0.5e3|1e400|true|false|null|"\u00e9"| |"x_s""#
            .split('|')
            .collect();
    for _ in 0..3000 {
        let doc: String = (0..draw() % 24)
            .map(|_| pool[draw() % pool.len()])
            .collect();
        out.push(doc.into_bytes());
    }
    out
}

/// Parse one input and, if it parses, read it through every view
/// `smdoctor` has for a bench document, against itself and against the
/// real document on either side. Whether it parsed.
fn read(bytes: &[u8], real: &Json) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let Ok(doc) = Json::parse(&text) else {
        return false;
    };
    compare_docs(&doc, &doc);
    compare_docs(&doc, real);
    compare_docs(real, &doc);
    audit_bench(&doc);
    let _ = fault_report(&doc);
    true
}

#[test]
fn json_reader_ends_every_generated_document_in_ok_or_err() {
    let inputs = inputs();
    let count = inputs.len();
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let real = Json::parse(BENCH_FAULTS).expect("the committed document parses");
        for (i, bytes) in inputs.iter().enumerate() {
            let outcome = catch_unwind(AssertUnwindSafe(|| read(bytes, &real)));
            let shown = String::from_utf8_lossy(&bytes[..bytes.len().min(80)]).into_owned();
            if tx.send((i, outcome, shown)).is_err() {
                return;
            }
        }
    });
    let (mut panicked, mut parsed) = (Vec::new(), 0);
    for expected in 0..count {
        match rx.recv_timeout(WATCHDOG) {
            Ok((i, outcome, shown)) => {
                assert_eq!(i, expected);
                match outcome {
                    Ok(ok) => parsed += usize::from(ok),
                    Err(_) => panicked.push(format!("input {i}: {shown:?}")),
                }
            }
            Err(_) => panic!("input {expected} of {count} did not finish within {WATCHDOG:?}"),
        }
    }
    worker.join().expect("the worker catches every panic");
    assert!(panicked.is_empty(), "panicked on:\n{}", panicked.join("\n"));
    // Both outcomes occur: the sweep reaches the views and the refusals.
    assert!(0 < parsed && parsed < count, "{parsed} of {count} parsed");
    println!(
        "{count} documents: {parsed} Ok, {} Err, none panicked",
        count - parsed
    );
}
