//! The per-job telemetry record: one field table that is the whole codec
//! between a group root's finished [`JobResult`] and world rank 0's.

use sm_core::engine::EngineReport;
use sm_core::solver::SolveBackend;
use sm_dbcsr::DbcsrMatrix;
use sm_linalg::Precision;

use super::plan::job_numeric;
use crate::jobs::{BatchJob, JobResult, ScfTelemetry};

/// The result of a job nothing has run yet: its name, an empty matrix of
/// its shape, and an all-zero report at its configured precision. Rank 0
/// decodes a gathered job's telemetry into it; a quarantined job keeps it.
pub(super) fn placeholder(job: &BatchJob) -> JobResult {
    JobResult {
        name: job.name().to_string(),
        result: DbcsrMatrix::new(job.input().dims().clone(), 0, 1),
        report: EngineReport {
            precision: job_numeric(job).precision,
            ..EngineReport::default()
        },
        seconds: 0.0,
        group_size: 0,
        comm_bytes: 0,
        comm_msgs: 0,
        epoch: 0,
        stolen_ranks: 0,
        attempts: 0,
        quarantined: false,
        scf: None,
    }
}

/// Stable wire codes of the enums a telemetry record carries: a value's
/// code is its index here.
const PRECISION_CODES: [Precision; 3] = [Precision::Fp64, Precision::Fp32, Precision::Fp32Refined];
const BACKEND_CODES: [SolveBackend; 2] = [SolveBackend::Dense, SolveBackend::SparseCsr];

fn code_of<T: PartialEq>(codes: &[T], value: &T) -> f64 {
    let code = codes.iter().position(|c| c == value);
    code.expect("every enum value has a wire code") as f64
}

fn from_code<T: Copy>(codes: &[T], x: f64, what: &str) -> T {
    *codes
        .get(x as usize)
        .unwrap_or_else(|| panic!("unknown {what} code {x}"))
}

/// The next word of a result-gather record. Both ends of the gather are
/// compiled together, so a record that ends early is a bug, not an input.
fn take(words: &mut &[f64]) -> f64 {
    let (&x, rest) = words.split_first().expect("result-gather record cut short");
    *words = rest;
    x
}

/// One field of a job's telemetry record: how the group root appends its
/// word(s) from the finished [`JobResult`], and how world rank 0 takes them
/// back off the front of the record.
struct TelemetryField {
    read: fn(&JobResult, &mut Vec<f64>),
    write: fn(&mut JobResult, &mut &[f64]),
}

/// A counter or measurement stored as `$ty` at `JobResult::$path`.
/// Counters ride as `f64` (exact up to 2⁵³, far beyond any simulated run).
macro_rules! number {
    ($ty:ty, $($path:ident).+) => {
        TelemetryField {
            read: |r, out| out.push(r.$($path).+ as f64),
            write: |r, words| r.$($path).+ = take(words) as $ty,
        }
    };
}

/// A boolean at `JobResult::$path`, on the wire as 0.0 / 1.0.
macro_rules! flag {
    ($($path:ident).+) => {
        TelemetryField {
            read: |r, out| out.push(r.$($path).+ as u64 as f64),
            write: |r, words| r.$($path).+ = take(words) != 0.0,
        }
    };
}

/// An enum at `JobResult::$path`, on the wire as its index in `$codes`.
macro_rules! code {
    ($codes:ident, $what:literal, $($path:ident).+) => {
        TelemetryField {
            read: |r, out| out.push(code_of(&$codes, &r.$($path).+)),
            write: |r, words| r.$($path).+ = from_code(&$codes, take(words), $what),
        }
    };
}

/// An SCF extension field: `$read` appends its word(s) from the job's
/// [`ScfTelemetry`] (nothing for a matrix job), `$write` takes them back
/// into it. A matrix job's record ends where the extension would begin,
/// which is how the decoder tells the two job kinds apart; once one SCF
/// field has been decoded every later one must be there.
macro_rules! scf {
    (|$s:ident, $out:ident| $read:expr, |$t:ident, $words:ident| $write:expr) => {
        TelemetryField {
            read: |r, $out| {
                if let Some($s) = &r.scf {
                    $read
                }
            },
            write: |r, $words| {
                if r.scf.is_some() || !$words.is_empty() {
                    let $t = r.scf.get_or_insert_with(ScfTelemetry::default);
                    $write
                }
            },
        }
    };
}

/// An SCF per-iteration byte vector: a length word, then one word per
/// iteration.
macro_rules! scf_vec {
    ($field:ident) => {
        scf!(
            |s, out| {
                out.push(s.$field.len() as f64);
                out.extend(s.$field.iter().map(|&b| b as f64))
            },
            |s, words| s.$field = (0..take(words) as usize)
                .map(|_| take(words) as u64)
                .collect()
        )
    };
}

/// The telemetry record's fields, **in wire order**: the base fields
/// every job ships, then the SCF extension. The record is positional — a
/// plain `Vec<f64>` with no header and no field ids — and this table is the
/// whole codec: [`encode_telemetry`] walks it reading, [`decode_telemetry`]
/// walks it writing. It is deliberately not versioned: it never leaves the
/// process that wrote it.
#[rustfmt::skip] // a table: one field per entry, not one token per line
static TELEMETRY_FIELDS: [TelemetryField; 35] = [
    number!(usize, report.n_submatrices),
    number!(usize, report.max_dim),
    number!(f64, report.avg_dim),
    number!(f64, report.total_cost),
    number!(u64, report.transfers.unique_bytes),
    number!(u64, report.transfers.naive_bytes),
    number!(u64, report.transfers.unique_blocks),
    number!(u64, report.transfers.total_references),
    number!(f64, report.mu),
    number!(usize, report.bisect_iterations),
    flag!(report.plan_cached),
    number!(f64, report.symbolic_seconds),
    number!(f64, report.gather_seconds),
    number!(f64, report.solve_seconds),
    number!(f64, report.scatter_seconds),
    number!(f64, seconds),
    number!(usize, group_size),
    number!(u64, comm_bytes),
    number!(u64, comm_msgs),
    code!(PRECISION_CODES, "precision", report.precision),
    number!(u64, report.gather_value_bytes),
    number!(u64, report.scatter_value_bytes),
    number!(usize, epoch),
    number!(usize, stolen_ranks),
    number!(usize, attempts),
    flag!(quarantined),
    code!(BACKEND_CODES, "solve-backend", report.backend),
    number!(u64, report.sparse_filtered_nnz),
    number!(u64, report.sparse_flops),
    scf!(|s, out| out.push(s.iterations as f64), |s, words| s.iterations = take(words) as usize),
    scf!(|s, out| out.push(s.converged as u64 as f64), |s, words| s.converged = take(words) != 0.0),
    scf!(|s, out| out.push(s.final_energy), |s, words| s.final_energy = take(words)),
    scf!(|s, out| out.push(s.final_electrons), |s, words| s.final_electrons = take(words)),
    scf_vec!(gather_value_bytes),
    scf_vec!(scatter_value_bytes),
];

/// Flatten a finished job's telemetry — the group root's [`EngineReport`]
/// plus wall-time, group size, subgroup traffic, steal and fault
/// attribution — into the positional record of the root gather.
pub(super) fn encode_telemetry(done: &JobResult) -> Vec<f64> {
    let mut out = Vec::with_capacity(TELEMETRY_FIELDS.len());
    for f in &TELEMETRY_FIELDS {
        (f.read)(done, &mut out);
    }
    out
}

/// Inverse of [`encode_telemetry`], writing into `into` (a job's
/// [`placeholder`]). Panics on a record that is too short or too long —
/// inside one process both ends are compiled together, so a mismatch here
/// is a bug, not an input error.
pub(super) fn decode_telemetry(x: &[f64], into: &mut JobResult) {
    let mut words = x;
    for f in &TELEMETRY_FIELDS {
        (f.write)(into, &mut words);
    }
    assert!(
        words.is_empty(),
        "result-gather record has {} words past its last field",
        words.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::MatrixJob;
    use sm_core::transfers::TransferStats;

    /// A one-block job (the shape every decode target below comes from)
    /// and a finished result for it with every base field set to a value
    /// its placeholder does not hold. Both struct literals are written out
    /// in full — no `..` — so a field added to [`JobResult`] or
    /// [`EngineReport`] does not compile until it is given a value here
    /// (off its default), and then [`roundtrip`] fails until
    /// [`TELEMETRY_FIELDS`] carries it: the kept and the shipped result
    /// path cannot come to differ by a field.
    fn finished() -> (BatchJob, JobResult) {
        let dims = sm_dbcsr::BlockedDims::uniform(1, 2);
        let eye = sm_linalg::Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let matrix = DbcsrMatrix::from_dense(&eye, dims, 0, 1, 0.0);
        let job = BatchJob::Matrix(MatrixJob::density("t", matrix, 0.0));
        let report = EngineReport {
            n_submatrices: 7,
            max_dim: 12,
            avg_dim: 9.5,
            total_cost: 1234.0,
            transfers: TransferStats {
                unique_bytes: 100,
                naive_bytes: 300,
                unique_blocks: 10,
                total_references: 30,
            },
            precision: Precision::Fp32Refined,
            gather_value_bytes: 2048,
            scatter_value_bytes: 512,
            mu: -0.25,
            bisect_iterations: 3,
            plan_cached: true,
            symbolic_seconds: 0.5,
            gather_seconds: 0.1,
            solve_seconds: 0.2,
            scatter_seconds: 0.3,
            backend: SolveBackend::SparseCsr,
            sparse_filtered_nnz: 42,
            sparse_flops: 9000,
        };
        // The name comes from the job and the blocks ride the gather's
        // other two messages: the record carries neither.
        let JobResult { name, result, .. } = placeholder(&job);
        let done = JobResult {
            name,
            result,
            report,
            seconds: 1.5,
            group_size: 4,
            comm_bytes: 4096,
            comm_msgs: 17,
            epoch: 2,
            stolen_ranks: 3,
            attempts: 2,
            quarantined: true,
            scf: None,
        };
        (job, done)
    }

    /// Ship `done` through the codec into a fresh placeholder and compare
    /// the whole result (`Debug` names every field, floats in their
    /// shortest round-tripping form); returns the record's length.
    fn roundtrip(job: &BatchJob, done: &JobResult) -> usize {
        let enc = encode_telemetry(done);
        let mut d = placeholder(job);
        decode_telemetry(&enc, &mut d);
        assert_eq!(format!("{d:#?}"), format!("{done:#?}"));
        enc.len()
    }

    fn scf_telemetry(iterations: usize) -> ScfTelemetry {
        ScfTelemetry {
            iterations,
            converged: true,
            final_energy: -4.25,
            final_electrons: 16.0,
            gather_value_bytes: (1..=iterations as u64).map(|i| 100 * i).collect(),
            scatter_value_bytes: (1..=iterations as u64).map(|i| 10 * i).collect(),
        }
    }

    #[test]
    fn telemetry_roundtrip() {
        // Positional layout: one word per base field, nothing else.
        let (job, mut done) = finished();
        // Off the default everywhere, or the round trip proves nothing.
        let blank = placeholder(&job);
        assert_ne!(done.report.precision, blank.report.precision);
        assert_ne!(done.report.backend, blank.report.backend);
        assert_ne!(done.report.plan_cached, blank.report.plan_cached);
        assert_ne!(done.quarantined, blank.quarantined);
        assert_eq!(roundtrip(&job, &done), 29, "base record is 29 words");
        // The SCF extension rides the same record, distinguished by
        // length: four scalars, then each per-iteration vector behind its
        // length word.
        for iterations in [1, 3] {
            done.scf = Some(scf_telemetry(iterations));
            assert_eq!(roundtrip(&job, &done), 29 + 4 + 2 * (1 + iterations));
        }
    }

    #[test]
    #[should_panic(expected = "result-gather record cut short")]
    fn telemetry_decode_panics_on_a_record_cut_short() {
        let (job, mut done) = finished();
        done.scf = Some(scf_telemetry(3));
        let enc = encode_telemetry(&done);
        decode_telemetry(&enc[..enc.len() - 1], &mut placeholder(&job));
    }

    #[test]
    #[should_panic(expected = "words past its last field")]
    fn telemetry_decode_panics_on_trailing_words() {
        let (job, mut done) = finished();
        done.scf = Some(scf_telemetry(1));
        let mut enc = encode_telemetry(&done);
        enc.push(0.0);
        decode_telemetry(&enc, &mut placeholder(&job));
    }

    #[test]
    fn precision_codes_roundtrip() {
        for p in Precision::all() {
            let code = code_of(&PRECISION_CODES, &p);
            assert_eq!(from_code(&PRECISION_CODES, code, "precision"), p);
        }
    }

    #[test]
    fn backend_codes_roundtrip() {
        for b in [SolveBackend::Dense, SolveBackend::SparseCsr] {
            let code = code_of(&BACKEND_CODES, &b);
            assert_eq!(from_code(&BACKEND_CODES, code, "solve-backend"), b);
        }
    }
}
