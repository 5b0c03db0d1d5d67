//! The per-job telemetry record: one field table that is the whole codec
//! between a group root's finished [`JobResult`] and world rank 0's.

use sm_core::engine::EngineReport;
use sm_core::solver::SolveBackend;
use sm_dbcsr::wire::{tele, TelemetryRecord};
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

/// One field of a job's telemetry record: its [`tele`] wire id, how the
/// group root reads its value(s) off the finished [`JobResult`] (none for
/// an SCF field of a matrix job, one per iteration for the repeatable
/// `SCF_ITER_*` ids), and how world rank 0 writes one decoded value back.
struct TelemetryField {
    id: u32,
    read: fn(&JobResult, &mut dyn FnMut(f64)),
    write: fn(&mut JobResult, f64),
}

/// A counter or measurement stored as `$ty` at `JobResult::$path`.
/// Counters ride as `f64` (exact up to 2⁵³, far beyond any simulated run).
macro_rules! number {
    ($id:ident, $ty:ty, $($path:ident).+) => {
        TelemetryField {
            id: tele::$id,
            read: |r, put| put(r.$($path).+ as f64),
            write: |r, x| r.$($path).+ = x as $ty,
        }
    };
}

/// A boolean at `JobResult::$path`, on the wire as 0.0 / 1.0.
macro_rules! flag {
    ($id:ident, $($path:ident).+) => {
        TelemetryField {
            id: tele::$id,
            read: |r, put| put(r.$($path).+ as u64 as f64),
            write: |r, x| r.$($path).+ = x != 0.0,
        }
    };
}

/// An SCF extension field: `$read` yields its values from the job's
/// [`ScfTelemetry`] (nothing is read for a matrix job), `$write` stores
/// one decoded value into it (created on the first SCF field decoded).
macro_rules! scf {
    ($id:ident, |$s:ident| $read:expr, |$t:ident, $x:ident| $write:expr) => {
        TelemetryField {
            id: tele::$id,
            read: |r, put| {
                if let Some($s) = &r.scf {
                    $read.into_iter().for_each(put)
                }
            },
            write: |r, $x| {
                let $t = r.scf.get_or_insert_with(ScfTelemetry::default);
                $write
            },
        }
    };
}

/// The telemetry record's fields, **in wire order**: the base fields
/// every job ships, then the SCF extension — one wire format carries both
/// job kinds, distinguished by the presence of [`tele::SCF_ITERATIONS`].
/// This table is the whole codec: [`encode_telemetry`] walks it reading,
/// [`decode_telemetry`] dispatches each wire entry to its writer.
#[rustfmt::skip] // a table: one field per entry, not one token per line
static TELEMETRY_FIELDS: [TelemetryField; 35] = [
    number!(N_SUBMATRICES, usize, report.n_submatrices),
    number!(MAX_DIM, usize, report.max_dim),
    number!(AVG_DIM, f64, report.avg_dim),
    number!(TOTAL_COST, f64, report.total_cost),
    number!(UNIQUE_BYTES, u64, report.transfers.unique_bytes),
    number!(NAIVE_BYTES, u64, report.transfers.naive_bytes),
    number!(UNIQUE_BLOCKS, u64, report.transfers.unique_blocks),
    number!(TOTAL_REFERENCES, u64, report.transfers.total_references),
    number!(MU, f64, report.mu),
    number!(BISECT_ITERATIONS, usize, report.bisect_iterations),
    flag!(PLAN_CACHED, report.plan_cached),
    number!(SYMBOLIC_SECONDS, f64, report.symbolic_seconds),
    number!(GATHER_SECONDS, f64, report.gather_seconds),
    number!(SOLVE_SECONDS, f64, report.solve_seconds),
    number!(SCATTER_SECONDS, f64, report.scatter_seconds),
    number!(SECONDS, f64, seconds),
    number!(GROUP_SIZE, usize, group_size),
    number!(COMM_BYTES, u64, comm_bytes),
    number!(COMM_MSGS, u64, comm_msgs),
    TelemetryField {
        id: tele::PRECISION_CODE,
        read: |r, put| put(code_of(&PRECISION_CODES, &r.report.precision)),
        write: |r, x| r.report.precision = from_code(&PRECISION_CODES, x, "precision"),
    },
    number!(GATHER_VALUE_BYTES, u64, report.gather_value_bytes),
    number!(SCATTER_VALUE_BYTES, u64, report.scatter_value_bytes),
    number!(EPOCH, usize, epoch),
    number!(STOLEN_RANKS, usize, stolen_ranks),
    number!(ATTEMPTS, usize, attempts),
    flag!(QUARANTINED, quarantined),
    TelemetryField {
        id: tele::SOLVE_BACKEND_CODE,
        read: |r, put| put(code_of(&BACKEND_CODES, &r.report.backend)),
        write: |r, x| r.report.backend = from_code(&BACKEND_CODES, x, "solve-backend"),
    },
    number!(SPARSE_FILTERED_NNZ, u64, report.sparse_filtered_nnz),
    number!(SPARSE_FLOPS, u64, report.sparse_flops),
    scf!(SCF_ITERATIONS, |s| [s.iterations as f64], |s, x| s.iterations = x as usize),
    scf!(SCF_CONVERGED, |s| [s.converged as u64 as f64], |s, x| s.converged = x != 0.0),
    scf!(SCF_FINAL_ENERGY, |s| [s.final_energy], |s, x| s.final_energy = x),
    scf!(SCF_FINAL_ELECTRONS, |s| [s.final_electrons], |s, x| s.final_electrons = x),
    scf!(SCF_ITER_GATHER_BYTES,
        |s| s.gather_value_bytes.iter().map(|&b| b as f64),
        |s, x| s.gather_value_bytes.push(x as u64)),
    scf!(SCF_ITER_SCATTER_BYTES,
        |s| s.scatter_value_bytes.iter().map(|&b| b as f64),
        |s, x| s.scatter_value_bytes.push(x as u64)),
];

/// The leading [`TELEMETRY_FIELDS`] every record must carry.
const N_BASE_FIELDS: usize = 29;

/// Flatten a finished job's telemetry — the group root's [`EngineReport`]
/// plus wall-time, group size, subgroup traffic, steal and fault
/// attribution — into a versioned self-describing [`TelemetryRecord`]
/// (`sm_dbcsr::wire::TELEMETRY_SCHEMA_VERSION`) for the root gather.
pub(super) fn encode_telemetry(done: &JobResult) -> Vec<f64> {
    let mut rec = TelemetryRecord::new();
    for f in &TELEMETRY_FIELDS {
        (f.read)(done, &mut |x| rec.push(f.id, x));
    }
    rec.encode()
}

/// Inverse of [`encode_telemetry`], writing into `into` (a job's
/// [`placeholder`]). Field ids this build does not know are skipped.
/// Panics (with the decoder's own clear message) on schema-version
/// mismatch, truncation or a missing base field — inside one process both
/// ends are compiled together, so a mismatch here is a bug, not an input
/// error.
pub(super) fn decode_telemetry(x: &[f64], into: &mut JobResult) {
    let rec = TelemetryRecord::decode(x).unwrap_or_else(|e| panic!("result-gather {e}"));
    let mut seen = 0u64;
    for &(id, value) in rec.entries() {
        if let Some(f) = TELEMETRY_FIELDS.iter().find(|f| f.id == id) {
            (f.write)(into, value);
            seen |= 1 << id;
        }
    }
    for f in &TELEMETRY_FIELDS[..N_BASE_FIELDS] {
        assert!(
            seen & (1 << f.id) != 0,
            "telemetry record missing field id {}",
            f.id
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::MatrixJob;
    use sm_core::transfers::TransferStats;
    use sm_dbcsr::wire;

    /// A one-block job (the shape every decode target below comes from)
    /// and a finished result for it carrying `report`.
    fn finished(report: EngineReport) -> (BatchJob, JobResult) {
        let dims = sm_dbcsr::BlockedDims::uniform(1, 2);
        let eye = sm_linalg::Matrix::from_fn(2, 2, |i, j| if i == j { 1.0 } else { 0.0 });
        let matrix = DbcsrMatrix::from_dense(&eye, dims, 0, 1, 0.0);
        let job = BatchJob::Matrix(MatrixJob::density("t", matrix, 0.0));
        let done = JobResult {
            report,
            ..placeholder(&job)
        };
        (job, done)
    }

    #[test]
    fn telemetry_roundtrip() {
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
        let (job, done) = finished(report.clone());
        let mut done = JobResult {
            seconds: 1.5,
            group_size: 4,
            comm_bytes: 4096,
            comm_msgs: 17,
            epoch: 2,
            stolen_ranks: 3,
            attempts: 1,
            ..done
        };
        let enc = encode_telemetry(&done);
        // Self-describing layout: version + entry-count header, then
        // (field_id, value) pairs — 29 base fields.
        assert_eq!(enc[0], wire::TELEMETRY_SCHEMA_VERSION as f64);
        assert_eq!(enc.len(), 2 + 2 * 29, "base record is 29 entries");
        let mut d = placeholder(&job);
        decode_telemetry(&enc, &mut d);
        assert_eq!(d.report.n_submatrices, 7);
        assert_eq!(d.report.transfers, report.transfers);
        assert_eq!(d.report.mu, report.mu);
        assert!(d.report.plan_cached);
        assert_eq!(d.report.precision, Precision::Fp32Refined);
        assert_eq!(d.report.gather_value_bytes, 2048);
        assert_eq!(d.report.scatter_value_bytes, 512);
        assert_eq!(d.report.backend, SolveBackend::SparseCsr);
        assert_eq!(d.report.sparse_filtered_nnz, 42);
        assert_eq!(d.report.sparse_flops, 9000);
        assert_eq!(
            (d.seconds, d.group_size, d.comm_bytes, d.comm_msgs),
            (1.5, 4, 4096, 17)
        );
        assert_eq!((d.epoch, d.stolen_ranks), (2, 3));
        assert_eq!((d.attempts, d.quarantined), (1, false));
        assert!(d.scf.is_none());

        // The SCF extension rides the same record, distinguished by
        // length, and roundtrips exactly.
        let scf_in = ScfTelemetry {
            iterations: 3,
            converged: true,
            final_energy: -4.25,
            final_electrons: 16.0,
            gather_value_bytes: vec![100, 200, 300],
            scatter_value_bytes: vec![10, 20, 30],
        };
        done.attempts = 2;
        done.scf = Some(scf_in.clone());
        let enc = encode_telemetry(&done);
        assert_eq!(enc.len(), 2 + 2 * (33 + 2 * 3));
        let mut d = placeholder(&job);
        decode_telemetry(&enc, &mut d);
        assert_eq!(d.attempts, 2);
        assert_eq!(d.scf, Some(scf_in));
    }

    #[test]
    #[should_panic(expected = "schema version mismatch")]
    fn telemetry_decode_rejects_foreign_schema_version() {
        let (job, done) = finished(EngineReport::default());
        let mut enc = encode_telemetry(&done);
        enc[0] += 1.0; // a future schema version
        decode_telemetry(&enc, &mut placeholder(&job));
    }

    #[test]
    fn telemetry_table_lists_every_field_id_once() {
        // `tele`'s ids are contiguous from 0 to its last one; the table
        // (which is the whole codec) must name each exactly once, base
        // fields first.
        let mut ids: Vec<u32> = TELEMETRY_FIELDS.iter().map(|f| f.id).collect();
        assert!(ids[..N_BASE_FIELDS]
            .iter()
            .all(|id| !(tele::SCF_ITERATIONS..=tele::SCF_ITER_SCATTER_BYTES).contains(id)));
        ids.sort_unstable();
        assert_eq!(ids, (0..=tele::SPARSE_FLOPS).collect::<Vec<_>>());
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
