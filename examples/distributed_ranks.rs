//! Distributed execution on the simulated MPI communicator.
//!
//! Runs the full pipeline — distributed matrix build, sparse Löwdin
//! orthogonalization via Cannon-multiplied Newton–Schulz, submatrix-method
//! purification with deduplicated block transfers — on a 2×2 rank grid of
//! OS threads, and verifies every rank agrees with the serial result.
//! Transfer statistics demonstrate the deduplication of paper Sec. IV-B.
//!
//! Run with: `cargo run --release --example distributed_ranks`

use cp2k_submatrix::prelude::*;

fn main() {
    let water = WaterBox::cubic(1, 42);
    let basis = BasisSet::szv();
    let ns = NewtonSchulzOptions {
        eps_filter: 1e-12,
        max_iter: 100,
    };

    // Serial reference.
    let comm = SerialComm::new();
    let sys = build_system(&water, &basis, 0, 1, 1e-10);
    let (kt, _, _) = orthogonalize_sparse(&sys.s, &sys.k, &ns, &comm);
    let (d_ref, _) =
        SubmatrixEngine::default().density(&kt, sys.mu, &NumericOptions::default(), &comm);
    let dense_ref = d_ref.to_dense(&comm);
    println!(
        "serial reference computed ({} blocks)",
        d_ref.local_nnz_blocks()
    );

    // The same computation on 4 ranks (2×2 process grid).
    let (results, stats) = run_ranks(4, |c| {
        let sys = build_system(&water, &basis, c.rank(), c.size(), 1e-10);
        let (kt, _, ortho) = orthogonalize_sparse(&sys.s, &sys.k, &ns, c);
        let (d, report) =
            SubmatrixEngine::default().density(&kt, sys.mu, &NumericOptions::default(), c);
        let dense = d.to_dense(c);
        (dense, report, ortho.iterations, c.rank())
    });

    for (dense, report, ortho_iters, rank) in &results {
        let diff = dense.max_abs_diff(&dense_ref);
        println!(
            "rank {rank}: ortho {ortho_iters} iters, {} submatrices planned, \
             dedup factor {:.2}, max diff to serial {diff:.2e}",
            report.n_submatrices,
            report.transfers.total_references as f64 / report.transfers.unique_blocks as f64
        );
        assert!(diff < 1e-10, "distributed result must match serial");
    }

    println!(
        "\ncommunicator traffic: {} messages, {:.2} MiB total",
        stats.total_msgs(),
        stats.total_bytes() as f64 / (1024.0 * 1024.0)
    );
    for r in 0..stats.size() {
        println!(
            "  rank {r}: {:>8} msgs, {:>10} bytes sent",
            stats.msgs_sent_by(r),
            stats.bytes_sent_by(r)
        );
    }
    println!("ok");
}
