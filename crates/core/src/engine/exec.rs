//! The numeric phase: gather values along the cached transfer plan,
//! assemble through the cached copy programs, solve with any
//! [`SignMethod`], bisect µ on the stored decompositions for canonical
//! ensembles, scatter results. No pattern queries, no re-planning.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

use rayon::prelude::*;

use sm_comsim::Comm;
use sm_dbcsr::wire::ValueFormat;
use sm_dbcsr::{ops, wire, DbcsrMatrix};
use sm_linalg::eigh::{function_columns, Eigh};
use sm_linalg::{LinalgError, Matrix};

use super::{EngineReport, Ensemble, ExecutionPlan, NumericOptions, SubmatrixEngine};
use crate::mu::{adjust_mu, StoredDecomposition};
use crate::solver::{
    decompose, round_sign_output, sign_columns_from_decomposition, sign_value, solve_sign,
    SignMethod, SolveBackend, SparseSolveStats,
};

impl SubmatrixEngine {
    /// Map `f` over the indices of this rank's submatrices (its copy
    /// programs), in order — over the shared pool iff the engine was built
    /// with `parallel`. A failed submatrix solve fails the whole execute.
    fn map_specs<T: Send>(
        &self,
        plan: &ExecutionPlan,
        f: impl Fn(&usize) -> Result<T, LinalgError> + Sync + Send,
    ) -> Vec<T> {
        let indices: Vec<usize> = (0..plan.assembly.len()).collect();
        let f = |i: &usize| f(i).unwrap_or_else(|e| panic!("submatrix solve failed: {e}"));
        if self.opts.parallel {
            indices.par_iter().map(f).collect()
        } else {
            indices.iter().map(f).collect()
        }
    }

    /// Numeric phase: compute `sign(values − µI)` along a cached plan
    /// (collective). Performs zero symbolic work — no pattern queries, no
    /// re-planning, no transfer-plan rebuild.
    pub fn execute<C: Comm>(
        &self,
        plan: &ExecutionPlan,
        values: &DbcsrMatrix,
        mu0: f64,
        numeric: &NumericOptions,
        comm: &C,
    ) -> (DbcsrMatrix, EngineReport) {
        assert_eq!(plan.rank, comm.rank(), "plan built for a different rank");
        assert_eq!(
            plan.size,
            comm.size(),
            "plan built for a different communicator size"
        );
        assert_eq!(
            plan.dims,
            *values.dims(),
            "values partitioned differently from the plan"
        );
        self.counters.executions.fetch_add(1, Ordering::Relaxed);

        // Precision and backend are engine-authoritative: thread both into
        // the per-submatrix solve options so the solver, the wire, and the
        // scheduler's cost model agree. The backend resolves against the
        // plan's element fill — a deterministic plan property — so every
        // rank of the collective makes the same choice.
        let precision = numeric.precision;
        let backend = numeric.backend.resolve(plan.element_fill);
        let mut numeric = *numeric;
        numeric.solve.precision = precision;
        numeric.solve.backend = backend;
        let numeric = &numeric;
        let wire_format = |is_f32| match is_f32 {
            true => ValueFormat::F32,
            false => ValueFormat::F64,
        };
        let gather_format = wire_format(precision.gather_is_f32());
        let scatter_format = wire_format(precision.scatter_is_f32());

        // Gather: fetch every remote block once, along the cached transfer
        // plan. Under f32 precision the value payloads move half the
        // bytes; the rounding is idempotent with the solve's own f32
        // input rounding, so results are independent of the distribution.
        let t0 = Instant::now();
        let (fetched, gather_value_bytes) =
            ops::fetch_blocks_prec(values, &plan.remote_wanted, gather_format, comm);
        let block_of =
            |br: usize, bc: usize| values.block(br, bc).or_else(|| fetched.get(&(br, bc)));
        let gather_seconds = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let kt = numeric.solve.kt;
        let result = DbcsrMatrix::new(plan.dims.clone(), comm.rank(), comm.size());
        let destination = Mutex::new((result, vec![BTreeMap::new(); comm.size()]));
        // Extraction hands each result block straight to its destination,
        // this rank's result or the map the scatter ships to its owner.
        let put = |(br, bc): (usize, usize), blk: Matrix| {
            let mut guard = destination.lock().unwrap_or_else(|e| e.into_inner());
            let (result, outgoing) = &mut *guard;
            match result.owner(br, bc) {
                owner if owner == result.rank() => result.insert_block(br, bc, blk),
                owner => drop(outgoing[owner].insert((br, bc), blk)),
            }
        };
        // Diagonalization (Sec. IV-F) evaluates the sign only in the columns extraction
        // scatters (Sec. VII): the full back-transform's bits, `n²k` of its `n³`.
        let deliver = |i: usize, columns: &mut Matrix| {
            round_sign_output(columns, precision);
            plan.extraction[i].extract_each(columns, true, put)
        };
        let diagonalize = numeric.solve.method == SignMethod::Diagonalization;
        let (mu, bisect_iterations, (sparse_filtered_nnz, sparse_flops)) = match numeric.ensemble {
            Ensemble::Canonical {
                n_electrons,
                tol,
                max_iter,
            } if diagonalize => {
                // Canonical ensemble: decompose once, run Algorithm 1 on the
                // stored decompositions (one allgather), and evaluate the
                // sign once, at the adjusted µ.
                let decompositions: Vec<Eigh> = self.map_specs(plan, |&i| {
                    decompose(plan.assembly[i].assemble(block_of), precision)
                });
                let stored: Vec<StoredDecomposition> = decompositions
                    .iter()
                    .zip(&plan.extraction)
                    .map(|(dec, e)| StoredDecomposition::from_eigh(dec, &e.contributing))
                    .collect();
                let target = n_electrons / 2.0;
                let adj = adjust_mu(&stored, mu0, target, kt, tol / 2.0, max_iter, comm);
                self.map_specs(plan, |&i| {
                    let (dec, cols) = (&decompositions[i], &plan.extraction[i].contributing);
                    let mut columns = sign_columns_from_decomposition(dec, adj.mu, kt, cols);
                    deliver(i, &mut columns);
                    Ok(())
                });
                (adj.mu, adj.iterations, (0u64, 0u64))
            }
            _ if diagonalize => {
                // `decompose` + `sign_columns_from_decomposition` in scratch.
                self.map_specs(plan, |&i| {
                    let assembly = &plan.assembly[i];
                    let fill = |a: &mut Matrix| {
                        assembly.assemble_into(a, block_of);
                        if precision.storage_is_f32() {
                            a.round_f32_storage_in_place();
                        }
                    };
                    let (sign, take) = (|l| sign_value(l, mu0, kt), |c: &mut _| deliver(i, c));
                    let cols = &plan.extraction[i].contributing;
                    function_columns(assembly.dim, fill, sign, cols, take)
                });
                (mu0, 0, (0u64, 0u64))
            }
            Ensemble::Canonical { .. } => {
                panic!("canonical ensembles require the diagonalization solver (Sec. IV-G)")
            }
            Ensemble::GrandCanonical => {
                let sparse = self.map_specs(plan, |&i| {
                    let r = solve_sign(plan.assembly[i].assemble(block_of), mu0, &numeric.solve)?;
                    plan.extraction[i].extract_each(&r.sign, false, put);
                    Ok(r.sparse)
                });
                let tally = |f: fn(&SparseSolveStats) -> u64| sparse.iter().flatten().map(f).sum();
                (mu0, 0, (tally(|s| s.filtered_nnz), tally(|s| s.flops)))
            }
        };
        let (mut result, outgoing) = destination.into_inner().unwrap_or_else(|e| e.into_inner());
        let solve_seconds = t1.elapsed().as_secs_f64();

        // Scatter result blocks to their owning ranks. Plain-Fp32 results
        // are f32-representable, so the f32 result wire is lossless;
        // refined results ship in f64 to keep the recovered accuracy.
        let t2 = Instant::now();
        let (received, scatter_value_bytes) =
            wire::exchange_blocks_prec(outgoing, &plan.dims, scatter_format, comm);
        for ((br, bc), blk) in received {
            result.insert_block(br, bc, blk);
        }
        let scatter_seconds = t2.elapsed().as_secs_f64();

        if sm_trace::enabled() {
            // One `engine.phase` event per phase per rank per execution —
            // deterministic counts with deterministic costs (planned cost,
            // planned value bytes); wall seconds ride as annotations. The
            // value bytes name the precision they travelled in by its
            // position in `Precision::all()` (0 = fp64, 1 = fp32,
            // 2 = fp32_refined).
            let n_sub = [("n_submatrices", plan.n_submatrices as f64)];
            let prec = [("precision", precision as u8 as f64)];
            for (name, cost, seconds, fields) in [
                ("gather", gather_value_bytes as f64, gather_seconds, &prec),
                ("solve", plan.total_cost, solve_seconds, &n_sub),
                (
                    "scatter",
                    scatter_value_bytes as f64,
                    scatter_seconds,
                    &prec,
                ),
            ] {
                let _p = sm_trace::span(sm_trace::SpanKind::Phase, name);
                sm_trace::emit("engine.phase", cost, seconds, fields);
            }
            // Backend decision: one deterministic event per execution
            // recording which representation the iterative solves resolved
            // to and what the filtering saved (cost = backend code so
            // deterministic replay distinguishes the paths).
            let _p = sm_trace::span(sm_trace::SpanKind::Phase, "solve");
            sm_trace::emit(
                "engine.solve.backend",
                match backend {
                    SolveBackend::Dense => 0.0,
                    SolveBackend::SparseCsr => 1.0,
                },
                0.0,
                &[
                    ("element_fill", plan.element_fill),
                    ("filtered_nnz", sparse_filtered_nnz as f64),
                    ("sparse_flops", sparse_flops as f64),
                ],
            );
        }

        let report = EngineReport {
            n_submatrices: plan.n_submatrices,
            max_dim: plan.max_dim,
            avg_dim: plan.avg_dim,
            total_cost: plan.total_cost,
            transfers: plan.transfers,
            precision,
            gather_value_bytes,
            scatter_value_bytes,
            backend,
            sparse_filtered_nnz,
            sparse_flops,
            mu,
            bisect_iterations,
            // A direct execute performs no symbolic work by contract;
            // callers that plan-then-execute (sign(), JobQueue) overwrite
            // these two fields with the planning outcome they observed.
            plan_cached: true,
            symbolic_seconds: 0.0,
            gather_seconds,
            solve_seconds,
            scatter_seconds,
        };
        (result, report)
    }

    /// Plan (cached) + execute: `sign(values − µI)` (collective).
    pub fn sign<C: Comm>(
        &self,
        values: &DbcsrMatrix,
        mu0: f64,
        numeric: &NumericOptions,
        comm: &C,
    ) -> (DbcsrMatrix, EngineReport) {
        let (plan, planning) = self.plan_for_matrix_traced(values, comm);
        let (result, mut report) = self.execute(&plan, values, mu0, numeric, comm);
        report.record_planning(planning);
        (result, report)
    }

    /// Plan (cached) + execute: density matrix `D̃ = (I − sign)/2`
    /// (collective).
    pub fn density<C: Comm>(
        &self,
        values: &DbcsrMatrix,
        mu0: f64,
        numeric: &NumericOptions,
        comm: &C,
    ) -> (DbcsrMatrix, EngineReport) {
        let (mut sign, report) = self.sign(values, mu0, numeric, comm);
        ops::scale(&mut sign, -0.5);
        ops::shift_diag(&mut sign, 0.5);
        (sign, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::banded_gapped;
    use crate::engine::{BackendPolicy, Grouping, SPARSE_FILL_THRESHOLD};
    use crate::plan::PatternPlan;
    use crate::solver::SolveOptions;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_dbcsr::BlockedDims;
    use sm_linalg::sign::sign_eig;
    use sm_linalg::Precision;

    #[test]
    fn engine_sign_matches_dense_reference() {
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let (sign, report) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sign_eig(&dense).unwrap();
        assert!(sign.to_dense(&comm).max_abs_diff(&expect) < 0.05);
        assert!(!report.plan_cached);
        assert_eq!(report.n_submatrices, 8);
    }

    #[test]
    fn report_aggregation_sums_counters_and_keeps_plan_shape() {
        let (dense, dims) = banded_gapped(6, 2);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let (_, first) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let (_, second) = engine.sign(&m, 0.0, &NumericOptions::default(), &comm);
        let mut agg = first.clone();
        agg.absorb_iteration(&second);
        // Additive counters sum; plan-shape figures stay those of the
        // (identical) cached plan.
        assert_eq!(
            agg.transfers.unique_bytes,
            first.transfers.unique_bytes + second.transfers.unique_bytes
        );
        assert_eq!(
            agg.gather_value_bytes,
            first.gather_value_bytes + second.gather_value_bytes
        );
        assert_eq!(
            agg.scatter_value_bytes,
            first.scatter_value_bytes + second.scatter_value_bytes
        );
        assert_eq!(agg.n_submatrices, first.n_submatrices);
        assert_eq!(agg.total_cost, first.total_cost);
        // The first execution built the plan, the second hit: the
        // aggregate must NOT claim a fully-amortized run.
        assert!(!first.plan_cached && second.plan_cached);
        assert!(!agg.plan_cached);
        // Folding two hits keeps plan_cached true.
        let mut hits = second.clone();
        hits.absorb_iteration(&second);
        assert!(hits.plan_cached);
    }

    #[test]
    fn reused_engine_matches_throwaway_engine_bitwise() {
        let (dense, dims) = banded_gapped(9, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let _ = engine.sign(&m, 0.1, &NumericOptions::default(), &comm);
        let (a, hit) = engine.sign(&m, 0.1, &NumericOptions::default(), &comm);
        assert!(hit.plan_cached);
        let (b, _) = SubmatrixEngine::default().sign(&m, 0.1, &NumericOptions::default(), &comm);
        assert!(a.to_dense(&comm).allclose(&b.to_dense(&comm), 0.0));
    }

    #[test]
    fn one_plan_serves_multiple_numeric_options() {
        let (dense, dims) = banded_gapped(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let plan = engine.plan_for_matrix(&m, &comm);
        for method in [SignMethod::Diagonalization, SignMethod::Pade(2)] {
            let numeric = NumericOptions {
                solve: SolveOptions {
                    method,
                    ..SolveOptions::default()
                },
                ..NumericOptions::default()
            };
            let (sign, _) = engine.execute(&plan, &m, 0.0, &numeric, &comm);
            let expect = sign_eig(&dense).unwrap();
            assert!(sign.to_dense(&comm).max_abs_diff(&expect) < 0.05);
        }
        assert_eq!(engine.stats().symbolic_builds, 1);
    }

    #[test]
    fn distributed_engine_matches_serial() {
        let (dense, dims) = banded_gapped(9, 2);
        let comm = SerialComm::new();
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            let engine = SubmatrixEngine::default();
            engine
                .sign(&m, 0.0, &NumericOptions::default(), &comm)
                .0
                .to_dense(&comm)
        };
        // One engine shared by all rank threads: plans are per-rank.
        let engine = SubmatrixEngine::default();
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            let (sign, _) = engine.sign(&m, 0.0, &NumericOptions::default(), c);
            let (sign2, r2) = engine.sign(&m, 0.0, &NumericOptions::default(), c);
            assert!(r2.plan_cached);
            assert!(sign.to_dense(c).allclose(&sign2.to_dense(c), 0.0));
            sign.to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&serial, 1e-13));
        }
        assert_eq!(engine.stats().symbolic_builds, 4); // one per rank
        assert_eq!(engine.stats().cache_hits, 4);
    }

    #[test]
    fn auto_policy_resolves_backend_from_plan_fill() {
        // `BackendPolicy::Auto` keys off the plan's element fill — a
        // deterministic symbolic property, identical on every rank — so
        // the selected backend is itself deterministic. A banded-gapped
        // pattern is sparse enough for CSR; a full matrix is not.
        let (dense, dims) = banded_gapped(10, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            solve: SolveOptions {
                method: SignMethod::Pade(2),
                ..SolveOptions::default()
            },
            ..NumericOptions::default()
        };
        assert_eq!(numeric.backend, BackendPolicy::Auto);

        let engine = SubmatrixEngine::default();
        let plan = engine.plan_for_matrix(&m, &comm);
        assert!(plan.element_fill > 0.0 && plan.element_fill <= 1.0);
        let expected = if plan.element_fill < SPARSE_FILL_THRESHOLD {
            SolveBackend::SparseCsr
        } else {
            SolveBackend::Dense
        };
        let (_, report) = engine.sign(&m, 0.0, &numeric, &comm);
        assert_eq!(report.backend, expected);

        let full = Matrix::from_fn(8, 8, |i, j| if i == j { 1.0 } else { 0.1 });
        let mfull = DbcsrMatrix::from_dense(&full, BlockedDims::uniform(4, 2), 0, 1, 0.0);
        let plan_full = engine.plan_for_matrix(&mfull, &comm);
        assert_eq!(plan_full.element_fill, 1.0);
        let (_, report) = engine.sign(&mfull, 0.0, &numeric, &comm);
        assert_eq!(report.backend, SolveBackend::Dense);
    }

    #[test]
    fn fp32_serial_execution_has_zero_wire_value_bytes() {
        let (dense, dims) = banded_gapped(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let numeric = NumericOptions {
            precision: Precision::Fp32,
            ..NumericOptions::default()
        };
        let (_, report) = engine.sign(&m, 0.0, &numeric, &comm);
        // Single rank: everything is local, nothing crosses a wire.
        assert_eq!(report.gather_value_bytes, 0);
        assert_eq!(report.scatter_value_bytes, 0);
    }

    #[test]
    fn distributed_fp32_gather_moves_half_the_value_bytes_of_fp64() {
        let (dense, dims) = banded_gapped(9, 2);
        let engine = SubmatrixEngine::default();
        let bytes_for = |precision: Precision| {
            let numeric = NumericOptions {
                precision,
                ..NumericOptions::default()
            };
            let (results, _) = run_ranks(4, |c| {
                let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
                let (_, report) = engine.sign(&m, 0.0, &numeric, c);
                (report.gather_value_bytes, report.scatter_value_bytes)
            });
            let gather: u64 = results.iter().map(|r| r.0).sum();
            let scatter: u64 = results.iter().map(|r| r.1).sum();
            (gather, scatter)
        };
        let (g64, s64) = bytes_for(Precision::Fp64);
        let (g32, s32) = bytes_for(Precision::Fp32);
        let (gref, sref) = bytes_for(Precision::Fp32Refined);
        assert!(g64 > 0 && s64 > 0, "4-rank run must move value bytes");
        assert_eq!(g32 * 2, g64, "f32 gather must move exactly half");
        assert_eq!(s32 * 2, s64, "f32 scatter must move exactly half");
        // Refined gathers in f32 but scatters the f64 refinement.
        assert_eq!(gref, g32);
        assert_eq!(sref, s64);
    }

    #[test]
    fn distributed_fp32_matches_serial_bitwise() {
        // The keystone determinism property: f32 wire rounding is
        // idempotent with the solve's input rounding, and plain-Fp32
        // results are f32-representable, so any distribution produces the
        // identical matrix.
        let (dense, dims) = banded_gapped(8, 2);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            precision: Precision::Fp32,
            ..NumericOptions::default()
        };
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.1, &numeric, &comm)
                .0
                .to_dense(&comm)
        };
        let engine = SubmatrixEngine::default();
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            engine.sign(&m, 0.1, &numeric, c).0.to_dense(c)
        });
        for r in results {
            assert!(r.allclose(&serial, 0.0), "fp32 distribution changed bits");
        }
    }

    #[test]
    #[should_panic(expected = "different communicator size")]
    fn plan_for_wrong_comm_rejected() {
        let (dense, dims) = banded_gapped(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let comm = SerialComm::new();
        let engine = SubmatrixEngine::default();
        let plan = PatternPlan::new(m.global_pattern(&comm), dims, &Grouping::OnePerColumn)
            .rank_view(0, 4);
        let _ = engine.execute(&plan, &m, 0.0, &NumericOptions::default(), &comm);
    }
}

#[cfg(test)]
mod sign_density_tests {
    use super::*;
    use crate::engine::{BackendPolicy, EngineOptions, Grouping};
    use crate::solver::SolveOptions;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_dbcsr::BlockedDims;
    use sm_linalg::sign::sign_eig;
    use sm_linalg::Matrix;

    /// Block-diagonal symmetric matrix: the submatrix method is exact.
    fn block_diagonal(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::zeros(n, n);
        for b in 0..nb {
            for i in 0..bs {
                for j in 0..bs {
                    let (gi, gj) = (b * bs + i, b * bs + j);
                    dense[(gi, gj)] = if i == j {
                        if (b + i) % 2 == 0 {
                            1.0 + b as f64 * 0.1
                        } else {
                            -1.0 - i as f64 * 0.1
                        }
                    } else {
                        0.1
                    };
                }
            }
        }
        dense.symmetrize();
        (dense, dims)
    }

    /// Banded symmetric matrix with decaying off-diagonals and a gap at 0.
    fn banded_gapped(nb: usize, bs: usize) -> (Matrix, BlockedDims) {
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            let bi = (i / bs) as isize;
            let bj = (j / bs) as isize;
            if (bi - bj).abs() > 1 {
                0.0
            } else if i == j {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.05 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        (dense, dims)
    }

    #[test]
    fn exact_on_block_diagonal() {
        let (dense, dims) = block_diagonal(5, 3);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (sign, report) =
            SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sign_eig(&dense).unwrap();
        let got = sign.to_dense(&comm);
        assert!(
            got.allclose(&expect, 1e-10),
            "block-diagonal case must be exact, max diff {}",
            got.max_abs_diff(&expect)
        );
        assert_eq!(report.n_submatrices, 5);
        assert_eq!(report.max_dim, 3);
    }

    #[test]
    fn approximate_on_banded_matrix() {
        let (dense, dims) = banded_gapped(10, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (sign, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let expect = sign_eig(&dense).unwrap();
        let got = sign.to_dense(&comm);
        // Weak coupling: the approximation must be decent but needn't be
        // exact.
        assert!(
            got.max_abs_diff(&expect) < 0.05,
            "max diff {}",
            got.max_abs_diff(&expect)
        );
        // The result keeps the input's block pattern.
        assert_eq!(
            sign.global_pattern(&comm).entries(),
            m.global_pattern(&comm).entries()
        );
    }

    #[test]
    fn combining_columns_does_not_hurt() {
        let (dense, dims) = banded_gapped(12, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let expect = sign_eig(&dense).unwrap();
        let single = SubmatrixEngine::default()
            .sign(&m, 0.0, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        let combined = SubmatrixEngine::new(EngineOptions {
            grouping: Grouping::Consecutive(3),
            ..Default::default()
        })
        .sign(&m, 0.0, &NumericOptions::default(), &comm)
        .0
        .to_dense(&comm);
        let err_single = single.max_abs_diff(&expect);
        let err_combined = combined.max_abs_diff(&expect);
        assert!(
            err_combined <= err_single * 1.5 + 1e-12,
            "combined {err_combined} much worse than single {err_single}"
        );
    }

    #[test]
    fn iterative_solvers_match_diagonalization_driver() {
        let (dense, dims) = banded_gapped(8, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let diag = SubmatrixEngine::default()
            .sign(&m, 0.0, &NumericOptions::default(), &comm)
            .0
            .to_dense(&comm);
        for method in [SignMethod::Pade(2), SignMethod::Pade(3)] {
            let numeric = NumericOptions {
                solve: SolveOptions {
                    method,
                    ..SolveOptions::default()
                },
                backend: BackendPolicy::Dense,
                ..Default::default()
            };
            let it = SubmatrixEngine::default()
                .sign(&m, 0.0, &numeric, &comm)
                .0
                .to_dense(&comm);
            assert!(it.allclose(&diag, 1e-6), "{method:?} deviates");
        }
    }

    #[test]
    fn distributed_matches_serial_exactly() {
        let (dense, dims) = banded_gapped(9, 2);
        let comm = SerialComm::new();
        let serial = {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
            SubmatrixEngine::default()
                .sign(&m, 0.0, &NumericOptions::default(), &comm)
                .0
                .to_dense(&comm)
        };
        let (results, _) = run_ranks(4, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            let (sign, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), c);
            sign.to_dense(c)
        });
        for r in results {
            assert!(
                r.allclose(&serial, 1e-13),
                "distributed result differs from serial"
            );
        }
    }

    #[test]
    fn density_is_half_one_minus_sign() {
        let (dense, dims) = block_diagonal(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (d, _) = SubmatrixEngine::default().density(&m, 0.0, &NumericOptions::default(), &comm);
        let (s, _) = SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        let dd = d.to_dense(&comm);
        let mut expect = s.to_dense(&comm);
        expect.scale(-0.5);
        expect.shift_diag(0.5);
        assert!(dd.allclose(&expect, 1e-14));
        // Projector-ish: eigenvalues of D in [0,1].
        let eigs = sm_linalg::eigh::eigvalsh(&dd).unwrap();
        for e in eigs {
            assert!((-1e-9..=1.0 + 1e-9).contains(&e));
        }
    }

    #[test]
    fn canonical_ensemble_hits_target_electron_count() {
        let (dense, dims) = block_diagonal(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        // The spectrum has 6 negative eigenvalues (half of 12); ask for a
        // different occupation: 4 orbitals = 8 electrons.
        let numeric = NumericOptions {
            ensemble: Ensemble::Canonical {
                n_electrons: 8.0,
                tol: 1e-8,
                max_iter: 200,
            },
            ..Default::default()
        };
        let (d, report) = SubmatrixEngine::default().density(&m, 0.0, &numeric, &comm);
        let n = sm_chem_free_electron_count(&d, &comm);
        assert!(
            (n - 8.0).abs() < 1e-5,
            "canonical electron count {n} != 8 (µ = {})",
            report.mu
        );
        assert!(report.bisect_iterations > 0);
    }

    /// 2·Tr(D) without depending on sm-chem.
    fn sm_chem_free_electron_count<C: Comm>(d: &DbcsrMatrix, comm: &C) -> f64 {
        2.0 * ops::trace(d, comm)
    }

    #[test]
    fn finite_temperature_driver() {
        let (dense, dims) = block_diagonal(4, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let numeric = NumericOptions {
            solve: SolveOptions {
                kt: 0.05,
                ..SolveOptions::default()
            },
            ..Default::default()
        };
        let (d, _) = SubmatrixEngine::default().density(&m, 0.0, &numeric, &comm);
        let dd = d.to_dense(&comm);
        // Fermi-smeared density of the exact (block-diagonal) problem.
        let dec = sm_linalg::eigh::eigh(&dense).unwrap();
        let expect = dec.apply(|l| sm_linalg::fermi::fermi_occupation(l, 0.0, 0.05));
        assert!(dd.allclose(&expect, 1e-9));
    }

    #[test]
    fn report_timings_are_populated() {
        let (dense, dims) = banded_gapped(6, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        let (_, report) =
            SubmatrixEngine::default().sign(&m, 0.0, &NumericOptions::default(), &comm);
        assert!(report.symbolic_seconds + report.gather_seconds >= 0.0);
        assert!(report.solve_seconds > 0.0);
        assert!(report.scatter_seconds >= 0.0);
        assert!(report.total_cost > 0.0);
        assert!(report.transfers.unique_bytes > 0);
        assert!(report.avg_dim > 0.0);
    }

    /// Canonical options for `banded_gapped`: two orbitals short of half
    /// filling.
    fn canonical(nb: usize, bs: usize) -> NumericOptions {
        NumericOptions {
            ensemble: Ensemble::Canonical {
                n_electrons: (nb * bs - 4) as f64,
                tol: 1e-8,
                max_iter: 200,
            },
            ..Default::default()
        }
    }

    #[test]
    fn sequential_flag_gives_same_result() {
        let (dense, dims) = banded_gapped(7, 2);
        let m = DbcsrMatrix::from_dense(&dense, dims, 0, 1, 0.0);
        let comm = SerialComm::new();
        for numeric in [NumericOptions::default(), canonical(7, 2)] {
            let (par, par_report) = SubmatrixEngine::default().sign(&m, 0.0, &numeric, &comm);
            let (seq, seq_report) = SubmatrixEngine::new(EngineOptions {
                parallel: false,
                ..Default::default()
            })
            .sign(&m, 0.0, &numeric, &comm);
            assert!(
                par.to_dense(&comm).allclose(&seq.to_dense(&comm), 0.0),
                "parallelism must not change results ({:?})",
                numeric.ensemble
            );
            assert_eq!(par_report.mu.to_bits(), seq_report.mu.to_bits());
        }
    }

    /// Algorithm 1 costs one allgather per canonical execution: on a cached
    /// plan, a canonical `execute` sends exactly the `size·(size−1)`
    /// messages of one allgather more than a grand-canonical one of the
    /// same values — however many bisection steps it takes. Each rank
    /// counts its own sends around its own `execute` (program order, no
    /// fence needed) and the ranks sum the differences.
    #[test]
    fn canonical_execute_is_one_collective() {
        let (dense, dims) = banded_gapped(8, 2);
        let engine = SubmatrixEngine::default();
        for world in [2usize, 3, 4] {
            let (extra, _) = run_ranks(world, |c| {
                let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
                let plan = engine.plan_for_matrix(&m, c);
                let mut msgs = Vec::new();
                for numeric in [NumericOptions::default(), canonical(8, 2)] {
                    let before = c.stats().msgs_sent_by(c.rank());
                    let (_, report) = engine.execute(&plan, &m, 0.0, &numeric, c);
                    let sent = c.stats().msgs_sent_by(c.rank()) - before;
                    msgs.push((sent, report.bisect_iterations));
                }
                let ((gc_msgs, _), (canonical_msgs, steps)) = (msgs[0], msgs[1]);
                assert!(steps > 1, "world {world}: µ bisection took {steps} steps");
                let extra = c.allgather_u64(&[canonical_msgs - gc_msgs]);
                extra.iter().map(|e| e[0]).sum::<u64>()
            });
            for e in extra {
                assert_eq!(e, (world * (world - 1)) as u64, "world {world}");
            }
        }
    }
}

#[cfg(test)]
mod selected_columns_tests {
    //! Diagonalization evaluates only the contributing columns of each
    //! submatrix's sign (Sec. VII). These tests hold it to the layer walk
    //! smbench checks `execute` against — per submatrix `solve_sign` with
    //! the full back-transform, then `ExtractionMap::extract` — bit for bit.
    use super::*;
    use crate::engine::{EngineOptions, Grouping};
    use crate::solver::SolveOptions;
    use sm_comsim::{run_ranks, SerialComm};
    use sm_dbcsr::BlockedDims;
    use sm_linalg::{Matrix, Precision};

    /// Blocks of 6 under a block bandwidth of 1: submatrices of dimension
    /// 12 to 18 one per column and 24 to 30 in threes, on both sides of the
    /// eigensolver's rotation-kernel threshold and the GEMM's small loop.
    fn banded_gapped() -> (Matrix, BlockedDims) {
        let (nb, bs) = (8, 6);
        let dims = BlockedDims::uniform(nb, bs);
        let n = dims.n();
        let mut dense = Matrix::from_fn(n, n, |i, j| {
            if (i / bs).abs_diff(j / bs) > 1 {
                0.0
            } else if i == j {
                if i % 2 == 0 {
                    1.0
                } else {
                    -1.0
                }
            } else {
                0.06 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        dense.symmetrize();
        (dense, dims)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The layer walk on a one-rank plan, at a given µ, grand canonical.
    fn walk(grouping: &Grouping, mu: f64, numeric: &NumericOptions) -> Matrix {
        let (dense, dims) = banded_gapped();
        let comm = SerialComm::new();
        let m = DbcsrMatrix::from_dense(&dense, dims.clone(), 0, 1, 0.0);
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping: grouping.clone(),
            ..Default::default()
        });
        let plan = engine.plan_for_matrix(&m, &comm);
        let solve = SolveOptions {
            precision: numeric.precision,
            ..numeric.solve
        };
        let mut result = DbcsrMatrix::new(dims, 0, 1);
        for (assembly, extraction) in plan.assembly.iter().zip(&plan.extraction) {
            let a = assembly.assemble(|br, bc| m.block(br, bc));
            let sign = solve_sign(&a, mu, &solve).unwrap().sign;
            for ((br, bc), blk) in extraction.extract(&sign) {
                result.insert_block(br, bc, blk);
            }
        }
        result.to_dense(&comm)
    }

    /// The engine's sign on `world` ranks, each rank's dense copy of it,
    /// and the µ it used.
    fn engine_sign(
        grouping: &Grouping,
        world: usize,
        numeric: &NumericOptions,
    ) -> Vec<(Matrix, f64)> {
        let (dense, dims) = banded_gapped();
        let engine = SubmatrixEngine::new(EngineOptions {
            grouping: grouping.clone(),
            ..Default::default()
        });
        run_ranks(world, |c| {
            let m = DbcsrMatrix::from_dense(&dense, dims.clone(), c.rank(), c.size(), 0.0);
            let (sign, report) = engine.sign(&m, 0.1, numeric, c);
            (sign.to_dense(c), report.mu)
        })
        .0
    }

    /// Every grand-canonical cell and its canonical twin in the given
    /// precisions, temperatures, groupings and worlds, against the walk
    /// at the µ the engine reports — which must be world 1's µ, bit for
    /// bit.
    fn check_cells(
        precisions: &[Precision],
        kts: &[f64],
        groupings: &[Grouping],
        worlds: &[usize],
    ) {
        let canonical = Ensemble::Canonical {
            n_electrons: 46.0,
            tol: 1e-8,
            max_iter: 200,
        };
        for (&precision, &kt) in precisions
            .iter()
            .flat_map(|p| kts.iter().map(move |k| (p, k)))
        {
            for grouping in groupings {
                for ensemble in [Ensemble::GrandCanonical, canonical] {
                    let numeric = NumericOptions {
                        solve: SolveOptions {
                            kt,
                            ..SolveOptions::default()
                        },
                        ensemble,
                        precision,
                        ..Default::default()
                    };
                    let serial_mu = engine_sign(grouping, 1, &numeric)[0].1;
                    for &world in worlds {
                        for (got, mu) in engine_sign(grouping, world, &numeric) {
                            let cell = format!(
                                "{precision:?} kT {kt} {grouping:?} world {world} {ensemble:?}"
                            );
                            assert_eq!(mu.to_bits(), serial_mu.to_bits(), "{cell}: µ");
                            let expect = walk(grouping, mu, &numeric);
                            assert_eq!(bits(&got), bits(&expect), "{cell}");
                        }
                    }
                }
            }
        }
    }

    const PRECISIONS: [Precision; 3] = [Precision::Fp64, Precision::Fp32, Precision::Fp32Refined];

    #[test]
    fn selected_columns_driver_matches_full_driver() {
        check_cells(&PRECISIONS, &[0.0], &[Grouping::OnePerColumn], &[1]);
    }

    #[test]
    fn selected_columns_with_combined_groups() {
        check_cells(&PRECISIONS, &[0.0, 0.05], &[Grouping::Consecutive(3)], &[1]);
    }

    #[test]
    fn selected_columns_finite_temperature() {
        check_cells(&PRECISIONS, &[0.05], &[Grouping::OnePerColumn], &[1]);
    }

    #[test]
    fn selected_columns_distributed_matches_serial() {
        let groupings = [Grouping::OnePerColumn, Grouping::Consecutive(3)];
        check_cells(&PRECISIONS, &[0.0, 0.05], &groupings, &[3]);
    }
}
