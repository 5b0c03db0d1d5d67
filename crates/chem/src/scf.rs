//! A damped self-consistent-field driver on the persistent submatrix
//! engine.
//!
//! In CP2K the density matrix is recomputed every SCF step (and every MD
//! step) while the sparsity pattern of the orthogonalized Kohn–Sham matrix
//! stays fixed — exactly the workload the symbolic/numeric phase split of
//! [`SubmatrixEngine`] targets. This driver closes the fixed-point loop
//! with the same model feedback the `scf_loop` example uses (onsite
//! potential shifted by the local-charge deviation, linear mixing) and
//! reuses **one cached plan across all iterations**: after the first
//! iteration every density build is a numeric-phase replay.
//!
//! ## Service re-entrancy
//!
//! A driver normally owns a private engine ([`ScfDriver::new`]), but a
//! batched multi-system service wants many concurrent SCF loops to share
//! *one* engine — one plan cache amortized across every system —
//! so [`ScfDriver::with_engine`] accepts a shared [`Arc`]`<`[`SubmatrixEngine`]`>`.
//! To stay correct under that sharing, all per-run accounting
//! ([`ScfResult::symbolic_builds`], [`ScfResult::cache_hits`], the
//! aggregated [`ScfResult::report`]) is derived from this run's own
//! per-iteration reports, never from deltas of the engine's global
//! counters (which other jobs bump concurrently).
//!
//! ## Ensembles
//!
//! The driver-level [`ScfOptions::ensemble`] selector (payload-free, so
//! there is nothing a caller could set and have silently ignored) picks
//! between:
//!
//! * [`ScfEnsemble::Canonical`] (the default, and the historical
//!   behavior) — the engine target is built from the run's electron
//!   count and the `mu_tol`/`mu_max_iter` knobs, with the solver forced
//!   to diagonalization (the µ bisection needs stored decompositions).
//! * [`ScfEnsemble::GrandCanonical`] — fixed µ (`mu0`), no
//!   electron-count adjustment, any solver method.
//!
//! The engine's numeric phase is **bitwise-identical** across
//! communicator sizes in both ensembles, so an SCF run produces
//! bit-identical densities on any subgroup — the property the
//! `scf_service_equivalence` suite pins. (One caveat rides the
//! *convergence decision*: `|ΔE|` is computed from a group-summed energy
//! whose rounding depends on the group size, so iteration counts — and
//! with them final densities — agree across group sizes provided no
//! iteration's `|ΔE|` lands within an ulp of `tol`; the per-iteration
//! densities themselves are unconditionally bitwise.)

use std::sync::Arc;

use sm_comsim::Comm;
use sm_core::engine::{EngineOptions, EngineReport, Ensemble, NumericOptions, SubmatrixEngine};
use sm_core::solver::SolveOptions;
use sm_dbcsr::{ops, DbcsrMatrix};

use crate::energy::{band_energy, electron_count};

/// Which statistical ensemble the SCF loop's density builds use — a
/// **payload-free, driver-level** selector. Deliberately not the engine's
/// [`Ensemble`]: the canonical target is always rebuilt from
/// [`ScfDriver::run`]'s `n_electrons` argument and the
/// `mu_tol`/`mu_max_iter` knobs of [`ScfOptions`], so there is no payload
/// a caller could set and have silently ignored — and splicing
/// `..NumericOptions::default()` into `ScfOptions::numeric` cannot
/// accidentally change the ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScfEnsemble {
    /// Fixed electron count (the default, and the historical behavior):
    /// µ is bisected every iteration to hold `n_electrons`; the solver is
    /// forced to diagonalization (the bisection needs stored
    /// decompositions).
    #[default]
    Canonical,
    /// Fixed chemical potential `mu0`, no electron-count adjustment, any
    /// solver method.
    GrandCanonical,
}

/// SCF-loop configuration.
#[derive(Debug, Clone)]
pub struct ScfOptions {
    /// Strength of the model Hartree-like feedback: the diagonal of `K̃`
    /// shifts by `coupling · (occupation − average)`.
    pub coupling: f64,
    /// Linear-mixing factor `α` (`K̃ ← (1−α)·K̃ + α·K̃_new`); damping for
    /// stability.
    pub mixing: f64,
    /// Iteration budget.
    pub max_iter: usize,
    /// Convergence threshold on `|ΔE|`.
    pub tol: f64,
    /// Electron-count tolerance of the canonical µ bisection.
    pub mu_tol: f64,
    /// Bisection budget of the canonical µ adjustment.
    pub mu_max_iter: usize,
    /// The ensemble of the density builds (see [`ScfEnsemble`]).
    pub ensemble: ScfEnsemble,
    /// Numeric-phase options of the inner density build. The `ensemble`
    /// field of this struct is **ignored** — the driver-level
    /// [`ScfOptions::ensemble`] selector governs (so a spliced
    /// `..NumericOptions::default()` cannot change the ensemble), and
    /// under [`ScfEnsemble::Canonical`] the solver method is forced to
    /// diagonalization. The remaining solver knobs (`kt`, `tol`,
    /// `max_iter`) and `precision` are honored.
    pub numeric: NumericOptions,
}

impl Default for ScfOptions {
    fn default() -> Self {
        ScfOptions {
            coupling: 0.10,
            mixing: 0.5,
            max_iter: 30,
            tol: 1e-8,
            mu_tol: 1e-9,
            mu_max_iter: 200,
            ensemble: ScfEnsemble::Canonical,
            numeric: NumericOptions::default(),
        }
    }
}

/// One SCF iteration's observables.
#[derive(Debug, Clone, Copy)]
pub struct ScfIteration {
    /// Band-structure energy `2·Tr(D̃ K̃₀)`.
    pub energy: f64,
    /// Energy change versus the previous iteration.
    pub de: f64,
    /// Electron count `2·Tr(D̃)`.
    pub electrons: f64,
    /// Chemical potential used (after canonical adjustment).
    pub mu: f64,
    /// True if this iteration's plan came from the engine cache.
    pub plan_cached: bool,
    /// Value-payload bytes this rank received in the iteration's gather
    /// (deterministic; halves under the `f32` wire of `Fp32*` precision).
    pub gather_value_bytes: u64,
    /// Value-payload bytes this rank sent in the iteration's result
    /// scatter (deterministic).
    pub scatter_value_bytes: u64,
}

/// Result of an SCF run.
#[derive(Debug, Clone)]
pub struct ScfResult {
    /// True if `|ΔE|` dropped below the threshold within the budget.
    pub converged: bool,
    /// Per-iteration observables, in order.
    pub iterations: Vec<ScfIteration>,
    /// The final density matrix.
    pub density: DbcsrMatrix,
    /// Symbolic plans built *on this run's behalf* (1 per rank when the
    /// pattern is fixed and nothing else warmed the cache, as in this
    /// model feedback). Counted from this run's own iteration reports, so
    /// the figure stays exact when the engine is shared with concurrent
    /// jobs.
    pub symbolic_builds: usize,
    /// Plan-cache hits over the whole run (same job-local accounting).
    pub cache_hits: usize,
    /// Whole-run engine instrumentation: every iteration's
    /// [`EngineReport`] folded into one record via
    /// [`EngineReport::absorb_iteration`] — additive counters (transfer
    /// and value bytes, phase seconds, bisection steps) summed across
    /// iterations, plan-shape figures from the (shared) cached plan, `mu`
    /// from the final iteration.
    pub report: EngineReport,
}

/// Damped SCF loop reusing one cached submatrix plan across iterations.
pub struct ScfDriver {
    opts: ScfOptions,
    engine: Arc<SubmatrixEngine>,
}

impl ScfDriver {
    /// Build a driver (and its private engine, with default
    /// [`EngineOptions`]) from options.
    pub fn new(opts: ScfOptions) -> Self {
        let engine = Arc::new(SubmatrixEngine::new(EngineOptions::default()));
        ScfDriver { opts, engine }
    }

    /// Build a driver over an existing **shared** engine — the re-entrancy
    /// hook a batched multi-system service uses so every concurrent SCF
    /// loop plans through one cache, and the way to
    /// run a loop under non-default [`EngineOptions`].
    pub fn with_engine(opts: ScfOptions, engine: Arc<SubmatrixEngine>) -> Self {
        ScfDriver { opts, engine }
    }

    /// The underlying engine (e.g. for
    /// [`stats`](SubmatrixEngine::stats)).
    pub fn engine(&self) -> &SubmatrixEngine {
        &self.engine
    }

    /// Run the loop from the orthogonalized Kohn–Sham matrix `kt0`
    /// (collective). `n_electrons` fixes the canonical target; `mu0` seeds
    /// the chemical potential.
    ///
    /// `comm` may be any communicator — including a scheduler subgroup
    /// ([`sm_comsim::SubComm`]), so several SCF systems can iterate
    /// concurrently on disjoint rank groups of one world (see the
    /// `scf_subgroup` test).
    pub fn run<C: Comm>(
        &self,
        kt0: &DbcsrMatrix,
        mu0: f64,
        n_electrons: f64,
        comm: &C,
    ) -> ScfResult {
        let numeric = match self.opts.ensemble {
            // Grand canonical: fixed µ = `mu0`, no electron-count
            // adjustment, any solver method.
            ScfEnsemble::GrandCanonical => NumericOptions {
                ensemble: Ensemble::GrandCanonical,
                solve: self.opts.numeric.solve,
                precision: self.opts.numeric.precision,
                backend: self.opts.numeric.backend,
                ..NumericOptions::default()
            },
            // Canonical (the default): the target is built from this
            // run's electron count and the driver's µ-bisection knobs.
            ScfEnsemble::Canonical => NumericOptions {
                ensemble: Ensemble::Canonical {
                    n_electrons,
                    tol: self.opts.mu_tol,
                    max_iter: self.opts.mu_max_iter,
                },
                solve: SolveOptions {
                    // Canonical µ adjustment needs stored decompositions.
                    method: sm_core::solver::SignMethod::Diagonalization,
                    ..self.opts.numeric.solve
                },
                // The caller's precision knob is honored: Fp32* runs the
                // gathers over the f32 wire and diagonalizes the
                // f32-rounded operator (see sm_core::solver); the SCF
                // feedback loop damps the remaining rounding noise like
                // any other perturbation.
                precision: self.opts.numeric.precision,
                // Backend is irrelevant under diagonalization but carried
                // for report faithfulness.
                backend: self.opts.numeric.backend,
                ..NumericOptions::default()
            },
        };
        let avg_occ = n_electrons / (2.0 * kt0.n() as f64);

        let mut kt = kt0.clone();
        let mut iterations: Vec<ScfIteration> = Vec::new();
        let mut aggregate: Option<EngineReport> = None;
        let mut density = None;
        let mut previous_energy = f64::INFINITY;
        let mut converged = false;

        for it in 0..self.opts.max_iter {
            // Span over the whole iteration, so the engine's plan/phase
            // events nest under `iter:<n>`. The iteration count is
            // group-collective (the convergence decision compares a
            // reduced energy every rank holds), so traced span trees stay
            // deterministic at fixed world size.
            let _iter_span = sm_trace::span(sm_trace::SpanKind::Iteration, it);
            let (d, report) = self.engine.density(&kt, mu0, &numeric, comm);
            let plan_cached = report.plan_cached;

            let energy = band_energy(&d, kt0, comm);
            let electrons = electron_count(&d, comm);
            let de = energy - previous_energy;
            sm_trace::emit(
                "scf.iteration",
                report.total_cost,
                0.0,
                &[
                    ("energy", energy),
                    ("electrons", electrons),
                    ("plan_cached", if plan_cached { 1.0 } else { 0.0 }),
                ],
            );
            iterations.push(ScfIteration {
                energy,
                de,
                electrons,
                mu: report.mu,
                plan_cached,
                gather_value_bytes: report.gather_value_bytes,
                scatter_value_bytes: report.scatter_value_bytes,
            });
            match &mut aggregate {
                Some(agg) => agg.absorb_iteration(&report),
                None => aggregate = Some(report),
            }

            if de.abs() < self.opts.tol {
                sm_trace::emit("scf.converged", (it + 1) as f64, 0.0, &[("energy", energy)]);
                density = Some(d);
                converged = true;
                break;
            }
            previous_energy = energy;

            // Model feedback: K̃_new = K̃₀ + coupling·diag(occupation − avg)
            // on every owned diagonal block, then linear mixing. The
            // update touches only existing diagonal blocks, so the
            // sparsity pattern — and with it the cached plan — is stable.
            let mut kt_new = kt0.clone();
            for b in 0..kt0.nb() {
                if !kt_new.is_mine(b, b) {
                    continue;
                }
                let occ = d
                    .block(b, b)
                    .expect("density diagonal block exists (pattern has diagonals)");
                let mut kb = kt_new
                    .block(b, b)
                    .expect("Kohn-Sham diagonal block exists")
                    .clone();
                for i in 0..kb.nrows() {
                    kb[(i, i)] += self.opts.coupling * (occ[(i, i)] - avg_occ);
                }
                kt_new.store_mut().insert((b, b), kb);
            }
            ops::scale(&mut kt, 1.0 - self.opts.mixing);
            ops::axpy(&mut kt, self.opts.mixing, &kt_new);
            density = Some(d);
        }

        // Job-local accounting from this run's own iteration reports —
        // never deltas of the engine's lifetime counters, which other
        // jobs sharing the engine bump concurrently.
        let symbolic_builds = iterations.iter().filter(|i| !i.plan_cached).count();
        let cache_hits = iterations.len() - symbolic_builds;
        ScfResult {
            converged,
            iterations,
            density: density.expect("max_iter >= 1 produces a density"),
            symbolic_builds,
            cache_hits,
            report: aggregate.expect("max_iter >= 1 produces a report"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::BasisSet;
    use crate::builder::build_system;
    use crate::water::WaterBox;
    use sm_comsim::SerialComm;
    use sm_core::baseline::{orthogonalize_sparse, NewtonSchulzOptions};

    fn small_system() -> (DbcsrMatrix, f64, f64) {
        let water = WaterBox::cubic(1, 42);
        let basis = BasisSet::szv();
        let comm = SerialComm::new();
        let sys = build_system(&water, &basis, 0, 1, 1e-10);
        let (kt, _, report) = orthogonalize_sparse(
            &sys.s,
            &sys.k,
            &NewtonSchulzOptions {
                eps_filter: 1e-12,
                max_iter: 200,
            },
            &comm,
        );
        assert!(report.converged);
        let n_elec = 8.0 * water.n_molecules() as f64;
        (kt, sys.mu, n_elec)
    }

    #[test]
    fn scf_converges_and_reuses_one_plan() {
        let (kt, mu, n_elec) = small_system();
        let comm = SerialComm::new();
        let driver = ScfDriver::new(ScfOptions::default());
        let result = driver.run(&kt, mu, n_elec, &comm);
        assert!(result.converged, "SCF did not converge");
        assert!(result.iterations.len() >= 2);
        // The tentpole claim: the pattern is fixed, so exactly one
        // symbolic build serves every iteration.
        assert_eq!(result.symbolic_builds, 1);
        assert_eq!(result.cache_hits, result.iterations.len() - 1);
        // Electrons conserved throughout.
        for it in &result.iterations {
            assert!(
                (it.electrons - n_elec).abs() < 1e-5,
                "electron count drifted: {}",
                it.electrons
            );
        }
        // Energy settles: the final change is below tolerance.
        let last = result.iterations.last().unwrap();
        assert!(last.de.abs() < 1e-8);
    }

    #[test]
    fn scf_runs_in_reduced_precision_and_stays_close_to_fp64() {
        use sm_linalg::Precision;
        let (kt, mu, n_elec) = small_system();
        let comm = SerialComm::new();
        let reference = ScfDriver::new(ScfOptions::default()).run(&kt, mu, n_elec, &comm);
        assert!(reference.converged);
        let driver = ScfDriver::new(ScfOptions {
            numeric: NumericOptions {
                precision: Precision::Fp32Refined,
                ..NumericOptions::default()
            },
            ..ScfOptions::default()
        });
        let result = driver.run(&kt, mu, n_elec, &comm);
        assert!(result.converged, "fp32-refined SCF did not converge");
        // One cached plan still serves every iteration — precision never
        // touches the symbolic phase.
        assert_eq!(result.symbolic_builds, 1);
        let e64 = reference.iterations.last().unwrap().energy;
        let e32 = result.iterations.last().unwrap().energy;
        assert!(
            (e64 - e32).abs() < 1e-5,
            "refined-precision SCF energy drifted: {e64} vs {e32}"
        );
        for it in &result.iterations {
            assert!((it.electrons - n_elec).abs() < 1e-4);
        }
    }

    #[test]
    fn grand_canonical_scf_runs_at_fixed_mu() {
        let (kt, mu, n_elec) = small_system();
        let comm = SerialComm::new();
        let driver = ScfDriver::new(ScfOptions {
            ensemble: ScfEnsemble::GrandCanonical,
            ..ScfOptions::default()
        });
        let result = driver.run(&kt, mu, n_elec, &comm);
        assert!(result.converged, "grand-canonical SCF did not converge");
        // Fixed µ: every iteration reports exactly the seed µ and zero
        // bisection steps.
        for it in &result.iterations {
            assert_eq!(it.mu, mu);
        }
        assert_eq!(result.report.bisect_iterations, 0);
        assert_eq!(result.report.mu, mu);
        // One cached plan still serves every iteration.
        assert_eq!(result.symbolic_builds, 1);
        assert_eq!(result.cache_hits, result.iterations.len() - 1);
    }

    #[test]
    fn shared_engine_accounting_is_job_local() {
        let (kt, mu, n_elec) = small_system();
        let comm = SerialComm::new();
        let engine = Arc::new(SubmatrixEngine::new(EngineOptions::default()));
        let opts = ScfOptions::default();
        let first =
            ScfDriver::with_engine(opts.clone(), engine.clone()).run(&kt, mu, n_elec, &comm);
        // First run over the fresh shared engine pays for the plan once.
        assert_eq!(first.symbolic_builds, 1);
        // A second driver on the same engine finds the plan warm: *its*
        // accounting shows zero builds — engine-lifetime deltas would
        // misattribute concurrent jobs' work, per-iteration flags cannot.
        let second =
            ScfDriver::with_engine(opts.clone(), engine.clone()).run(&kt, mu, n_elec, &comm);
        assert_eq!(second.symbolic_builds, 0);
        assert_eq!(second.cache_hits, second.iterations.len());
        assert!(second.report.plan_cached);
        assert_eq!(engine.stats().symbolic_builds, 1);
        // The aggregated report sums the per-iteration byte telemetry.
        let gather_sum: u64 = second.iterations.iter().map(|i| i.gather_value_bytes).sum();
        assert_eq!(second.report.gather_value_bytes, gather_sum);
    }

    #[test]
    fn scf_density_matches_direct_build_at_fixed_point() {
        let (kt, mu, n_elec) = small_system();
        let comm = SerialComm::new();
        let driver = ScfDriver::new(ScfOptions {
            // Zero coupling: the fixed point is the plain density of kt.
            coupling: 0.0,
            ..ScfOptions::default()
        });
        let result = driver.run(&kt, mu, n_elec, &comm);
        assert!(result.converged);
        let n = electron_count(&result.density, &comm);
        assert!((n - n_elec).abs() < 1e-6);
    }
}
