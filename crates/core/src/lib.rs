//! # sm-core — the submatrix method
//!
//! The paper's primary contribution (Lass, Schade, Kühne, Plessl, SC 2020):
//! evaluate a unary matrix function `f` on a large sparse symmetric matrix
//! `A` by building, for each (block-)column `i`, the dense *principal
//! submatrix* `a_i` induced by the nonzero rows of that column, computing
//! `f(a_i)` locally, and scattering the columns originating from `i` back
//! into a result with the sparsity pattern of `A` (paper Fig. 3).
//!
//! Crate layout mirrors the paper's implementation sections:
//!
//! * [`assembly`] — submatrix index sets and the one assembly/extraction
//!   copy program at the DBCSR block level (Secs. III-A, IV);
//! * [`plan`] — the symbolic phase in two halves: the pattern-wide
//!   [`PatternPlan`] (grouping block columns into submatrices, their `n³`
//!   costs, the estimated-speedup model of Eq. 15, Sec. IV-C) and each
//!   rank's view of it (load-balance slice, walks, transfers);
//! * [`cluster`] — k-means in real space and multilevel graph partitioning
//!   of the sparsity pattern for column combination (Sec. IV-C2, Fig. 5);
//! * [`loadbalance`] — greedy O(n³)-cost contiguous rank assignment
//!   (Sec. IV-E);
//! * [`transfers`] — block transfers deduplicated by pattern ID (Sec. IV-B);
//! * [`solver`] — per-submatrix sign evaluation: eigendecomposition
//!   (Eq. 17) or the Padé family (order 2 is Newton–Schulz, Eq. 11), with
//!   grand-canonical, canonical and finite-temperature modes (Sec. IV-F/G);
//! * [`mu`] — Algorithm 1: canonical µ adjustment on stored
//!   eigendecompositions without re-diagonalizing;
//! * [`engine`] — the persistent [`SubmatrixEngine`]: one-time symbolic
//!   phase (plan, load balance, transfer plan, assembly/extraction index
//!   maps) cached by pattern fingerprint, replayed by a numeric-only
//!   execute producing the sign matrix or the density matrix of Eq. 16 —
//!   the amortization that SCF/MD loops and the `sm-pipeline` batch
//!   executor build on;
//! * [`baseline`] — the comparator: 2nd-order Newton–Schulz purification on
//!   the distributed sparse matrix, plus sparse Löwdin orthogonalization;
//! * [`model`] — analytic cluster-time accounting for the scaling studies
//!   (Figs. 6, 8–10) over every rank's share of a [`PatternPlan`], built on
//!   `sm_comsim::ClusterModel`.

pub mod assembly;
pub mod baseline;
pub mod cluster;
pub mod engine;
pub mod loadbalance;
pub mod model;
pub mod mu;
pub mod plan;
pub mod solver;
pub mod transfers;

pub use assembly::SubmatrixSpec;
pub use engine::{
    EngineOptions, EngineReport, EngineStats, ExecutionPlan, NumericOptions, SubmatrixEngine,
};
pub use plan::PatternPlan;
pub use solver::SignMethod;
