//! # sm-linalg — dense linear algebra substrate
//!
//! Pure-Rust dense linear algebra used by the submatrix-method reproduction
//! of Lass et al., *"A Submatrix-Based Method for Approximate Matrix Function
//! Evaluation in the Quantum Chemistry Code CP2K"* (SC 2020).
//!
//! The paper evaluates the matrix sign function of dense principal
//! submatrices with LAPACK's `dsyevd` (divide and conquer); this crate
//! writes its building blocks from scratch, and its eigensolver follows
//! the path of LAPACK's `dsyev` instead (`dsytd2`, `dorg2l`, implicit QL):
//!
//! * a column-major [`Matrix`] type,
//! * BLAS-1/3 kernels ([`blas1`], [`gemm`]) with a packed, register-tiled,
//!   Rayon-parallel GEMM, and the level-2 pass of the reduction below
//!   ([`blas2`]),
//! * a symmetric eigensolver [`eigh::eigh`]: a `dsytd2`-style Householder
//!   tridiagonalization over the contiguous columns of the upper triangle
//!   ([`tridiag`]), one pass per step for its rank-2 update and its
//!   matrix–vector product, `Q` formed from the stored reflectors only when
//!   eigenvectors are wanted (`dorg2l`-style), and an implicit-shift QL
//!   sweep,
//! * a Cholesky factorization,
//! * the matrix sign function via eigendecomposition, Newton–Schulz and
//!   higher-order Padé iterations ([`sign`]),
//! * inverse p-th roots, in particular `S^{-1/2}` for Löwdin
//!   orthogonalization ([`roots`]),
//! * Fermi-function smearing for finite-temperature purification
//!   ([`fermi`]),
//! * element-wise sparse (CSR) kernels and sign iterations implementing the
//!   paper's Sec. V-C proposal ([`sparse`]).
//!
//! The hot dense kernels (GEMM, the sign/Padé iterations) are generic over
//! the [`Elem`] scalar trait with `f32` and `f64` instances ([`Matrix`] is
//! the `f64` matrix, [`MatrixF32`] the single-precision one) — the real
//! mixed-precision execution path of the paper's approximate-computing
//! mode, selected by [`Precision`]. The factorizations (eigensolver,
//! Cholesky) remain `f64`; device-*emulating* element types (FP16
//! tensor-core rounding schedules, FPGA summation orders) live in the
//! `sm-accel` crate and run through the same `sign::sign_iteration_in`.

pub mod blas1;
pub mod blas2;
pub mod cholesky;
pub mod eigh;
pub mod elem;
pub mod error;
pub mod fermi;
pub mod gemm;
pub mod matrix;
pub mod norms;
pub mod roots;
pub mod sign;
pub mod sparse;
pub mod tridiag;

pub use elem::{Elem, Precision};
pub use error::LinalgError;
pub use matrix::{Matrix, MatrixBase, MatrixF32};

/// Convenience result alias for fallible linear-algebra routines.
pub type Result<T> = std::result::Result<T, LinalgError>;
