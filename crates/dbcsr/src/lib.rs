//! # sm-dbcsr — distributed block-compressed sparse row matrices
//!
//! A from-scratch reproduction of the parts of libDBCSR (Borštnik et al.,
//! Parallel Computing 2014; paper Sec. II-C) that the submatrix method and
//! its Newton–Schulz baseline rely on:
//!
//! * matrices are divided into a 2-D grid of small dense blocks (one block
//!   per molecule in the chemistry substrate, 5–30 rows/cols in CP2K);
//! * only nonzero blocks are stored; block-level sparsity is the unit of
//!   truncation (`eps_filter`);
//! * blocks are distributed over a 2-D process grid (any `rows × cols`
//!   shape the rank count factors into) with the cyclic block→rank
//!   mapping, and matrix-matrix multiplication runs Cannon-style tile
//!   shifts along grid rows and columns;
//! * every rank can build a deterministic global view of the sparsity
//!   pattern in COO format, in which the position of a block doubles as its
//!   unique ID (paper Sec. IV-A1) — the starting point of submatrix-method
//!   initialization.
//!
//! Matrices are SPMD objects: each rank holds a [`DbcsrMatrix`] with its
//! local blocks, and collective operations take the communicator explicitly.
//! With a single-rank communicator the same type doubles as a replicated
//! sparse matrix, which is what the laptop-scale experiment drivers use.

pub mod coo;
pub mod dims;
pub mod error;
pub mod local;
pub mod matrix;
pub mod multiply;
pub mod ops;
pub mod pattern;
pub mod wire;

pub use coo::CooPattern;
pub use dims::BlockedDims;
pub use error::{DbcsrError, WireError};
pub use local::BlockStore;
pub use matrix::{process_grid, DbcsrMatrix};
pub use wire::PatternFingerprint;
