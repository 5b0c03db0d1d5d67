//! Error type shared by all fallible routines in this crate.

use std::fmt;

/// Errors produced by dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Shape of the first operand.
        lhs: (usize, usize),
        /// Shape of the second operand.
        rhs: (usize, usize),
    },
    /// The matrix is not square but the operation requires it.
    NotSquare {
        /// Operation name.
        op: &'static str,
        /// Offending shape.
        shape: (usize, usize),
    },
    /// A factorization failed because the matrix is singular (or not
    /// positive definite for Cholesky) at the given pivot index.
    Singular {
        /// Operation name.
        op: &'static str,
        /// Pivot/diagonal index at which the failure was detected.
        index: usize,
    },
    /// An iterative method did not converge within its iteration budget.
    NoConvergence {
        /// Operation name.
        op: &'static str,
        /// Number of iterations performed.
        iterations: usize,
    },
    /// An input holds a NaN or an infinite entry.
    NonFinite {
        /// Operation name.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, lhs, rhs } => write!(
                f,
                "{op}: dimension mismatch between {}x{} and {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotSquare { op, shape } => {
                write!(
                    f,
                    "{op}: matrix must be square, got {}x{}",
                    shape.0, shape.1
                )
            }
            LinalgError::Singular { op, index } => {
                write!(f, "{op}: matrix is singular at pivot {index}")
            }
            LinalgError::NoConvergence { op, iterations } => {
                write!(f, "{op}: no convergence after {iterations} iterations")
            }
            LinalgError::NonFinite { op } => {
                write!(f, "{op}: input holds a NaN or infinite entry")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_dimension_mismatch() {
        let e = LinalgError::DimensionMismatch {
            op: "gemm",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "gemm: dimension mismatch between 2x3 and 4x5"
        );
    }

    #[test]
    fn display_not_square() {
        let e = LinalgError::NotSquare {
            op: "eigh",
            shape: (2, 3),
        };
        assert_eq!(e.to_string(), "eigh: matrix must be square, got 2x3");
    }

    #[test]
    fn display_singular() {
        let e = LinalgError::Singular {
            op: "cholesky",
            index: 7,
        };
        assert_eq!(e.to_string(), "cholesky: matrix is singular at pivot 7");
    }

    #[test]
    fn display_no_convergence() {
        let e = LinalgError::NoConvergence {
            op: "eigh",
            iterations: 30,
        };
        assert_eq!(e.to_string(), "eigh: no convergence after 30 iterations");
    }

    #[test]
    fn display_non_finite() {
        let e = LinalgError::NonFinite { op: "eigh" };
        assert_eq!(e.to_string(), "eigh: input holds a NaN or infinite entry");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<LinalgError>();
    }
}
