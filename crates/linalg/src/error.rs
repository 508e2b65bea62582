//! Error type shared by all decompositions and solvers in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by dense linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Two operands had incompatible shapes.
    ShapeMismatch {
        /// Shape of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Shape of the right operand as `(rows, cols)`.
        right: (usize, usize),
        /// The operation that was attempted.
        op: &'static str,
    },
    /// An operation requiring a square matrix received a rectangular one.
    NotSquare {
        /// Shape of the offending matrix.
        shape: (usize, usize),
    },
    /// A matrix or vector with zero rows or columns was supplied.
    Empty,
    /// The matrix is singular to working precision.
    Singular,
    /// Cholesky factorization failed: matrix is not positive definite.
    NotPositiveDefinite {
        /// Index of the pivot where failure was detected.
        pivot: usize,
    },
    /// An iterative routine failed to converge within its iteration budget.
    ConvergenceFailed {
        /// The number of iterations that were performed.
        iterations: usize,
    },
    /// An argument was invalid (NaN entries, bad dimensions, ...).
    InvalidArgument(&'static str),
    /// A routine given finite input produced a non-finite result
    /// (intermediate overflow).
    NonFinite {
        /// The operation that overflowed.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { left, right, op } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
            LinalgError::Empty => write!(f, "matrix or vector must be non-empty"),
            LinalgError::Singular => write!(f, "matrix is singular to working precision"),
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (pivot {pivot})")
            }
            LinalgError::ConvergenceFailed { iterations } => {
                write!(
                    f,
                    "iteration failed to converge after {iterations} iterations"
                )
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            LinalgError::NonFinite { op } => write!(f, "{op} produced a non-finite result"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            LinalgError::ShapeMismatch {
                left: (2, 3),
                right: (4, 5),
                op: "matmul",
            },
            LinalgError::NotSquare { shape: (2, 3) },
            LinalgError::Empty,
            LinalgError::Singular,
            LinalgError::NotPositiveDefinite { pivot: 1 },
            LinalgError::ConvergenceFailed { iterations: 100 },
            LinalgError::InvalidArgument("nan entry"),
            LinalgError::NonFinite { op: "eigen" },
        ];
        for e in errors {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
