//! Error type for optimization routines.

use std::error::Error;
use std::fmt;

/// Errors produced by the optimizers in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptError {
    /// Problem dimensions are inconsistent.
    DimensionMismatch {
        /// Description of the mismatch.
        what: &'static str,
        /// Expected size.
        expected: usize,
        /// Size that was supplied.
        got: usize,
    },
    /// The Hessian (or Gram matrix) is not positive definite on the
    /// feasible subspace.
    NotConvex(String),
    /// The constraints admit no feasible point (inconsistent equality
    /// rows, or inequality rows that cannot hold together with them).
    Infeasible(String),
    /// The iteration budget was exhausted before convergence.
    IterationLimit {
        /// Iterations performed.
        iterations: usize,
        /// Residual or progress measure at the end.
        residual: f64,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(cellsync_linalg::LinalgError),
    /// Generic invalid argument.
    InvalidArgument(&'static str),
    /// The solve was cancelled cooperatively — its
    /// [`cellsync_runtime::CancelToken`] fired (explicit cancellation or
    /// an expired deadline) between outer iterations. Partial iterates
    /// are discarded; the workspace stays reusable.
    Cancelled,
    /// A QP corpus document failed to parse (see [`crate::QpInstance`]).
    Corpus {
        /// 1-based line number of the offending line (0 for end-of-file).
        line: usize,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "dimension mismatch in {what}: expected {expected}, got {got}"
                )
            }
            OptError::NotConvex(msg) => write!(f, "problem is not convex: {msg}"),
            OptError::Infeasible(msg) => write!(f, "no feasible point: {msg}"),
            OptError::IterationLimit {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "iteration limit {iterations} reached (residual {residual:e})"
                )
            }
            OptError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            OptError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            OptError::Cancelled => write!(f, "solve cancelled before convergence"),
            OptError::Corpus { line, message } => {
                if *line == 0 {
                    write!(f, "corpus parse error at end of input: {message}")
                } else {
                    write!(f, "corpus parse error at line {line}: {message}")
                }
            }
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cellsync_linalg::LinalgError> for OptError {
    fn from(e: cellsync_linalg::LinalgError) -> Self {
        OptError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            OptError::DimensionMismatch {
                what: "h",
                expected: 2,
                got: 3,
            },
            OptError::NotConvex("test".into()),
            OptError::Infeasible("test".into()),
            OptError::IterationLimit {
                iterations: 10,
                residual: 0.1,
            },
            OptError::Linalg(cellsync_linalg::LinalgError::Singular),
            OptError::InvalidArgument("x"),
            OptError::Cancelled,
            OptError::Corpus {
                line: 3,
                message: "test".into(),
            },
            OptError::Corpus {
                line: 0,
                message: "truncated".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn linalg_source() {
        let e = OptError::from(cellsync_linalg::LinalgError::Singular);
        assert!(Error::source(&e).is_some());
    }
}
