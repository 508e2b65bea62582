//! Error type for spline construction and evaluation.

use std::error::Error;
use std::fmt;

/// Errors produced by spline constructors and evaluators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SplineError {
    /// Fewer knots than the construction requires.
    TooFewKnots {
        /// Number supplied.
        got: usize,
        /// Minimum required.
        need: usize,
    },
    /// Knots are not strictly increasing or not finite.
    InvalidKnots,
    /// A coefficient vector has the wrong length for the basis.
    CoefficientMismatch {
        /// Basis dimension.
        basis: usize,
        /// Number of coefficients supplied.
        coefficients: usize,
    },
    /// Assembling a linear-algebra structure failed.
    SolveFailed(String),
    /// Generic invalid argument.
    InvalidArgument(&'static str),
}

impl fmt::Display for SplineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplineError::TooFewKnots { got, need } => {
                write!(f, "too few knots: got {got}, need at least {need}")
            }
            SplineError::InvalidKnots => {
                write!(f, "knots must be finite and strictly increasing")
            }
            SplineError::CoefficientMismatch {
                basis,
                coefficients,
            } => {
                write!(
                    f,
                    "coefficient length {coefficients} does not match basis dimension {basis}"
                )
            }
            SplineError::SolveFailed(msg) => write!(f, "spline assembly failed: {msg}"),
            SplineError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl Error for SplineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            SplineError::TooFewKnots { got: 1, need: 3 },
            SplineError::InvalidKnots,
            SplineError::CoefficientMismatch {
                basis: 4,
                coefficients: 2,
            },
            SplineError::SolveFailed("x".into()),
            SplineError::InvalidArgument("y"),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
