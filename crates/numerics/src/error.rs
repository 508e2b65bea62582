//! Error type for the quadrature rule.

use std::error::Error;
use std::fmt;

/// Errors produced by the quadrature rule.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericsError {
    /// An interval `[a, b]` with `a >= b` (or non-finite bounds) was given.
    InvalidInterval {
        /// Lower bound supplied.
        a: f64,
        /// Upper bound supplied.
        b: f64,
    },
    /// A subdivision/point count was too small for the requested rule.
    TooFewPoints {
        /// The number that was supplied.
        got: usize,
        /// The minimum the rule requires.
        need: usize,
    },
    /// An iterative method exhausted its iteration budget.
    ConvergenceFailed {
        /// Iterations performed.
        iterations: usize,
        /// Best residual achieved.
        residual: f64,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::InvalidInterval { a, b } => {
                write!(f, "invalid interval [{a}, {b}]")
            }
            NumericsError::TooFewPoints { got, need } => {
                write!(f, "too few points: got {got}, need at least {need}")
            }
            NumericsError::ConvergenceFailed {
                iterations,
                residual,
            } => write!(
                f,
                "failed to converge after {iterations} iterations (residual {residual:e})"
            ),
        }
    }
}

impl Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            NumericsError::InvalidInterval { a: 1.0, b: 0.0 },
            NumericsError::TooFewPoints { got: 1, need: 2 },
            NumericsError::ConvergenceFailed {
                iterations: 7,
                residual: 1e-3,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
