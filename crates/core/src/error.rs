//! Unified error type for the deconvolution pipeline.

use std::error::Error;
use std::fmt;

/// Errors produced by the deconvolution pipeline, wrapping substrate
/// failures with pipeline-level context.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeconvError {
    /// Measurements/sigmas/times are inconsistent in length.
    LengthMismatch {
        /// Description of what mismatched.
        what: &'static str,
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A configuration value is out of range.
    InvalidConfig(&'static str),
    /// Too few measurements to fit the requested basis.
    TooFewMeasurements {
        /// Measurements available.
        measurements: usize,
        /// Spline coefficients requested.
        basis: usize,
    },
    /// A phase outside `[0, 1]` was supplied.
    InvalidPhase(f64),
    /// One item of a batch operation failed ([`crate::Deconvolver::fit_many`]
    /// series, [`crate::Deconvolver::fit_bootstrap`] replicate, or a
    /// [`crate::paramfit`] multi-start attempt). `index` identifies the
    /// failing item so genome-wide runs are debuggable without refitting
    /// series one at a time; `source` is the underlying failure.
    Series {
        /// Zero-based index of the failing item within the batch.
        index: usize,
        /// The failure itself.
        source: Box<DeconvError>,
    },
    /// Linear-algebra substrate failure.
    Linalg(cellsync_linalg::LinalgError),
    /// Numerics substrate failure.
    Numerics(cellsync_numerics::NumericsError),
    /// Statistics substrate failure.
    Stats(cellsync_stats::StatsError),
    /// Spline substrate failure.
    Spline(cellsync_spline::SplineError),
    /// Population-simulation substrate failure.
    Popsim(cellsync_popsim::PopsimError),
    /// The fit's deadline expired (or its cancellation token fired)
    /// before the solve completed. Raised cooperatively: the engine polls
    /// the request's [`crate::CancelToken`] between λ-grid points,
    /// bootstrap replicates, and QP outer iterations, so partially
    /// completed work is abandoned at the next poll, never mid-kernel.
    DeadlineExceeded,
    /// Optimization substrate failure.
    Opt(cellsync_opt::OptError),
    /// A numerical quantity the fit depends on came out non-finite from
    /// finite input (for example a NaN cross-validation score), so no
    /// result can be trusted.
    NumericalBreakdown(&'static str),
    /// ODE substrate failure.
    Ode(cellsync_ode::OdeError),
}

impl DeconvError {
    /// A stable machine-readable code identifying the error class.
    ///
    /// Codes are part of the wire contract of the serving layer (the
    /// `error.code` field of `cellsync_serve` responses; see
    /// `docs/SERVING.md`) and must never change for an existing variant.
    /// A `Series` error reports the code of its underlying `source` —
    /// the batch position is carried separately in the message — so
    /// clients can branch on the root cause without unwrapping.
    pub fn code(&self) -> &'static str {
        match self {
            DeconvError::LengthMismatch { .. } => "length_mismatch",
            DeconvError::InvalidConfig(_) => "invalid_config",
            DeconvError::TooFewMeasurements { .. } => "too_few_measurements",
            DeconvError::InvalidPhase(_) => "invalid_phase",
            DeconvError::Series { source, .. } => source.code(),
            DeconvError::Linalg(_) => "linalg",
            DeconvError::Numerics(_) => "numerics",
            DeconvError::Stats(_) => "stats",
            DeconvError::Spline(_) => "spline",
            DeconvError::Popsim(_) => "popsim",
            DeconvError::DeadlineExceeded => "deadline_exceeded",
            DeconvError::Opt(_) => "opt",
            DeconvError::Ode(_) => "ode",
            DeconvError::NumericalBreakdown(_) => "numerical_breakdown",
        }
    }
}

impl fmt::Display for DeconvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeconvError::LengthMismatch {
                what,
                expected,
                got,
            } => {
                write!(
                    f,
                    "length mismatch in {what}: expected {expected}, got {got}"
                )
            }
            DeconvError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DeconvError::TooFewMeasurements {
                measurements,
                basis,
            } => write!(
                f,
                "too few measurements ({measurements}) to constrain {basis} spline coefficients \
                 (need regularization to remain well-posed; reduce basis_size or add data)"
            ),
            DeconvError::InvalidPhase(p) => write!(f, "phase must lie in [0, 1], got {p}"),
            DeconvError::Series { index, source } => {
                write!(f, "batch item {index} failed: {source}")
            }
            DeconvError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            DeconvError::Numerics(e) => write!(f, "numerics failure: {e}"),
            DeconvError::Stats(e) => write!(f, "statistics failure: {e}"),
            DeconvError::Spline(e) => write!(f, "spline failure: {e}"),
            DeconvError::Popsim(e) => write!(f, "population simulation failure: {e}"),
            DeconvError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the fit completed")
            }
            DeconvError::Opt(e) => write!(f, "optimization failure: {e}"),
            DeconvError::Ode(e) => write!(f, "ode failure: {e}"),
            DeconvError::NumericalBreakdown(what) => write!(f, "numerical breakdown: {what}"),
        }
    }
}

impl Error for DeconvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeconvError::Linalg(e) => Some(e),
            DeconvError::Numerics(e) => Some(e),
            DeconvError::Stats(e) => Some(e),
            DeconvError::Spline(e) => Some(e),
            DeconvError::Popsim(e) => Some(e),
            DeconvError::Opt(e) => Some(e),
            DeconvError::Ode(e) => Some(e),
            DeconvError::Series { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for DeconvError {
            fn from(e: $ty) -> Self {
                DeconvError::$variant(e)
            }
        }
    };
}

impl_from!(Linalg, cellsync_linalg::LinalgError);
impl_from!(Numerics, cellsync_numerics::NumericsError);
impl_from!(Stats, cellsync_stats::StatsError);
impl_from!(Spline, cellsync_spline::SplineError);
impl_from!(Popsim, cellsync_popsim::PopsimError);
impl_from!(Ode, cellsync_ode::OdeError);

/// `Opt` errors convert manually (not via `impl_from!`): a cancelled
/// solve surfaces as [`DeconvError::DeadlineExceeded`] so the stable
/// `deadline_exceeded` code reaches the wire regardless of which solver
/// layer noticed the expired budget first.
impl From<cellsync_opt::OptError> for DeconvError {
    fn from(e: cellsync_opt::OptError) -> Self {
        match e {
            cellsync_opt::OptError::Cancelled => DeconvError::DeadlineExceeded,
            other => DeconvError::Opt(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_sources_chain() {
        let errs: Vec<DeconvError> = vec![
            DeconvError::LengthMismatch {
                what: "sigmas",
                expected: 3,
                got: 2,
            },
            DeconvError::InvalidConfig("basis too small"),
            DeconvError::TooFewMeasurements {
                measurements: 2,
                basis: 24,
            },
            DeconvError::InvalidPhase(1.5),
            DeconvError::DeadlineExceeded,
            cellsync_linalg::LinalgError::Singular.into(),
            cellsync_numerics::NumericsError::TooFewPoints { got: 0, need: 1 }.into(),
            cellsync_stats::StatsError::EmptySample.into(),
            cellsync_spline::SplineError::InvalidKnots.into(),
            cellsync_popsim::PopsimError::InvalidPhase(2.0).into(),
            cellsync_opt::OptError::InvalidArgument("y").into(),
            cellsync_ode::OdeError::InvalidStep(0.0).into(),
            DeconvError::NumericalBreakdown("nan score"),
            DeconvError::Series {
                index: 17,
                source: Box::new(DeconvError::InvalidPhase(2.0)),
            },
        ];
        for e in &errs {
            assert!(!e.to_string().is_empty());
        }
        assert!(Error::source(&errs[5]).is_some());
        assert!(Error::source(&errs[0]).is_none());
        let series = &errs[errs.len() - 1];
        assert!(series.to_string().contains("batch item 17"));
        assert!(Error::source(series).is_some());
    }

    #[test]
    fn codes_are_stable_and_unique() {
        let errs: Vec<(DeconvError, &str)> = vec![
            (
                DeconvError::LengthMismatch {
                    what: "sigmas",
                    expected: 3,
                    got: 2,
                },
                "length_mismatch",
            ),
            (DeconvError::InvalidConfig("x"), "invalid_config"),
            (
                DeconvError::TooFewMeasurements {
                    measurements: 2,
                    basis: 24,
                },
                "too_few_measurements",
            ),
            (DeconvError::InvalidPhase(1.5), "invalid_phase"),
            (cellsync_linalg::LinalgError::Singular.into(), "linalg"),
            (
                cellsync_numerics::NumericsError::TooFewPoints { got: 0, need: 1 }.into(),
                "numerics",
            ),
            (cellsync_stats::StatsError::EmptySample.into(), "stats"),
            (cellsync_spline::SplineError::InvalidKnots.into(), "spline"),
            (
                cellsync_popsim::PopsimError::InvalidPhase(2.0).into(),
                "popsim",
            ),
            (cellsync_opt::OptError::InvalidArgument("y").into(), "opt"),
            (DeconvError::DeadlineExceeded, "deadline_exceeded"),
            (cellsync_ode::OdeError::InvalidStep(0.0).into(), "ode"),
            (
                DeconvError::NumericalBreakdown("nan score"),
                "numerical_breakdown",
            ),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (e, expected) in &errs {
            assert_eq!(e.code(), *expected);
            assert!(seen.insert(*expected), "duplicate code {expected}");
        }
        // Series errors surface the code of their root cause.
        let nested = DeconvError::Series {
            index: 3,
            source: Box::new(DeconvError::InvalidPhase(2.0)),
        };
        assert_eq!(nested.code(), "invalid_phase");
        // A cancelled optimizer solve converts straight to the deadline
        // variant, never hiding behind the generic "opt" code.
        let cancelled: DeconvError = cellsync_opt::OptError::Cancelled.into();
        assert_eq!(cancelled, DeconvError::DeadlineExceeded);
        assert_eq!(cancelled.code(), "deadline_exceeded");
    }
}
