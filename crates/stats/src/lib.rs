//! Probability and statistics substrate for the `cellsync` workspace.
//!
//! The asynchrony model of Eisenberg et al. (2011) is stochastic: the
//! swarmer-to-stalked transition phase is `φ_sst ~ N(0.15, (0.13·0.15)²)`
//! (paper §2.1), cell-cycle durations vary across the population, and the
//! Fig. 3 validation adds Gaussian measurement noise at 10 % of the data
//! magnitude. This crate supplies those pieces:
//!
//! * [`dist`] — analytic distributions (normal, truncated normal, uniform)
//!   with pdf/cdf/quantile and seeded sampling built on Box–Muller over the
//!   `rand` uniform source.
//! * [`metrics`] — reconstruction-quality metrics (RMSE, normalized RMSE,
//!   Pearson correlation, relative error) used by EXPERIMENTS.md comparisons.
//! * [`noise`] — measurement-noise models applied to population series.
//! * [`crossval`] — deterministic k-fold index splitting for the
//!   cross-validated choice of the smoothing parameter λ (paper eq. 5).
//!
//! # Example
//!
//! ```
//! use cellsync_stats::dist::{ContinuousDistribution, Normal};
//!
//! # fn main() -> Result<(), cellsync_stats::StatsError> {
//! let phi_sst = Normal::new(0.15, 0.15 * 0.13)?;
//! assert!((phi_sst.cdf(0.15) - 0.5).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod crossval;
pub mod dist;
mod error;
pub mod metrics;
pub mod noise;

pub use error::StatsError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
