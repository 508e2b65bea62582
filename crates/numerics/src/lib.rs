//! Gauss–Legendre quadrature for the `cellsync` constraint integrals.
//!
//! The RNA-conservation and rate-continuity constraints of Eisenberg et
//! al. (2011), eqs. 14–16, are integrals of a spline basis function (or
//! its derivative) against the Gaussian density of the swarmer-to-stalked
//! transition phase, e.g. `β₀ = ∫β(φ)p(φ)dφ`. `cellsync_core::constraints`
//! evaluates them with the panelled [`quadrature::GaussLegendre`] rule
//! this crate provides.
//!
//! # Example
//!
//! ```
//! use cellsync_numerics::quadrature::GaussLegendre;
//!
//! # fn main() -> Result<(), cellsync_numerics::NumericsError> {
//! let rule = GaussLegendre::new(16)?;
//! let integral = rule.integrate_panels(|x| x * x, 0.0, 1.0, 4)?;
//! assert!((integral - 1.0 / 3.0).abs() < 1e-14);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod error;
pub mod quadrature;

pub use error::NumericsError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, NumericsError>;
