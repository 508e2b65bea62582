//! Natural cubic spline substrate for the `cellsync` workspace.
//!
//! The deconvolution method models the synchronous single-cell expression
//! profile as a natural cubic spline (Eisenberg et al. 2011, eq. 4):
//!
//! ```text
//! f_α(φ) = Σᵢ αᵢ·Nᵢ(φ)
//! ```
//!
//! with `{Nᵢ}` piecewise-cubic basis functions, and penalizes roughness with
//! `λ∫f''(φ)²dφ` (eq. 5). This crate provides one basis for every size,
//! [`SplineBasis`]: the **natural cubic B-splines** on a uniform knot
//! grid — the clamped cubic B-splines with the two end functions
//! eliminated by `f''(a) = f''(b) = 0`. It spans exactly the natural
//! cubic splines on the knots, and every function lives on at most four
//! knot spans, so
//!
//! * collocation rows have at most four nonzeros (dense
//!   [`SplineBasis::collocation_matrix`] or sparse
//!   [`SplineBasis::collocation_sparse`]), and evaluating a profile costs
//!   one span lookup and four cubics whatever the basis size;
//! * the **exact** roughness Gram matrix `Ωᵢⱼ = ∫Nᵢ''Nⱼ''dφ`
//!   ([`SplineBasis::penalty`]; second derivatives of cubic splines are
//!   piecewise linear, so a 2-point Gauss rule per panel has no
//!   quadrature error) is a bandwidth-3 [`cellsync_linalg::BandedMatrix`]
//!   — the structure behind the O(n·b²) banded solver path for
//!   genome-scale `basis_size`.
//!
//! Constants have unit coordinates and the linear profile `φ` has the
//! coordinates [`SplineBasis::greville`], so `span{1, ξ}` is the null
//! space of `Ω`.
//!
//! # Example
//!
//! ```
//! use cellsync_spline::SplineBasis;
//!
//! # fn main() -> Result<(), cellsync_spline::SplineError> {
//! let basis = SplineBasis::uniform(8, 0.0, 1.0)?;
//! // The basis reproduces linear profiles through the Greville coordinates.
//! let xi = basis.greville();
//! let val = basis.eval_combination(&xi, 0.37)?;
//! assert!((val - 0.37).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod basis;
mod bspline;
mod error;

pub use basis::SplineBasis;
pub use error::SplineError;

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, SplineError>;
