//! Constrained-optimization substrate for the `cellsync` workspace.
//!
//! The single-cell profile estimate of Eisenberg et al. (2011) is "the set
//! of α-coefficients that minimize (5) while satisfying all of the
//! constraints" — a convex quadratic program with two homogeneous equality
//! constraints (RNA conservation, transcript-rate continuity) and positivity
//! inequalities on a dense phase grid. No approved external crate solves
//! QPs, so this crate implements the required machinery:
//!
//! * [`QpProblem`] / [`QpWorkspace`] — dual active-set method
//!   (Goldfarb & Idnani 1983) for strictly convex QPs with general linear
//!   equality and inequality constraints, split into a borrow-based
//!   problem view and a reusable workspace (row hints, scratch buffers)
//!   for repeated-solve hot paths;
//!   a one-shot solve is `QpWorkspace::new().solve(&problem)`.
//! * [`IpmWorkspace`] — Mehrotra predictor–corrector interior-point method
//!   (Nocedal & Wright, §16.6), an algorithmically independent second QP
//!   backend; both solvers implement [`QpBackend`] so callers can run the
//!   same problem through each and compare.
//! * [`QpInstance`] — owned, serializable QP with a line-oriented text
//!   format (writer + strict parser) backing the committed differential
//!   corpus under `tests/fixtures/qp_corpus/`.
//! * [`NelderMead`] — derivative-free simplex minimization, used by the
//!   §5 parameter-estimation application to fit ODE rate constants.
//! * [`golden_section`] — scalar unimodal minimization (λ grid refinement).
//!
//! # Example
//!
//! ```
//! use cellsync_linalg::{Matrix, Vector};
//! use cellsync_opt::{QpProblem, QpWorkspace};
//!
//! # fn main() -> Result<(), cellsync_opt::OptError> {
//! // min ½‖x‖² − x·(1,1)  s.t.  x₀ + x₁ = 1  →  x = (0.5, 0.5)
//! let h = Matrix::identity(2);
//! let c = Vector::from_slice(&[-1.0, -1.0]);
//! let eq = Matrix::from_rows(&[&[1.0, 1.0]]).expect("non-empty");
//! let rhs = Vector::from_slice(&[1.0]);
//! let problem = QpProblem::new(&h, &c)?.with_equalities(&eq, &rhs)?;
//! let sol = QpWorkspace::new().solve(&problem)?;
//! assert!((sol.x[0] - 0.5).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod backend;
mod corpus;
mod error;
mod golden;
mod ipm;
mod nelder_mead;
mod qp;

pub use backend::QpBackend;
pub use corpus::QpInstance;
pub use error::OptError;
pub use golden::golden_section;
pub use ipm::IpmWorkspace;
pub use nelder_mead::{NelderMead, SimplexResult};
pub use qp::{QpProblem, QpSolution, QpWorkspace};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, OptError>;
