//! Backend-agnostic QP solving.
//!
//! Two algorithmically independent solvers implement [`QpBackend`]: the
//! whitened dual active-set method ([`crate::QpWorkspace`]) and the Mehrotra
//! predictor–corrector interior-point method ([`crate::IpmWorkspace`]).
//! The trait exists so the differential corpus suite — and any caller
//! that wants a second opinion on an ill-conditioned fit — can run the
//! same [`QpProblem`] through both without caring which is which.

use crate::ipm::IpmWorkspace;
use crate::qp::{QpProblem, QpSolution, QpWorkspace};
use crate::Result;

/// A solver capable of handling any strictly convex [`QpProblem`].
///
/// Implementations are free to ignore warm-start information (the
/// interior-point backend does) but must otherwise honor the problem
/// exactly and return structured [`crate::OptError`]s — never panic —
/// on degenerate input.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
/// use cellsync_opt::{IpmWorkspace, QpBackend, QpProblem, QpWorkspace};
///
/// # fn main() -> Result<(), cellsync_opt::OptError> {
/// let h = Matrix::identity(2).scaled(2.0);
/// let c = Vector::from_slice(&[-2.0, -4.0]);
/// let problem = QpProblem::new(&h, &c)?;
/// let mut backends: Vec<Box<dyn QpBackend>> =
///     vec![Box::new(QpWorkspace::new()), Box::new(IpmWorkspace::new())];
/// for backend in &mut backends {
///     let sol = backend.solve_qp(&problem)?;
///     assert!((sol.x[0] - 1.0).abs() < 1e-9, "{} disagrees", backend.name());
///     assert!((sol.x[1] - 2.0).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
pub trait QpBackend {
    /// Short stable identifier for diagnostics ("active-set", "ipm").
    fn name(&self) -> &'static str;

    /// Solves the problem, reusing the backend's internal buffers.
    fn solve_qp(&mut self, problem: &QpProblem<'_>) -> Result<QpSolution>;
}

impl QpBackend for QpWorkspace {
    fn name(&self) -> &'static str {
        "active-set"
    }

    fn solve_qp(&mut self, problem: &QpProblem<'_>) -> Result<QpSolution> {
        self.solve(problem)
    }
}

impl QpBackend for IpmWorkspace {
    fn name(&self) -> &'static str {
        "ipm"
    }

    fn solve_qp(&mut self, problem: &QpProblem<'_>) -> Result<QpSolution> {
        self.solve(problem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_linalg::{Matrix, Vector};

    #[test]
    fn both_backends_solve_through_the_trait() {
        let h = Matrix::identity(3).scaled(2.0);
        let c = Vector::from_slice(&[-2.0, 0.0, 2.0]);
        let ineq = Matrix::identity(3);
        let zero = Vector::zeros(3);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&ineq, &zero)
            .unwrap();
        let mut backends: Vec<Box<dyn QpBackend>> =
            vec![Box::new(QpWorkspace::new()), Box::new(IpmWorkspace::new())];
        let mut names = Vec::new();
        for backend in &mut backends {
            let sol = backend.solve_qp(&problem).unwrap();
            assert!((sol.x[0] - 1.0).abs() < 1e-8);
            assert!(sol.x[1].abs() < 1e-8);
            assert!(sol.x[2].abs() < 1e-8);
            names.push(backend.name());
        }
        assert_eq!(names, ["active-set", "ipm"]);
    }
}
