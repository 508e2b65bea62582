//! Projected gradient descent for box-constrained convex QPs.

use cellsync_linalg::{Matrix, Vector};

use crate::{OptError, Result};

/// Projected gradient descent for `min ½xᵀHx + cᵀx s.t. x ≥ lo`
/// (element-wise lower bounds).
///
/// Uses the fixed step `1/λ_max(H)` (computed by symmetric eigendecomposition)
/// which guarantees monotone convergence for convex problems. Slower than
/// the active-set method but with trivially verifiable iterations — kept as
/// an independent implementation to cross-check the QP solver in tests.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
/// use cellsync_opt::ProjectedGradient;
///
/// # fn main() -> Result<(), cellsync_opt::OptError> {
/// // min (x+1)² s.t. x ≥ 0 → x = 0.
/// let h = Matrix::identity(1).scaled(2.0);
/// let c = Vector::from_slice(&[2.0]);
/// let x = ProjectedGradient::new(10_000, 1e-12)
///     .solve(&h, &c, &Vector::zeros(1))?;
/// assert!(x[0].abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectedGradient {
    max_iterations: usize,
    tolerance: f64,
}

impl ProjectedGradient {
    /// Creates a solver with the given iteration budget and convergence
    /// tolerance (on the projected-gradient norm).
    pub fn new(max_iterations: usize, tolerance: f64) -> Self {
        ProjectedGradient {
            max_iterations,
            tolerance,
        }
    }

    /// Solves `min ½xᵀHx + cᵀx` subject to `x ≥ lo`.
    ///
    /// # Errors
    ///
    /// * [`OptError::DimensionMismatch`] for inconsistent sizes.
    /// * [`OptError::NotConvex`] when `H` has a non-positive maximum
    ///   eigenvalue.
    /// * [`OptError::IterationLimit`] when the budget is exhausted before
    ///   the projected gradient norm falls below tolerance.
    pub fn solve(&self, h: &Matrix, c: &Vector, lo: &Vector) -> Result<Vector> {
        let n = h.rows();
        if c.len() != n || lo.len() != n || !h.is_square() {
            return Err(OptError::DimensionMismatch {
                what: "projected gradient inputs",
                expected: n,
                got: c.len().max(lo.len()),
            });
        }
        let eig = h.symmetric_eigen()?;
        let l = eig.max_eigenvalue();
        if !(l > 0.0) {
            return Err(OptError::NotConvex(
                "hessian max eigenvalue must be positive".into(),
            ));
        }
        let step = 1.0 / l;
        // Start at the projection of the origin.
        let mut x = Vector::from_fn(n, |i| lo[i].max(0.0));
        for iteration in 0..self.max_iterations {
            let grad = &h.matvec(&x)? + c;
            let mut next = x.axpy(-step, &grad)?;
            for i in 0..n {
                if next[i] < lo[i] {
                    next[i] = lo[i];
                }
            }
            let progress = (&next - &x).norm2();
            x = next;
            if progress <= self.tolerance * (1.0 + x.norm2()) {
                return Ok(x);
            }
            let _ = iteration;
        }
        Err(OptError::IterationLimit {
            iterations: self.max_iterations,
            residual: f64::NAN,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QpProblem, QpWorkspace};

    #[test]
    fn matches_active_set_on_bound_constrained_problem() {
        let n = 6;
        let mut h = Matrix::identity(n).scaled(3.0);
        for i in 0..n - 1 {
            h[(i, i + 1)] = 1.0;
            h[(i + 1, i)] = 1.0;
        }
        let c = Vector::from_fn(n, |i| if i % 2 == 0 { 1.5 } else { -2.0 });
        let pg = ProjectedGradient::new(200_000, 1e-13)
            .solve(&h, &c, &Vector::zeros(n))
            .unwrap();
        let qp = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(&Matrix::identity(n), &Vector::zeros(n))
                    .unwrap(),
            )
            .unwrap()
            .x;
        assert!((&pg - &qp).norm2() < 1e-6, "pg {pg} vs qp {qp}");
    }

    #[test]
    fn respects_nonzero_lower_bounds() {
        let h = Matrix::identity(2).scaled(2.0);
        let c = Vector::from_slice(&[-2.0, -2.0]); // unconstrained min (1,1)
        let lo = Vector::from_slice(&[1.5, -10.0]);
        let x = ProjectedGradient::new(100_000, 1e-13)
            .solve(&h, &c, &lo)
            .unwrap();
        assert!((x[0] - 1.5).abs() < 1e-8);
        assert!((x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn validation() {
        let h = Matrix::identity(2);
        assert!(ProjectedGradient::new(10, 1e-6)
            .solve(&h, &Vector::zeros(3), &Vector::zeros(2))
            .is_err());
        let zero = Matrix::zeros(2, 2);
        assert!(matches!(
            ProjectedGradient::new(10, 1e-6)
                .solve(&zero, &Vector::zeros(2), &Vector::zeros(2))
                .unwrap_err(),
            OptError::NotConvex(_)
        ));
    }

    #[test]
    fn iteration_limit_reported() {
        let h = Matrix::identity(2);
        let c = Vector::from_slice(&[5.0, -3.0]);
        let r = ProjectedGradient::new(1, 0.0).solve(&h, &c, &Vector::zeros(2));
        assert!(matches!(r.unwrap_err(), OptError::IterationLimit { .. }));
    }
}
