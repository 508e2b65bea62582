//! Lawson–Hanson nonnegative least squares.

use cellsync_linalg::{Matrix, Vector};

use crate::{OptError, Result};

/// Nonnegative least squares: `min ‖A·x − b‖₂ s.t. x ≥ 0`, solved with the
/// Lawson–Hanson active-set algorithm (*Solving Least Squares Problems*,
/// 1974, ch. 23).
///
/// Used as an independent cross-check of the general QP solver on
/// positivity-only deconvolution problems (the two must agree because the
/// NNLS problem *is* the QP `min ½xᵀ(AᵀA)x − (Aᵀb)ᵀx, x ≥ 0`).
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
/// use cellsync_opt::Nnls;
///
/// # fn main() -> Result<(), cellsync_opt::OptError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).expect("rows");
/// let b = Vector::from_slice(&[-1.0, 2.0, 1.0]);
/// let x = Nnls::new().solve(&a, &b)?;
/// assert!(x[0] >= 0.0 && x[1] >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nnls {
    tolerance: f64,
}

impl Nnls {
    /// Creates a solver with tolerance `1e-12`; its outer-iteration
    /// budget is `10·max(n, 10)` for `n` unknowns.
    pub fn new() -> Self {
        Nnls { tolerance: 1e-12 }
    }

    /// Solves `min ‖Ax − b‖ s.t. x ≥ 0`.
    ///
    /// # Errors
    ///
    /// * [`OptError::DimensionMismatch`] when `b.len() != A.rows()`.
    /// * [`OptError::IterationLimit`] on (unobserved) cycling.
    /// * Propagates linear-algebra errors.
    pub fn solve(&self, a: &Matrix, b: &Vector) -> Result<Vector> {
        if a.rows() != b.len() {
            return Err(OptError::DimensionMismatch {
                what: "nnls rhs",
                expected: a.rows(),
                got: b.len(),
            });
        }
        let n = a.cols();
        let budget = 10 * n.max(10);

        let mut passive = vec![false; n];
        let mut x = Vector::zeros(n);
        // w = Aᵀ(b − Ax), the negative gradient.
        let mut w = a.tr_matvec(&(b - &a.matvec(&x)?))?;

        for _outer in 0..budget {
            // Pick the most violated zero coordinate.
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if !passive[i] && w[i] > self.tolerance {
                    match best {
                        Some((_, bw)) if w[i] <= bw => {}
                        _ => best = Some((i, w[i])),
                    }
                }
            }
            let Some((enter, _)) = best else {
                return Ok(x); // KKT satisfied
            };
            passive[enter] = true;

            // Inner loop: solve the unconstrained LS on the passive set and
            // clip variables that go negative.
            loop {
                let p_idx: Vec<usize> = (0..n).filter(|&i| passive[i]).collect();
                let ap = Matrix::from_fn(a.rows(), p_idx.len(), |r, k| a[(r, p_idx[k])]);
                let z = ap.qr()?.solve_least_squares(b)?;
                if z.iter().all(|&v| v > self.tolerance) {
                    x = Vector::zeros(n);
                    for (k, &i) in p_idx.iter().enumerate() {
                        x[i] = z[k];
                    }
                    break;
                }
                // Step toward z, stopping at the first variable hitting zero.
                let mut alpha = f64::INFINITY;
                for (k, &i) in p_idx.iter().enumerate() {
                    if z[k] <= self.tolerance {
                        let denom = x[i] - z[k];
                        if denom > 0.0 {
                            alpha = alpha.min(x[i] / denom);
                        }
                    }
                }
                if !alpha.is_finite() {
                    // Degenerate: remove the entering variable and stop.
                    passive[enter] = false;
                    break;
                }
                for (k, &i) in p_idx.iter().enumerate() {
                    x[i] += alpha * (z[k] - x[i]);
                }
                for &i in &p_idx {
                    if x[i] <= self.tolerance {
                        x[i] = 0.0;
                        passive[i] = false;
                    }
                }
            }
            w = a.tr_matvec(&(b - &a.matvec(&x)?))?;
        }
        Err(OptError::IterationLimit {
            iterations: budget,
            residual: w.norm_inf(),
        })
    }
}

impl Default for Nnls {
    fn default() -> Self {
        Nnls::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_optimum_nonnegative() {
        // LS solution already nonnegative → NNLS equals plain LS.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = Nnls::new().solve(&a, &b).unwrap();
        let ls = a.qr().unwrap().solve_least_squares(&b).unwrap();
        assert!((&x - &ls).norm2() < 1e-10);
    }

    #[test]
    fn negative_coordinate_clipped() {
        // Pulling x0 negative: NNLS must return x0 = 0.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).unwrap();
        let b = Vector::from_slice(&[-3.0, 2.0]);
        let x = Nnls::new().solve(&a, &b).unwrap();
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn kkt_conditions_hold() {
        let a = Matrix::from_fn(8, 5, |i, j| ((i * 5 + j) as f64 * 0.7).sin());
        let b = Vector::from_fn(8, |i| (i as f64 * 1.3).cos());
        let x = Nnls::new().solve(&a, &b).unwrap();
        let w = a.tr_matvec(&(&b - &a.matvec(&x).unwrap())).unwrap();
        for i in 0..5 {
            assert!(x[i] >= 0.0);
            if x[i] > 1e-10 {
                assert!(w[i].abs() < 1e-8, "gradient at passive {i}: {}", w[i]);
            } else {
                assert!(w[i] <= 1e-8, "gradient at active {i}: {}", w[i]);
            }
        }
    }

    #[test]
    fn matches_qp_solver() {
        use crate::{QpProblem, QpWorkspace};
        // Distinct per-column frequencies keep AᵀA full rank.
        let a = Matrix::from_fn(10, 4, |i, j| {
            ((i + 1) as f64 * (j + 1) as f64 * 0.41).sin() + 0.1
        });
        let b = Vector::from_fn(10, |i| ((i as f64) * 0.9).cos() * 2.0);
        let x_nnls = Nnls::new().solve(&a, &b).unwrap();
        // Equivalent QP: min ½xᵀ(2AᵀA)x − (2Aᵀb)ᵀx s.t. x ≥ 0.
        let h = a.gram().scaled(2.0);
        let c = -&a.tr_matvec(&b).unwrap().scaled(2.0);
        let x_qp = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(&Matrix::identity(4), &Vector::zeros(4))
                    .unwrap(),
            )
            .unwrap()
            .x;
        assert!(
            (&x_nnls - &x_qp).norm2() < 1e-7,
            "nnls {x_nnls} vs qp {x_qp}"
        );
    }

    #[test]
    fn zero_rhs_gives_zero() {
        let a = Matrix::identity(3);
        let x = Nnls::new().solve(&a, &Vector::zeros(3)).unwrap();
        assert_eq!(x, Vector::zeros(3));
    }

    #[test]
    fn dimension_validation() {
        let a = Matrix::identity(3);
        assert!(Nnls::new().solve(&a, &Vector::zeros(2)).is_err());
    }
}
