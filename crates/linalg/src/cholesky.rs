//! Cholesky decomposition for symmetric positive definite matrices.

use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky decomposition `A = L·Lᵀ` of a symmetric positive definite matrix.
///
/// The regularized normal equations of the spline fit,
/// `(AᵀW²A + λΩ + εI)α = AᵀW²G`, are SPD by construction, so Cholesky is the
/// preferred solver on the unconstrained path and inside GCV scans where the
/// same Hessian is refactored for many λ values.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let ch = a.cholesky()?;
/// let x = ch.solve(&Vector::from_slice(&[1.0, 2.0, 3.0]))?;
/// assert!((&a.matvec(&x)? - &Vector::from_slice(&[1.0, 2.0, 3.0])).norm2() < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// The [`Default`] value is an empty (0 × 0) factor: storage for a later
/// [`CholeskyDecomposition::refactor`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CholeskyDecomposition {
    /// Lower-triangular factor, stored densely with zeros above the diagonal.
    l: Matrix,
}

impl CholeskyDecomposition {
    /// Factors a symmetric positive definite matrix.
    ///
    /// Symmetry is enforced up to a tolerance of `1e-8 · ‖A‖∞` and the upper
    /// triangle is ignored afterwards.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad shapes.
    /// * [`LinalgError::InvalidArgument`] for non-finite or asymmetric input.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut decomposition = CholeskyDecomposition::default();
        decomposition.refactor(a)?;
        Ok(decomposition)
    }

    /// Re-factors `a` into this decomposition's existing storage — the
    /// no-allocation path for workspaces that factor a same-shaped matrix
    /// many times (λ sweeps, bootstrap replicates).
    ///
    /// On error the decomposition's factor is unspecified; refactor again
    /// (or drop it) before calling [`CholeskyDecomposition::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`CholeskyDecomposition::new`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if a.is_empty() {
            return Err(LinalgError::Empty);
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "matrix entries must be finite",
            ));
        }
        let scale = a.norm_inf().max(1.0);
        if a.asymmetry()? > 1e-8 * scale {
            return Err(LinalgError::InvalidArgument(
                "matrix must be symmetric for cholesky",
            ));
        }
        let n = a.rows();
        self.l.reset_zeroed(n, n);
        let l = &mut self.l;
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = sum / ljj;
            }
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// A reference to the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A·x = b` via two triangular solves.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let mut x = b.clone();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` in place: `x` holds `b` on entry and the solution
    /// on exit. No allocation — both triangular sweeps overwrite the one
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != dim()`.
    pub fn solve_in_place(&self, x: &mut Vector) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (x.len(), 1),
                op: "cholesky solve_in_place",
            });
        }
        // Forward solve L·y = b (y overwrites x).
        for i in 0..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        // Backward solve Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Forward-substitutes `L·y = b` in place (half of a full solve) —
    /// the whitening transform `y = L⁻¹b` used by solvers that work in
    /// the metric of `A` without squaring its condition number.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != dim()`.
    pub fn forward_solve_in_place(&self, x: &mut Vector) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (x.len(), 1),
                op: "cholesky forward_solve_in_place",
            });
        }
        for i in 0..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.l[(i, j)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Back-substitutes `Lᵀ·x = y` in place (the other half of a full
    /// solve; `forward` then `backward` equals
    /// [`CholeskyDecomposition::solve_in_place`]).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != dim()`.
    pub fn backward_solve_in_place(&self, x: &mut Vector) -> Result<()> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (x.len(), 1),
                op: "cholesky backward_solve_in_place",
            });
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.l[(j, i)] * x[j];
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solves `A·X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.rows() != dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: b.shape(),
                op: "cholesky solve_matrix",
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_example() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_matches_textbook() {
        let ch = spd_example().cholesky().unwrap();
        let l = ch.factor();
        // Known factor: [[5,0,0],[3,3,0],[-1,1,3]]
        assert!((l[(0, 0)] - 5.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 3.0).abs() < 1e-12);
        assert!((l[(1, 1)] - 3.0).abs() < 1e-12);
        assert!((l[(2, 0)] + 1.0).abs() < 1e-12);
        assert!((l[(2, 1)] - 1.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
        assert_eq!(l[(0, 1)], 0.0);
    }

    #[test]
    fn reconstruction() {
        let a = spd_example();
        let l = a.cholesky().unwrap().factor().clone();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert!((&recon - &a).norm_frobenius() < 1e-12);
    }

    #[test]
    fn solve_residual_small() {
        let a = spd_example();
        let b = Vector::from_slice(&[1.0, -2.0, 4.0]);
        let x = a.cholesky().unwrap().solve(&b).unwrap();
        assert!((&a.matvec(&x).unwrap() - &b).norm2() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky().unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(matches!(
            a.cholesky().unwrap_err(),
            LinalgError::InvalidArgument(_)
        ));
    }

    #[test]
    fn refactor_reuses_storage_and_matches_fresh() {
        let a = spd_example();
        let b = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let mut ch = a.cholesky().unwrap();
        ch.refactor(&b).unwrap();
        assert_eq!(ch.factor(), b.cholesky().unwrap().factor());
        // Refactoring back to the original shape works too.
        ch.refactor(&a).unwrap();
        assert_eq!(ch.factor(), a.cholesky().unwrap().factor());
        // Errors still reported through the in-place path.
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            ch.refactor(&indef),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn forward_backward_split_matches_full_solve() {
        let a = spd_example();
        let ch = a.cholesky().unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 4.0]);
        let mut split = b.clone();
        ch.forward_solve_in_place(&mut split).unwrap();
        ch.backward_solve_in_place(&mut split).unwrap();
        assert_eq!(split, ch.solve(&b).unwrap());
        let mut wrong = Vector::zeros(2);
        assert!(ch.forward_solve_in_place(&mut wrong).is_err());
        assert!(ch.backward_solve_in_place(&mut wrong).is_err());
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a = spd_example();
        let ch = a.cholesky().unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 4.0]);
        let mut x = b.clone();
        ch.solve_in_place(&mut x).unwrap();
        assert_eq!(x, ch.solve(&b).unwrap());
        let mut wrong = Vector::zeros(2);
        assert!(ch.solve_in_place(&mut wrong).is_err());
    }

    #[test]
    fn shape_errors() {
        assert!(Matrix::zeros(0, 0).cholesky().is_err());
        assert!(Matrix::zeros(2, 3).cholesky().is_err());
        let ch = spd_example().cholesky().unwrap();
        assert!(ch.solve(&Vector::zeros(2)).is_err());
        assert!(ch.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }
}
