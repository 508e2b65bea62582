//! LU decomposition with partial pivoting.

use crate::{LinalgError, Matrix, Result, Vector};

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// Used for general square solves — notably the KKT systems of the
/// active-set QP and matrix inverses inside GCV influence computations.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&Vector::from_slice(&[2.0, 2.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LuDecomposition {
    /// Packed LU factors: unit-lower-triangular L below the diagonal, U on
    /// and above it.
    lu: Matrix,
    /// Row swaps: step `k` of the factorization swapped rows `k` and
    /// `pivots[k]`.
    pivots: Vec<usize>,
    /// Sign of the permutation (`+1.0` or `-1.0`), used for determinants.
    perm_sign: f64,
}

impl LuDecomposition {
    /// Factors a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::Empty`] for a 0×0 matrix.
    /// * [`LinalgError::Singular`] when a pivot is exactly zero.
    /// * [`LinalgError::InvalidArgument`] when entries are not finite.
    pub fn new(a: &Matrix) -> Result<Self> {
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
        let n = a.rows();
        let mut lu = a.clone();
        let mut pivots = vec![0; n];
        LuDecomposition::factor_in_place(lu.as_mut_slice(), n, &mut pivots)?;
        let swaps = pivots.iter().enumerate().filter(|&(k, &p)| p != k).count();
        let perm_sign = if swaps % 2 == 0 { 1.0 } else { -1.0 };
        Ok(LuDecomposition {
            lu,
            pivots,
            perm_sign,
        })
    }

    /// Factors the row-major `n × n` matrix `a` in place, without
    /// allocating: on success `a` holds the packed factors (unit-lower L
    /// below the diagonal, U on and above it) and step `k` swapped rows
    /// `k` and `pivots[k]` (length `n`). The form a loop over many small
    /// systems of one size wants; [`LuDecomposition::solve_in_place`]
    /// solves with the result.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Singular`] when a pivot is exactly zero,
    /// [`LinalgError::NonFinite`] when one is not finite; `a` is then
    /// partly factored.
    pub fn factor_in_place(a: &mut [f64], n: usize, pivots: &mut [usize]) -> Result<()> {
        for k in 0..n {
            // Partial pivoting: bring the largest |entry| in column k to row k.
            let mut pivot_row = k;
            let mut pivot_val = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 {
                return Err(LinalgError::Singular);
            }
            if !pivot_val.is_finite() {
                return Err(LinalgError::NonFinite { op: "lu factor" });
            }
            pivots[k] = pivot_row;
            if pivot_row != k {
                for j in 0..n {
                    a.swap(k * n + j, pivot_row * n + j);
                }
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                a[i * n + k] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        a[i * n + j] -= factor * a[k * n + j];
                    }
                }
            }
        }
        Ok(())
    }

    /// Solves `A·x = b` in place (`x` holds `b` on entry) from the
    /// factors and pivots of [`LuDecomposition::factor_in_place`].
    pub fn solve_in_place(a: &[f64], n: usize, pivots: &[usize], x: &mut [f64]) {
        for (k, &p) in pivots.iter().enumerate().take(n) {
            x.swap(k, p);
        }
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= a[i * n + j] * x[j];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= a[i * n + j] * x[j];
            }
            x[i] = sum / a[i * n + i];
        }
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
                op: "lu solve",
            });
        }
        let mut x = b.clone();
        LuDecomposition::solve_in_place(self.lu.as_slice(), n, &self.pivots, x.as_mut_slice());
        Ok(x)
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
                op: "lu solve_matrix",
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

    /// Determinant of the original matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu[(i, i)];
        }
        det
    }

    /// Inverse of the original matrix.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (none expected after successful
    /// factorization).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let b = Vector::from_slice(&[5.0, -2.0, 9.0]);
        let x = a.lu().unwrap().solve(&b).unwrap();
        let r = &a.matvec(&x).unwrap() - &b;
        assert!(r.norm2() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a
            .lu()
            .unwrap()
            .solve(&Vector::from_slice(&[2.0, 3.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }

    #[test]
    fn determinant_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert!((a.lu().unwrap().determinant() - (-2.0)).abs() < 1e-14);
        let b = Matrix::identity(4);
        assert!((b.lu().unwrap().determinant() - 1.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        let err = (&prod - &Matrix::identity(2)).norm_frobenius();
        assert!(err < 1e-13);
    }

    #[test]
    fn rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(a.lu().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn rejects_rectangular_and_empty_and_nan() {
        assert!(matches!(
            Matrix::zeros(2, 3).lu().unwrap_err(),
            LinalgError::NotSquare { .. }
        ));
        assert_eq!(Matrix::zeros(0, 0).lu().unwrap_err(), LinalgError::Empty);
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            a.lu().unwrap_err(),
            LinalgError::InvalidArgument(_)
        ));
    }

    #[test]
    fn solve_matrix_identity_gives_inverse() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let lu = a.lu().unwrap();
        let inv1 = lu.inverse().unwrap();
        let inv2 = lu.solve_matrix(&Matrix::identity(2)).unwrap();
        assert_eq!(inv1, inv2);
        assert!(lu.solve_matrix(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn in_place_factor_and_solve_match_the_decomposition() {
        let a =
            Matrix::from_rows(&[&[0.0, 2.0, 1.0], &[1.0, 1.0, -3.0], &[4.0, -1.0, 2.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let mut packed = a.as_slice().to_vec();
        let mut pivots = vec![0; 3];
        LuDecomposition::factor_in_place(&mut packed, 3, &mut pivots).unwrap();
        let mut x = b.as_slice().to_vec();
        LuDecomposition::solve_in_place(&packed, 3, &pivots, &mut x);
        assert_eq!(x.as_slice(), a.lu().unwrap().solve(&b).unwrap().as_slice());
        let mut singular = vec![1.0, 2.0, 2.0, 4.0];
        assert_eq!(
            LuDecomposition::factor_in_place(&mut singular, 2, &mut [0; 2]),
            Err(LinalgError::Singular)
        );
    }
}
