//! Tridiagonal systems via the Thomas algorithm.

use crate::{LinalgError, Result, Vector};

/// A tridiagonal system solved with the Thomas algorithm in `O(n)`.
///
/// Natural cubic spline interpolation reduces to a tridiagonal solve for the
/// second derivatives at the knots; this type is the `cellsync-spline`
/// workhorse.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Tridiagonal, Vector};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// // [2 1 0; 1 2 1; 0 1 2] x = [4; 8; 8]  →  x = [1; 2; 3]
/// let t = Tridiagonal::new(
///     vec![1.0, 1.0],
///     vec![2.0, 2.0, 2.0],
///     vec![1.0, 1.0],
/// )?;
/// let x = t.solve(&Vector::from_slice(&[4.0, 8.0, 8.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// assert!((x[2] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tridiagonal {
    /// Subdiagonal (length `n − 1`).
    lower: Vec<f64>,
    /// Main diagonal (length `n`).
    diag: Vec<f64>,
    /// Superdiagonal (length `n − 1`).
    upper: Vec<f64>,
}

impl Tridiagonal {
    /// Creates a tridiagonal system from its three bands.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] when `diag` is empty.
    /// * [`LinalgError::ShapeMismatch`] when band lengths are inconsistent.
    /// * [`LinalgError::InvalidArgument`] for non-finite band entries.
    pub fn new(lower: Vec<f64>, diag: Vec<f64>, upper: Vec<f64>) -> Result<Self> {
        let n = diag.len();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if lower.len() != n - 1 || upper.len() != n - 1 {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (lower.len(), upper.len()),
                op: "tridiagonal bands",
            });
        }
        if lower
            .iter()
            .chain(&diag)
            .chain(&upper)
            .any(|x| !x.is_finite())
        {
            return Err(LinalgError::InvalidArgument("band entries must be finite"));
        }
        Ok(Tridiagonal { lower, diag, upper })
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }

    /// Solves the system for the right-hand side `b` with the Thomas
    /// algorithm (no pivoting; intended for diagonally dominant systems such
    /// as spline moment equations).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `b.len() != dim()`.
    /// * [`LinalgError::Singular`] when elimination hits a zero pivot.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
                op: "tridiagonal solve",
            });
        }
        let mut c_star = vec![0.0; n];
        let mut d_star = vec![0.0; n];
        if self.diag[0] == 0.0 {
            return Err(LinalgError::Singular);
        }
        c_star[0] = if n > 1 {
            self.upper[0] / self.diag[0]
        } else {
            0.0
        };
        d_star[0] = b[0] / self.diag[0];
        for i in 1..n {
            let m = self.diag[i] - self.lower[i - 1] * c_star[i - 1];
            if m == 0.0 || !m.is_finite() {
                return Err(LinalgError::Singular);
            }
            if i < n - 1 {
                c_star[i] = self.upper[i] / m;
            }
            d_star[i] = (b[i] - self.lower[i - 1] * d_star[i - 1]) / m;
        }
        let mut x = Vector::zeros(n);
        x[n - 1] = d_star[n - 1];
        for i in (0..n - 1).rev() {
            x[i] = d_star[i] - c_star[i] * x[i + 1];
        }
        Ok(x)
    }

    /// Matrix–vector product with the tridiagonal operator.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != dim()`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        let n = self.dim();
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (x.len(), 1),
                op: "tridiagonal matvec",
            });
        }
        Ok(Vector::from_fn(n, |i| {
            let mut s = self.diag[i] * x[i];
            if i > 0 {
                s += self.lower[i - 1] * x[i - 1];
            }
            if i + 1 < n {
                s += self.upper[i] * x[i + 1];
            }
            s
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    #[test]
    fn solves_known_system() {
        let t = Tridiagonal::new(vec![1.0, 1.0], vec![2.0, 2.0, 2.0], vec![1.0, 1.0]).unwrap();
        let b = Vector::from_slice(&[4.0, 8.0, 8.0]);
        let x = t.solve(&b).unwrap();
        let r = &t.matvec(&x).unwrap() - &b;
        assert!(r.norm2() < 1e-12);
    }

    #[test]
    fn matches_dense_lu() {
        let t = Tridiagonal::new(
            vec![-1.0, -1.0, -1.0],
            vec![4.0, 4.0, 4.0, 4.0],
            vec![-1.0, -1.0, -1.0],
        )
        .unwrap();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let x_tri = t.solve(&b).unwrap();
        let dense = Matrix::from_fn(4, 4, |i, j| match i.abs_diff(j) {
            0 => 4.0,
            1 => -1.0,
            _ => 0.0,
        });
        let x_lu = dense.lu().unwrap().solve(&b).unwrap();
        assert!((&x_tri - &x_lu).norm2() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let t = Tridiagonal::new(vec![], vec![5.0], vec![]).unwrap();
        let x = t.solve(&Vector::from_slice(&[10.0])).unwrap();
        assert_eq!(x.as_slice(), &[2.0]);
    }

    #[test]
    fn rejects_bad_bands() {
        assert!(Tridiagonal::new(vec![], vec![], vec![]).is_err());
        assert!(Tridiagonal::new(vec![1.0], vec![1.0], vec![]).is_err());
        assert!(Tridiagonal::new(vec![], vec![f64::NAN], vec![]).is_err());
    }

    #[test]
    fn detects_singular() {
        let t = Tridiagonal::new(vec![0.0], vec![0.0, 1.0], vec![0.0]).unwrap();
        assert_eq!(
            t.solve(&Vector::from_slice(&[1.0, 1.0])).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn shape_mismatch() {
        let t = Tridiagonal::new(vec![1.0], vec![2.0, 2.0], vec![1.0]).unwrap();
        assert!(t.solve(&Vector::zeros(3)).is_err());
        assert!(t.matvec(&Vector::zeros(3)).is_err());
    }
}
