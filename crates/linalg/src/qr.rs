//! Householder QR decomposition and least squares.

use crate::{LinalgError, Matrix, Result, Vector};

/// Householder QR decomposition `A = Q·R` of an `m × n` matrix (`m ≥ n` or
/// `m < n` both supported; the full square `Q` is formed explicitly).
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// // Overdetermined least squares: best line through three points.
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]])?;
/// let y = Vector::from_slice(&[0.1, 1.0, 2.1]);
/// let beta = a.qr()?.solve_least_squares(&y)?;
/// assert!((beta[1] - 1.0).abs() < 0.05); // slope ≈ 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QrDecomposition {
    /// Orthogonal factor, `m × m`.
    q: Matrix,
    /// Upper-trapezoidal factor, `m × n`.
    r: Matrix,
}

impl QrDecomposition {
    /// Factors `a` using Householder reflections.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] for an empty matrix.
    /// * [`LinalgError::InvalidArgument`] for non-finite entries.
    pub fn new(a: &Matrix) -> Result<Self> {
        let mut decomposition = QrDecomposition {
            q: Matrix::zeros(0, 0),
            r: Matrix::zeros(0, 0),
        };
        decomposition.refactor(a)?;
        Ok(decomposition)
    }

    /// Re-factors `a` into this decomposition's existing `Q`/`R` storage —
    /// the path for workspaces that factor same-shaped matrices
    /// repeatedly. A column-major copy of `a` and two short vectors (the
    /// reflector scales and one column of `Q`) are its only allocations.
    ///
    /// On error the factors are unspecified; refactor again before use.
    ///
    /// # Errors
    ///
    /// Same as [`QrDecomposition::new`].
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        if a.is_empty() {
            return Err(LinalgError::Empty);
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "matrix entries must be finite",
            ));
        }
        let (m, n) = a.shape();
        let mut packed: Vec<f64> = (0..m * n).map(|x| a[(x % m, x / m)]).collect();
        let mut tau = vec![0.0; n.min(m)];
        let reflectors = QrDecomposition::factor_in_place(&mut packed, m, n, &mut tau);
        self.r.reset_zeroed(m, n);
        for j in 0..n {
            for i in 0..=j.min(m - 1) {
                self.r[(i, j)] = packed[j * m + i];
            }
        }
        // Q = H₀⋯H_{p−1}, column by column.
        self.q.reset_zeroed(m, m);
        let mut column = vec![0.0; m];
        for j in 0..m {
            column.fill(0.0);
            column[j] = 1.0;
            QrDecomposition::apply_q_in_place(&packed, &tau[..reflectors], &mut column);
            for (i, &v) in column.iter().enumerate() {
                self.q[(i, j)] = v;
            }
        }
        Ok(())
    }

    /// Householder QR of the first `factored` columns of the column-major
    /// `rows × width` matrix `a` (column `j` at `a[j·rows..(j + 1)·rows]`,
    /// `width = a.len() / rows`), in place and without allocating. Each
    /// reflector is applied to all `width` columns, so trailing columns
    /// come out as `Qᵀ` times themselves. Returns the reflector count
    /// `p = min(factored, rows − 1)`. On return the upper triangle of the
    /// first `factored` columns holds `R`; below its diagonal, column `k`
    /// holds the Householder vector `vₖ` (its leading unit entry implied)
    /// and `tau[k]` its scale, so that `Hₖ = I − τₖvₖvₖᵀ` and
    /// `Q = H₀⋯H_{p−1}`. `tau` needs at least `p` entries.
    pub fn factor_in_place(a: &mut [f64], rows: usize, factored: usize, tau: &mut [f64]) -> usize {
        let reflectors = factored.min(rows.saturating_sub(1));
        for k in 0..reflectors {
            let (done, rest) = a.split_at_mut((k + 1) * rows);
            let column = &mut done[k * rows..];
            let norm = crate::dot(&column[k..], &column[k..]).sqrt();
            if norm == 0.0 {
                tau[k] = 0.0; // column already zero below the diagonal
                continue;
            }
            let head = column[k];
            let alpha = if head > 0.0 { -norm } else { norm };
            // v = (head − α, a[k+1.., k]) scaled to a unit head; with
            // vᵀv = −2α(head − α), H = I − 2vvᵀ/(vᵀv) has τ = (α − head)/α.
            let v0 = head - alpha;
            for x in &mut column[k + 1..] {
                *x /= v0;
            }
            tau[k] = -v0 / alpha;
            column[k] = alpha;
            let v = &column[k + 1..];
            for cj in rest.chunks_exact_mut(rows) {
                reflect_with(v, k, tau[k], cj);
            }
        }
        reflectors
    }

    /// `x ← Qᵀx` for the reflectors of [`QrDecomposition::factor_in_place`]
    /// (`a` with `x.len()` rows, one reflector per entry of `tau`).
    pub fn apply_qt_in_place(a: &[f64], tau: &[f64], x: &mut [f64]) {
        let rows = x.len();
        for (k, &t) in tau.iter().enumerate() {
            reflect_with(&a[k * rows + k + 1..(k + 1) * rows], k, t, x);
        }
    }

    /// `x ← Q·x` for the reflectors of [`QrDecomposition::factor_in_place`]
    /// (the inverse of [`QrDecomposition::apply_qt_in_place`]).
    pub fn apply_q_in_place(a: &[f64], tau: &[f64], x: &mut [f64]) {
        let rows = x.len();
        for (k, &t) in tau.iter().enumerate().rev() {
            reflect_with(&a[k * rows + k + 1..(k + 1) * rows], k, t, x);
        }
    }

    /// The full orthogonal factor `Q` (`m × m`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-trapezoidal factor `R` (`m × n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Solves the least-squares problem `min ‖A·x − b‖₂` for full-column-rank
    /// `A` (`m ≥ n`).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `b.len() != m`.
    /// * [`LinalgError::Singular`] when `R` is rank deficient.
    /// * [`LinalgError::InvalidArgument`] when `m < n`.
    pub fn solve_least_squares(&self, b: &Vector) -> Result<Vector> {
        let m = self.r.rows();
        let n = self.r.cols();
        if m < n {
            return Err(LinalgError::InvalidArgument(
                "least squares requires rows >= cols",
            ));
        }
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                left: (m, n),
                right: (b.len(), 1),
                op: "qr solve_least_squares",
            });
        }
        // x = R₁⁻¹ (Qᵀb)₁..n
        let qtb = self.q.tr_matvec(b)?;
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut sum = qtb[i];
            for j in (i + 1)..n {
                sum -= self.r[(i, j)] * x[j];
            }
            let rii = self.r[(i, i)];
            if rii.abs() < 1e-300 {
                return Err(LinalgError::Singular);
            }
            x[i] = sum / rii;
        }
        Ok(x)
    }
}

/// `x ← Hₖx = x − τₖvₖ(vₖᵀx)`, with `vₖ = (0, …, 0, 1, v)` (the unit at
/// entry `k`).
fn reflect_with(v: &[f64], k: usize, tau: f64, x: &mut [f64]) {
    let (head, tail) = x[k..].split_at_mut(1);
    let dot = head[0] + crate::dot(v, tail);
    let f = tau * dot;
    head[0] -= f;
    for (x, &vi) in tail.iter_mut().zip(v) {
        *x -= f * vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orthogonality_error(q: &Matrix) -> f64 {
        let qtq = q.transpose().matmul(q).unwrap();
        (&qtq - &Matrix::identity(q.rows())).norm_frobenius()
    }

    #[test]
    fn reconstruction_square() {
        let a = Matrix::from_rows(&[
            &[12.0, -51.0, 4.0],
            &[6.0, 167.0, -68.0],
            &[-4.0, 24.0, -41.0],
        ])
        .unwrap();
        let qr = a.qr().unwrap();
        assert!(orthogonality_error(qr.q()) < 1e-12);
        let recon = qr.q().matmul(qr.r()).unwrap();
        assert!((&recon - &a).norm_frobenius() < 1e-11);
        // R upper triangular
        for i in 1..3 {
            for j in 0..i {
                assert!(qr.r()[(i, j)].abs() < 1e-11);
            }
        }
    }

    #[test]
    fn reconstruction_tall() {
        let a = Matrix::from_fn(5, 3, |i, j| {
            ((i * 3 + j) as f64).sin() + 2.0 * (i == j) as u8 as f64
        });
        let qr = a.qr().unwrap();
        assert!(orthogonality_error(qr.q()) < 1e-12);
        let recon = qr.q().matmul(qr.r()).unwrap();
        assert!((&recon - &a).norm_frobenius() < 1e-12);
    }

    #[test]
    fn least_squares_matches_normal_equations() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = Vector::from_slice(&[1.0, 2.9, 5.1, 7.0]);
        let x = a.qr().unwrap().solve_least_squares(&b).unwrap();
        // Normal equations solution
        let g = a.gram();
        let rhs = a.tr_matvec(&b).unwrap();
        let x2 = g.cholesky().unwrap().solve(&rhs).unwrap();
        assert!((&x - &x2).norm2() < 1e-10);
    }

    #[test]
    fn underdetermined_solve_errors() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]).unwrap();
        let qr = a.qr().unwrap();
        assert!(qr.solve_least_squares(&Vector::zeros(1)).is_err());
    }

    #[test]
    fn input_validation() {
        assert!(Matrix::zeros(0, 0).qr().is_err());
        let mut a = Matrix::identity(2);
        a[(0, 0)] = f64::NAN;
        assert!(a.qr().is_err());
    }

    #[test]
    fn refactor_matches_fresh_factorization() {
        let a = Matrix::from_fn(5, 3, |i, j| {
            ((i * 3 + j) as f64).sin() + (i == j) as u8 as f64
        });
        let b = Matrix::from_fn(4, 4, |i, j| ((i + 2 * j) as f64).cos());
        let mut qr = a.qr().unwrap();
        qr.refactor(&b).unwrap();
        let fresh = b.qr().unwrap();
        assert_eq!(qr.q(), fresh.q());
        assert_eq!(qr.r(), fresh.r());
        // And back to the original shape.
        qr.refactor(&a).unwrap();
        let fresh = a.qr().unwrap();
        assert_eq!(qr.q(), fresh.q());
        assert_eq!(qr.r(), fresh.r());
    }

    #[test]
    fn least_squares_shape_mismatch() {
        let a = Matrix::from_fn(4, 2, |i, j| (i + j) as f64 + 1.0);
        let qr = a.qr().unwrap();
        assert!(qr.solve_least_squares(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn in_place_factor_carries_trailing_columns_and_inverts() {
        // Factoring the first 4 of 6 columns leaves R over them and Qᵀ
        // applied to the other 2; Q and Qᵀ are inverses.
        let a = Matrix::from_fn(7, 6, |i, j| {
            ((i * 5 + j * 3) % 11) as f64 - 4.0 + 0.1 * j as f64
        });
        let mut packed: Vec<f64> = (0..42).map(|x| a[(x % 7, x / 7)]).collect();
        let mut tau = vec![0.0; 4];
        let p = QrDecomposition::factor_in_place(&mut packed, 7, 4, &mut tau);
        assert_eq!(p, 4);
        let mut q = Matrix::zeros(7, 7);
        for j in 0..7 {
            let mut e = vec![0.0; 7];
            e[j] = 1.0;
            QrDecomposition::apply_q_in_place(&packed, &tau, &mut e);
            for (i, v) in e.iter().enumerate() {
                q[(i, j)] = *v;
            }
        }
        assert!(orthogonality_error(&q) < 1e-13);
        let qta = q.transpose().matmul(&a).unwrap();
        for i in 0..7 {
            for j in 0..6 {
                let expected = if j < 4 && i > j {
                    0.0
                } else {
                    packed[j * 7 + i]
                };
                assert!((qta[(i, j)] - expected).abs() < 1e-12, "({i}, {j})");
            }
        }
        let x: Vec<f64> = (0..7).map(|i| (i as f64).sin()).collect();
        let mut y = x.clone();
        QrDecomposition::apply_qt_in_place(&packed, &tau, &mut y);
        QrDecomposition::apply_q_in_place(&packed, &tau, &mut y);
        for (u, v) in x.iter().zip(&y) {
            assert!((u - v).abs() < 1e-14);
        }
    }
}
