//! Generalized symmetric-definite eigendecomposition `A·t = γ·B·t`.

use crate::{CholeskyDecomposition, LinalgError, Matrix, Result, Vector};

/// Eigendecomposition of the symmetric-definite pencil `(A, B)`:
/// `A·tᵢ = γᵢ·B·tᵢ` with symmetric `A` and symmetric positive definite
/// `B`, computed by the standard reduction `B = L·Lᵀ`,
/// `M = L⁻¹·A·L⁻ᵀ = U·Γ·Uᵀ`, `T = L⁻ᵀ·U`.
///
/// The returned basis `T` simultaneously diagonalizes the pencil:
///
/// ```text
/// Tᵀ·B·T = I          Tᵀ·A·T = diag(γ)
/// ```
///
/// which turns every shifted solve `(B + λA)⁻¹·v` into a diagonal
/// rescaling `T·diag(1/(1 + λγ))·Tᵀ·v` — the factor-once/sweep-cheap
/// trick behind the λ-path GCV scan in `cellsync` (Demmler–Reinsch
/// basis of the smoothing spline).
///
/// # Example
///
/// ```
/// use cellsync_linalg::{GeneralizedSymmetricEigen, Matrix};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]])?;
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]])?;
/// let pencil = GeneralizedSymmetricEigen::new(&a, &b)?;
/// assert!((pencil.eigenvalues()[0] - 2.0).abs() < 1e-12);
/// assert!((pencil.eigenvalues()[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
///
/// [`GeneralizedSymmetricEigen::refactor`] re-decomposes into the same
/// storage, so a loop over many pencils of one size (one per weight
/// vector in a genome-wide fit) allocates nothing after the first; the
/// [`Default`] value is an empty (0 × 0) decomposition to refactor into.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GeneralizedSymmetricEigen {
    /// Generalized eigenvalues γ, sorted ascending.
    values: Vector,
    /// Columns `tᵢ`: B-orthonormal eigenvectors (`TᵀBT = I`).
    vectors: Matrix,
    /// Cholesky factor `L` of the metric `B`.
    metric: CholeskyDecomposition,
    /// Off-diagonal scratch of the tridiagonal QL phase (length n).
    work: Vec<f64>,
}

impl GeneralizedSymmetricEigen {
    /// Decomposes the pencil `(a, b)` with symmetric `a` and SPD `b`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] /
    ///   [`LinalgError::ShapeMismatch`] for bad shapes.
    /// * [`LinalgError::InvalidArgument`] for non-finite or asymmetric
    ///   input.
    /// * [`LinalgError::NotPositiveDefinite`] when `b` is not SPD.
    /// * [`LinalgError::ConvergenceFailed`] / [`LinalgError::NonFinite`]
    ///   from the symmetric eigensolver (see
    ///   [`crate::SymmetricEigen::new`]).
    pub fn new(a: &Matrix, b: &Matrix) -> Result<Self> {
        let mut pencil = GeneralizedSymmetricEigen::default();
        pencil.refactor(a, b)?;
        Ok(pencil)
    }

    /// Re-decomposes the pencil `(a, b)` into this decomposition's
    /// existing storage (no allocation when the dimension is unchanged).
    /// The result is bit-identical to [`GeneralizedSymmetricEigen::new`]:
    /// every buffer is overwritten before it is read.
    ///
    /// On error the decomposition's contents are unspecified; refactor
    /// again before reading them.
    ///
    /// # Errors
    ///
    /// Same as [`GeneralizedSymmetricEigen::new`].
    pub fn refactor(&mut self, a: &Matrix, b: &Matrix) -> Result<()> {
        if a.shape() != b.shape() {
            return Err(LinalgError::ShapeMismatch {
                left: a.shape(),
                right: b.shape(),
                op: "generalized eigendecomposition",
            });
        }
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "pencil matrix A must be finite",
            ));
        }
        let scale = a.norm_inf().max(1.0);
        if a.asymmetry()? > 1e-8 * scale {
            return Err(LinalgError::InvalidArgument(
                "pencil matrix A must be symmetric",
            ));
        }
        self.metric.refactor(b)?;
        let n = a.rows();
        let l = self.metric.factor().as_slice();

        // Whitening M = L⁻¹·A·L⁻ᵀ on flat row-major storage, in place in
        // the eigenvector buffer. First C = L⁻¹·A by row operations:
        // row i ← (row i − Σ_{k<i} L_ik · row k) / L_ii, where every row k
        // above i already holds its final value.
        self.vectors.copy_from(a);
        let m = self.vectors.as_mut_slice();
        for i in 0..n {
            let (done, rest) = m.split_at_mut(i * n);
            let row = &mut rest[..n];
            for (k, &lik) in l[i * n..i * n + i].iter().enumerate() {
                for (x, &y) in row.iter_mut().zip(&done[k * n..(k + 1) * n]) {
                    *x -= lik * y;
                }
            }
            let lii = l[i * n + i];
            for x in row.iter_mut() {
                *x /= lii;
            }
        }
        // Then M = C·L⁻ᵀ: row j of M solves L·mⱼ = cⱼ by forward
        // substitution. M is symmetric and the eigensolver reads only its
        // lower triangle, so each row stops at the diagonal.
        for (j, row) in m.chunks_exact_mut(n).enumerate() {
            for i in 0..=j {
                let li = &l[i * n..i * n + i];
                let dot: f64 = li.iter().zip(&row[..i]).map(|(a, b)| a * b).sum();
                row[i] = (row[i] - dot) / l[i * n + i];
            }
        }

        if self.values.len() != n {
            self.values = Vector::zeros(n);
        }
        self.work.resize(n, 0.0);
        crate::eigen::decompose_in_place(n, m, self.values.as_mut_slice(), &mut self.work)?;

        // Back-transform T = L⁻ᵀ·U in place, bottom row first:
        // row i ← (row i − Σ_{k>i} L_ki · row k) / L_ii.
        for i in (0..n).rev() {
            let (head, done) = m.split_at_mut((i + 1) * n);
            let row = &mut head[i * n..];
            for (k, below) in done.chunks_exact(n).enumerate() {
                let lki = l[(i + 1 + k) * n + i];
                for (x, &y) in row.iter_mut().zip(below) {
                    *x -= lki * y;
                }
            }
            let lii = l[i * n + i];
            for x in row.iter_mut() {
                *x /= lii;
            }
        }
        Ok(())
    }

    /// Generalized eigenvalues γ, sorted ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.values
    }

    /// The simultaneous-diagonalization basis `T` (columns are
    /// B-orthonormal eigenvectors, ordered like
    /// [`GeneralizedSymmetricEigen::eigenvalues`]).
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Dimension of the pencil.
    pub fn dim(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, shift: f64) -> Matrix {
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.9).sin());
        let mut g = a.gram();
        for i in 0..n {
            g[(i, i)] += shift;
        }
        g.symmetrize().unwrap();
        g
    }

    fn sym(n: usize) -> Matrix {
        let mut m = Matrix::from_fn(n, n, |i, j| ((i + 2 * j) as f64).cos());
        m.symmetrize().unwrap();
        m
    }

    #[test]
    fn identity_metric_reduces_to_symmetric_eigen() {
        let a = sym(4);
        let pencil = GeneralizedSymmetricEigen::new(&a, &Matrix::identity(4)).unwrap();
        let plain = a.symmetric_eigen().unwrap();
        for i in 0..4 {
            assert!((pencil.eigenvalues()[i] - plain.eigenvalues()[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn simultaneous_diagonalization_holds() {
        let a = sym(5);
        let b = spd(5, 3.0);
        let pencil = GeneralizedSymmetricEigen::new(&a, &b).unwrap();
        let t = pencil.vectors();
        // TᵀBT = I.
        let tbt = t.transpose().matmul(&b).unwrap().matmul(t).unwrap();
        assert!(
            (&tbt - &Matrix::identity(5)).norm_frobenius() < 1e-9,
            "TᵀBT error {}",
            (&tbt - &Matrix::identity(5)).norm_frobenius()
        );
        // TᵀAT = diag(γ).
        let tat = t.transpose().matmul(&a).unwrap().matmul(t).unwrap();
        let diag = Matrix::from_diagonal(pencil.eigenvalues());
        assert!((&tat - &diag).norm_frobenius() < 1e-9);
        // A·T = B·T·diag(γ).
        let at = a.matmul(t).unwrap();
        let btd = b.matmul(t).unwrap().matmul(&diag).unwrap();
        assert!((&at - &btd).norm_frobenius() < 1e-9);
    }

    #[test]
    fn shifted_inverse_via_pencil() {
        // (B + λA)⁻¹ v == T·diag(1/(1+λγ))·Tᵀ·v for an SPD-shifted pencil.
        let a = spd(4, 0.5); // PSD penalty stand-in
        let b = spd(4, 2.0);
        let lambda = 0.37;
        let pencil = GeneralizedSymmetricEigen::new(&a, &b).unwrap();
        let t = pencil.vectors();
        let v = Vector::from_slice(&[1.0, -2.0, 0.5, 3.0]);
        let shifted = &b + &a.scaled(lambda);
        let direct = shifted.cholesky().unwrap().solve(&v).unwrap();
        let z = t.tr_matvec(&v).unwrap();
        let d = Vector::from_fn(4, |i| z[i] / (1.0 + lambda * pencil.eigenvalues()[i]));
        let via_pencil = t.matvec(&d).unwrap();
        assert!((&direct - &via_pencil).norm2() < 1e-9);
    }

    #[test]
    fn eigenvalues_sorted_ascending() {
        let pencil = GeneralizedSymmetricEigen::new(&sym(6), &spd(6, 4.0)).unwrap();
        for w in pencil.eigenvalues().as_slice().windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(pencil.dim(), 6);
    }

    #[test]
    fn refactor_is_bit_identical_to_new_across_sizes() {
        // The in-place path reuses storage left by a larger and a smaller
        // pencil; every buffer must be overwritten before it is read.
        let mut reused = GeneralizedSymmetricEigen::new(&sym(7), &spd(7, 1.0)).unwrap();
        for &(n, shift) in &[(5, 3.0), (2, 0.5), (6, 4.0), (5, 3.0)] {
            reused.refactor(&sym(n), &spd(n, shift)).unwrap();
            let fresh = GeneralizedSymmetricEigen::new(&sym(n), &spd(n, shift)).unwrap();
            assert_eq!(reused, fresh, "n = {n}");
        }
        // A failed refactor leaves storage that the next one overwrites.
        assert!(reused.refactor(&sym(3), &Matrix::zeros(3, 3)).is_err());
        reused.refactor(&sym(4), &spd(4, 2.0)).unwrap();
        assert_eq!(
            reused,
            GeneralizedSymmetricEigen::new(&sym(4), &spd(4, 2.0)).unwrap()
        );
    }

    #[test]
    fn input_validation() {
        let a = sym(3);
        // Shape mismatch.
        assert!(GeneralizedSymmetricEigen::new(&a, &Matrix::identity(4)).is_err());
        // Non-SPD metric.
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(GeneralizedSymmetricEigen::new(&sym(2), &indef).is_err());
        // Asymmetric A.
        let asym = Matrix::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]).unwrap();
        assert!(GeneralizedSymmetricEigen::new(&asym, &Matrix::identity(2)).is_err());
        // Non-finite A.
        let nan = Matrix::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]).unwrap();
        assert!(GeneralizedSymmetricEigen::new(&nan, &Matrix::identity(2)).is_err());
    }
}
