//! Row-major dense matrices of `f64`.

use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::kernels;
use crate::{
    CholeskyDecomposition, LinalgError, LuDecomposition, QrDecomposition, Result, SymmetricEigen,
    Vector,
};

/// A dense, row-major matrix of `f64` values.
///
/// The deconvolution pipeline manipulates design matrices `A[m,i] =
/// ∫Q(φ,t_m)ψ_i(φ)dφ`, spline Gram matrices, and QP Hessians — all dense and
/// modest in size (tens to a few hundred rows), so a straightforward
/// row-major layout with `O(n³)` factorizations is the right tool.
///
/// # Example
///
/// ```
/// use cellsync_linalg::Matrix;
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let b = a.matmul(&a)?;
/// assert_eq!(b, Matrix::identity(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates an `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diagonal(diag: &Vector) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = diag[i];
        }
        m
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for zero rows and
    /// [`LinalgError::InvalidArgument`] for ragged rows.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(LinalgError::InvalidArgument(
                "all rows must have the same length",
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(i, j)` for every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row-major packed data.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] when `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidArgument(
                "data length must equal rows * cols",
            ));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Whether the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A borrowed view of the packed row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// A mutable view of the packed row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `j >= cols`.
    pub fn col(&self, j: usize) -> Vector {
        assert!(j < self.cols, "column index out of bounds");
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Replaces row `i` with the contents of `row`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `row.len() != cols`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows`.
    pub fn set_row(&mut self, i: usize, row: &[f64]) -> Result<()> {
        assert!(i < self.rows, "row index out of bounds");
        if row.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: (1, self.cols),
                right: (1, row.len()),
                op: "set_row",
            });
        }
        self.data[i * self.cols..(i + 1) * self.cols].copy_from_slice(row);
        Ok(())
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix–matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // ikj loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in out_row.iter_mut().zip(rhs_row.iter()) {
                    *o += aik * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != cols`.
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        if self.cols != x.len() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (x.len(), 1),
                op: "matvec",
            });
        }
        Ok(Vector::from_fn(self.rows, |i| {
            self.row(i)
                .iter()
                .zip(x.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>()
        }))
    }

    /// Transposed matrix–vector product `selfᵀ * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != rows`.
    pub fn tr_matvec(&self, x: &Vector) -> Result<Vector> {
        if self.rows != x.len() {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (x.len(), 1),
                op: "tr_matvec",
            });
        }
        let mut out = Vector::zeros(self.cols);
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for j in 0..self.cols {
                out[j] += self[(i, j)] * xi;
            }
        }
        Ok(out)
    }

    /// Gram product `selfᵀ * self`, always symmetric positive semidefinite.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        self.gram_into(&mut out).expect("freshly sized buffer");
        out
    }

    /// Writes the Gram product `selfᵀ * self` into `out` without
    /// allocating. `out` is fully overwritten; its previous contents are
    /// irrelevant.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `out` is not
    /// `cols × cols`.
    pub fn gram_into(&self, out: &mut Matrix) -> Result<()> {
        if out.shape() != (self.cols, self.cols) {
            return Err(LinalgError::ShapeMismatch {
                left: (self.cols, self.cols),
                right: out.shape(),
                op: "gram_into",
            });
        }
        out.data.fill(0.0);
        self.syrk_upper(None, out);
        out.mirror_upper_in_place();
        Ok(())
    }

    /// Writes the weighted Gram product `selfᵀ·W²·self` (with
    /// `W = diag(weights)`) into `out` without allocating — the normal
    /// matrix `AᵀW²A` of a weighted least-squares fit, assembled directly
    /// from the unweighted design so the weighted design `W·A` never needs
    /// to be materialized.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `weights.len() != rows`
    /// or `out` is not `cols × cols`.
    pub fn weighted_gram_into(&self, weights: &[f64], out: &mut Matrix) -> Result<()> {
        if weights.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, 1),
                right: (weights.len(), 1),
                op: "weighted_gram_into",
            });
        }
        if out.shape() != (self.cols, self.cols) {
            return Err(LinalgError::ShapeMismatch {
                left: (self.cols, self.cols),
                right: out.shape(),
                op: "weighted_gram_into",
            });
        }
        out.data.fill(0.0);
        self.syrk_upper(Some(weights), out);
        out.mirror_upper_in_place();
        Ok(())
    }

    /// The shared `syrk`-style core of [`Matrix::gram_into`] and
    /// [`Matrix::weighted_gram_into`]: accumulates
    /// `Σᵢ cᵢ·rowᵢᵀ·rowᵢ` (with `cᵢ = wᵢ²` or `1`) into the **upper**
    /// triangle of `out`, consuming rows in rank-4 panels so each pass
    /// over the output tile folds in four rank-one updates — four row
    /// loads per cache line of `out` instead of one, with fully
    /// contiguous inner loops. Rows are accumulated in ascending order
    /// inside each output element, and a panel containing a
    /// zero-coefficient row degrades to the scalar per-row loop (whose
    /// `cᵢ = 0` skip masks that row entirely, non-finite entries
    /// included), so results are bit-for-bit those of the scalar
    /// rank-one recurrence for every finite contributing row.
    fn syrk_upper(&self, weights: Option<&[f64]>, out: &mut Matrix) {
        let n = self.cols;
        let w2 = |i: usize| weights.map_or(1.0, |w| w[i] * w[i]);
        let mut i = 0;
        while i + 4 <= self.rows {
            let (c0, c1, c2, c3) = (w2(i), w2(i + 1), w2(i + 2), w2(i + 3));
            if c0 == 0.0 || c1 == 0.0 || c2 == 0.0 || c3 == 0.0 {
                // Zero-weight rows must be masked, not multiplied
                // (0·∞ = NaN): take the scalar path for this panel.
                for k in i..i + 4 {
                    self.syrk_upper_row(k, w2(k), out);
                }
                i += 4;
                continue;
            }
            let (r0, r1, r2, r3) = (
                &self.data[i * n..(i + 1) * n],
                &self.data[(i + 1) * n..(i + 2) * n],
                &self.data[(i + 2) * n..(i + 3) * n],
                &self.data[(i + 3) * n..(i + 4) * n],
            );
            for a in 0..n {
                let coeffs = [c0 * r0[a], c1 * r1[a], c2 * r2[a], c3 * r3[a]];
                let orow = &mut out.data[a * n + a..(a + 1) * n];
                // Ascending-row addition order inside each element — see
                // the doc comment.
                kernels::panel4(orow, coeffs, &r0[a..], &r1[a..], &r2[a..], &r3[a..]);
            }
            i += 4;
        }
        while i < self.rows {
            self.syrk_upper_row(i, w2(i), out);
            i += 1;
        }
    }

    /// One scalar rank-one update of [`Matrix::syrk_upper`]: folds
    /// `cᵢ·rowᵢᵀ·rowᵢ` into the upper triangle, skipping zero-weight
    /// rows and zero left-factors exactly like the pre-blocking loop
    /// did.
    fn syrk_upper_row(&self, i: usize, ci: f64, out: &mut Matrix) {
        if ci == 0.0 {
            return;
        }
        let n = self.cols;
        let row = &self.data[i * n..(i + 1) * n];
        for a in 0..n {
            let ra = ci * row[a];
            if ra == 0.0 {
                continue;
            }
            let orow = &mut out.data[a * n + a..(a + 1) * n];
            for (o, &rb) in orow.iter_mut().zip(&row[a..]) {
                *o += ra * rb;
            }
        }
    }

    /// Mirrors the upper triangle of a square buffer onto the lower one.
    fn mirror_upper_in_place(&mut self) {
        for a in 0..self.rows {
            for b in 0..a {
                self.data[a * self.cols + b] = self.data[b * self.cols + a];
            }
        }
    }

    /// Writes `self * x` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != cols` or
    /// `out.len() != rows`.
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) -> Result<()> {
        if self.cols != x.len() || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (x.len(), 1),
                op: "matvec_into",
            });
        }
        let xs = x.as_slice();
        for (i, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = self.row(i).iter().zip(xs).map(|(a, b)| a * b).sum::<f64>();
        }
        Ok(())
    }

    /// Writes `selfᵀ * x` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != rows` or
    /// `out.len() != cols`.
    pub fn tr_matvec_into(&self, x: &Vector, out: &mut Vector) -> Result<()> {
        if self.rows != x.len() || out.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: self.shape(),
                right: (x.len(), 1),
                op: "tr_matvec_into",
            });
        }
        out.as_mut_slice().fill(0.0);
        let os = out.as_mut_slice();
        for i in 0..self.rows {
            let xi = x[i];
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in os.iter_mut().zip(self.row(i)) {
                *o += a * xi;
            }
        }
        Ok(())
    }

    /// Overwrites `self` with a copy of `src`, reusing the existing
    /// storage when it is large enough (no allocation on the steady-state
    /// path of a workspace that re-factors same-shaped matrices).
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Reshapes `self` to `rows × cols`, zeroing every entry and reusing
    /// the existing storage when possible.
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|x| x * factor).collect(),
        }
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        Vector::from_slice(&self.data).norm2()
    }

    /// Maximum absolute row sum (operator infinity norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute asymmetry `max |A_ij - A_ji|`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn asymmetry(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }

    /// Symmetrizes in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn symmetrize(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
        Ok(())
    }

    /// LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::NotSquare`] and [`LinalgError::Singular`].
    pub fn lu(&self) -> Result<LuDecomposition> {
        LuDecomposition::new(self)
    }

    /// Cholesky decomposition (`self` must be symmetric positive definite).
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::NotPositiveDefinite`].
    pub fn cholesky(&self) -> Result<CholeskyDecomposition> {
        CholeskyDecomposition::new(self)
    }

    /// Householder QR decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty matrix.
    pub fn qr(&self) -> Result<QrDecomposition> {
        QrDecomposition::new(self)
    }

    /// Eigendecomposition of a symmetric matrix (see [`SymmetricEigen`]).
    ///
    /// # Errors
    ///
    /// Propagates [`LinalgError::NotSquare`],
    /// [`LinalgError::ConvergenceFailed`] and [`LinalgError::NonFinite`].
    pub fn symmetric_eigen(&self) -> Result<SymmetricEigen> {
        SymmetricEigen::new(self)
    }

    /// Solves `self * x = b` via LU decomposition.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors.
    pub fn solve(&self, b: &Vector) -> Result<Vector> {
        self.lu()?.solve(b)
    }

    /// Matrix inverse via LU decomposition.
    ///
    /// # Errors
    ///
    /// Propagates factorization errors.
    pub fn inverse(&self) -> Result<Matrix> {
        self.lu()?.inverse()
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(i < self.rows && j < self.cols, "matrix index out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics when the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] + rhs[(i, j)])
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics when the shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |i, j| self[(i, j)] - rhs[(i, j)])
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scaled(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn construction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m[(1, 0)], 3.0);
        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn identity_and_diagonal() {
        let i3 = Matrix::identity(3);
        assert_eq!((0..3).map(|i| i3[(i, i)]).sum::<f64>(), 3.0);
        let d = Matrix::from_diagonal(&Vector::from_slice(&[1.0, 2.0]));
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
        assert!(a.matmul(&Matrix::zeros(3, 2)).is_err());
    }

    #[test]
    fn matvec_and_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let x = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(a.matvec(&x).unwrap().as_slice(), &[-2.0, -2.0]);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at[(2, 1)], 6.0);
        let y = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(
            a.tr_matvec(&y).unwrap().as_slice(),
            at.matvec(&y).unwrap().as_slice()
        );
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let g = a.gram();
        let expect = a.transpose().matmul(&a).unwrap();
        assert_eq!(g, expect);
        assert_eq!(g.asymmetry().unwrap(), 0.0);
    }

    #[test]
    fn norms_and_trace() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.norm_frobenius(), 5.0);
        assert_eq!(m.norm_inf(), 4.0);
        assert_eq!(m[(0, 0)] + m[(1, 1)], 7.0);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[4.0, 3.0]]).unwrap();
        assert!(m.asymmetry().unwrap() > 0.0);
        m.symmetrize().unwrap();
        assert_eq!(m.asymmetry().unwrap(), 0.0);
        assert!(approx(m[(0, 1)], 3.0, 1e-15));
    }

    #[test]
    fn set_row_validates() {
        let mut m = Matrix::zeros(2, 3);
        m.set_row(0, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert!(m.set_row(1, &[1.0]).is_err());
    }

    #[test]
    fn display_contains_entries() {
        let m = Matrix::identity(2);
        let s = format!("{m}");
        assert!(s.contains("1.000000"));
    }

    #[test]
    fn gram_into_matches_gram_and_validates() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let mut out = Matrix::from_fn(2, 2, |_, _| 7.7); // stale contents
        a.gram_into(&mut out).unwrap();
        assert_eq!(out, a.gram());
        let mut wrong = Matrix::zeros(3, 3);
        assert!(a.gram_into(&mut wrong).is_err());
    }

    #[test]
    fn weighted_gram_matches_explicit_weighting() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        let w = [0.5, 2.0, 1.5];
        let b = Matrix::from_fn(3, 2, |i, j| w[i] * a[(i, j)]);
        let mut out = Matrix::zeros(2, 2);
        a.weighted_gram_into(&w, &mut out).unwrap();
        assert!((&out - &b.gram()).norm_frobenius() < 1e-14);
        assert!(a.weighted_gram_into(&[1.0], &mut out).is_err());
        let mut wrong = Matrix::zeros(3, 3);
        assert!(a.weighted_gram_into(&w, &mut wrong).is_err());
    }

    #[test]
    fn gram_panels_match_scalar_loop_on_tall_matrices() {
        // 11 rows exercises two rank-4 panels plus a 3-row scalar tail;
        // the blocked result must be bit-identical to the reference
        // row-by-row accumulation.
        let a = Matrix::from_fn(11, 5, |i, j| ((i * 5 + j) as f64 * 0.37).sin());
        let w: Vec<f64> = (0..11).map(|i| 0.3 + 0.2 * i as f64).collect();
        let mut blocked = Matrix::zeros(5, 5);
        a.weighted_gram_into(&w, &mut blocked).unwrap();
        let mut reference = Matrix::zeros(5, 5);
        for i in 0..11 {
            let w2 = w[i] * w[i];
            for p in 0..5 {
                for q in p..5 {
                    reference[(p, q)] += w2 * a[(i, p)] * a[(i, q)];
                }
            }
        }
        for p in 0..5 {
            for q in p..5 {
                assert_eq!(blocked[(p, q)], reference[(p, q)], "({p},{q})");
            }
        }
    }

    #[test]
    fn zero_weight_rows_are_masked_even_when_non_finite() {
        // A zero weight must skip its row entirely — multiplying through
        // would turn 0·∞ into NaN. Both panel-interior and tail rows.
        let a = Matrix::from_fn(9, 3, |i, j| {
            if i == 2 || i == 8 {
                f64::INFINITY
            } else {
                (i + j) as f64
            }
        });
        let mut w = vec![1.0; 9];
        w[2] = 0.0;
        w[8] = 0.0;
        let mut out = Matrix::zeros(3, 3);
        a.weighted_gram_into(&w, &mut out).unwrap();
        assert!(out.is_finite(), "masked rows leaked non-finite values");
        // Equivalent to dropping those rows outright.
        let kept = Matrix::from_fn(7, 3, |r, j| {
            let i = [0, 1, 3, 4, 5, 6, 7][r];
            a[(i, j)]
        });
        assert!((&out - &kept.gram()).norm_frobenius() < 1e-12);
    }

    #[test]
    fn matvec_into_matches_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let x = Vector::from_slice(&[1.0, -1.0, 2.0]);
        let mut out = Vector::filled(2, 9.0);
        a.matvec_into(&x, &mut out).unwrap();
        assert_eq!(out, a.matvec(&x).unwrap());
        let mut tr_out = Vector::filled(3, 9.0);
        let y = Vector::from_slice(&[1.0, 2.0]);
        a.tr_matvec_into(&y, &mut tr_out).unwrap();
        assert_eq!(tr_out, a.tr_matvec(&y).unwrap());
        assert!(a.matvec_into(&x, &mut Vector::zeros(3)).is_err());
        assert!(a.tr_matvec_into(&y, &mut Vector::zeros(2)).is_err());
    }

    #[test]
    fn copy_from_and_reset_reuse_storage() {
        let src = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let mut dst = Matrix::zeros(5, 5);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.reset_zeroed(3, 2);
        assert_eq!(dst.shape(), (3, 2));
        assert!(dst.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::identity(2);
        let b = &a + &a;
        assert_eq!(b[(0, 0)], 2.0);
        let c = &b - &a;
        assert_eq!(c, a);
        let d = &a * 3.0;
        assert_eq!(d[(1, 1)], 3.0);
    }
}
