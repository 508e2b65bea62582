//! Symmetric banded storage and the O(n·b²) banded Cholesky.
//!
//! A symmetric matrix with bandwidth `b` (`A[i][j] = 0` whenever
//! `|i − j| > b`) is stored as `n` packed rows of `b + 1` entries each —
//! the LAPACK `SB` lower layout transposed to row-major: packed row `i`
//! holds the in-band lower-triangle entries `A[i][i−b ..= i]`,
//! left-padded with zeros while `i < b`, so every row's band segment is
//! contiguous in memory:
//!
//! ```text
//! packed[i][b − (i − j)] = A[i][j]      for  i − b ≤ j ≤ i
//! ```
//!
//! Cholesky of a banded SPD matrix preserves the band exactly (`L` has
//! the same lower bandwidth), so [`BandedCholesky`] factors in place in
//! the packed layout at O(n·b²) flops and solves at O(n·b) — against
//! O(n³)/O(n²) dense — which is what makes 500-knot B-spline penalty
//! blocks routine. The factor's inner loops are contiguous-segment
//! updates (axpy form, not dot form), so each element keeps its own
//! accumulation chain and the loops vectorize across elements (see
//! `kernels.rs`).

use crate::error::LinalgError;
use crate::kernels;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// A symmetric matrix stored in packed band form (see the module docs
/// for the layout). Entries outside the band are structurally zero.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{BandedMatrix, Vector};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// // Tridiagonal SPD: 2 on the diagonal, -1 off it.
/// let mut a = BandedMatrix::zeros(4, 1)?;
/// for i in 0..4 {
///     a.set(i, i, 2.0)?;
///     if i > 0 {
///         a.set(i, i - 1, -1.0)?;
///     }
/// }
/// let b = Vector::from_slice(&[1.0, 0.0, 0.0, 1.0]);
/// let x = a.cholesky()?.solve(&b)?;
/// let r = &a.matvec(&x)? - &b;
/// assert!(r.norm2() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandedMatrix {
    n: usize,
    bandwidth: usize,
    /// `n` packed rows of `bandwidth + 1` entries (module-doc layout).
    data: Vec<f64>,
}

impl BandedMatrix {
    /// Creates the zero matrix of dimension `n` and bandwidth
    /// `bandwidth` (number of sub-diagonals kept; `0` is diagonal).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] when `n == 0`.
    /// * [`LinalgError::InvalidArgument`] when `bandwidth >= n`.
    pub fn zeros(n: usize, bandwidth: usize) -> Result<Self> {
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if bandwidth >= n {
            return Err(LinalgError::InvalidArgument(
                "bandwidth must be smaller than the dimension",
            ));
        }
        Ok(BandedMatrix {
            n,
            bandwidth,
            data: vec![0.0; n * (bandwidth + 1)],
        })
    }

    /// Copies the band of a dense symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for a rectangular input.
    /// * [`LinalgError::InvalidArgument`] when `bandwidth >= n`, when a
    ///   lower-triangle entry outside the band is nonzero (the matrix is
    ///   not actually banded — silently dropping it would change the
    ///   operator), or when the matrix is not symmetric.
    pub fn from_dense(dense: &Matrix, bandwidth: usize) -> Result<Self> {
        if !dense.is_square() {
            return Err(LinalgError::NotSquare {
                shape: dense.shape(),
            });
        }
        let n = dense.rows();
        let mut out = BandedMatrix::zeros(n, bandwidth)?;
        for i in 0..n {
            for j in 0..=i {
                let v = dense[(i, j)];
                if i - j > bandwidth {
                    if v != 0.0 {
                        return Err(LinalgError::InvalidArgument(
                            "nonzero entry outside the declared bandwidth",
                        ));
                    }
                    continue;
                }
                if v != dense[(j, i)] {
                    return Err(LinalgError::InvalidArgument(
                        "banded storage requires a symmetric matrix",
                    ));
                }
                out.data[i * (bandwidth + 1) + bandwidth - (i - j)] = v;
            }
        }
        Ok(out)
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals stored.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Width of one packed row (`bandwidth + 1`).
    #[inline]
    fn w(&self) -> usize {
        self.bandwidth + 1
    }

    /// The entry `A[i][j]` (zero outside the band).
    ///
    /// # Panics
    ///
    /// Panics when `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "banded index out of range");
        let (lo, hi) = if i >= j { (j, i) } else { (i, j) };
        if hi - lo > self.bandwidth {
            return 0.0;
        }
        self.data[hi * self.w() + self.bandwidth - (hi - lo)]
    }

    /// Sets `A[i][j]` (and, symmetrically, `A[j][i]`).
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] when `(i, j)` lies outside the
    /// band or out of range.
    pub fn set(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        if i >= self.n || j >= self.n {
            return Err(LinalgError::InvalidArgument("banded index out of range"));
        }
        let (lo, hi) = if i >= j { (j, i) } else { (i, j) };
        if hi - lo > self.bandwidth {
            return Err(LinalgError::InvalidArgument(
                "cannot set an entry outside the band",
            ));
        }
        let w = self.w();
        self.data[hi * w + self.bandwidth - (hi - lo)] = value;
        Ok(())
    }

    /// Adds `value` to `A[i][j]` (and symmetrically).
    ///
    /// # Errors
    ///
    /// Same as [`BandedMatrix::set`].
    pub fn add_at(&mut self, i: usize, j: usize, value: f64) -> Result<()> {
        let current = if i < self.n && j < self.n {
            self.get(i, j)
        } else {
            0.0
        };
        self.set(i, j, current + value)
    }

    /// Zeroes every entry, keeping dimension and bandwidth.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Expands to a dense symmetric [`Matrix`].
    pub fn to_dense(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.get(i, j))
    }

    /// Adds `value` to every diagonal entry.
    pub fn add_diagonal(&mut self, value: f64) {
        let w = self.w();
        for i in 0..self.n {
            self.data[i * w + self.bandwidth] += value;
        }
    }

    /// Writes `self · x` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] for wrong-length vectors.
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) -> Result<()> {
        if x.len() != self.n || out.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                left: (self.n, self.n),
                right: (x.len(), 1),
                op: "banded matvec",
            });
        }
        let w = self.w();
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        os.fill(0.0);
        for i in 0..self.n {
            let lo = i.saturating_sub(self.bandwidth);
            let row = &self.data[i * w + (self.bandwidth - (i - lo))..i * w + w];
            // Lower-triangle segment contributes to out[i]…
            let mut acc = 0.0;
            for (k, &v) in row.iter().enumerate() {
                acc += v * xs[lo + k];
            }
            os[i] += acc;
            // …and, by symmetry, the strictly-lower entries scatter x[i]
            // into the earlier outputs.
            let xi = xs[i];
            if xi != 0.0 {
                for (k, &v) in row[..i - lo].iter().enumerate() {
                    os[lo + k] += v * xi;
                }
            }
        }
        Ok(())
    }

    /// Returns `self · x` as a fresh vector.
    ///
    /// # Errors
    ///
    /// Same as [`BandedMatrix::matvec_into`].
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        let mut out = Vector::zeros(self.n);
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Cholesky-factors the matrix.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] when a pivot fails.
    pub fn cholesky(&self) -> Result<BandedCholesky> {
        let mut factor = BandedCholesky {
            n: self.n,
            bandwidth: self.bandwidth,
            l: vec![0.0; self.data.len()],
            col: vec![0.0; self.bandwidth],
        };
        factor.refactor(self)?;
        Ok(factor)
    }
}

/// The Cholesky factor `A = L·Lᵀ` of a [`BandedMatrix`], with `L` stored
/// in the same packed band layout. Factor cost is O(n·b²), each solve
/// O(n·b).
///
/// The factorization is right-looking: after computing pivot `i`, the
/// trailing rows inside the band are updated with contiguous-segment
/// axpys against a gathered copy of column `i` (no accumulation chain is
/// ever split across elements).
#[derive(Debug, Clone)]
pub struct BandedCholesky {
    n: usize,
    bandwidth: usize,
    l: Vec<f64>,
    /// Gathered pivot column scratch (`bandwidth` entries).
    col: Vec<f64>,
}

impl BandedCholesky {
    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of sub-diagonals of the factor.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    #[inline]
    fn w(&self) -> usize {
        self.bandwidth + 1
    }

    /// The factor entry `L[i][j]` (zero outside the band or above the
    /// diagonal).
    pub fn factor_entry(&self, i: usize, j: usize) -> f64 {
        if j > i || i >= self.n || i - j > self.bandwidth {
            return 0.0;
        }
        self.l[i * self.w() + self.bandwidth - (i - j)]
    }

    /// Re-factors `matrix` into the existing storage without allocating
    /// (the per-λ hot path: `S(λ) = λΩ + εI` refactored per grid point).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when the dimension or bandwidth
    ///   differs from the factored shape.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot fails; the
    ///   factor contents are unspecified afterwards and must be
    ///   refactored before use.
    pub fn refactor(&mut self, matrix: &BandedMatrix) -> Result<()> {
        if matrix.n != self.n || matrix.bandwidth != self.bandwidth {
            return Err(LinalgError::ShapeMismatch {
                left: (self.n, self.bandwidth),
                right: (matrix.n, matrix.bandwidth),
                op: "banded cholesky refactor",
            });
        }
        let (n, b, w) = (self.n, self.bandwidth, self.w());
        self.l.copy_from_slice(&matrix.data);
        for i in 0..n {
            let pivot = self.l[i * w + b];
            if !(pivot > 0.0) || !pivot.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: i });
            }
            let li = pivot.sqrt();
            self.l[i * w + b] = li;
            let reach = (n - 1 - i).min(b);
            if reach == 0 {
                continue;
            }
            // Scale column i below the pivot and gather it: L[i+t][i] for
            // t = 1..=reach lives at packed[(i+t)][b − t] — strided, so
            // one gather makes every trailing update contiguous.
            let inv = 1.0 / li;
            for t in 1..=reach {
                let idx = (i + t) * w + b - t;
                self.l[idx] *= inv;
                self.col[t - 1] = self.l[idx];
            }
            // Trailing update: row j of the remaining band loses
            // L[j][i] · L[k][i] for k = i+1..=j. Row j's targets
            // A[j][i+1..=j] are contiguous in the packed layout.
            for t in 1..=reach {
                let j = i + t;
                let ljk = self.col[t - 1];
                if ljk == 0.0 {
                    continue;
                }
                let start = j * w + b - (t - 1);
                let seg = &mut self.l[start..start + t];
                kernels::axpy(seg, -ljk, &self.col[..t]);
            }
        }
        Ok(())
    }

    /// Solves `A·x = rhs` in place (forward then backward substitution).
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] for a wrong-length vector.
    pub fn solve_in_place(&self, rhs: &mut Vector) -> Result<()> {
        if rhs.len() != self.n {
            return Err(LinalgError::ShapeMismatch {
                left: (self.n, self.n),
                right: (rhs.len(), 1),
                op: "banded cholesky solve",
            });
        }
        self.solve_slice_in_place(rhs.as_mut_slice());
        Ok(())
    }

    /// Solves `A·x = rhs`, returning a fresh vector.
    ///
    /// # Errors
    ///
    /// Same as [`BandedCholesky::solve_in_place`].
    pub fn solve(&self, rhs: &Vector) -> Result<Vector> {
        let mut out = rhs.clone();
        self.solve_in_place(&mut out)?;
        Ok(out)
    }

    /// Solves `A·x = rhs` in place on a raw slice (callers holding
    /// matrix columns rather than [`Vector`]s — the Woodbury path
    /// solves against every column of a dense `n × m` block).
    ///
    /// # Panics
    ///
    /// Panics when `rhs.len() != dim()`.
    pub fn solve_slice_in_place(&self, rhs: &mut [f64]) {
        assert_eq!(rhs.len(), self.n, "banded solve length mismatch");
        self.forward_slice_in_place(rhs);
        self.backward_solve_slice_in_place(rhs);
    }

    /// Forward substitution `L·Y = R` for `k` right-hand sides at once:
    /// `block` holds `R` row-major (`dim() × k`, row `i` at
    /// `i·k..(i+1)·k`) and is overwritten with `Y`. Each solved row is
    /// scattered into the next `b` rows by contiguous axpys, so the work
    /// vectorizes across the right-hand sides — the form the Woodbury
    /// path wants for its `n × m` block of whitened design columns.
    ///
    /// # Panics
    ///
    /// Panics when `block.len() != dim() · k`.
    pub fn forward_solve_block(&self, block: &mut [f64], k: usize) {
        let (n, b, w) = (self.n, self.bandwidth, self.w());
        assert_eq!(block.len(), n * k, "banded block solve length mismatch");
        for i in 0..n {
            let pivot = self.l[i * w + b];
            let (head, tail) = block.split_at_mut((i + 1) * k);
            let yi = &mut head[i * k..];
            for v in yi.iter_mut() {
                *v /= pivot;
            }
            for t in 1..=(n - 1 - i).min(b) {
                let lti = self.l[(i + t) * w + b - t];
                kernels::axpy(&mut tail[(t - 1) * k..t * k], -lti, yi);
            }
        }
    }

    /// Forward substitution `L·y = rhs`, column-oriented: once `y[i]` is
    /// known it is scattered into the later right-hand sides through a
    /// contiguous axpy against the gathered column `i`.
    fn forward_slice_in_place(&self, rhs: &mut [f64]) {
        let (n, b, w) = (self.n, self.bandwidth, self.w());
        // Pivot-column gather scratch: stack for every realistic spline
        // bandwidth, heap only for unusually wide bands.
        let mut col_stack = [0.0f64; 16];
        let mut col_heap = Vec::new();
        let col: &mut [f64] = if b <= col_stack.len() {
            &mut col_stack[..b]
        } else {
            col_heap.resize(b, 0.0);
            &mut col_heap
        };
        for i in 0..n {
            let yi = rhs[i] / self.l[i * w + b];
            rhs[i] = yi;
            let reach = (n - 1 - i).min(b);
            if reach == 0 || yi == 0.0 {
                continue;
            }
            for t in 1..=reach {
                col[t - 1] = self.l[(i + t) * w + b - t];
            }
            kernels::axpy(&mut rhs[i + 1..=i + reach], -yi, &col[..reach]);
        }
    }

    /// Backward substitution `Lᵀ·x = y` in place on a raw slice,
    /// row-oriented: once `x[i]` is known it is scattered into the earlier
    /// right-hand sides through a contiguous axpy against packed row `i`
    /// (which *is* column `i` of `Lᵀ`).
    ///
    /// # Panics
    ///
    /// Panics when `rhs.len() != dim()`.
    pub fn backward_solve_slice_in_place(&self, rhs: &mut [f64]) {
        assert_eq!(rhs.len(), self.n, "banded solve length mismatch");
        let (n, b, w) = (self.n, self.bandwidth, self.w());
        for i in (0..n).rev() {
            let xi = rhs[i] / self.l[i * w + b];
            rhs[i] = xi;
            let lo = i.saturating_sub(b);
            if lo == i || xi == 0.0 {
                continue;
            }
            let row = &self.l[i * w + b - (i - lo)..i * w + b];
            kernels::axpy(&mut rhs[lo..i], -xi, row);
        }
    }

    /// Expands the packed factor to a dense lower-triangular matrix.
    pub fn to_dense_factor(&self) -> Matrix {
        Matrix::from_fn(self.n, self.n, |i, j| self.factor_entry(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_forward_solve_matches_single_solves() {
        // L·Y = R column by column: the block form must reproduce the
        // triangular solve of every column (checked through L·Y = R).
        let a = spd_banded(23, 3);
        let chol = a.cholesky().unwrap();
        let k = 5;
        let rhs: Vec<f64> = (0..23 * k)
            .map(|i| ((i * 7 % 11) as f64 - 5.0) * 0.3)
            .collect();
        let mut block = rhs.clone();
        chol.forward_solve_block(&mut block, k);
        let l = chol.to_dense_factor();
        for c in 0..k {
            for i in 0..23 {
                let ly: f64 = (0..=i).map(|j| l[(i, j)] * block[j * k + c]).sum();
                assert!((ly - rhs[i * k + c]).abs() < 1e-12, "row {i} column {c}");
            }
        }
    }

    fn spd_banded(n: usize, b: usize) -> BandedMatrix {
        let mut a = BandedMatrix::zeros(n, b).expect("valid shape");
        for i in 0..n {
            for j in i.saturating_sub(b)..=i {
                let v = if i == j {
                    2.0 * (b + 1) as f64 + (i as f64 * 0.31).sin()
                } else {
                    ((i * 7 + j) as f64 * 0.17).sin()
                };
                a.set(i, j, v).expect("in band");
            }
        }
        a
    }

    #[test]
    fn layout_round_trips_through_dense() {
        let a = spd_banded(7, 2);
        let d = a.to_dense();
        let back = BandedMatrix::from_dense(&d, 2).expect("banded");
        assert_eq!(a, back);
        // A wider declared band also reproduces the matrix.
        let wide = BandedMatrix::from_dense(&d, 4).expect("banded");
        assert_eq!(wide.to_dense(), d);
    }

    #[test]
    fn from_dense_rejects_out_of_band_and_asymmetry() {
        let mut d = spd_banded(5, 1).to_dense();
        d[(4, 0)] = 0.5;
        d[(0, 4)] = 0.5;
        assert!(matches!(
            BandedMatrix::from_dense(&d, 1),
            Err(LinalgError::InvalidArgument(_))
        ));
        let mut asym = spd_banded(5, 1).to_dense();
        asym[(1, 0)] += 1.0;
        assert!(matches!(
            BandedMatrix::from_dense(&asym, 1),
            Err(LinalgError::InvalidArgument(_))
        ));
    }

    #[test]
    fn factor_and_solve_match_dense_cholesky() {
        for (n, b) in [(1usize, 0usize), (4, 1), (9, 3), (20, 5), (33, 7)] {
            let a = spd_banded(n, b);
            let rhs = Vector::from_fn(n, |i| (i as f64 * 0.73).cos());
            let x_banded = a.cholesky().expect("spd").solve(&rhs).expect("shapes");
            let x_dense = a
                .to_dense()
                .cholesky()
                .expect("spd")
                .solve(&rhs)
                .expect("shapes");
            for i in 0..n {
                assert!(
                    (x_banded[i] - x_dense[i]).abs() < 1e-11,
                    "n={n} b={b} i={i}: {} vs {}",
                    x_banded[i],
                    x_dense[i]
                );
            }
        }
    }

    #[test]
    fn refactor_reuses_storage_across_lambda_sweep() {
        let omega = spd_banded(12, 3);
        let mut s = BandedMatrix::zeros(12, 3).expect("valid");
        let mut factor: Option<BandedCholesky> = None;
        for &lambda in &[1e-4, 1e-2, 1.0, 1e2] {
            s.fill_zero();
            for i in 0..12usize {
                for j in i.saturating_sub(3)..=i {
                    s.add_at(i, j, lambda * omega.get(i, j)).expect("in band");
                }
            }
            s.add_diagonal(2.0);
            match factor.as_mut() {
                Some(f) => f.refactor(&s).expect("spd"),
                None => factor = Some(s.cholesky().expect("spd")),
            }
            let f = factor.as_ref().expect("factored above");
            let rhs = Vector::from_fn(12, |i| 1.0 + i as f64);
            let x = f.solve(&rhs).expect("shapes");
            let r = &s.matvec(&x).expect("shapes") - &rhs;
            assert!(r.norm_inf() < 1e-10, "lambda {lambda}: {}", r.norm_inf());
        }
    }

    #[test]
    fn matvec_matches_dense() {
        let a = spd_banded(11, 2);
        let x = Vector::from_fn(11, |i| (i as f64 - 4.0) * 0.3);
        let yb = a.matvec(&x).expect("shapes");
        let yd = a.to_dense().matvec(&x).expect("shapes");
        assert!((&yb - &yd).norm_inf() < 1e-13);
    }

    #[test]
    fn not_positive_definite_reports_pivot() {
        let mut a = spd_banded(6, 1);
        a.set(3, 3, -5.0).expect("in band");
        match a.cholesky() {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 3),
            other => panic!("expected pivot failure, got {other:?}"),
        }
    }

    #[test]
    fn dense_factor_expansion_matches_entries() {
        let a = spd_banded(9, 2);
        let f = a.cholesky().expect("spd");
        let dense_l = f.to_dense_factor();
        let dense = a.to_dense().cholesky().expect("spd");
        for i in 0..9 {
            for j in 0..9 {
                let expect = if j <= i { dense.factor()[(i, j)] } else { 0.0 };
                assert!(
                    (dense_l[(i, j)] - expect).abs() < 1e-11,
                    "({i},{j}): {} vs {expect}",
                    dense_l[(i, j)]
                );
            }
        }
    }
}
