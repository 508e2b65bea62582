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

    /// Natural log of the determinant of `A` (always finite for SPD input).
    pub fn log_determinant(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
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

    /// Rank-one **update**: turns this factor of `A` into the factor of
    /// `A + v·vᵀ` in `O(n²)`, column by column via Givens-style plane
    /// rotations (the classic `cholupdate` recurrence). `v` is consumed
    /// as scratch. Always succeeds for finite input — adding a positive
    /// semidefinite term cannot lose definiteness.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `v.len() != dim()`.
    /// * [`LinalgError::InvalidArgument`] for non-finite entries.
    pub fn rank_one_update(&mut self, v: &mut Vector) -> Result<()> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (v.len(), 1),
                op: "cholesky rank_one_update",
            });
        }
        if !v.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "update vector entries must be finite",
            ));
        }
        rank_one_update_strided(self.l.as_mut_slice(), n, n, v.as_mut_slice());
        Ok(())
    }

    /// Rank-one **downdate**: turns this factor of `A` into the factor of
    /// `A − v·vᵀ` in `O(n²)` via hyperbolic plane rotations, numerically
    /// guarded — every pivot must stay safely positive or the downdate is
    /// rejected. `v` is consumed as scratch.
    ///
    /// On error the factor is left **unchanged** (the recurrence runs on
    /// a probe of the diagonal first), so callers can fall back to a full
    /// [`CholeskyDecomposition::refactor`] of the modified matrix — the
    /// fallback rule the QP workspace uses.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `v.len() != dim()`.
    /// * [`LinalgError::InvalidArgument`] for non-finite entries.
    /// * [`LinalgError::NotPositiveDefinite`] when `A − v·vᵀ` is not
    ///   (numerically) positive definite.
    pub fn rank_one_downdate(&mut self, v: &mut Vector) -> Result<()> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (v.len(), 1),
                op: "cholesky rank_one_downdate",
            });
        }
        if !v.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "downdate vector entries must be finite",
            ));
        }
        // Probe pass: run the same per-column recurrence on a copy of
        // `v` only (the factor is read, never written), so a mid-sweep
        // definiteness failure leaves `l` untouched. The pivot test is
        // algebraically `1 − ‖L⁻¹v‖² > 0`, applied incrementally.
        {
            let mut w: Vec<f64> = v.iter().copied().collect();
            for k in 0..n {
                let Some((_, c, s)) = downdate_rotation(self.l[(k, k)], w[k]) else {
                    return Err(LinalgError::NotPositiveDefinite { pivot: k });
                };
                for (i, wi) in w.iter_mut().enumerate().skip(k + 1) {
                    let (_, new_wi) = downdate_apply(self.l[(i, k)], *wi, c, s);
                    *wi = new_wi;
                }
            }
        }
        let applied = rank_one_downdate_strided(self.l.as_mut_slice(), n, n, v.as_mut_slice());
        debug_assert!(applied.is_ok(), "probe pass accepted the downdate");
        applied.map_err(|pivot| LinalgError::NotPositiveDefinite { pivot })
    }
}

/// The guarded pivot and rotation coefficients of one hyperbolic
/// downdate column: `Some((r, c, s))` with `r = √(L_kk² − w_k²)`, or
/// `None` when the pivot loses (numerical) positive definiteness — the
/// single definition shared by the probe pass and the strided
/// application, so the guard can never drift between them.
#[inline]
fn downdate_rotation(ljj: f64, wk: f64) -> Option<(f64, f64, f64)> {
    let r2 = ljj * ljj - wk * wk;
    if !(r2 > f64::EPSILON * ljj * ljj) || !r2.is_finite() {
        return None;
    }
    let r = r2.sqrt();
    Some((r, r / ljj, wk / ljj))
}

/// One subdiagonal element of the downdate recurrence: the new factor
/// entry and carried vector entry for rotation `(c, s)`.
#[inline]
fn downdate_apply(lik: f64, wi: f64, c: f64, s: f64) -> (f64, f64) {
    let new_lik = (lik - s * wi) / c;
    (new_lik, c * wi - s * new_lik)
}

/// `cholupdate` recurrence on a lower-triangular factor stored row-major
/// with row stride `stride`, acting on the leading `n × n` block. `w` is
/// consumed as scratch.
pub(crate) fn rank_one_update_strided(l: &mut [f64], stride: usize, n: usize, w: &mut [f64]) {
    for k in 0..n {
        let ljj = l[k * stride + k];
        let wk = w[k];
        let r = ljj.hypot(wk);
        let c = r / ljj;
        let s = wk / ljj;
        l[k * stride + k] = r;
        for i in (k + 1)..n {
            let lik = (l[i * stride + k] + s * w[i]) / c;
            l[i * stride + k] = lik;
            w[i] = c * w[i] - s * lik;
        }
    }
}

/// Hyperbolic-rotation downdate of a strided lower-triangular factor;
/// returns `Err(pivot)` at the first column whose pivot loses (numerical)
/// positive definiteness. The factor is partially modified on error —
/// callers either probe first (see
/// [`CholeskyDecomposition::rank_one_downdate`]) or fall back to a full
/// refactorization.
pub(crate) fn rank_one_downdate_strided(
    l: &mut [f64],
    stride: usize,
    n: usize,
    w: &mut [f64],
) -> std::result::Result<(), usize> {
    for k in 0..n {
        let Some((r, c, s)) = downdate_rotation(l[k * stride + k], w[k]) else {
            return Err(k);
        };
        l[k * stride + k] = r;
        for i in (k + 1)..n {
            let (new_lik, new_wi) = downdate_apply(l[i * stride + k], w[i], c, s);
            l[i * stride + k] = new_lik;
            w[i] = new_wi;
        }
    }
    Ok(())
}

/// A Cholesky factor maintained **incrementally** as its matrix grows and
/// shrinks one row/column at a time — the factorization pattern of an
/// active-set QP's constraint Gram matrix, where constraints enter and
/// leave the working set every iteration.
///
/// * [`IncrementalCholesky::append`] borders the factor with one new
///   row/column in `O(m²)` (one forward substitution + a guarded pivot).
/// * [`IncrementalCholesky::remove`] deletes row/column `k` in `O(m²)`:
///   the rows below `k` shift up, and the trailing block is restored by
///   the Givens-based rank-one update recurrence (the deleted column's
///   subdiagonal re-enters as a rank-one term).
///
/// Storage has a fixed row stride (`capacity`), so a grow/shrink cycle
/// inside that capacity never allocates.
///
/// Note on the QP solver: `cellsync_opt::QpWorkspace` maintains the
/// *same* factor algebra for its working-set Gram matrix
/// `S = A_W H⁻¹ A_Wᵀ`, but derives `R = Lᵀ` by orthogonalizing the
/// whitened rows `L_H⁻¹A_Wᵀ` instead of bordering `S` directly — the
/// explicit Schur-complement recurrence here squares `cond(H)`, which
/// collapses on near-singular deconvolution Hessians (see
/// `docs/SOLVER.md` §5.3). Use this type when the SPD matrix is
/// available entry-wise and reasonably conditioned; use the whitened
/// formulation when the matrix is itself a Schur complement of an
/// ill-conditioned operator.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{IncrementalCholesky, Matrix};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let mut inc = IncrementalCholesky::with_capacity(3);
/// inc.append(&[], 4.0)?;             // [[4]]
/// inc.append(&[2.0], 5.0)?;          // [[4,2],[2,5]]
/// let full = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 5.0]])?.cholesky()?;
/// assert!((inc.factor_entry(1, 1) - full.factor()[(1, 1)]).abs() < 1e-12);
/// inc.remove(0)?;                    // [[5]]
/// assert!((inc.factor_entry(0, 0) - 5.0_f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IncrementalCholesky {
    /// Row-major lower-triangular storage with row stride `cap`.
    l: Vec<f64>,
    cap: usize,
    n: usize,
    scratch: Vec<f64>,
}

impl IncrementalCholesky {
    /// Creates an empty factor with room for `capacity` rows/columns.
    pub fn with_capacity(capacity: usize) -> Self {
        IncrementalCholesky {
            l: vec![0.0; capacity * capacity],
            cap: capacity,
            n: 0,
            scratch: vec![0.0; capacity],
        }
    }

    /// Current dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The storage capacity (maximum dimension without reallocating).
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Resets to the empty factor, keeping the allocation.
    pub fn clear(&mut self) {
        self.n = 0;
    }

    /// Grows the capacity to at least `capacity`, preserving the current
    /// factor. A no-op when already large enough.
    pub fn reserve(&mut self, capacity: usize) {
        if capacity <= self.cap {
            return;
        }
        let mut fresh = vec![0.0; capacity * capacity];
        for i in 0..self.n {
            let (src, dst) = (i * self.cap, i * capacity);
            fresh[dst..dst + i + 1].copy_from_slice(&self.l[src..src + i + 1]);
        }
        self.l = fresh;
        self.cap = capacity;
        self.scratch.resize(capacity, 0.0);
    }

    /// Entry `(i, j)` of the lower-triangular factor.
    ///
    /// # Panics
    ///
    /// Panics when `i >= dim()` or `j > i`.
    pub fn factor_entry(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j <= i, "lower-triangle index out of bounds");
        self.l[i * self.cap + j]
    }

    /// Borders the factored matrix `S` with one new row/column: the
    /// factor becomes that of `[[S, s], [sᵀ, diag]]`, where `s` holds the
    /// cross terms against the existing rows (`s.len() == dim()`).
    ///
    /// The new pivot is guarded: `diag − ‖l‖²` must stay safely positive,
    /// otherwise the factor is unchanged and the caller falls back to a
    /// full refactorization (or rejects the row as dependent).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] when `s.len() != dim()`.
    /// * [`LinalgError::NotPositiveDefinite`] when the bordered matrix is
    ///   not (numerically) positive definite.
    /// * [`LinalgError::InvalidArgument`] for non-finite input.
    pub fn append(&mut self, s: &[f64], diag: f64) -> Result<()> {
        let m = self.n;
        if s.len() != m {
            return Err(LinalgError::ShapeMismatch {
                left: (m, 1),
                right: (s.len(), 1),
                op: "incremental cholesky append",
            });
        }
        if !diag.is_finite() || s.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::InvalidArgument(
                "bordered row entries must be finite",
            ));
        }
        if m == self.cap {
            self.reserve((self.cap * 2).max(4));
        }
        // Forward-substitute L·l_new = s into scratch. A leading run of
        // zeros in `s` (the common case when bordering a banded matrix:
        // the new row only couples to the last `bandwidth` columns)
        // propagates as zeros through the substitution, so skip straight
        // past it — the append then costs O(b²) instead of O(m²).
        let start = s.iter().position(|&v| v != 0.0).unwrap_or(m);
        self.scratch[..start].fill(0.0);
        let mut norm_sq = 0.0;
        for (i, &si) in s.iter().enumerate().skip(start) {
            let mut sum = si;
            for j in start..i {
                sum -= self.l[i * self.cap + j] * self.scratch[j];
            }
            let v = sum / self.l[i * self.cap + i];
            self.scratch[i] = v;
            norm_sq += v * v;
        }
        let pivot_sq = diag - norm_sq;
        if !(pivot_sq > f64::EPSILON * diag.abs().max(norm_sq)) || !pivot_sq.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: m });
        }
        let row = m * self.cap;
        self.l[row..row + m].copy_from_slice(&self.scratch[..m]);
        self.l[row + m] = pivot_sq.sqrt();
        self.n = m + 1;
        Ok(())
    }

    /// Deletes row/column `k` of the factored matrix in `O(m²)`: rows
    /// below `k` shift up (their leading `k` columns are unchanged) and
    /// the trailing block absorbs the deleted column's subdiagonal as a
    /// Givens-based rank-one update — always well-posed, since a
    /// principal submatrix of an SPD matrix stays SPD.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `k >= dim()`.
    pub fn remove(&mut self, k: usize) -> Result<()> {
        let m = self.n;
        if k >= m {
            return Err(LinalgError::ShapeMismatch {
                left: (m, m),
                right: (k, k),
                op: "incremental cholesky remove",
            });
        }
        // Save column k below the diagonal: the rank-one term of the
        // trailing block.
        let t = m - k - 1;
        for (idx, i) in ((k + 1)..m).enumerate() {
            self.scratch[idx] = self.l[i * self.cap + k];
        }
        // Shift rows k+1.. up by one; drop column k from each.
        for i in (k + 1)..m {
            let (dst_row, src_row) = ((i - 1) * self.cap, i * self.cap);
            // Columns 0..k are unchanged by the deletion.
            self.l.copy_within(src_row..src_row + k, dst_row);
            // Columns k+1..=i move left by one.
            for j in (k + 1)..=i {
                self.l[dst_row + j - 1] = self.l[src_row + j];
            }
        }
        self.n = m - 1;
        if t > 0 {
            // Trailing block: L₂₂'·L₂₂'ᵀ = L₂₂·L₂₂ᵀ + c·cᵀ.
            let offset = k * self.cap + k;
            let (_, tail) = self.l.split_at_mut(offset);
            let w = &mut self.scratch[..t];
            rank_one_update_strided(tail, self.cap, t, w);
        }
        Ok(())
    }

    /// Solves `S·x = b` in place against the current factor.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != dim()`.
    pub fn solve_in_place(&self, x: &mut [f64]) -> Result<()> {
        let m = self.n;
        if x.len() != m {
            return Err(LinalgError::ShapeMismatch {
                left: (m, m),
                right: (x.len(), 1),
                op: "incremental cholesky solve",
            });
        }
        for i in 0..m {
            let row = i * self.cap;
            let (solved, rest) = x.split_at_mut(i);
            let mut sum = rest[0];
            for (j, &xj) in solved.iter().enumerate() {
                sum -= self.l[row + j] * xj;
            }
            rest[0] = sum / self.l[row + i];
        }
        for i in (0..m).rev() {
            let (active, solved) = x.split_at_mut(i + 1);
            let mut sum = active[i];
            for (off, &xj) in solved.iter().enumerate() {
                sum -= self.l[(i + 1 + off) * self.cap + i] * xj;
            }
            active[i] = sum / self.l[i * self.cap + i];
        }
        Ok(())
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
    fn log_determinant_matches_lu() {
        let a = spd_example();
        let logdet = a.cholesky().unwrap().log_determinant();
        let det = a.lu().unwrap().determinant();
        assert!((logdet - det.ln()).abs() < 1e-10);
    }

    #[test]
    fn inverse_roundtrip() {
        let a = spd_example();
        let inv = a.cholesky().unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!((&prod - &Matrix::identity(3)).norm_frobenius() < 1e-11);
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

    fn assert_factor_close(got: &Matrix, want: &Matrix, tol: f64, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for i in 0..got.rows() {
            for j in 0..=i {
                assert!(
                    (got[(i, j)] - want[(i, j)]).abs() < tol,
                    "{what}: L[({i},{j})] {} vs {}",
                    got[(i, j)],
                    want[(i, j)]
                );
            }
        }
    }

    #[test]
    fn rank_one_update_matches_fresh_factorization() {
        let a = spd_example();
        let v = Vector::from_slice(&[1.0, -2.0, 0.5]);
        let mut ch = a.cholesky().unwrap();
        ch.rank_one_update(&mut v.clone()).unwrap();
        let mut updated = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                updated[(i, j)] += v[i] * v[j];
            }
        }
        let fresh = updated.cholesky().unwrap();
        assert_factor_close(ch.factor(), fresh.factor(), 1e-12, "update");
        // Shape and finiteness validation.
        assert!(ch.rank_one_update(&mut Vector::zeros(2)).is_err());
        assert!(ch
            .rank_one_update(&mut Vector::from_slice(&[f64::NAN, 0.0, 0.0]))
            .is_err());
    }

    #[test]
    fn rank_one_downdate_matches_fresh_factorization() {
        let a = spd_example();
        let v = Vector::from_slice(&[0.5, 1.0, -0.5]);
        let mut updated = a.clone();
        for i in 0..3 {
            for j in 0..3 {
                updated[(i, j)] += v[i] * v[j];
            }
        }
        let mut ch = updated.cholesky().unwrap();
        ch.rank_one_downdate(&mut v.clone()).unwrap();
        let fresh = a.cholesky().unwrap();
        assert_factor_close(ch.factor(), fresh.factor(), 1e-11, "downdate");
    }

    #[test]
    fn downdate_rejects_definiteness_loss_and_leaves_factor_intact() {
        let a = spd_example();
        let mut ch = a.cholesky().unwrap();
        let before = ch.factor().clone();
        // Removing 10·e₂e₂ᵀ drives the (2,2) entry of A to 11 − 100 < 0.
        let mut v = Vector::from_slice(&[0.0, 0.0, 10.0]);
        assert!(matches!(
            ch.rank_one_downdate(&mut v),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // The probe pass rejected before touching the factor.
        assert_eq!(ch.factor(), &before);
        // The factor still solves correctly afterwards.
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = ch.solve(&b).unwrap();
        assert!((&a.matvec(&x).unwrap() - &b).norm2() < 1e-12);
    }

    #[test]
    fn update_then_downdate_roundtrip() {
        let a = spd_example();
        let mut ch = a.cholesky().unwrap();
        let v = Vector::from_slice(&[2.0, -1.0, 3.0]);
        ch.rank_one_update(&mut v.clone()).unwrap();
        ch.rank_one_downdate(&mut v.clone()).unwrap();
        assert_factor_close(ch.factor(), a.cholesky().unwrap().factor(), 1e-10, "cycle");
    }

    fn incremental_matrix(entries: &[&[f64]]) -> Matrix {
        Matrix::from_rows(entries).unwrap()
    }

    #[test]
    fn incremental_append_remove_matches_fresh() {
        // Grow 1 → 4 rows, then delete an interior row, against fresh
        // factorizations of the corresponding principal matrices.
        let s = incremental_matrix(&[
            &[9.0, 2.0, -1.0, 0.5],
            &[2.0, 8.0, 1.0, -0.5],
            &[-1.0, 1.0, 7.0, 2.0],
            &[0.5, -0.5, 2.0, 6.0],
        ]);
        let mut inc = IncrementalCholesky::with_capacity(2); // forces a reserve
        for m in 0..4 {
            let cross: Vec<f64> = (0..m).map(|j| s[(m, j)]).collect();
            inc.append(&cross, s[(m, m)]).unwrap();
            assert_eq!(inc.dim(), m + 1);
            let lead = Matrix::from_fn(m + 1, m + 1, |i, j| s[(i, j)]);
            let fresh = lead.cholesky().unwrap();
            for i in 0..=m {
                for j in 0..=i {
                    assert!(
                        (inc.factor_entry(i, j) - fresh.factor()[(i, j)]).abs() < 1e-12,
                        "append step {m}: ({i},{j})"
                    );
                }
            }
        }
        // Remove interior row 1: remaining matrix over indices {0, 2, 3}.
        inc.remove(1).unwrap();
        let keep = [0usize, 2, 3];
        let reduced = Matrix::from_fn(3, 3, |i, j| s[(keep[i], keep[j])]);
        let fresh = reduced.cholesky().unwrap();
        for i in 0..3 {
            for j in 0..=i {
                assert!(
                    (inc.factor_entry(i, j) - fresh.factor()[(i, j)]).abs() < 1e-11,
                    "after remove: ({i},{j}) {} vs {}",
                    inc.factor_entry(i, j),
                    fresh.factor()[(i, j)]
                );
            }
        }
        // Solve against the reduced matrix.
        let mut x = [1.0, -2.0, 0.5];
        inc.solve_in_place(&mut x).unwrap();
        let resid = &reduced.matvec(&Vector::from_slice(&x)).unwrap()
            - &Vector::from_slice(&[1.0, -2.0, 0.5]);
        assert!(resid.norm2() < 1e-12);
    }

    #[test]
    fn incremental_rejects_dependent_and_bad_input() {
        let mut inc = IncrementalCholesky::with_capacity(4);
        inc.append(&[], 4.0).unwrap();
        inc.append(&[2.0], 1.0 + 1e-18).unwrap_err(); // 1 − (2/2)² ≈ 0: dependent
        assert_eq!(inc.dim(), 1); // factor unchanged on rejection
        assert!(inc.append(&[1.0, 2.0], 3.0).is_err()); // wrong cross length
        assert!(inc.append(&[f64::NAN], 3.0).is_err());
        assert!(inc.remove(5).is_err());
        let mut wrong = [0.0; 3];
        assert!(inc.solve_in_place(&mut wrong).is_err());
        inc.clear();
        assert_eq!(inc.dim(), 0);
        assert!(inc.capacity() >= 4);
    }
}
