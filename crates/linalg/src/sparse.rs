//! Compressed sparse row storage for constraint blocks.
//!
//! The deconvolution's collocation constraint rows (positivity grids,
//! rate-continuity stencils) evaluate a *local-support* spline basis, so
//! each row holds at most `order` nonzeros out of hundreds of columns.
//! [`SparseRowMatrix`] stores exactly those entries — `O(nnz)` memory
//! instead of `O(rows·cols)` — and gives the products the solver needs
//! (`A·x`, per-row dots, banded Gram accumulation) at `O(nnz)` cost.

use crate::banded::BandedMatrix;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;
use crate::Result;

/// A read-only sparse matrix in compressed sparse row (CSR) form.
///
/// Column indices inside each row are strictly increasing; explicit
/// zeros are allowed (a caller may choose to keep a structural pattern).
///
/// # Example
///
/// ```
/// use cellsync_linalg::{SparseRowMatrix, Vector};
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = SparseRowMatrix::from_triplets(2, 4, &[(0, 1, 2.0), (1, 0, -1.0), (1, 3, 1.0)])?;
/// let x = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
/// let y = a.matvec(&x)?;
/// assert_eq!(y.as_slice(), &[4.0, 3.0]);
/// assert_eq!(a.nnz(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRowMatrix {
    rows: usize,
    cols: usize,
    /// Row `r`'s entries live at `indptr[r]..indptr[r + 1]`.
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl SparseRowMatrix {
    /// Builds from `(row, col, value)` triplets (any order; duplicate
    /// positions are summed).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::Empty`] when `rows == 0` or `cols == 0`.
    /// * [`LinalgError::InvalidArgument`] for an out-of-range index or a
    ///   non-finite value.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            if r >= rows || c >= cols {
                return Err(LinalgError::InvalidArgument(
                    "sparse triplet index out of range",
                ));
            }
            if !v.is_finite() {
                return Err(LinalgError::InvalidArgument(
                    "sparse entries must be finite",
                ));
            }
            per_row[r].push((c, v));
        }
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in row.iter() {
                if last == Some(c) {
                    *values.last_mut().expect("entry just pushed") += v;
                } else {
                    indices.push(c);
                    values.push(v);
                    last = Some(c);
                }
            }
            indptr.push(indices.len());
        }
        Ok(SparseRowMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// The block-diagonal matrix `blockdiag(B₁, …, B_K)`, assembled
    /// straight into compressed rows.
    ///
    /// # Errors
    ///
    /// [`LinalgError::Empty`] without blocks.
    pub fn block_diagonal(blocks: &[&SparseRowMatrix]) -> Result<Self> {
        if blocks.is_empty() {
            return Err(LinalgError::Empty);
        }
        let rows = blocks.iter().map(|b| b.rows).sum();
        let nnz = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(rows + 1);
        let (mut indices, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        indptr.push(0);
        let mut offset = 0;
        for block in blocks {
            for r in 0..block.rows {
                let (cols, vals) = block.row(r);
                indices.extend(cols.iter().map(|c| c + offset));
                values.extend_from_slice(vals);
                indptr.push(indices.len());
            }
            offset += block.cols;
        }
        Ok(SparseRowMatrix {
            rows,
            cols: offset,
            indptr,
            indices,
            values,
        })
    }

    /// Compresses a dense matrix, dropping exact zeros.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] for non-finite entries.
    pub fn from_dense(dense: &Matrix) -> Result<Self> {
        let (rows, cols) = dense.shape();
        if rows == 0 || cols == 0 {
            return Err(LinalgError::Empty);
        }
        if !dense.is_finite() {
            return Err(LinalgError::InvalidArgument(
                "sparse entries must be finite",
            ));
        }
        // Straight to compressed rows: no triplets, no per-row vectors.
        let nnz = dense.as_slice().iter().filter(|&&v| v != 0.0).count();
        let (mut indices, mut values) = (Vec::with_capacity(nnz), Vec::with_capacity(nnz));
        let mut indptr = Vec::with_capacity(rows + 1);
        indptr.push(0);
        for r in 0..rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                if v != 0.0 {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Ok(SparseRowMatrix {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row `r` as parallel `(column_indices, values)` slices.
    ///
    /// # Panics
    ///
    /// Panics when `r >= rows()`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        assert!(r < self.rows, "sparse row index out of range");
        let (lo, hi) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// The dot product of row `r` with a dense slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range or `x` is shorter than `cols()`.
    pub fn row_dot(&self, r: usize, x: &[f64]) -> f64 {
        let (cols, vals) = self.row(r);
        cols.iter().zip(vals).map(|(&c, &v)| v * x[c]).sum()
    }

    /// Writes `self · x` into `out` without allocating.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] for wrong-length vectors.
    pub fn matvec_into(&self, x: &Vector, out: &mut Vector) -> Result<()> {
        if x.len() != self.cols || out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (x.len(), 1),
                op: "sparse matvec",
            });
        }
        let xs = x.as_slice();
        for (r, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = self.row_dot(r, xs);
        }
        Ok(())
    }

    /// Returns `self · x` as a fresh vector.
    ///
    /// # Errors
    ///
    /// Same as [`SparseRowMatrix::matvec_into`].
    pub fn matvec(&self, x: &Vector) -> Result<Vector> {
        let mut out = Vector::zeros(self.rows);
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Expands to a dense matrix.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out[(r, c)] = v;
            }
        }
        out
    }

    /// Accumulates the weighted Gram product `selfᵀ·W²·self` into a
    /// banded matrix at `O(nnz·b)` cost, exploiting that every row's
    /// support is contiguous-in-band: for local-support spline rows the
    /// product `AᵀW²A` has bandwidth `order − 1` exactly.
    ///
    /// Pass `None` for unit weights. `out` is zeroed first.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `out.dim() != cols()`, the
    /// weight vector length differs from `rows()`, or some row's support
    /// spans more than `out.bandwidth() + 1` columns (its outer product
    /// would fall outside the band).
    pub fn weighted_gram_banded_into(
        &self,
        weights: Option<&[f64]>,
        out: &mut BandedMatrix,
    ) -> Result<()> {
        if out.dim() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                left: (self.cols, self.cols),
                right: (out.dim(), out.dim()),
                op: "sparse banded gram",
            });
        }
        if let Some(w) = weights {
            if w.len() != self.rows {
                return Err(LinalgError::ShapeMismatch {
                    left: (self.rows, 1),
                    right: (w.len(), 1),
                    op: "sparse banded gram weights",
                });
            }
        }
        out.fill_zero();
        for r in 0..self.rows {
            let c2 = weights.map_or(1.0, |w| w[r] * w[r]);
            if c2 == 0.0 {
                continue;
            }
            let (cols, vals) = self.row(r);
            if let (Some(&first), Some(&last)) = (cols.first(), cols.last()) {
                if last - first > out.bandwidth() {
                    return Err(LinalgError::ShapeMismatch {
                        left: (last - first, 0),
                        right: (out.bandwidth(), 0),
                        op: "sparse banded gram row support",
                    });
                }
            }
            for (a, &ca) in cols.iter().enumerate() {
                let va = c2 * vals[a];
                if va == 0.0 {
                    continue;
                }
                for (b, &cb) in cols.iter().enumerate().skip(a) {
                    out.add_at(ca, cb, va * vals[b])?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triplets_sum_duplicates_and_sort_columns() {
        let a = SparseRowMatrix::from_triplets(
            2,
            3,
            &[(0, 2, 1.0), (0, 0, 2.0), (0, 2, 0.5), (1, 1, -1.0)],
        )
        .expect("valid");
        assert_eq!(a.nnz(), 3);
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 2]);
        assert_eq!(vals, &[2.0, 1.5]);
    }

    #[test]
    fn dense_round_trip() {
        let d = Matrix::from_rows(&[&[0.0, 1.0, 0.0], &[2.0, 0.0, 3.0]]).expect("rows");
        let s = SparseRowMatrix::from_dense(&d).expect("finite");
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
        let x = Vector::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(
            s.matvec(&x).expect("shapes").as_slice(),
            d.matvec(&x).expect("shapes").as_slice()
        );
    }

    #[test]
    fn row_entries_and_dot() {
        let s = SparseRowMatrix::from_triplets(1, 5, &[(0, 1, 2.0), (0, 4, -1.0)]).expect("valid");
        assert_eq!(s.row(0), (&[1usize, 4][..], &[2.0, -1.0][..]));
        assert_eq!(s.row_dot(0, &[1.0, 1.0, 1.0, 1.0, 1.0]), 1.0);
    }

    #[test]
    fn banded_gram_matches_dense_gram() {
        // Rows with 3-wide contiguous support → bandwidth-2 Gram.
        let mut triplets = Vec::new();
        for r in 0..20 {
            let start = r % 6;
            for k in 0..3 {
                triplets.push((r, start + k, ((r * 3 + k) as f64 * 0.37).sin() + 0.2));
            }
        }
        let s = SparseRowMatrix::from_triplets(20, 8, &triplets).expect("valid");
        let w: Vec<f64> = (0..20).map(|i| 0.5 + 0.1 * i as f64).collect();
        let mut banded = BandedMatrix::zeros(8, 2).expect("valid");
        s.weighted_gram_banded_into(Some(&w), &mut banded)
            .expect("support fits band");
        let mut dense = Matrix::zeros(8, 8);
        s.to_dense()
            .weighted_gram_into(&w, &mut dense)
            .expect("shapes");
        assert!((&banded.to_dense() - &dense).norm_inf() < 1e-12);

        // A too-narrow band is rejected, not silently truncated.
        let mut narrow = BandedMatrix::zeros(8, 1).expect("valid");
        assert!(s.weighted_gram_banded_into(Some(&w), &mut narrow).is_err());
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(SparseRowMatrix::from_triplets(0, 3, &[]).is_err());
        assert!(SparseRowMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(SparseRowMatrix::from_triplets(2, 2, &[(0, 0, f64::NAN)]).is_err());
    }
}
