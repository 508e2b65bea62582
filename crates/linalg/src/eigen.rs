//! Symmetric eigendecomposition by Householder tridiagonalization and
//! implicit-shift QL (the EISPACK `tred2`/`tql2` scheme).

use crate::{dot, LinalgError, Matrix, Result, Vector};

/// Eigendecomposition `A = V·diag(λ)·Vᵀ` of a symmetric matrix.
///
/// The matrix is reduced to tridiagonal form by `n − 2` Householder
/// reflections (accumulated into `V`), and the tridiagonal eigenproblem
/// is solved by QL iterations with implicit Wilkinson-style shifts. Both
/// phases are orthogonal similarity transforms, so the result is
/// normwise backward stable: `‖AV − VΛ‖ = O(n·ε·‖A‖)` and
/// `‖VᵀV − I‖ = O(n·ε)`. The cost is about `9n³` flops with no sweep
/// count to converge: the QL phase typically needs one to two
/// iterations per eigenvalue.
///
/// # Example
///
/// ```
/// use cellsync_linalg::Matrix;
///
/// # fn main() -> Result<(), cellsync_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]])?;
/// let eig = a.symmetric_eigen()?;
/// let evs = eig.eigenvalues();
/// assert!((evs[0] - 1.0).abs() < 1e-12 && (evs[1] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted ascending.
    values: Vector,
    /// Orthonormal eigenvectors as columns, ordered to match `values`.
    vectors: Matrix,
}

impl SymmetricEigen {
    /// Computes the eigendecomposition of a symmetric matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] / [`LinalgError::Empty`] for bad shapes.
    /// * [`LinalgError::InvalidArgument`] for non-finite or asymmetric input.
    /// * [`LinalgError::ConvergenceFailed`] if the QL iteration exceeds its
    ///   budget of 30 iterations per eigenvalue (not observed in practice).
    /// * [`LinalgError::NonFinite`] if the result overflows (entries near
    ///   `f64::MAX`).
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
        let scale = a.norm_inf().max(1.0);
        if a.asymmetry()? > 1e-8 * scale {
            return Err(LinalgError::InvalidArgument(
                "matrix must be symmetric for eigendecomposition",
            ));
        }

        let n = a.rows();
        let mut vectors = a.clone();
        vectors.symmetrize()?;
        let mut values = Vector::zeros(n);
        let mut work = vec![0.0; n];
        SymmetricEigen::decompose_in_place(
            n,
            vectors.as_mut_slice(),
            values.as_mut_slice(),
            &mut work,
        )?;
        Ok(SymmetricEigen { values, vectors })
    }

    /// Eigendecomposes the symmetric `n × n` matrix held row-major in `v`,
    /// in place and without allocating: the form a loop over many small
    /// matrices of one size wants.
    ///
    /// Only the lower triangle of `v` is read. On success `v` holds the
    /// orthonormal eigenvectors as columns and `d` the eigenvalues, sorted
    /// ascending; `e` (length `n`) is scratch. The entries must be finite.
    ///
    /// # Errors
    ///
    /// [`LinalgError::InvalidArgument`] for bad buffer lengths; otherwise as
    /// [`SymmetricEigen::new`].
    pub fn decompose_in_place(n: usize, v: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
        if n == 0 || v.len() != n * n || d.len() != n || e.len() != n {
            return Err(LinalgError::InvalidArgument(
                "in-place eigendecomposition needs n ≥ 1 and buffers of n², n and n",
            ));
        }
        tridiagonalize(n, v, d, e);
        tridiagonal_ql(n, v, d, e)?;
        if !d.iter().chain(v.iter()).all(|x| x.is_finite()) {
            return Err(LinalgError::NonFinite {
                op: "symmetric eigendecomposition",
            });
        }
        // Selection sort: O(n²) compares and at most n − 1 column swaps.
        for i in 0..n - 1 {
            let mut k = i;
            for j in (i + 1)..n {
                if d[j].total_cmp(&d[k]).is_lt() {
                    k = j;
                }
            }
            if k != i {
                d.swap(i, k);
                for row in v.chunks_exact_mut(n) {
                    row.swap(i, k);
                }
            }
        }
        Ok(())
    }

    /// One-sided (Hestenes) Jacobi, in place and without allocating:
    /// rotates pairs of the `k` rows of the row-major `k × len` matrix
    /// `rows` until they are mutually orthogonal, applying every rotation
    /// to the rows of the `k × width` matrix `along` too. Rows whose
    /// squared norm is at most `negligible` are left as they are (a rank
    /// deficiency). `norms` (length `k`) is scratch for the squared row
    /// norms.
    ///
    /// Run on rows that an eigendecomposition of their Gram has already
    /// made orthogonal to `ε_mach·‖rows‖²`, it finishes in a sweep or two
    /// and makes each row `σᵢ·vᵢ` with `σᵢ²` accurate to `ε_mach·σ_max·σᵢ`
    /// rather than the `ε_mach·σ_max²` of the Gram's eigenvalue. Cyclic
    /// Jacobi converges quadratically, so a sweep whose largest relative
    /// inner product was below `√tol` (`tol = max(k, len)·ε_mach`) leaves
    /// the rows orthogonal to `tol` and ends the iteration without a
    /// checking sweep.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ConvergenceFailed`] after 60 sweeps (not observed
    /// in practice).
    pub fn orthogonalize_rows(
        rows: &mut [f64],
        k: usize,
        len: usize,
        along: &mut [f64],
        width: usize,
        norms: &mut [f64],
        negligible: f64,
    ) -> Result<()> {
        let tol = k.max(len) as f64 * f64::EPSILON;
        for _ in 0..MAX_JACOBI_SWEEPS {
            for (n, b) in norms.iter_mut().zip(rows.chunks_exact(len)) {
                *n = dot(b, b);
            }
            let mut largest: f64 = 0.0;
            for p in 0..k {
                for q in p + 1..k {
                    let (a, b) = (norms[p], norms[q]);
                    if a <= negligible || b <= negligible {
                        continue;
                    }
                    let (head, tail) = rows.split_at_mut(q * len);
                    let (bp, bq) = (&mut head[p * len..(p + 1) * len], &mut tail[..len]);
                    let c = dot(bp, bq);
                    let relative = c.abs() / (a * b).sqrt();
                    if relative <= tol {
                        continue;
                    }
                    largest = largest.max(relative);
                    let zeta = (b - a) / (2.0 * c);
                    let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                    let cs = 1.0 / (1.0 + t * t).sqrt();
                    let sn = cs * t;
                    let (head, tail) = along.split_at_mut(q * width);
                    let (ap, aq) = (&mut head[p * width..(p + 1) * width], &mut tail[..width]);
                    rotate(bp, bq, cs, sn);
                    rotate(ap, aq, cs, sn);
                    norms[p] = a - t * c;
                    norms[q] = b + t * c;
                }
            }
            if largest <= tol.sqrt() {
                return Ok(());
            }
        }
        Err(LinalgError::ConvergenceFailed {
            iterations: MAX_JACOBI_SWEEPS,
        })
    }

    /// Eigenvalues sorted ascending.
    pub fn eigenvalues(&self) -> &Vector {
        &self.values
    }

    /// Orthonormal eigenvectors as matrix columns, ordered like
    /// [`SymmetricEigen::eigenvalues`].
    pub fn eigenvectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.values[0]
    }
}

/// Sweep budget of [`SymmetricEigen::orthogonalize_rows`]; cyclic
/// Jacobi converges quadratically, in a handful of sweeps.
const MAX_JACOBI_SWEEPS: usize = 60;

/// `(u, v) ← (c·u − s·v, s·u + c·v)`, entry by entry.
fn rotate(u: &mut [f64], v: &mut [f64], c: f64, s: f64) {
    for (a, b) in u.iter_mut().zip(v.iter_mut()) {
        let (x, y) = (*a, *b);
        *a = c * x - s * y;
        *b = s * x + c * y;
    }
}

/// QL iteration budget per eigenvalue (the LAPACK `dsteqr` convention).
const MAX_QL_ITERATIONS_PER_EIGENVALUE: usize = 30;

/// Householder reduction to tridiagonal form (`tred2`): on exit `d` holds
/// the diagonal, `e[1..]` the subdiagonal, and `v` the accumulated
/// orthogonal transform.
fn tridiagonalize(n: usize, v: &mut [f64], d: &mut [f64], e: &mut [f64]) {
    let at = |i: usize, j: usize| i * n + j;
    d.copy_from_slice(&v[at(n - 1, 0)..at(n - 1, 0) + n]);
    for i in (1..n).rev() {
        // Scale the row to avoid under/overflow in the reflector norm.
        let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
        let mut h = 0.0;
        if scale == 0.0 {
            e[i] = d[i - 1];
            for j in 0..i {
                d[j] = v[at(i - 1, j)];
                v[at(i, j)] = 0.0;
                v[at(j, i)] = 0.0;
            }
        } else {
            // Householder vector.
            for dk in &mut d[..i] {
                *dk /= scale;
                h += *dk * *dk;
            }
            let mut f = d[i - 1];
            let mut g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
            e[i] = scale * g;
            h -= f * g;
            d[i - 1] = f - g;
            e[..i].fill(0.0);
            // Similarity transform of the leading i × i block.
            for j in 0..i {
                f = d[j];
                v[at(j, i)] = f;
                g = e[j] + v[at(j, j)] * f;
                for k in (j + 1)..i {
                    g += v[at(k, j)] * d[k];
                    e[k] += v[at(k, j)] * f;
                }
                e[j] = g;
            }
            f = 0.0;
            for j in 0..i {
                e[j] /= h;
                f += e[j] * d[j];
            }
            let hh = f / (h + h);
            for j in 0..i {
                e[j] -= hh * d[j];
            }
            for j in 0..i {
                f = d[j];
                g = e[j];
                for k in j..i {
                    v[at(k, j)] -= f * e[k] + g * d[k];
                }
                d[j] = v[at(i - 1, j)];
                v[at(i, j)] = 0.0;
            }
        }
        d[i] = h;
    }
    // Accumulate the reflections into V.
    for i in 0..n - 1 {
        v[at(n - 1, i)] = v[at(i, i)];
        v[at(i, i)] = 1.0;
        let h = d[i + 1];
        if h != 0.0 {
            for k in 0..=i {
                d[k] = v[at(k, i + 1)] / h;
            }
            for j in 0..=i {
                let mut g = 0.0;
                for k in 0..=i {
                    g += v[at(k, i + 1)] * v[at(k, j)];
                }
                for k in 0..=i {
                    v[at(k, j)] -= g * d[k];
                }
            }
        }
        for k in 0..=i {
            v[at(k, i + 1)] = 0.0;
        }
    }
    for j in 0..n {
        d[j] = v[at(n - 1, j)];
        v[at(n - 1, j)] = 0.0;
    }
    v[at(n - 1, n - 1)] = 1.0;
    e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal `(d, e)` from
/// [`tridiagonalize`] (`tql2`), rotating the columns of `v` along.
fn tridiagonal_ql(n: usize, v: &mut [f64], d: &mut [f64], e: &mut [f64]) -> Result<()> {
    e.copy_within(1..n, 0);
    e[n - 1] = 0.0;
    let budget = MAX_QL_ITERATIONS_PER_EIGENVALUE * n;
    let mut iterations = 0;
    let mut f = 0.0;
    let mut tst1 = 0.0_f64;
    for l in 0..n {
        // Find a negligible subdiagonal element. `e[n − 1] = 0` stops the
        // scan; a NaN compares false and stops it too (caught by the
        // caller's finiteness check rather than looping).
        tst1 = tst1.max(d[l].abs() + e[l].abs());
        let mut m = l;
        while m + 1 < n && e[m].abs() > f64::EPSILON * tst1 {
            m += 1;
        }
        if m > l {
            loop {
                if iterations == budget {
                    return Err(LinalgError::ConvergenceFailed { iterations });
                }
                iterations += 1;
                // Implicit shift from the leading 2 × 2 block.
                let mut g = d[l];
                let mut p = (d[l + 1] - g) / (2.0 * e[l]);
                let r = if p < 0.0 { -p.hypot(1.0) } else { p.hypot(1.0) };
                d[l] = e[l] / (p + r);
                d[l + 1] = e[l] * (p + r);
                let dl1 = d[l + 1];
                let mut h = g - d[l];
                for di in &mut d[(l + 2)..n] {
                    *di -= h;
                }
                f += h;
                // Chase the bulge from row m up to row l.
                p = d[m];
                let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                let el1 = e[l + 1];
                let (mut s, mut s2) = (0.0, 0.0);
                for i in (l..m).rev() {
                    c3 = c2;
                    c2 = c;
                    s2 = s;
                    g = c * e[i];
                    h = c * p;
                    let r = p.hypot(e[i]);
                    e[i + 1] = s * r;
                    s = e[i] / r;
                    c = p / r;
                    p = c * d[i] - s * g;
                    d[i + 1] = h + s * (c * g + s * d[i]);
                    for row in v.chunks_exact_mut(n) {
                        let vi1 = row[i + 1];
                        row[i + 1] = s * row[i] + c * vi1;
                        row[i] = c * row[i] - s * vi1;
                    }
                }
                p = -s * s2 * c3 * el1 * e[l] / dl1;
                e[l] = s * p;
                d[l] = c * p;
                if e[l].abs() <= f64::EPSILON * tst1 || e[l].is_nan() {
                    break;
                }
            }
        }
        d[l] += f;
        e[l] = 0.0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_sorted() {
        let a = Matrix::from_diagonal(&Vector::from_slice(&[3.0, 1.0, 2.0]));
        let eig = a.symmetric_eigen().unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn one_by_one() {
        let eig = Matrix::from_rows(&[&[-4.5]])
            .unwrap()
            .symmetric_eigen()
            .unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[-4.5]);
        assert_eq!(eig.eigenvectors().as_slice(), &[1.0]);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = Matrix::from_rows(&[
            &[4.0, 1.0, -2.0, 2.0],
            &[1.0, 2.0, 0.0, 1.0],
            &[-2.0, 0.0, 3.0, -2.0],
            &[2.0, 1.0, -2.0, -1.0],
        ])
        .unwrap();
        let eig = a.symmetric_eigen().unwrap();
        let v = eig.eigenvectors();
        let d = Matrix::from_diagonal(eig.eigenvalues());
        let recon = v.matmul(&d).unwrap().matmul(&v.transpose()).unwrap();
        assert!((&recon - &a).norm_frobenius() < 1e-10);
        let vtv = v.transpose().matmul(v).unwrap();
        assert!((&vtv - &Matrix::identity(4)).norm_frobenius() < 1e-11);
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]).unwrap();
        let eig = a.symmetric_eigen().unwrap();
        let trace = a[(0, 0)] + a[(1, 1)];
        assert!((eig.eigenvalues().sum() - trace).abs() < 1e-12);
    }

    #[test]
    fn positive_definite_detection() {
        let spd = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(spd.symmetric_eigen().unwrap().min_eigenvalue() > 1e-12);
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(indef.symmetric_eigen().unwrap().min_eigenvalue() < 0.0);
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(a.symmetric_eigen().is_err());
    }

    #[test]
    fn identity_eigen() {
        let eig = Matrix::identity(5).symmetric_eigen().unwrap();
        for &v in eig.eigenvalues().iter() {
            assert!((v - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn overflowing_input_is_an_error_not_a_panic() {
        // Finite entries whose spectrum overflows f64: the reflector norm
        // and the shifts reach infinity, so the solver must report a
        // structured error instead of returning (or sorting) NaN.
        let big = f64::MAX / 2.0;
        let a =
            Matrix::from_rows(&[&[big, big, big], &[big, big, big], &[big, big, -big]]).unwrap();
        match a.symmetric_eigen() {
            Ok(eig) => {
                assert!(eig.eigenvalues().iter().all(|x| x.is_finite()));
                assert!(eig.eigenvectors().is_finite());
            }
            Err(e) => assert!(matches!(
                e,
                LinalgError::NonFinite { .. } | LinalgError::ConvergenceFailed { .. }
            )),
        }
    }

    #[test]
    fn orthogonalize_rows_rotates_the_companion_along() {
        // Rows become mutually orthogonal, and the companion, started at
        // the identity, records the rotation: companion·rows_in = rows_out.
        let (k, len) = (4, 6);
        let input: Vec<f64> = (0..k * len)
            .map(|x| ((x * 7 % 13) as f64 - 6.0) / 3.0 + 0.01 * x as f64)
            .collect();
        let mut rows = input.clone();
        let mut along = vec![0.0; k * k];
        for i in 0..k {
            along[i * k + i] = 1.0;
        }
        let mut norms = vec![0.0; k];
        SymmetricEigen::orthogonalize_rows(&mut rows, k, len, &mut along, k, &mut norms, 0.0)
            .unwrap();
        for p in 0..k {
            for q in p + 1..k {
                let (rp, rq) = (&rows[p * len..(p + 1) * len], &rows[q * len..(q + 1) * len]);
                assert!(dot(rp, rq).abs() < 1e-12 * dot(rp, rp).max(dot(rq, rq)));
            }
            for c in 0..len {
                let mixed: f64 = (0..k).map(|r| along[p * k + r] * input[r * len + c]).sum();
                assert!((mixed - rows[p * len + c]).abs() < 1e-12);
            }
        }
    }
}
