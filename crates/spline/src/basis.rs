//! The natural cubic B-spline basis and its exact roughness penalty.

use cellsync_linalg::{BandedMatrix, Matrix, SparseRowMatrix};

use crate::bspline::{ClampedBasis, DEGREE};
use crate::{Result, SplineError};

/// Abscissae offset of the 2-point Gauss–Legendre rule (`1/√3`).
const GAUSS2: f64 = 0.577_350_269_189_625_8;

/// The natural cubic splines on a knot grid, in a basis of **natural
/// cubic B-splines** `{Nᵢ}`.
///
/// On `n` knots the clamped cubic B-splines `B₀ … B_{n+1}` span every
/// cubic spline; the natural ones are those with `f''(a) = f''(b) = 0`.
/// Each condition involves only the three B-splines alive at its end, so
/// eliminating `B₀` and `B_{n+1}` leaves `n` functions
///
/// ```text
/// N₀ = B₁ + ℓ₀B₀,   N₁ = B₂ + ℓ₁B₀,   Nᵢ = Bᵢ₊₁,   N_{n−2} = B_{n−1} + r₁B_{n+1},   N_{n−1} = B_n + r₀B_{n+1}
/// ```
///
/// (`ℓ`, `r` the weights that zero the end curvature). Every `Nᵢ` lives
/// on at most four knot spans, so the roughness penalty `Ω` is banded
/// (bandwidth 3) and a collocation row has at most four nonzeros.
/// Constants have unit coordinates and the linear profile `x` has the
/// coordinates [`SplineBasis::greville`].
///
/// Outside `[a, b]` a natural spline continues linearly (zero end
/// curvature), and so does every evaluation here.
///
/// # Example
///
/// ```
/// use cellsync_spline::SplineBasis;
///
/// # fn main() -> Result<(), cellsync_spline::SplineError> {
/// let basis = SplineBasis::uniform(8, 0.0, 1.0)?;
/// // Constants have unit coordinates.
/// let ones = vec![1.0; basis.len()];
/// assert!((basis.eval_combination(&ones, 0.37)? - 1.0).abs() < 1e-12);
/// // Natural end conditions: zero curvature at both ends.
/// assert!(basis.deriv2(0, 0.0).abs() < 1e-9);
/// // Local support: N₀ vanishes past the second knot span.
/// assert_eq!(basis.eval(0, 0.9), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SplineBasis {
    knots: Vec<f64>,
    clamped: ClampedBasis,
    /// `B₀`'s weight in `N₀` and `N₁`.
    lift_lo: [f64; 2],
    /// `B_{n+1}`'s weight in `N_{n−1}` and `N_{n−2}`.
    lift_hi: [f64; 2],
}

impl SplineBasis {
    /// Builds the basis on the given knots.
    ///
    /// # Errors
    ///
    /// * [`SplineError::TooFewKnots`] for fewer than 4 knots (the
    ///   deconvolution problem needs genuine curvature).
    /// * [`SplineError::InvalidKnots`] for unsorted/non-finite knots.
    pub fn new(knots: Vec<f64>) -> Result<Self> {
        if knots.len() < 4 {
            return Err(SplineError::TooFewKnots {
                got: knots.len(),
                need: 4,
            });
        }
        let clamped = ClampedBasis::new(&knots)?;
        let (a, b) = (knots[0], knots[knots.len() - 1]);
        let last = clamped.len() - 1;
        // Curvatures of B₀‥B₃ at a and of B_{n−2}‥B_{n+1} at b.
        let lo = clamped.local(DEGREE, a, 2);
        let hi = clamped.local(last, b, 2);
        Ok(SplineBasis {
            knots,
            lift_lo: [-lo[1] / lo[0], -lo[2] / lo[0]],
            lift_hi: [-hi[2] / hi[3], -hi[1] / hi[3]],
            clamped,
        })
    }

    /// Builds the basis on `n` uniformly spaced knots over `[a, b]`.
    ///
    /// # Errors
    ///
    /// Same as [`SplineBasis::new`], plus
    /// [`SplineError::InvalidArgument`] for a degenerate interval.
    pub fn uniform(n: usize, a: f64, b: f64) -> Result<Self> {
        if !a.is_finite() || !b.is_finite() || a >= b {
            return Err(SplineError::InvalidArgument(
                "interval must be finite and non-degenerate",
            ));
        }
        if n < 4 {
            return Err(SplineError::TooFewKnots { got: n, need: 4 });
        }
        let knots: Vec<f64> = (0..n)
            .map(|i| {
                if i == n - 1 {
                    b
                } else {
                    a + (b - a) * i as f64 / (n - 1) as f64
                }
            })
            .collect();
        SplineBasis::new(knots)
    }

    /// Number of basis functions (== number of knots).
    pub fn len(&self) -> usize {
        self.knots.len()
    }

    /// Whether the basis is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.knots.is_empty()
    }

    /// The knot grid (the panel boundaries quadrature loops integrate
    /// between).
    pub fn knots(&self) -> &[f64] {
        &self.knots
    }

    /// Domain `(first_knot, last_knot)`.
    fn domain(&self) -> (f64, f64) {
        (self.knots[0], self.knots[self.knots.len() - 1])
    }

    /// The coordinates `ξ` of the linear profile `x`: `Σ ξᵢNᵢ(x) = x`.
    /// They are the clamped Greville abscissae without their two end
    /// values, so `span{1, ξ}` is the coefficient image of the linear
    /// profiles — the null space of the roughness penalty.
    pub fn greville(&self) -> Vec<f64> {
        let xi = self.clamped.greville();
        xi[1..xi.len() - 1].to_vec()
    }

    /// The `order`-th derivatives (`order ≤ 2`) of the (at most four)
    /// basis functions alive at `x`: `(first, v)` with `v[r]` belonging
    /// to `N_{first+r}`. Allocation-free; outside the domain the
    /// functions continue linearly.
    fn local(&self, x: f64, order: usize) -> (usize, [f64; 4]) {
        let (a, b) = self.domain();
        let inside = x.clamp(a, b);
        let j = self.clamped.span(inside);
        let mut v = self.clamped.local(j, inside, order);
        if inside != x {
            v = match order {
                0 => {
                    let slope = self.clamped.local(j, inside, 1);
                    std::array::from_fn(|r| v[r] + (x - inside) * slope[r])
                }
                1 => v,
                _ => [0.0; 4],
            };
        }
        self.lift(j, v)
    }

    /// Maps the values `v[r]` of the clamped `B_{j−3+r}` onto the natural
    /// functions: `B₀` and `B_{n+1}` split into their two lifted
    /// neighbours, every other `Bᵢ` is `N_{i−1}`.
    fn lift(&self, j: usize, v: [f64; 4]) -> (usize, [f64; 4]) {
        let n = self.len();
        let first = j.saturating_sub(DEGREE + 1).min(n - 4);
        let mut out = [0.0; 4];
        for (r, &value) in v.iter().enumerate() {
            let i = j + r - DEGREE;
            if i == 0 {
                out[0] += self.lift_lo[0] * value;
                out[1] += self.lift_lo[1] * value;
            } else if i == n + 1 {
                out[n - 1 - first] += self.lift_hi[0] * value;
                out[n - 2 - first] += self.lift_hi[1] * value;
            } else {
                out[i - 1 - first] += value;
            }
        }
        (first, out)
    }

    /// The `order`-th derivative of basis function `i` at `x`.
    fn single(&self, i: usize, x: f64, order: usize) -> f64 {
        assert!(i < self.len(), "basis index out of range");
        let (first, v) = self.local(x, order);
        if (first..first + 4).contains(&i) {
            v[i - first]
        } else {
            0.0
        }
    }

    /// Value of basis function `i` at `x`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn eval(&self, i: usize, x: f64) -> f64 {
        self.single(i, x, 0)
    }

    /// First derivative of basis function `i` at `x`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn deriv(&self, i: usize, x: f64) -> f64 {
        self.single(i, x, 1)
    }

    /// Second derivative of basis function `i` at `x`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn deriv2(&self, i: usize, x: f64) -> f64 {
        self.single(i, x, 2)
    }

    fn check_points(points: &[f64]) -> Result<()> {
        if points.is_empty() {
            return Err(SplineError::InvalidArgument("points must be non-empty"));
        }
        if points.iter().any(|p| !p.is_finite()) {
            return Err(SplineError::InvalidArgument("points must be finite"));
        }
        Ok(())
    }

    /// Collocation matrix `B[g, i] = Nᵢ(points[g])`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::InvalidArgument`] for empty or non-finite
    /// points.
    pub fn collocation_matrix(&self, points: &[f64]) -> Result<Matrix> {
        SplineBasis::check_points(points)?;
        let n = self.len();
        let mut out = Matrix::zeros(points.len(), n);
        for (row, &p) in out.as_mut_slice().chunks_exact_mut(n).zip(points) {
            let (first, v) = self.local(p, 0);
            row[first..first + 4].copy_from_slice(&v);
        }
        Ok(out)
    }

    /// Sparse collocation matrix: each row holds only the (at most four)
    /// basis functions alive at that point — the storage the constraint
    /// blocks of the banded QP path use.
    ///
    /// # Errors
    ///
    /// Same as [`SplineBasis::collocation_matrix`].
    pub fn collocation_sparse(&self, points: &[f64]) -> Result<SparseRowMatrix> {
        SplineBasis::check_points(points)?;
        let mut triplets = Vec::with_capacity(points.len() * 4);
        for (g, &p) in points.iter().enumerate() {
            let (first, v) = self.local(p, 0);
            for (r, &value) in v.iter().enumerate() {
                if value != 0.0 {
                    triplets.push((g, first + r, value));
                }
            }
        }
        SparseRowMatrix::from_triplets(points.len(), self.len(), &triplets)
            .map_err(|e| SplineError::SolveFailed(format!("sparse collocation: {e}")))
    }

    /// `Σ coeffs[i]·(the order-th derivative of Nᵢ)` at `x`.
    fn combination(&self, coeffs: &[f64], x: f64, order: usize) -> Result<f64> {
        if coeffs.len() != self.len() {
            return Err(SplineError::CoefficientMismatch {
                basis: self.len(),
                coefficients: coeffs.len(),
            });
        }
        let (first, v) = self.local(x, order);
        Ok(v.iter()
            .zip(&coeffs[first..first + 4])
            .map(|(a, c)| a * c)
            .sum())
    }

    /// Evaluates the spline `Σ coeffs[i]·Nᵢ` at `x`: one span lookup and
    /// four live cubics, whatever the basis size.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::CoefficientMismatch`] for wrong-length
    /// coefficients.
    pub fn eval_combination(&self, coeffs: &[f64], x: f64) -> Result<f64> {
        self.combination(coeffs, x, 0)
    }

    /// Evaluates the derivative of the combination at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::CoefficientMismatch`] for wrong-length
    /// coefficients.
    pub fn deriv_combination(&self, coeffs: &[f64], x: f64) -> Result<f64> {
        self.combination(coeffs, x, 1)
    }

    /// The exact roughness Gram matrix `Ωᵢⱼ = ∫Nᵢ''Nⱼ''` over the knot
    /// range, in its natural bandwidth-3 banded form.
    ///
    /// Cubic-spline second derivatives are piecewise linear, so the
    /// per-panel integrand is a quadratic and the 2-point Gauss rule
    /// integrates it **exactly** — a closed form, not an approximation.
    /// The result is symmetric positive semidefinite with nullity exactly
    /// 2 (constants and linears have zero curvature).
    pub fn penalty(&self) -> BandedMatrix {
        let mut omega =
            BandedMatrix::zeros(self.len(), DEGREE).expect("n ≥ 4 admits bandwidth 3 storage");
        for w in self.knots.windows(2) {
            let half = 0.5 * (w[1] - w[0]);
            let mid = 0.5 * (w[0] + w[1]);
            for x in [mid - half * GAUSS2, mid + half * GAUSS2] {
                let (first, d2) = self.local(x, 2);
                for p in 0..4 {
                    for q in p..4 {
                        omega
                            .add_at(first + p, first + q, half * d2[p] * d2[q])
                            .expect("|i − j| ≤ 3 stays in band");
                    }
                }
            }
        }
        omega
    }

    /// The roughness penalty as a dense [`Matrix`].
    pub fn penalty_matrix(&self) -> Matrix {
        self.penalty().to_dense()
    }

    /// The roughness penalty in banded form, wrapped for callers written
    /// against an optional banded penalty.
    pub fn penalty_banded(&self) -> Option<BandedMatrix> {
        Some(self.penalty())
    }

    /// This basis, for callers written against an optional B-spline view.
    pub fn as_bspline(&self) -> Option<&SplineBasis> {
        Some(self)
    }

    /// Whether every basis function has local support (always).
    pub fn is_local(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_linalg::Vector;

    fn basis() -> SplineBasis {
        SplineBasis::uniform(8, 0.0, 1.0).unwrap()
    }

    fn grid(m: usize) -> Vec<f64> {
        (0..=m).map(|k| k as f64 / m as f64).collect()
    }

    /// `Σ coeffs[i]·N_i^{(order)}(x)` summed function by function.
    fn naive(b: &SplineBasis, coeffs: &[f64], x: f64, order: usize) -> f64 {
        (0..b.len())
            .map(|i| coeffs[i] * b.single(i, x, order))
            .sum()
    }

    #[test]
    fn partition_of_unity() {
        // Constants are natural splines with unit coordinates, so ΣNᵢ ≡ 1
        // everywhere (the linear extension of a constant is constant).
        for n in [4usize, 5, 8, 17, 128] {
            let b = SplineBasis::uniform(n, 0.0, 1.0).unwrap();
            for &phi in grid(50).iter().chain(&[-0.3, 1.2]) {
                let s: f64 = (0..n).map(|i| b.eval(i, phi)).sum();
                assert!((s - 1.0).abs() < 1e-12, "n={n} phi={phi}: {s}");
            }
        }
    }

    #[test]
    fn reproduces_linear_functions() {
        // Σ ξᵢNᵢ(φ) = φ, including the linear extension past the ends.
        let b = basis();
        let coeffs = b.greville();
        assert_eq!(coeffs.len(), b.len());
        for &phi in grid(20).iter().chain(&[-0.25, 1.4]) {
            assert!((b.eval_combination(&coeffs, phi).unwrap() - phi).abs() < 1e-12);
            assert!((b.deriv_combination(&coeffs, phi).unwrap() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn natural_end_conditions() {
        for n in [4usize, 9, 128] {
            let b = SplineBasis::uniform(n, 0.0, 2.0).unwrap();
            for i in 0..n {
                for x in [0.0, 2.0] {
                    assert!(b.deriv2(i, x).abs() < 1e-9, "n={n}: N_{i}''({x})");
                }
            }
        }
    }

    #[test]
    fn local_support_is_four_spans() {
        let b = SplineBasis::uniform(12, 0.0, 1.0).unwrap();
        let knots = b.knots().to_vec();
        for i in 0..b.len() {
            // Nᵢ lives on [t_{i−2}, t_{i+2}] (clipped to the domain).
            let lo = knots[i.saturating_sub(2)];
            let hi = knots[(i + 2).min(b.len() - 1)];
            for &x in &grid(401) {
                if x < lo || x > hi {
                    assert_eq!(b.eval(i, x), 0.0, "N_{i} nonzero at {x}");
                }
            }
        }
    }

    #[test]
    fn penalty_matrix_symmetric_psd_with_nullity_two() {
        let b = basis();
        let omega = b.penalty_matrix();
        assert!(omega.asymmetry().unwrap() < 1e-12);
        let eig = omega.symmetric_eigen().unwrap();
        let evs = eig.eigenvalues();
        // No negative eigenvalues (tolerance for roundoff).
        assert!(evs[0] > -1e-10, "min eigenvalue {}", evs[0]);
        // Exactly two (near-)zero eigenvalues: constants and linears.
        let near_zero = evs.iter().filter(|&&v| v.abs() < 1e-8).count();
        assert_eq!(near_zero, 2, "eigenvalues {evs}");
    }

    #[test]
    fn penalty_annihilates_constants_and_linears() {
        let b = basis();
        let omega = b.penalty();
        assert_eq!(omega.bandwidth(), 3);
        let ones = Vector::filled(b.len(), 1.0);
        assert!(omega.matvec(&ones).unwrap().norm2() < 1e-10);
        let lin = Vector::from_slice(&b.greville());
        assert!(omega.matvec(&lin).unwrap().norm2() < 1e-10);
    }

    #[test]
    fn penalty_annihilates_constants_and_greville_at_fine_bases() {
        // The banded solver eliminates span{1, ξ} exactly and treats Ω as
        // positive definite on the rest, so Ω·1 and Ω·ξ must vanish to
        // assembly rounding (a few ulps of ‖Ω‖) at every basis size it
        // serves.
        for n in [128, 256, 512] {
            let basis = SplineBasis::uniform(n, 0.0, 1.0).unwrap();
            let omega = basis.penalty();
            let norm = (0..n)
                .map(|i| (0..n).map(|j| omega.get(i, j).abs()).sum::<f64>())
                .fold(0.0, f64::max);
            for v in [vec![1.0; n], basis.greville()] {
                let image = omega.matvec(&Vector::from_slice(&v)).unwrap();
                let worst = image.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                assert!(
                    worst <= 64.0 * f64::EPSILON * norm,
                    "n={n}: ‖Ω·v‖∞ = {worst:e} against ‖Ω‖∞ = {norm:e}"
                );
            }
        }
    }

    #[test]
    fn penalty_matches_quadrature() {
        // Cross-check one entry against brute-force numerical integration.
        let b = basis();
        let omega = b.penalty_matrix();
        let (i, j) = (2, 4);
        let n = 200_000;
        let mut acc = 0.0;
        for k in 0..n {
            let phi = (k as f64 + 0.5) / n as f64;
            acc += b.deriv2(i, phi) * b.deriv2(j, phi);
        }
        acc /= n as f64;
        assert!(
            (omega[(i, j)] - acc).abs() < 1e-6,
            "{} vs {acc}",
            omega[(i, j)]
        );
    }

    #[test]
    fn penalty_matches_simpson_quadrature() {
        // N'' products are quadratic per panel; Simpson (degree-3 exact)
        // reproduces the 2-point Gauss assembly to rounding.
        let basis = basis();
        let omega = basis.penalty();
        let knots = basis.knots();
        for i in 0..basis.len() {
            for j in 0..basis.len() {
                let mut acc = 0.0;
                for w in knots.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    let mid = 0.5 * (lo + hi);
                    // One-sided interior samples keep N'' on the panel's
                    // own polynomial piece.
                    acc += (hi - lo) / 6.0
                        * (basis.deriv2(i, lo + 1e-12) * basis.deriv2(j, lo + 1e-12)
                            + 4.0 * basis.deriv2(i, mid) * basis.deriv2(j, mid)
                            + basis.deriv2(i, hi - 1e-12) * basis.deriv2(j, hi - 1e-12));
                }
                let got = omega.get(i, j);
                assert!(
                    (got - acc).abs() < 1e-6 * (1.0 + acc.abs()),
                    "Ω[{i}][{j}] = {got} vs quadrature {acc}"
                );
            }
        }
    }

    #[test]
    fn quadratic_penalty_value() {
        // αᵀΩα is ∫ s''² for the spline s = Σ αᵢNᵢ.
        let b = basis();
        let omega = b.penalty_matrix();
        let alpha = Vector::from_fn(b.len(), |i| {
            let t = b.knots()[i];
            t * t + 0.3 * (5.0 * t).sin()
        });
        let quad = alpha.dot(&omega.matvec(&alpha).unwrap()).unwrap();
        let n = 100_000;
        let mut acc = 0.0;
        for k in 0..n {
            let phi = (k as f64 + 0.5) / n as f64;
            let s2 = naive(&b, alpha.as_slice(), phi, 2);
            acc += s2 * s2;
        }
        acc /= n as f64;
        assert!((quad - acc).abs() / acc < 1e-4, "{quad} vs {acc}");
    }

    #[test]
    fn collocation_matrix_shape_and_rows() {
        let b = basis();
        let pts = [0.1, 0.5, 0.9, 1.0];
        let m = b.collocation_matrix(&pts).unwrap();
        assert_eq!(m.shape(), (4, b.len()));
        for (g, &p) in pts.iter().enumerate() {
            for i in 0..b.len() {
                assert_eq!(m[(g, i)], b.eval(i, p));
            }
        }
        assert!(b.collocation_matrix(&[]).is_err());
        assert!(b.collocation_matrix(&[f64::NAN]).is_err());
    }

    #[test]
    fn sparse_collocation_matches_dense() {
        let basis = SplineBasis::uniform(13, 0.0, 1.0).unwrap();
        let points = grid(29);
        let dense = basis.collocation_matrix(&points).unwrap();
        let sparse = basis.collocation_sparse(&points).unwrap();
        assert_eq!(sparse.rows(), points.len());
        assert_eq!(sparse.cols(), basis.len());
        let expanded = sparse.to_dense();
        for g in 0..points.len() {
            let (idx, _) = sparse.row(g);
            assert!(idx.len() <= 4, "row {g} has {} entries", idx.len());
            for i in 0..basis.len() {
                assert_eq!(dense[(g, i)], expanded[(g, i)]);
            }
        }
        assert!(basis.collocation_sparse(&[]).is_err());
        assert!(basis.collocation_sparse(&[f64::NAN]).is_err());
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            SplineBasis::uniform(3, 0.0, 1.0),
            Err(SplineError::TooFewKnots { got: 3, need: 4 })
        ));
        assert!(SplineBasis::uniform(5, 1.0, 0.0).is_err());
        assert!(SplineBasis::uniform(5, 0.0, f64::NAN).is_err());
        assert!(SplineBasis::new(vec![0.0, 0.0, 0.5, 1.0]).is_err());
        let b = basis();
        assert_eq!(b.len(), 8);
        assert!(!b.is_empty());
        assert!(b.eval_combination(&[1.0], 0.5).is_err());
        assert!(b.deriv_combination(&[1.0], 0.5).is_err());
    }

    #[test]
    fn combination_fast_path_matches_basis_sum() {
        // The four-function fast path must agree with the naive
        // Σ αᵢNᵢ(φ) sum everywhere, including out-of-range phases (linear
        // extension) and the knots themselves.
        let b = SplineBasis::uniform(9, 0.0, 1.0).unwrap();
        let coeffs: Vec<f64> = (0..9).map(|i| ((i * 13 % 7) as f64) - 2.5).collect();
        let mut phis = grid(200);
        phis.extend([-0.25, -1e-12, 1.0 + 1e-12, 1.4]);
        for &phi in &phis {
            let (v, d) = (naive(&b, &coeffs, phi, 0), naive(&b, &coeffs, phi, 1));
            let fast_v = b.eval_combination(&coeffs, phi).unwrap();
            let fast_d = b.deriv_combination(&coeffs, phi).unwrap();
            assert!((fast_v - v).abs() < 1e-12, "phi {phi}: {fast_v} vs {v}");
            assert!((fast_d - d).abs() < 1e-11, "phi {phi}: {fast_d}' vs {d}'");
        }
    }

    #[test]
    fn combination_fast_path_matches_cardinal_sum() {
        // The cardinal functions ψⱼ of the natural spline space (ψⱼ(xₖ) =
        // δⱼₖ at the knots) have B-spline coordinates column j of C⁻¹, C
        // the collocation at the knots. The fast path on α = C⁻¹y must
        // agree with the cardinal sum Σ yⱼψⱼ(φ) built function by
        // function, and interpolate y at the knots.
        let b = SplineBasis::uniform(9, 0.0, 1.0).unwrap();
        let y: Vec<f64> = (0..9).map(|i| (i as f64 * 0.83).sin() + 2.0).collect();
        let c_inv = b.collocation_matrix(b.knots()).unwrap().inverse().unwrap();
        let alpha: Vec<f64> = (0..9)
            .map(|i| (0..9).map(|j| c_inv[(i, j)] * y[j]).sum())
            .collect();
        let cardinal = |j: usize, phi: f64, order: usize| -> f64 {
            let psi: Vec<f64> = (0..9).map(|i| c_inv[(i, j)]).collect();
            naive(&b, &psi, phi, order)
        };
        let mut phis = grid(200);
        phis.extend([-0.25, 1.4]);
        for &phi in &phis {
            let v: f64 = (0..9).map(|j| y[j] * cardinal(j, phi, 0)).sum();
            let d: f64 = (0..9).map(|j| y[j] * cardinal(j, phi, 1)).sum();
            let fast_v = b.eval_combination(&alpha, phi).unwrap();
            let fast_d = b.deriv_combination(&alpha, phi).unwrap();
            assert!((fast_v - v).abs() < 1e-11, "phi {phi}: {fast_v} vs {v}");
            assert!((fast_d - d).abs() < 1e-9, "phi {phi}: {fast_d}' vs {d}'");
        }
        for (k, &x) in b.knots().iter().enumerate() {
            let got = b.eval_combination(&alpha, x).unwrap();
            assert!((got - y[k]).abs() < 1e-12, "knot {k}: {got} vs {}", y[k]);
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let b = SplineBasis::uniform(9, 0.0, 1.0).unwrap();
        let h = 1e-6;
        for i in 0..b.len() {
            for &x in &[0.05, 0.22, 0.41, 0.63, 0.87] {
                let fd = (b.eval(i, x + h) - b.eval(i, x - h)) / (2.0 * h);
                assert!((b.deriv(i, x) - fd).abs() < 1e-6, "N_{i}' at {x}");
                let fd2 = (b.deriv(i, x + h) - b.deriv(i, x - h)) / (2.0 * h);
                assert!((b.deriv2(i, x) - fd2).abs() < 1e-4, "N_{i}'' at {x}");
            }
        }
    }

    #[test]
    fn uniform_knots_hit_endpoints() {
        let b = SplineBasis::uniform(11, 0.0, 1.0).unwrap();
        assert_eq!(b.knots()[0], 0.0);
        assert_eq!(b.knots()[10], 1.0);
        assert_eq!(b.domain(), (0.0, 1.0));
    }
}
