//! Clamped cubic B-splines with **local support** and the polymorphic
//! [`SplineBasis`] the deconvolution engine dispatches on.
//!
//! The cardinal natural basis ([`NaturalSplineBasis`]) is the paper's
//! parameterization, but every cardinal function has *global* support, so
//! its design and penalty Grams are dense and the normal equations cost
//! O(n³). A clamped cubic B-spline basis spans almost the same space
//! (cubics on the same breakpoints, without the natural end conditions —
//! a strictly *larger* space, so the penalized fit can only improve) while
//! each function lives on at most four knot spans. Overlap is therefore
//! limited to `|i − j| ≤ 3`, the roughness penalty is a bandwidth-3
//! [`BandedMatrix`], and the whole smoother factors in O(n·b²) — the
//! genome-scale path for large `basis_size`.
//!
//! Layout: for `n` basis functions the open knot vector has `n + 4`
//! entries — the domain ends repeated 4× (`t₀ = … = t₃ = a`,
//! `t_n = … = t_{n+3} = b`) with `n − 4` uniform interior knots, giving
//! `n − 2` breakpoints and `n − 3` polynomial segments. Evaluation is the
//! textbook Cox–de Boor recursion with the `0/0 → 0` convention at
//! repeated knots and the usual closure `N_{n−1}(b) = 1` at the right
//! boundary.

use cellsync_linalg::{BandedMatrix, Matrix, SparseRowMatrix};

use crate::{NaturalSplineBasis, Result, SplineError};

/// Spline degree of the basis (cubic).
const DEGREE: usize = 3;

/// Abscissae offset of the 2-point Gauss–Legendre rule (`1/√3`).
const GAUSS2: f64 = 0.577_350_269_189_625_8;

/// A clamped (open-uniform) cubic B-spline basis on `[a, b]`.
///
/// Each `N_i` is non-negative, supported on `[t_i, t_{i+4}]` (at most four
/// knot spans), and the basis forms a partition of unity. Local support is
/// the property the banded solver path exploits: any Gram matrix built
/// from the basis — the roughness penalty here, design cross-products in
/// `linalg` — has bandwidth at most 3.
///
/// # Example
///
/// ```
/// use cellsync_spline::BSplineBasis;
///
/// # fn main() -> Result<(), cellsync_spline::SplineError> {
/// let basis = BSplineBasis::uniform(8, 0.0, 1.0)?;
/// // Partition of unity: Σᵢ Nᵢ(x) = 1 everywhere on the domain.
/// let total: f64 = (0..basis.len()).map(|i| basis.eval(i, 0.37)).sum();
/// assert!((total - 1.0).abs() < 1e-12);
/// // Local support: N₀ vanishes past the fourth knot span.
/// assert_eq!(basis.eval(0, 0.9), 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BSplineBasis {
    /// Number of basis functions.
    n: usize,
    /// Open knot vector, `n + 4` entries with 4-fold clamped ends.
    t: Vec<f64>,
    /// Distinct breakpoints (`n − 2` entries, including both ends) — the
    /// panel boundaries quadrature loops integrate between.
    breaks: Vec<f64>,
}

impl BSplineBasis {
    /// Builds `n` clamped cubic B-splines over `[a, b]` with uniform
    /// interior knots.
    ///
    /// # Errors
    ///
    /// * [`SplineError::TooFewKnots`] when `n < 4` (fewer functions than
    ///   the cubic degree supports).
    /// * [`SplineError::InvalidArgument`] for a degenerate interval.
    pub fn uniform(n: usize, a: f64, b: f64) -> Result<Self> {
        if !a.is_finite() || !b.is_finite() || a >= b {
            return Err(SplineError::InvalidArgument(
                "interval must be finite and non-degenerate",
            ));
        }
        if n < 4 {
            return Err(SplineError::TooFewKnots { got: n, need: 4 });
        }
        let segments = n - DEGREE;
        let mut t = Vec::with_capacity(n + 4);
        t.extend(std::iter::repeat_n(a, DEGREE + 1));
        for k in 1..segments {
            t.push(a + (b - a) * k as f64 / segments as f64);
        }
        t.extend(std::iter::repeat_n(b, DEGREE + 1));
        debug_assert_eq!(t.len(), n + 4);
        let breaks: Vec<f64> = t[DEGREE..=n].to_vec();
        Ok(BSplineBasis { n, t, breaks })
    }

    /// Number of basis functions.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The distinct breakpoints (panel boundaries), including both domain
    /// ends — the analogue of the natural basis's knot grid for
    /// panel-by-panel quadrature.
    pub fn knots(&self) -> &[f64] {
        &self.breaks
    }

    /// The domain `[a, b]`.
    pub fn domain(&self) -> (f64, f64) {
        (self.t[0], self.t[self.t.len() - 1])
    }

    /// The Greville abscissae `ξᵢ = (tᵢ₊₁ + tᵢ₊₂ + tᵢ₊₃)/3`, one per basis
    /// function. `Σ ξᵢNᵢ(x) = x` exactly, so `span{1, ξ}` is the
    /// coefficient image of the linear profiles — the null space of the
    /// roughness penalty ([`BSplineBasis::penalty_banded`]). Clamped
    /// ends give `ξ₀ = a` and `ξ_{n−1} = b`.
    pub fn greville(&self) -> Vec<f64> {
        self.t
            .windows(DEGREE + 2)
            .map(|w| (w[1] + w[2] + w[3]) / DEGREE as f64)
            .collect()
    }

    /// The support interval `[tᵢ, tᵢ₊₄]` of basis function `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn support(&self, i: usize) -> (f64, f64) {
        assert!(i < self.n, "basis index out of range");
        (self.t[i], self.t[i + DEGREE + 1])
    }

    /// Degree-0 indicator `N_{i,0}`, with the right-boundary closure that
    /// assigns `x == b` to the last nonempty span.
    fn n0(&self, i: usize, x: f64) -> f64 {
        let (lo, hi) = (self.t[i], self.t[i + 1]);
        let b = self.t[self.t.len() - 1];
        if (lo <= x && x < hi) || (lo < hi && hi == b && x == b) {
            1.0
        } else {
            0.0
        }
    }

    /// Cox–de Boor value recursion (`0/0 → 0` at repeated knots).
    fn bval(&self, i: usize, k: usize, x: f64) -> f64 {
        if k == 0 {
            return self.n0(i, x);
        }
        let mut v = 0.0;
        let d1 = self.t[i + k] - self.t[i];
        if d1 > 0.0 {
            v += (x - self.t[i]) / d1 * self.bval(i, k - 1, x);
        }
        let d2 = self.t[i + k + 1] - self.t[i + 1];
        if d2 > 0.0 {
            v += (self.t[i + k + 1] - x) / d2 * self.bval(i + 1, k - 1, x);
        }
        v
    }

    /// First derivative of `N_{i,k}` via the lower-degree recurrence
    /// `N'_{i,k} = k·(N_{i,k−1}/(t_{i+k}−t_i) − N_{i+1,k−1}/(t_{i+k+1}−t_{i+1}))`.
    fn dval(&self, i: usize, k: usize, x: f64) -> f64 {
        let mut v = 0.0;
        let d1 = self.t[i + k] - self.t[i];
        if d1 > 0.0 {
            v += k as f64 / d1 * self.bval(i, k - 1, x);
        }
        let d2 = self.t[i + k + 1] - self.t[i + 1];
        if d2 > 0.0 {
            v -= k as f64 / d2 * self.bval(i + 1, k - 1, x);
        }
        v
    }

    /// Second derivative of the cubic `N_{i,3}` (one more application of
    /// the derivative recurrence).
    fn d2val(&self, i: usize, x: f64) -> f64 {
        let mut v = 0.0;
        let d1 = self.t[i + DEGREE] - self.t[i];
        if d1 > 0.0 {
            v += DEGREE as f64 / d1 * self.dval(i, DEGREE - 1, x);
        }
        let d2 = self.t[i + DEGREE + 1] - self.t[i + 1];
        if d2 > 0.0 {
            v -= DEGREE as f64 / d2 * self.dval(i + 1, DEGREE - 1, x);
        }
        v
    }

    /// Clamps an evaluation point into the domain. The synchronous
    /// profile is only defined on the cell-cycle phase interval, so
    /// outside queries (floating-point spill at the ends) take the
    /// boundary value — the B-spline analogue of the natural basis's
    /// linear extension, without inventing slope outside the data.
    fn clamp(&self, x: f64) -> f64 {
        let (a, b) = self.domain();
        x.clamp(a, b)
    }

    /// The index `j ∈ [3, n−1]` of the knot span with `t_j ≤ x < t_{j+1}`
    /// (the last span is closed on the right); functions `j−3 ..= j` are
    /// the only ones alive on that span.
    fn span(&self, x: f64) -> usize {
        let n = self.n;
        if x >= self.t[n] {
            return n - 1;
        }
        if x <= self.t[DEGREE] {
            return DEGREE;
        }
        let (mut lo, mut hi) = (DEGREE, n);
        while hi - lo > 1 {
            let mid = usize::midpoint(lo, hi);
            if self.t[mid] <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Evaluates `Nᵢ(x)` (zero outside `[tᵢ, tᵢ₊₄]`; `x` clamped into the
    /// domain).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn eval(&self, i: usize, x: f64) -> f64 {
        assert!(i < self.n, "basis index out of range");
        self.bval(i, DEGREE, self.clamp(x))
    }

    /// Evaluates `Nᵢ'(x)` (`x` clamped into the domain).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn deriv(&self, i: usize, x: f64) -> f64 {
        assert!(i < self.n, "basis index out of range");
        self.dval(i, DEGREE, self.clamp(x))
    }

    /// Evaluates `Nᵢ''(x)` (`x` clamped into the domain).
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn deriv2(&self, i: usize, x: f64) -> f64 {
        assert!(i < self.n, "basis index out of range");
        self.d2val(i, self.clamp(x))
    }

    /// All basis values at `x` (at most four are nonzero).
    pub fn eval_all(&self, x: f64) -> Vec<f64> {
        let x = self.clamp(x);
        let j = self.span(x);
        let mut out = vec![0.0; self.n];
        for (i, o) in out.iter_mut().enumerate().take(j + 1).skip(j - DEGREE) {
            *o = self.bval(i, DEGREE, x);
        }
        out
    }

    /// All first derivatives at `x` (at most four are nonzero).
    pub fn deriv_all(&self, x: f64) -> Vec<f64> {
        let x = self.clamp(x);
        let j = self.span(x);
        let mut out = vec![0.0; self.n];
        for (i, o) in out.iter_mut().enumerate().take(j + 1).skip(j - DEGREE) {
            *o = self.dval(i, DEGREE, x);
        }
        out
    }

    /// Dense collocation matrix `C[g][i] = Nᵢ(points[g])`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::InvalidArgument`] for empty or non-finite
    /// points.
    pub fn collocation_matrix(&self, points: &[f64]) -> Result<Matrix> {
        if points.is_empty() {
            return Err(SplineError::InvalidArgument("points must be non-empty"));
        }
        if points.iter().any(|p| !p.is_finite()) {
            return Err(SplineError::InvalidArgument("points must be finite"));
        }
        Ok(Matrix::from_fn(points.len(), self.len(), |g, i| {
            self.eval(i, points[g])
        }))
    }

    /// Sparse collocation matrix: each row holds only the (at most four)
    /// basis functions alive at that point — the storage the constraint
    /// blocks of the banded QP path use.
    ///
    /// # Errors
    ///
    /// Same as [`BSplineBasis::collocation_matrix`].
    pub fn collocation_sparse(&self, points: &[f64]) -> Result<SparseRowMatrix> {
        if points.is_empty() {
            return Err(SplineError::InvalidArgument("points must be non-empty"));
        }
        if points.iter().any(|p| !p.is_finite()) {
            return Err(SplineError::InvalidArgument("points must be finite"));
        }
        let mut triplets = Vec::with_capacity(points.len() * (DEGREE + 1));
        for (g, &p) in points.iter().enumerate() {
            let x = self.clamp(p);
            let j = self.span(x);
            for i in (j - DEGREE)..=j {
                let v = self.bval(i, DEGREE, x);
                if v != 0.0 {
                    triplets.push((g, i, v));
                }
            }
        }
        SparseRowMatrix::from_triplets(points.len(), self.n, &triplets)
            .map_err(|e| SplineError::SolveFailed(format!("sparse collocation: {e}")))
    }

    /// Evaluates `Σ coeffs[i]·Nᵢ(x)` through the span lookup (four terms,
    /// not `n`).
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::CoefficientMismatch`] for wrong-length
    /// coefficients.
    pub fn eval_combination(&self, coeffs: &[f64], x: f64) -> Result<f64> {
        if coeffs.len() != self.n {
            return Err(SplineError::CoefficientMismatch {
                basis: self.n,
                coefficients: coeffs.len(),
            });
        }
        let x = self.clamp(x);
        let j = self.span(x);
        let mut acc = 0.0;
        for (i, &c) in coeffs.iter().enumerate().take(j + 1).skip(j - DEGREE) {
            acc += c * self.bval(i, DEGREE, x);
        }
        Ok(acc)
    }

    /// Evaluates the derivative of the combination at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::CoefficientMismatch`] for wrong-length
    /// coefficients.
    pub fn deriv_combination(&self, coeffs: &[f64], x: f64) -> Result<f64> {
        if coeffs.len() != self.n {
            return Err(SplineError::CoefficientMismatch {
                basis: self.n,
                coefficients: coeffs.len(),
            });
        }
        let x = self.clamp(x);
        let j = self.span(x);
        let mut acc = 0.0;
        for (i, &c) in coeffs.iter().enumerate().take(j + 1).skip(j - DEGREE) {
            acc += c * self.dval(i, DEGREE, x);
        }
        Ok(acc)
    }

    /// The roughness penalty `Ωᵢⱼ = ∫Nᵢ''Nⱼ''` in its natural bandwidth-3
    /// banded form.
    ///
    /// Cubic B-spline second derivatives are piecewise linear, so the
    /// per-segment integrand is a quadratic and the 2-point Gauss rule
    /// (degree-3 exactness) integrates it **exactly** — this is a closed
    /// form, not an approximation, matching the natural basis's exact
    /// moment formula. Only the four functions alive on each segment
    /// contribute, which is what confines `Ω` to `|i − j| ≤ 3`.
    pub fn penalty_banded(&self) -> BandedMatrix {
        let mut omega =
            BandedMatrix::zeros(self.n, DEGREE).expect("n ≥ 4 admits bandwidth 3 storage");
        for s in 0..(self.n - DEGREE) {
            let (lo, hi) = (self.t[s + DEGREE], self.t[s + DEGREE + 1]);
            let half = 0.5 * (hi - lo);
            let mid = 0.5 * (lo + hi);
            for x in [mid - half * GAUSS2, mid + half * GAUSS2] {
                let d2: [f64; DEGREE + 1] = std::array::from_fn(|k| self.d2val(s + k, x));
                for p in 0..=DEGREE {
                    for q in p..=DEGREE {
                        omega
                            .add_at(s + p, s + q, half * d2[p] * d2[q])
                            .expect("|i − j| ≤ 3 stays in band");
                    }
                }
            }
        }
        omega
    }

    /// The roughness penalty as a dense [`Matrix`] (the banded form
    /// expanded).
    pub fn penalty_matrix(&self) -> Matrix {
        self.penalty_banded().to_dense()
    }

    /// Exact integrals `∫Nᵢ(x)dx = (tᵢ₊₄ − tᵢ)/4` over the domain (the
    /// classical B-spline integral identity).
    pub fn integrals(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| (self.t[i + DEGREE + 1] - self.t[i]) / (DEGREE + 1) as f64)
            .collect()
    }
}

/// The basis a deconvolution engine is parameterized over: the paper's
/// cardinal natural basis for moderate sizes, the locally supported
/// B-spline basis when `basis_size` is large enough that only the banded
/// O(n·b²) solver path is practical.
///
/// Every shared operation delegates; banded-only structure
/// ([`SplineBasis::penalty_banded`], [`BSplineBasis::collocation_sparse`])
/// is reachable through [`SplineBasis::as_bspline`].
#[derive(Debug, Clone, PartialEq)]
pub enum SplineBasis {
    /// The paper's cardinal natural cubic basis (global support).
    Natural(NaturalSplineBasis),
    /// Clamped cubic B-splines (local support, banded Grams).
    BSpline(BSplineBasis),
}

impl From<NaturalSplineBasis> for SplineBasis {
    fn from(basis: NaturalSplineBasis) -> Self {
        SplineBasis::Natural(basis)
    }
}

impl From<BSplineBasis> for SplineBasis {
    fn from(basis: BSplineBasis) -> Self {
        SplineBasis::BSpline(basis)
    }
}

impl SplineBasis {
    /// The B-spline payload when this basis has local support.
    pub fn as_bspline(&self) -> Option<&BSplineBasis> {
        match self {
            SplineBasis::Natural(_) => None,
            SplineBasis::BSpline(b) => Some(b),
        }
    }

    /// Whether every basis function has local (bounded-overlap) support.
    pub fn is_local(&self) -> bool {
        matches!(self, SplineBasis::BSpline(_))
    }

    /// Number of basis functions.
    pub fn len(&self) -> usize {
        match self {
            SplineBasis::Natural(b) => b.len(),
            SplineBasis::BSpline(b) => b.len(),
        }
    }

    /// Whether the basis is empty (never true for a constructed basis).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The panel boundaries quadrature loops integrate between: knot grid
    /// for the natural basis, distinct breakpoints for B-splines.
    pub fn knots(&self) -> &[f64] {
        match self {
            SplineBasis::Natural(b) => b.knots(),
            SplineBasis::BSpline(b) => b.knots(),
        }
    }

    /// The domain `[a, b]`.
    pub fn domain(&self) -> (f64, f64) {
        match self {
            SplineBasis::Natural(b) => b.domain(),
            SplineBasis::BSpline(b) => b.domain(),
        }
    }

    /// Evaluates basis function `i` at `x`.
    pub fn eval(&self, i: usize, x: f64) -> f64 {
        match self {
            SplineBasis::Natural(b) => b.eval(i, x),
            SplineBasis::BSpline(b) => b.eval(i, x),
        }
    }

    /// Evaluates the first derivative of basis function `i` at `x`.
    pub fn deriv(&self, i: usize, x: f64) -> f64 {
        match self {
            SplineBasis::Natural(b) => b.deriv(i, x),
            SplineBasis::BSpline(b) => b.deriv(i, x),
        }
    }

    /// Evaluates the second derivative of basis function `i` at `x`.
    pub fn deriv2(&self, i: usize, x: f64) -> f64 {
        match self {
            SplineBasis::Natural(b) => b.deriv2(i, x),
            SplineBasis::BSpline(b) => b.deriv2(i, x),
        }
    }

    /// All basis values at `x`.
    pub fn eval_all(&self, x: f64) -> Vec<f64> {
        match self {
            SplineBasis::Natural(b) => b.eval_all(x),
            SplineBasis::BSpline(b) => b.eval_all(x),
        }
    }

    /// All first derivatives at `x`.
    pub fn deriv_all(&self, x: f64) -> Vec<f64> {
        match self {
            SplineBasis::Natural(b) => b.deriv_all(x),
            SplineBasis::BSpline(b) => b.deriv_all(x),
        }
    }

    /// Dense collocation matrix over `points`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::InvalidArgument`] for empty or non-finite
    /// points.
    pub fn collocation_matrix(&self, points: &[f64]) -> Result<Matrix> {
        match self {
            SplineBasis::Natural(b) => b.collocation_matrix(points),
            SplineBasis::BSpline(b) => b.collocation_matrix(points),
        }
    }

    /// Evaluates `Σ coeffs[i]·ψᵢ(x)`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::CoefficientMismatch`] for wrong-length
    /// coefficients.
    pub fn eval_combination(&self, coeffs: &[f64], x: f64) -> Result<f64> {
        match self {
            SplineBasis::Natural(b) => b.eval_combination(coeffs, x),
            SplineBasis::BSpline(b) => b.eval_combination(coeffs, x),
        }
    }

    /// Evaluates the derivative of the combination at `x`.
    ///
    /// # Errors
    ///
    /// Returns [`SplineError::CoefficientMismatch`] for wrong-length
    /// coefficients.
    pub fn deriv_combination(&self, coeffs: &[f64], x: f64) -> Result<f64> {
        match self {
            SplineBasis::Natural(b) => b.deriv_combination(coeffs, x),
            SplineBasis::BSpline(b) => b.deriv_combination(coeffs, x),
        }
    }

    /// The roughness penalty `Ωᵢⱼ = ∫ψᵢ''ψⱼ''` as a dense matrix (exact
    /// for both variants).
    pub fn penalty_matrix(&self) -> Matrix {
        match self {
            SplineBasis::Natural(b) => b.penalty_matrix(),
            SplineBasis::BSpline(b) => b.penalty_matrix(),
        }
    }

    /// The roughness penalty in banded form — `Some` only for the
    /// locally supported variant (the natural penalty is dense).
    pub fn penalty_banded(&self) -> Option<BandedMatrix> {
        match self {
            SplineBasis::Natural(_) => None,
            SplineBasis::BSpline(b) => Some(b.penalty_banded()),
        }
    }

    /// Exact integrals `∫ψᵢ(x)dx` over the domain.
    pub fn integrals(&self) -> Vec<f64> {
        match self {
            SplineBasis::Natural(b) => b.integrals(),
            SplineBasis::BSpline(b) => b.integrals(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(a: f64, b: f64, m: usize) -> Vec<f64> {
        (0..=m).map(|k| a + (b - a) * k as f64 / m as f64).collect()
    }

    #[test]
    fn constructor_validates() {
        assert!(matches!(
            BSplineBasis::uniform(3, 0.0, 1.0),
            Err(SplineError::TooFewKnots { got: 3, need: 4 })
        ));
        assert!(BSplineBasis::uniform(4, 1.0, 1.0).is_err());
        assert!(BSplineBasis::uniform(4, 0.0, f64::NAN).is_err());
        let b = BSplineBasis::uniform(9, 0.0, 1.0).unwrap();
        assert_eq!(b.len(), 9);
        assert_eq!(b.knots().len(), 7); // n − 2 breakpoints
        assert_eq!(b.domain(), (0.0, 1.0));
    }

    #[test]
    fn partition_of_unity_and_nonnegativity() {
        for n in [4usize, 5, 8, 17] {
            let basis = BSplineBasis::uniform(n, 0.0, 1.0).unwrap();
            for &x in &grid(0.0, 1.0, 57) {
                let vals = basis.eval_all(x);
                assert!(vals.iter().all(|&v| v >= 0.0), "negative value at {x}");
                let total: f64 = vals.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "n={n} x={x} sum={total}");
            }
        }
    }

    #[test]
    fn local_support_is_four_spans() {
        let basis = BSplineBasis::uniform(12, 0.0, 1.0).unwrap();
        for i in 0..basis.len() {
            let (lo, hi) = basis.support(i);
            for &x in &grid(0.0, 1.0, 401) {
                let v = basis.eval(i, x);
                if x < lo || x > hi {
                    assert_eq!(v, 0.0, "N_{i} nonzero at {x} outside [{lo}, {hi}]");
                }
            }
        }
    }

    #[test]
    fn boundary_closure() {
        let basis = BSplineBasis::uniform(10, 0.0, 1.0).unwrap();
        let n = basis.len();
        assert!((basis.eval(n - 1, 1.0) - 1.0).abs() < 1e-15);
        assert!((basis.eval(0, 0.0) - 1.0).abs() < 1e-15);
        for i in 1..n - 1 {
            assert!(basis.eval(i, 1.0).abs() < 1e-15);
        }
        // Clamping: outside queries take the boundary value.
        assert_eq!(basis.eval(n - 1, 1.25), basis.eval(n - 1, 1.0));
        assert_eq!(basis.eval(0, -0.25), basis.eval(0, 0.0));
    }

    #[test]
    fn eval_all_matches_per_function_and_combination() {
        let basis = BSplineBasis::uniform(11, 0.0, 2.0).unwrap();
        let coeffs: Vec<f64> = (0..11).map(|i| (i as f64 * 0.83).sin() + 2.0).collect();
        for &x in &grid(0.0, 2.0, 37) {
            let vals = basis.eval_all(x);
            let ders = basis.deriv_all(x);
            let mut full = 0.0;
            let mut dfull = 0.0;
            for i in 0..basis.len() {
                assert_eq!(vals[i], basis.eval(i, x));
                assert_eq!(ders[i], basis.deriv(i, x));
                full += coeffs[i] * vals[i];
                dfull += coeffs[i] * ders[i];
            }
            assert!((basis.eval_combination(&coeffs, x).unwrap() - full).abs() < 1e-13);
            assert!((basis.deriv_combination(&coeffs, x).unwrap() - dfull).abs() < 1e-12);
        }
        assert!(matches!(
            basis.eval_combination(&coeffs[..5], 0.5),
            Err(SplineError::CoefficientMismatch { .. })
        ));
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let basis = BSplineBasis::uniform(9, 0.0, 1.0).unwrap();
        let h = 1e-6;
        for i in 0..basis.len() {
            // Interior points away from breakpoints (derivatives of the
            // piecewise polynomial are smooth inside a span).
            for &x in &[0.05, 0.22, 0.41, 0.63, 0.87] {
                let fd = (basis.eval(i, x + h) - basis.eval(i, x - h)) / (2.0 * h);
                assert!(
                    (basis.deriv(i, x) - fd).abs() < 1e-6,
                    "N_{i}' at {x}: {} vs {fd}",
                    basis.deriv(i, x)
                );
                let fd2 = (basis.deriv(i, x + h) - basis.deriv(i, x - h)) / (2.0 * h);
                assert!(
                    (basis.deriv2(i, x) - fd2).abs() < 1e-4,
                    "N_{i}'' at {x}: {} vs {fd2}",
                    basis.deriv2(i, x)
                );
            }
        }
    }

    #[test]
    fn reproduces_linears_via_greville() {
        // ξᵢ = (tᵢ₊₁ + tᵢ₊₂ + tᵢ₊₃)/3 gives Σ ξᵢNᵢ(x) = x exactly; linear
        // functions have zero curvature, so the penalty must annihilate ξ.
        let basis = BSplineBasis::uniform(10, 0.0, 1.0).unwrap();
        let greville = basis.greville();
        assert_eq!(greville.len(), basis.len());
        assert_eq!((greville[0], greville[9]), (0.0, 1.0));
        for &x in &grid(0.0, 1.0, 41) {
            let v = basis.eval_combination(&greville, x).unwrap();
            assert!((v - x).abs() < 1e-12, "linear reproduction at {x}: {v}");
        }
        let omega = basis.penalty_banded();
        let annihilated = omega
            .matvec(&cellsync_linalg::Vector::from_slice(&greville))
            .unwrap();
        let ones = omega
            .matvec(&cellsync_linalg::Vector::from_slice(&vec![
                1.0;
                basis.len()
            ]))
            .unwrap();
        for k in 0..basis.len() {
            assert!(annihilated[k].abs() < 1e-9, "Ω·ξ[{k}] = {}", annihilated[k]);
            assert!(ones[k].abs() < 1e-9, "Ω·1[{k}] = {}", ones[k]);
        }
    }

    #[test]
    fn penalty_annihilates_constants_and_greville_at_fine_bases() {
        // The banded solver eliminates span{1, ξ} exactly and treats Ω as
        // positive definite on the rest, so Ω·1 and Ω·ξ must vanish to
        // assembly rounding (a few ulps of ‖Ω‖) at every basis size it
        // serves.
        for n in [128, 256, 512] {
            let basis = BSplineBasis::uniform(n, 0.0, 1.0).unwrap();
            let omega = basis.penalty_banded();
            let norm = (0..n)
                .map(|i| (0..n).map(|j| omega.get(i, j).abs()).sum::<f64>())
                .fold(0.0, f64::max);
            for v in [vec![1.0; n], basis.greville()] {
                let image = omega
                    .matvec(&cellsync_linalg::Vector::from_slice(&v))
                    .unwrap();
                let worst = image.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                assert!(
                    worst <= 64.0 * f64::EPSILON * norm,
                    "n={n}: ‖Ω·v‖∞ = {worst:e} against ‖Ω‖∞ = {norm:e}"
                );
            }
        }
    }

    #[test]
    fn penalty_matches_simpson_quadrature() {
        // ψ'' products are quadratic per segment; Simpson (degree-3
        // exact) reproduces the 2-point Gauss assembly to rounding.
        let basis = BSplineBasis::uniform(8, 0.0, 1.0).unwrap();
        let omega = basis.penalty_banded();
        assert_eq!(omega.bandwidth(), 3);
        let breaks = basis.knots();
        for i in 0..basis.len() {
            for j in 0..basis.len() {
                let mut acc = 0.0;
                for w in breaks.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    let mid = 0.5 * (lo + hi);
                    // One-sided interior samples keep d2 on the segment's
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
    fn integrals_match_quadrature_and_sum_to_domain() {
        let basis = BSplineBasis::uniform(9, 0.0, 2.0).unwrap();
        let ints = basis.integrals();
        // Partition of unity ⇒ Σᵢ ∫Nᵢ = |domain|.
        let total: f64 = ints.iter().sum();
        assert!((total - 2.0).abs() < 1e-12);
        // Per-function Simpson per segment (exact for cubics).
        let breaks = basis.knots();
        for (i, &exact) in ints.iter().enumerate() {
            let mut acc = 0.0;
            for w in breaks.windows(2) {
                let mid = 0.5 * (w[0] + w[1]);
                acc += (w[1] - w[0]) / 6.0
                    * (basis.eval(i, w[0]) + 4.0 * basis.eval(i, mid) + basis.eval(i, w[1]));
            }
            assert!((exact - acc).abs() < 1e-10, "∫N_{i}: {exact} vs {acc}");
        }
    }

    #[test]
    fn sparse_collocation_matches_dense() {
        let basis = BSplineBasis::uniform(13, 0.0, 1.0).unwrap();
        let points = grid(0.0, 1.0, 29);
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
    fn enum_delegates_both_variants() {
        let natural: SplineBasis = NaturalSplineBasis::uniform(8, 0.0, 1.0).unwrap().into();
        let bspline: SplineBasis = BSplineBasis::uniform(8, 0.0, 1.0).unwrap().into();
        assert!(!natural.is_local() && bspline.is_local());
        assert!(natural.as_bspline().is_none() && bspline.as_bspline().is_some());
        assert!(natural.penalty_banded().is_none());
        assert_eq!(
            bspline.penalty_banded().unwrap().to_dense(),
            bspline.penalty_matrix()
        );
        for basis in [&natural, &bspline] {
            assert_eq!(basis.len(), 8);
            assert!(!basis.is_empty());
            assert_eq!(basis.domain(), (0.0, 1.0));
            let coeffs = vec![1.0; 8];
            // Both bases reproduce constants.
            let v = basis.eval_combination(&coeffs, 0.37).unwrap();
            assert!((v - 1.0).abs() < 1e-10);
            let d = basis.deriv_combination(&coeffs, 0.37).unwrap();
            assert!(d.abs() < 1e-9);
            assert_eq!(basis.eval_all(0.4).len(), 8);
            assert_eq!(basis.deriv_all(0.4).len(), 8);
            assert_eq!(basis.integrals().len(), 8);
            let col = basis.collocation_matrix(&[0.1, 0.6]).unwrap();
            assert_eq!(col.shape(), (2, 8));
            assert!((basis.eval(3, 0.5) - col[(0, 3)]).abs() < 2.0); // shape smoke
            let _ = (basis.deriv(3, 0.5), basis.deriv2(3, 0.5), basis.knots());
        }
    }
}
