//! Clamped cubic B-splines: the Cox–de Boor substrate the natural basis
//! ([`crate::SplineBasis`]) is built from.
//!
//! On `n` breakpoints `a = x₀ < … < x_{n−1} = b` the open knot vector
//! repeats both ends four times (`t₀ = … = t₃ = a`, `t_{n+2} = … =
//! t_{n+5} = b`), giving `n + 2` cubic B-splines `Bᵢ`, each supported on
//! `[tᵢ, tᵢ₊₄]` (at most four knot spans), non-negative, and summing to
//! one on `[a, b]`. On the span `t_j ≤ x < t_{j+1}` only `B_{j−3} … B_j`
//! are alive; the last span is closed on the right so `x = b` belongs to
//! it.

use crate::{Result, SplineError};

/// Spline degree (cubic).
pub(crate) const DEGREE: usize = 3;

/// The `n + 2` clamped cubic B-splines on `n` breakpoints.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClampedBasis {
    /// Open knot vector, `n + 6` entries with 4-fold ends.
    t: Vec<f64>,
}

impl ClampedBasis {
    /// The clamped basis on `breaks`.
    ///
    /// # Errors
    ///
    /// * [`SplineError::TooFewKnots`] for fewer than two breakpoints.
    /// * [`SplineError::InvalidKnots`] for unsorted/non-finite ones.
    pub(crate) fn new(breaks: &[f64]) -> Result<Self> {
        if breaks.len() < 2 {
            return Err(SplineError::TooFewKnots {
                got: breaks.len(),
                need: 2,
            });
        }
        if breaks.iter().any(|x| !x.is_finite()) || breaks.windows(2).any(|w| w[1] <= w[0]) {
            return Err(SplineError::InvalidKnots);
        }
        let (a, b) = (breaks[0], breaks[breaks.len() - 1]);
        let mut t = Vec::with_capacity(breaks.len() + 2 * DEGREE);
        t.extend(std::iter::repeat_n(a, DEGREE));
        t.extend_from_slice(breaks);
        t.extend(std::iter::repeat_n(b, DEGREE));
        Ok(ClampedBasis { t })
    }

    /// Number of B-splines (`n + 2`).
    pub(crate) fn len(&self) -> usize {
        self.t.len() - DEGREE - 1
    }

    /// The span index `j ∈ [3, n + 1]` with `t_j ≤ x < t_{j+1}` (the
    /// last span closed on the right; `x` outside `[a, b]` takes the end
    /// span). `B_{j−3} ..= B_j` are the functions alive on it.
    pub(crate) fn span(&self, x: f64) -> usize {
        let breaks = &self.t[DEGREE..self.t.len() - DEGREE];
        let k = breaks.partition_point(|&v| v <= x).saturating_sub(1);
        k.min(breaks.len() - 2) + DEGREE
    }

    /// The `order`-th derivatives (`order ≤ 3`) of the four B-splines
    /// alive on span `j`, at `x`: entry `r` belongs to `B_{j−3+r}`.
    ///
    /// The degree-`(3 − order)` values come from the iterative de Boor
    /// triangle; each derivative step then raises the degree by one
    /// through `N'_{i,p} = p·(N_{i,p−1}/(t_{i+p} − tᵢ) −
    /// N_{i+1,p−1}/(t_{i+p+1} − t_{i+1}))`. Every denominator belongs to
    /// a function alive on the (non-empty) span, so none vanishes.
    pub(crate) fn local(&self, j: usize, x: f64, order: usize) -> [f64; 4] {
        let t = &self.t;
        let low = DEGREE - order;
        let mut v = [0.0; 4];
        let (mut left, mut right) = ([0.0; 4], [0.0; 4]);
        v[0] = 1.0;
        for r in 1..=low {
            left[r] = x - t[j + 1 - r];
            right[r] = t[j + r] - x;
            let mut saved = 0.0;
            for k in 0..r {
                let temp = v[k] / (right[k + 1] + left[r - k]);
                v[k] = saved + right[k + 1] * temp;
                saved = left[r - k] * temp;
            }
            v[r] = saved;
        }
        // v[r] holds N_{j−p+r, p} for the current degree p.
        for p in low + 1..=DEGREE {
            let mut raised = [0.0; 4];
            for (r, out) in raised.iter_mut().enumerate().take(p + 1) {
                let i = j + r - p;
                let mut acc = 0.0;
                if r >= 1 {
                    acc += v[r - 1] / (t[i + p] - t[i]);
                }
                if r < p {
                    acc -= v[r] / (t[i + p + 1] - t[i + 1]);
                }
                *out = p as f64 * acc;
            }
            v = raised;
        }
        v
    }

    /// The Greville abscissae `ξᵢ = (tᵢ₊₁ + tᵢ₊₂ + tᵢ₊₃)/3`:
    /// `Σ ξᵢBᵢ(x) = x` exactly, with `ξ₀ = a` and `ξ_{n+1} = b`.
    pub(crate) fn greville(&self) -> Vec<f64> {
        self.t
            .windows(DEGREE + 2)
            .map(|w| (w[1] + w[2] + w[3]) / DEGREE as f64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> ClampedBasis {
        let breaks: Vec<f64> = (0..n).map(|k| k as f64 / (n - 1) as f64).collect();
        ClampedBasis::new(&breaks).unwrap()
    }

    fn grid(m: usize) -> Vec<f64> {
        (0..=m).map(|k| k as f64 / m as f64).collect()
    }

    /// `B_i^{(order)}(x)` through the span lookup (zero when not alive).
    fn value(basis: &ClampedBasis, i: usize, x: f64, order: usize) -> f64 {
        let j = basis.span(x);
        if i + DEGREE < j || i > j {
            return 0.0;
        }
        basis.local(j, x, order)[i + DEGREE - j]
    }

    /// `B_{i,p}^{(order)}(x)` from the textbook Cox–de Boor recursion,
    /// function by function (half-open spans, the last one closed).
    fn cox_de_boor(t: &[f64], i: usize, p: usize, x: f64, order: usize) -> f64 {
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        if order > 0 {
            let lo = ratio(cox_de_boor(t, i, p - 1, x, order - 1), t[i + p] - t[i]);
            let hi = ratio(
                cox_de_boor(t, i + 1, p - 1, x, order - 1),
                t[i + p + 1] - t[i + 1],
            );
            return p as f64 * (lo - hi);
        }
        if p == 0 {
            let last = t[t.len() - 1];
            let closed = x == last && t[i + 1] == last && t[i] < last;
            return if (t[i] <= x && x < t[i + 1]) || closed {
                1.0
            } else {
                0.0
            };
        }
        ratio((x - t[i]) * cox_de_boor(t, i, p - 1, x, 0), t[i + p] - t[i])
            + ratio(
                (t[i + p + 1] - x) * cox_de_boor(t, i + 1, p - 1, x, 0),
                t[i + p + 1] - t[i + 1],
            )
    }

    #[test]
    fn constructor_validates() {
        assert!(matches!(
            ClampedBasis::new(&[0.0]),
            Err(SplineError::TooFewKnots { got: 1, need: 2 })
        ));
        assert!(matches!(
            ClampedBasis::new(&[0.0, 0.5, 0.5, 1.0]),
            Err(SplineError::InvalidKnots)
        ));
        assert!(matches!(
            ClampedBasis::new(&[1.0, 0.0]),
            Err(SplineError::InvalidKnots)
        ));
        assert!(ClampedBasis::new(&[0.0, f64::NAN, 1.0]).is_err());
        assert!(ClampedBasis::new(&[0.0, f64::INFINITY]).is_err());
        let basis = ClampedBasis::new(&[0.0, 0.25, 1.0]).unwrap();
        assert_eq!(basis.len(), 5);
        assert_eq!(basis.t, [0.0, 0.0, 0.0, 0.0, 0.25, 1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn eval_all_matches_per_function_and_combination() {
        // `local` evaluates all four alive functions at once through the
        // de Boor triangle; each entry must match the per-function
        // recursion, and so must any combination Σ cᵢBᵢ.
        let breaks = [0.0, 0.3, 0.45, 1.1, 1.2, 2.0];
        let basis = ClampedBasis::new(&breaks).unwrap();
        let coeffs: Vec<f64> = (0..basis.len())
            .map(|i| (i as f64 * 0.83).sin() + 2.0)
            .collect();
        for k in 0..=37 {
            let x = 2.0 * k as f64 / 37.0;
            let j = basis.span(x);
            for order in 0..=DEGREE {
                let all = basis.local(j, x, order);
                let mut full = 0.0;
                for (i, c) in coeffs.iter().enumerate() {
                    let want = cox_de_boor(&basis.t, i, DEGREE, x, order);
                    let got = value(&basis, i, x, order);
                    assert!(
                        (got - want).abs() < 1e-10 * (1.0 + want.abs()),
                        "B_{i}^({order}) at {x}: {got} vs {want}"
                    );
                    full += c * want;
                }
                let fast: f64 = (0..4).map(|r| coeffs[j - DEGREE + r] * all[r]).sum();
                assert!(
                    (fast - full).abs() < 1e-10 * (1.0 + full.abs()),
                    "order {order} at {x}: {fast} vs {full}"
                );
            }
        }
    }

    #[test]
    fn partition_of_unity_and_nonnegativity() {
        for n in [2usize, 3, 6, 15] {
            let basis = uniform(n);
            for &x in &grid(57) {
                let vals = basis.local(basis.span(x), x, 0);
                assert!(vals.iter().all(|&v| v >= 0.0), "negative value at {x}");
                let total: f64 = vals.iter().sum();
                assert!((total - 1.0).abs() < 1e-12, "n={n} x={x} sum={total}");
                for order in 1..=2 {
                    let d: f64 = basis.local(basis.span(x), x, order).iter().sum();
                    assert!(d.abs() < 1e-9, "n={n} x={x}: Σ B^({order}) = {d}");
                }
            }
        }
    }

    #[test]
    fn local_support_is_four_spans() {
        let basis = uniform(10);
        for i in 0..basis.len() {
            let (lo, hi) = (basis.t[i], basis.t[i + DEGREE + 1]);
            for &x in &grid(401) {
                if x < lo || x > hi {
                    assert_eq!(value(&basis, i, x, 0), 0.0, "B_{i} nonzero at {x}");
                }
            }
        }
    }

    #[test]
    fn boundary_closure() {
        let basis = uniform(8);
        let n = basis.len();
        assert_eq!(basis.span(1.0), n - 1);
        assert_eq!(basis.span(0.0), DEGREE);
        assert!((value(&basis, n - 1, 1.0, 0) - 1.0).abs() < 1e-15);
        assert!((value(&basis, 0, 0.0, 0) - 1.0).abs() < 1e-15);
        for i in 1..n - 1 {
            assert!(value(&basis, i, 1.0, 0).abs() < 1e-15);
            assert!(value(&basis, i, 0.0, 0).abs() < 1e-15);
        }
        // Outside points take the end spans.
        assert_eq!(basis.span(1.25), n - 1);
        assert_eq!(basis.span(-0.25), DEGREE);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let basis = uniform(7);
        let h = 1e-6;
        for i in 0..basis.len() {
            // Points away from breakpoints (the piecewise polynomial is
            // smooth inside a span).
            for &x in &[0.05, 0.22, 0.41, 0.63, 0.87] {
                for order in 1..=3 {
                    let fd = (value(&basis, i, x + h, order - 1)
                        - value(&basis, i, x - h, order - 1))
                        / (2.0 * h);
                    let got = value(&basis, i, x, order);
                    assert!(
                        (got - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                        "B_{i}^({order}) at {x}: {got} vs {fd}"
                    );
                }
            }
        }
    }

    #[test]
    fn reproduces_linears_via_greville() {
        let basis = uniform(9);
        let greville = basis.greville();
        assert_eq!(greville.len(), basis.len());
        assert_eq!((greville[0], greville[basis.len() - 1]), (0.0, 1.0));
        for &x in &grid(41) {
            let j = basis.span(x);
            let vals = basis.local(j, x, 0);
            let v: f64 = (0..4).map(|r| greville[j - DEGREE + r] * vals[r]).sum();
            assert!((v - x).abs() < 1e-12, "linear reproduction at {x}: {v}");
        }
    }
}
