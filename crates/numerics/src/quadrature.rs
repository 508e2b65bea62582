//! Numerical integration rules.
//!
//! The constraint integrals of the deconvolution method (paper eqs. 14–16)
//! have smooth analytic integrands (a Gaussian density times a spline
//! piece), so a panelled [`GaussLegendre`] rule reaches solver precision.

use crate::{NumericsError, Result};

/// A Gauss–Legendre quadrature rule on `[-1, 1]` with computed nodes and
/// weights, mappable to arbitrary intervals.
///
/// Nodes are roots of the Legendre polynomial `P_n`, found by Newton
/// iteration from Chebyshev-style initial guesses; weights are
/// `2 / ((1 − x²)·P'_n(x)²)`.
///
/// # Example
///
/// ```
/// use cellsync_numerics::quadrature::GaussLegendre;
///
/// # fn main() -> Result<(), cellsync_numerics::NumericsError> {
/// let rule = GaussLegendre::new(8)?;
/// // Degree-15 polynomials are integrated exactly.
/// let v = rule.integrate(|x| x.powi(14), -1.0, 1.0)?;
/// assert!((v - 2.0 / 15.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussLegendre {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussLegendre {
    /// Builds an `n`-point rule.
    ///
    /// # Errors
    ///
    /// * [`NumericsError::TooFewPoints`] for `n == 0`.
    /// * [`NumericsError::ConvergenceFailed`] if Newton iteration fails
    ///   (not observed for reasonable `n`).
    pub fn new(n: usize) -> Result<Self> {
        if n == 0 {
            return Err(NumericsError::TooFewPoints { got: 0, need: 1 });
        }
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        let m = n.div_ceil(2);
        for i in 0..m {
            // Initial guess: Chebyshev-like approximation to the i-th root.
            let mut x = (std::f64::consts::PI * (i as f64 + 0.75) / (n as f64 + 0.5)).cos();
            let mut converged = false;
            for _ in 0..100 {
                let (p, dp) = legendre_with_derivative(n, x);
                let dx = p / dp;
                x -= dx;
                if dx.abs() < 1e-15 {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(NumericsError::ConvergenceFailed {
                    iterations: 100,
                    residual: legendre_with_derivative(n, x).0.abs(),
                });
            }
            let (_, dp) = legendre_with_derivative(n, x);
            let w = 2.0 / ((1.0 - x * x) * dp * dp);
            nodes[i] = -x;
            nodes[n - 1 - i] = x;
            weights[i] = w;
            weights[n - 1 - i] = w;
        }
        Ok(GaussLegendre { nodes, weights })
    }

    /// Number of quadrature points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the rule has no points (never true for constructed rules).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Quadrature nodes on `[-1, 1]`, ascending.
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Quadrature weights matching [`GaussLegendre::nodes`].
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Integrates `f` over `[a, b]` by affine mapping of the rule.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInterval`] for a bad interval.
    pub fn integrate<F: Fn(f64) -> f64>(&self, f: F, a: f64, b: f64) -> Result<f64> {
        check_interval(a, b)?;
        let mid = 0.5 * (a + b);
        let half = 0.5 * (b - a);
        let mut sum = 0.0;
        for (&x, &w) in self.nodes.iter().zip(self.weights.iter()) {
            sum += w * f(mid + half * x);
        }
        Ok(sum * half)
    }

    /// Integrates `f` over `[a, b]` split into `pieces` equal panels —
    /// useful when `f` has kinks at known panel boundaries (piecewise
    /// polynomials such as splines).
    ///
    /// # Errors
    ///
    /// * [`NumericsError::InvalidInterval`] for a bad interval.
    /// * [`NumericsError::TooFewPoints`] for `pieces == 0`.
    pub fn integrate_panels<F: Fn(f64) -> f64>(
        &self,
        f: F,
        a: f64,
        b: f64,
        pieces: usize,
    ) -> Result<f64> {
        check_interval(a, b)?;
        if pieces == 0 {
            return Err(NumericsError::TooFewPoints { got: 0, need: 1 });
        }
        let h = (b - a) / pieces as f64;
        let mut total = 0.0;
        for k in 0..pieces {
            let lo = a + h * k as f64;
            total += self.integrate(&f, lo, lo + h)?;
        }
        Ok(total)
    }
}

/// Evaluates the Legendre polynomial `P_n(x)` and its derivative by the
/// three-term recurrence.
fn legendre_with_derivative(n: usize, x: f64) -> (f64, f64) {
    let mut p0 = 1.0;
    let mut p1 = x;
    if n == 0 {
        return (1.0, 0.0);
    }
    for k in 2..=n {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    let dp = n as f64 * (x * p1 - p0) / (x * x - 1.0);
    (p1, dp)
}

fn check_interval(a: f64, b: f64) -> Result<()> {
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumericsError::InvalidInterval { a, b });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauss_legendre_nodes_symmetric() {
        let rule = GaussLegendre::new(7).unwrap();
        assert_eq!(rule.len(), 7);
        for i in 0..7 {
            assert!((rule.nodes()[i] + rule.nodes()[6 - i]).abs() < 1e-14);
        }
        let total: f64 = rule.weights().iter().sum();
        assert!((total - 2.0).abs() < 1e-13);
    }

    #[test]
    fn gauss_legendre_exact_for_high_degree() {
        let rule = GaussLegendre::new(5).unwrap();
        // 5-point rule is exact through degree 9.
        let v = rule
            .integrate(|x| x.powi(9) + x.powi(8), -1.0, 1.0)
            .unwrap();
        assert!((v - 2.0 / 9.0).abs() < 1e-13);
    }

    #[test]
    fn gauss_legendre_mapped_interval() {
        let rule = GaussLegendre::new(16).unwrap();
        let v = rule.integrate(|x: f64| x.exp(), 0.0, 1.0).unwrap();
        assert!((v - (std::f64::consts::E - 1.0)).abs() < 1e-13);
    }

    #[test]
    fn gauss_legendre_panels_handle_kinks() {
        let rule = GaussLegendre::new(8).unwrap();
        // |x| has a kink at 0; panel split at the kink makes it exact.
        let v = rule
            .integrate_panels(|x: f64| x.abs(), -1.0, 1.0, 2)
            .unwrap();
        assert!((v - 1.0).abs() < 1e-14);
    }

    #[test]
    fn interval_validation() {
        let rule = GaussLegendre::new(4).unwrap();
        assert!(rule.integrate(|x| x, 1.0, 0.0).is_err());
        assert!(rule.integrate(|x| x, 0.0, f64::NAN).is_err());
        assert!(rule.integrate(|x| x, 2.0, 2.0).is_err());
        assert!(rule.integrate_panels(|x| x, 0.0, 1.0, 0).is_err());
    }

    #[test]
    fn zero_points_rejected() {
        assert!(GaussLegendre::new(0).is_err());
    }
}
