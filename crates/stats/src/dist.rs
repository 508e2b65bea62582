//! Analytic continuous distributions with seeded sampling.
//!
//! The paper's population model draws the swarmer-to-stalked transition
//! phase from `N(0.15, (0.13·0.15)²)` and cell-cycle durations from a
//! truncated normal around 150 min. All sampling goes through [`rand::Rng`]
//! so simulations are reproducible from a seed.

use rand::Rng;

use crate::{Result, StatsError};

/// Common interface of the continuous distributions in this module.
///
/// # Example
///
/// ```
/// use cellsync_stats::dist::{ContinuousDistribution, Uniform};
///
/// # fn main() -> Result<(), cellsync_stats::StatsError> {
/// let u = Uniform::new(0.0, 2.0)?;
/// assert_eq!(u.mean(), 1.0);
/// assert_eq!(u.cdf(0.5), 0.25);
/// # Ok(())
/// # }
/// ```
pub trait ContinuousDistribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Mean of the distribution.
    fn mean(&self) -> f64;

    /// Variance of the distribution.
    fn variance(&self) -> f64;

    /// Draws one sample using the supplied random source.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Error function via the Abramowitz–Stegun 7.1.26 rational approximation
/// (absolute error < 1.5·10⁻⁷), extended to full `f64` range by symmetry.
pub fn erf(x: f64) -> f64 {
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Standard normal cumulative distribution function.
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal density.
pub fn standard_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Standard normal quantile (inverse cdf) via the Acklam approximation
/// polished with two Newton steps on the cdf.
///
/// # Errors
///
/// Returns [`StatsError::InvalidProbability`] outside the open interval
/// `(0, 1)`.
pub fn standard_normal_quantile(p: f64) -> Result<f64> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::InvalidProbability(p));
    }
    // Acklam's rational approximation coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let mut x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // Newton polish against the (approximate) cdf.
    for _ in 0..2 {
        let e = standard_normal_cdf(x) - p;
        let d = standard_normal_pdf(x);
        if d > 0.0 {
            x -= e / d;
        }
    }
    Ok(x)
}

/// Normal (Gaussian) distribution `N(μ, σ²)`.
///
/// # Example
///
/// ```
/// use cellsync_stats::dist::{ContinuousDistribution, Normal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), cellsync_stats::StatsError> {
/// let n = Normal::new(150.0, 18.0)?; // cell-cycle time model
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let draw = n.sample(&mut rng);
/// assert!(draw.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mu, sigma²)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for non-finite `mu` or
    /// non-positive/non-finite `sigma`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        if !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !(sigma > 0.0) || !sigma.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "sigma",
                value: sigma,
            });
        }
        Ok(Normal { mu, sigma })
    }

    /// Creates a normal from a mean and a coefficient of variation
    /// (`sigma = cv·|mu|`), the parameterization the paper uses for
    /// `φ_sst` (mean 0.15, CV 0.13).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `mu == 0` or `cv ≤ 0`.
    pub fn from_mean_cv(mu: f64, cv: f64) -> Result<Self> {
        if mu == 0.0 || !mu.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mu",
                value: mu,
            });
        }
        if !(cv > 0.0) || !cv.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "cv",
                value: cv,
            });
        }
        Normal::new(mu, cv * mu.abs())
    }

    /// The location parameter μ.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale parameter σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Quantile (inverse cdf).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidProbability`] outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        Ok(self.mu + self.sigma * standard_normal_quantile(p)?)
    }
}

impl ContinuousDistribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        standard_normal_pdf((x - self.mu) / self.sigma) / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        standard_normal_cdf((x - self.mu) / self.sigma)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller transform on two uniforms.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mu + self.sigma * z
    }
}

/// Normal distribution truncated to `[lo, hi]`, sampled by rejection.
///
/// Cell-cycle durations must be positive and transition phases must stay in
/// `(0, 1)`; truncation enforces those physical ranges without distorting
/// the bulk of the distribution.
///
/// # Example
///
/// ```
/// use cellsync_stats::dist::{ContinuousDistribution, Normal, TruncatedNormal};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), cellsync_stats::StatsError> {
/// let base = Normal::new(0.15, 0.15 * 0.13)?;
/// let t = TruncatedNormal::new(base, 0.01, 0.5)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// for _ in 0..100 {
///     let x = t.sample(&mut rng);
///     assert!((0.01..=0.5).contains(&x));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    base: Normal,
    lo: f64,
    hi: f64,
    /// Probability mass of the base normal inside `[lo, hi]`.
    mass: f64,
}

impl TruncatedNormal {
    /// Maximum rejection attempts per sample before falling back to inverse
    /// cdf sampling.
    const MAX_REJECTS: usize = 1000;

    /// Creates a truncation of `base` to `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `lo >= hi`, bounds are
    /// non-finite, or the base normal has negligible mass (< 10⁻¹²) inside
    /// the interval.
    pub fn new(base: Normal, lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(StatsError::InvalidParameter {
                name: "lo/hi",
                value: lo,
            });
        }
        let mass = base.cdf(hi) - base.cdf(lo);
        if mass < 1e-12 {
            return Err(StatsError::InvalidParameter {
                name: "truncation mass",
                value: mass,
            });
        }
        Ok(TruncatedNormal { base, lo, hi, mass })
    }

    /// The untruncated base distribution.
    pub fn base(&self) -> &Normal {
        &self.base
    }

    /// Truncation bounds `(lo, hi)`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

impl ContinuousDistribution for TruncatedNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.base.pdf(x) / self.mass
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (self.base.cdf(x) - self.base.cdf(self.lo)) / self.mass
        }
    }

    /// Mean computed by the standard truncated-normal closed form.
    fn mean(&self) -> f64 {
        let a = (self.lo - self.base.mu()) / self.base.sigma();
        let b = (self.hi - self.base.mu()) / self.base.sigma();
        let num = standard_normal_pdf(a) - standard_normal_pdf(b);
        self.base.mu() + self.base.sigma() * num / self.mass
    }

    /// Variance by the standard truncated-normal closed form.
    fn variance(&self) -> f64 {
        let a = (self.lo - self.base.mu()) / self.base.sigma();
        let b = (self.hi - self.base.mu()) / self.base.sigma();
        let pa = standard_normal_pdf(a);
        let pb = standard_normal_pdf(b);
        let z = self.mass;
        let term1 = (a * pa - b * pb) / z;
        let term2 = ((pa - pb) / z).powi(2);
        self.base.variance() * (1.0 + term1 - term2)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        for _ in 0..Self::MAX_REJECTS {
            let x = self.base.sample(rng);
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
        // Inverse-cdf fallback for extreme truncations.
        let u: f64 = rng.gen::<f64>();
        let p = self.base.cdf(self.lo) + u * self.mass;
        self.base
            .quantile(p.clamp(1e-15, 1.0 - 1e-15))
            .unwrap_or(0.5 * (self.lo + self.hi))
            .clamp(self.lo, self.hi)
    }
}

/// Continuous uniform distribution on `[lo, hi)`.
///
/// The synchronized swarmer inoculum of the paper places initial phases
/// uniformly on `[0, φ_sst]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates `U[lo, hi)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] when `lo >= hi` or bounds
    /// are non-finite.
    pub fn new(lo: f64, hi: f64) -> Result<Self> {
        if !lo.is_finite() || !hi.is_finite() || lo >= hi {
            return Err(StatsError::InvalidParameter {
                name: "lo/hi",
                value: lo,
            });
        }
        Ok(Uniform { lo, hi })
    }

    /// Bounds `(lo, hi)`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }
}

impl ContinuousDistribution for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x >= self.hi {
            0.0
        } else {
            1.0 / (self.hi - self.lo)
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (x - self.lo) / (self.hi - self.lo)
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn variance(&self) -> f64 {
        (self.hi - self.lo).powi(2) / 12.0
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.gen_range(self.lo..self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables (A&S accuracy is ~1.5e-7).
        assert!((erf(0.0)).abs() < 1e-12);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
        assert!(erf(6.0) > 0.999999);
    }

    #[test]
    fn normal_pdf_cdf_reference() {
        let n = Normal::new(0.0, 1.0).unwrap();
        assert!((n.pdf(0.0) - 0.3989422804).abs() < 1e-8);
        assert!((n.cdf(0.0) - 0.5).abs() < 1e-12);
        assert!((n.cdf(1.959963985) - 0.975).abs() < 1e-6);
    }

    #[test]
    fn normal_quantile_inverts_cdf() {
        let n = Normal::new(2.0, 3.0).unwrap();
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = n.quantile(p).unwrap();
            assert!((n.cdf(x) - p).abs() < 1e-7, "p={p}");
        }
        assert!(n.quantile(0.0).is_err());
        assert!(n.quantile(1.0).is_err());
    }

    #[test]
    fn normal_sampling_moments() {
        let n = Normal::new(5.0, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let xs = n.sample_n(&mut rng, 200_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((mean - 5.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn normal_from_mean_cv() {
        let n = Normal::from_mean_cv(0.15, 0.13).unwrap();
        assert!((n.sigma() - 0.0195).abs() < 1e-12);
        assert!(Normal::from_mean_cv(0.0, 0.1).is_err());
    }

    #[test]
    fn normal_invalid_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
    }

    #[test]
    fn truncated_normal_stays_in_bounds() {
        let base = Normal::new(0.15, 0.0195).unwrap();
        let t = TruncatedNormal::new(base, 0.05, 0.3).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = t.sample(&mut rng);
            assert!((0.05..=0.3).contains(&x));
        }
    }

    #[test]
    fn truncated_normal_cdf_properties() {
        let base = Normal::new(0.0, 1.0).unwrap();
        let t = TruncatedNormal::new(base, -1.0, 1.0).unwrap();
        assert_eq!(t.cdf(-2.0), 0.0);
        assert_eq!(t.cdf(2.0), 1.0);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-9);
        // Symmetric truncation keeps the mean.
        assert!(t.mean().abs() < 1e-12);
        // Variance shrinks under truncation.
        assert!(t.variance() < 1.0);
    }

    #[test]
    fn truncated_normal_mean_matches_samples() {
        let base = Normal::new(150.0, 30.0).unwrap();
        let t = TruncatedNormal::new(base, 100.0, 250.0).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let xs = t.sample_n(&mut rng, 100_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - t.mean()).abs() < 0.3,
            "sample {mean} vs analytic {}",
            t.mean()
        );
    }

    #[test]
    fn truncated_normal_rejects_empty_mass() {
        let base = Normal::new(0.0, 0.01).unwrap();
        assert!(TruncatedNormal::new(base, 10.0, 11.0).is_err());
        assert!(TruncatedNormal::new(base, 1.0, 0.0).is_err());
    }

    #[test]
    fn uniform_properties() {
        let u = Uniform::new(1.0, 3.0).unwrap();
        assert_eq!(u.mean(), 2.0);
        assert!((u.variance() - 4.0 / 12.0).abs() < 1e-12);
        assert_eq!(u.pdf(0.0), 0.0);
        assert_eq!(u.pdf(2.0), 0.5);
        assert_eq!(u.cdf(2.0), 0.5);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            let x = u.sample(&mut rng);
            assert!((1.0..3.0).contains(&x));
        }
        assert!(Uniform::new(3.0, 1.0).is_err());
    }

    #[test]
    fn sampling_is_reproducible_from_seed() {
        let n = Normal::new(0.0, 1.0).unwrap();
        let a = n.sample_n(&mut StdRng::seed_from_u64(123), 10);
        let b = n.sample_n(&mut StdRng::seed_from_u64(123), 10);
        assert_eq!(a, b);
    }
}
