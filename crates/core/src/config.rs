//! Deconvolution configuration.

use crate::{DeconvError, Result};

/// How the smoothing parameter λ of paper eq. 5 is chosen.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LambdaSelection {
    /// Use the given λ directly. The criterion applies
    /// `max(λ, DeconvolutionConfig::RIDGE)`, so `Fixed(0.0)` is well
    /// posed; the result reports λ as given.
    Fixed(f64),
    /// Generalized cross validation (Craven & Wahba 1978): scan a
    /// log-spaced grid of λ values and pick the GCV minimizer. The GCV
    /// score is computed on the *unconstrained* smoother (standard
    /// practice — the influence matrix of the constrained fit is not
    /// linear), then the selected λ is used for the constrained solve.
    Gcv {
        /// `log₁₀` of the smallest λ scanned.
        log10_min: f64,
        /// `log₁₀` of the largest λ scanned.
        log10_max: f64,
        /// Number of grid points.
        points: usize,
    },
    /// K-fold cross validation on the measurements: refit (with the full
    /// constraint set) on each training fold and score the held-out
    /// weighted squared error.
    KFold {
        /// Number of folds (≥ 2).
        folds: usize,
        /// `log₁₀` of the smallest λ scanned.
        log10_min: f64,
        /// `log₁₀` of the largest λ scanned.
        log10_max: f64,
        /// Number of grid points.
        points: usize,
        /// Seed for the fold shuffle (fits are deterministic given this).
        seed: u64,
    },
}

impl LambdaSelection {
    /// The default GCV scan: 25 points over `λ ∈ [10⁻⁸, 10²]`.
    pub fn default_gcv() -> Self {
        LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 2.0,
            points: 25,
        }
    }

    fn validate(&self) -> Result<()> {
        match self {
            LambdaSelection::Fixed(l) => {
                if !(*l >= 0.0) || !l.is_finite() {
                    return Err(DeconvError::InvalidConfig(
                        "fixed lambda must be finite and non-negative",
                    ));
                }
            }
            LambdaSelection::Gcv {
                log10_min,
                log10_max,
                points,
            } => {
                validate_grid(*log10_min, *log10_max, *points, "gcv")?;
            }
            LambdaSelection::KFold {
                folds,
                log10_min,
                log10_max,
                points,
                ..
            } => {
                if *folds < 2 {
                    return Err(DeconvError::InvalidConfig("k-fold needs at least 2 folds"));
                }
                validate_grid(*log10_min, *log10_max, *points, "k-fold")?;
            }
        }
        Ok(())
    }

    /// The λ grid implied by this selection (single point for `Fixed`).
    pub fn lambda_grid(&self) -> Vec<f64> {
        match self {
            LambdaSelection::Fixed(l) => vec![*l],
            LambdaSelection::Gcv {
                log10_min,
                log10_max,
                points,
            }
            | LambdaSelection::KFold {
                log10_min,
                log10_max,
                points,
                ..
            } => (0..*points)
                .map(|i| {
                    let t = i as f64 / (*points - 1) as f64;
                    10f64.powf(log10_min + t * (log10_max - log10_min))
                })
                .collect(),
        }
    }
}

/// Validates a log₁₀ λ grid: finite bounds, a genuinely two-sided range
/// (a degenerate `log10_min == log10_max` grid collapses every point onto
/// one λ), and at least two points. Non-finite bounds would otherwise
/// propagate NaN λ values into every GCV/CV score and poison the
/// selector silently.
fn validate_grid(log10_min: f64, log10_max: f64, points: usize, what: &'static str) -> Result<()> {
    if !log10_min.is_finite() || !log10_max.is_finite() {
        return Err(DeconvError::InvalidConfig(match what {
            "gcv" => "gcv grid bounds must be finite",
            _ => "k-fold grid bounds must be finite",
        }));
    }
    if log10_min >= log10_max || points < 2 {
        return Err(DeconvError::InvalidConfig(match what {
            "gcv" => "gcv grid needs log10_min < log10_max and at least 2 points",
            _ => "k-fold grid needs log10_min < log10_max and at least 2 points",
        }));
    }
    Ok(())
}

impl Default for LambdaSelection {
    fn default() -> Self {
        LambdaSelection::default_gcv()
    }
}

/// Configuration of the constrained spline deconvolution (paper §2.3, §3).
///
/// Build with [`DeconvolutionConfig::builder`]:
///
/// ```
/// use cellsync::DeconvolutionConfig;
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let config = DeconvolutionConfig::builder()
///     .basis_size(24)
///     .positivity(true)
///     .conservation(true)
///     .rate_continuity(true)
///     .build()?;
/// assert_eq!(config.basis_size(), 24);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeconvolutionConfig {
    basis_size: usize,
    positivity: bool,
    conservation: bool,
    rate_continuity: bool,
    lambda: LambdaSelection,
}

impl DeconvolutionConfig {
    /// The ridge `ε` of the criterion, in two places: the term
    /// `ε·cᵀ(NᵀN)c` on the end coefficients `c = (α₀, α_{n−1})` (the
    /// coordinates of Ω's null space), which makes the normal matrix
    /// positive definite whatever the data, and the floor of the
    /// smoothing weight, `λ̄ = max(λ, ε)`, which keeps λ = 0 well posed.
    /// The interior coefficients carry no ridge (`docs/SOLVER.md` §1).
    pub const RIDGE: f64 = 1e-9;

    /// Number of uniform phase points, `0` and `1` included, where
    /// positivity `f_α(φ) ≥ 0` is imposed. It is fixed rather than
    /// configurable: it sets the size of the dense collocation block the
    /// engine builds, so no caller can ask for an arbitrarily large one.
    pub const POSITIVITY_GRID: usize = 101;

    /// Starts a builder with the defaults: 24 basis functions, positivity
    /// on, division constraints off (they encode Caulobacter-specific
    /// biology; enable them for Caulobacter data), GCV λ selection.
    pub fn builder() -> DeconvolutionConfigBuilder {
        DeconvolutionConfigBuilder::default()
    }

    /// Number of spline basis functions `N_c` (paper eq. 4).
    pub fn basis_size(&self) -> usize {
        self.basis_size
    }

    /// Whether `f_α(φ) ≥ 0` is enforced on the positivity grid.
    pub fn positivity(&self) -> bool {
        self.positivity
    }

    /// Whether the RNA-conservation equality (paper §2.3) is enforced.
    pub fn conservation(&self) -> bool {
        self.conservation
    }

    /// Whether the transcript-rate-continuity equality (paper §3.2) is
    /// enforced.
    pub fn rate_continuity(&self) -> bool {
        self.rate_continuity
    }

    /// Number of uniform grid points where positivity is imposed: always
    /// [`DeconvolutionConfig::POSITIVITY_GRID`]. The accessor stays for
    /// callers that rebuild the positivity rows themselves, such as the
    /// repository benchmark's QP probe.
    pub fn positivity_grid(&self) -> usize {
        DeconvolutionConfig::POSITIVITY_GRID
    }

    /// The λ-selection strategy.
    pub fn lambda(&self) -> &LambdaSelection {
        &self.lambda
    }
}

impl Default for DeconvolutionConfig {
    fn default() -> Self {
        DeconvolutionConfig::builder()
            .build()
            .expect("default configuration is valid")
    }
}

/// Builder for [`DeconvolutionConfig`].
#[derive(Debug, Clone)]
pub struct DeconvolutionConfigBuilder {
    basis_size: usize,
    positivity: bool,
    conservation: bool,
    rate_continuity: bool,
    lambda: LambdaSelection,
}

impl Default for DeconvolutionConfigBuilder {
    fn default() -> Self {
        DeconvolutionConfigBuilder {
            basis_size: 24,
            positivity: true,
            conservation: false,
            rate_continuity: false,
            lambda: LambdaSelection::default_gcv(),
        }
    }
}

impl DeconvolutionConfigBuilder {
    /// Sets the number of spline basis functions (≥ 4).
    #[must_use]
    pub fn basis_size(mut self, n: usize) -> Self {
        self.basis_size = n;
        self
    }

    /// Enables or disables the positivity constraint.
    #[must_use]
    pub fn positivity(mut self, on: bool) -> Self {
        self.positivity = on;
        self
    }

    /// Enables or disables the RNA-conservation equality.
    #[must_use]
    pub fn conservation(mut self, on: bool) -> Self {
        self.conservation = on;
        self
    }

    /// Enables or disables the rate-continuity equality.
    #[must_use]
    pub fn rate_continuity(mut self, on: bool) -> Self {
        self.rate_continuity = on;
        self
    }

    /// Shortcut for a fixed smoothing parameter.
    #[must_use]
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = LambdaSelection::Fixed(lambda);
        self
    }

    /// Sets the full λ-selection strategy.
    #[must_use]
    pub fn lambda_selection(mut self, selection: LambdaSelection) -> Self {
        self.lambda = selection;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeconvError::InvalidConfig`] for out-of-range values.
    pub fn build(self) -> Result<DeconvolutionConfig> {
        if self.basis_size < 4 {
            return Err(DeconvError::InvalidConfig("basis_size must be at least 4"));
        }
        self.lambda.validate()?;
        Ok(DeconvolutionConfig {
            basis_size: self.basis_size,
            positivity: self.positivity,
            conservation: self.conservation,
            rate_continuity: self.rate_continuity,
            lambda: self.lambda,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DeconvolutionConfig::default();
        assert_eq!(c.basis_size(), 24);
        assert!(c.positivity());
        assert!(!c.conservation());
        assert!(!c.rate_continuity());
        assert!(matches!(c.lambda(), LambdaSelection::Gcv { .. }));
    }

    #[test]
    fn builder_round_trip() {
        let c = DeconvolutionConfig::builder()
            .basis_size(16)
            .positivity(false)
            .conservation(true)
            .rate_continuity(true)
            .lambda(0.01)
            .build()
            .unwrap();
        assert_eq!(c.basis_size(), 16);
        assert!(!c.positivity());
        assert!(c.conservation());
        assert!(c.rate_continuity());
        assert_eq!(c.lambda(), &LambdaSelection::Fixed(0.01));
    }

    #[test]
    fn validation() {
        assert!(DeconvolutionConfig::builder()
            .basis_size(3)
            .build()
            .is_err());
        assert!(DeconvolutionConfig::builder()
            .lambda(f64::NAN)
            .build()
            .is_err());
        assert!(DeconvolutionConfig::builder()
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: 1.0,
                log10_max: 0.0,
                points: 10
            })
            .build()
            .is_err());
        assert!(DeconvolutionConfig::builder()
            .lambda_selection(LambdaSelection::KFold {
                folds: 1,
                log10_min: -4.0,
                log10_max: 0.0,
                points: 5,
                seed: 0
            })
            .build()
            .is_err());
    }

    #[test]
    fn degenerate_lambda_grids_rejected() {
        // Collapsed range (log10_min == log10_max) — every grid point
        // would be the same λ.
        for selection in [
            LambdaSelection::Gcv {
                log10_min: -3.0,
                log10_max: -3.0,
                points: 10,
            },
            LambdaSelection::KFold {
                folds: 3,
                log10_min: 0.0,
                log10_max: 0.0,
                points: 10,
                seed: 1,
            },
        ] {
            assert!(
                DeconvolutionConfig::builder()
                    .lambda_selection(selection)
                    .build()
                    .is_err(),
                "collapsed grid accepted"
            );
        }
        // Single-point grids.
        assert!(DeconvolutionConfig::builder()
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -4.0,
                log10_max: 0.0,
                points: 1,
            })
            .build()
            .is_err());
        // Non-finite bounds: NaN passes neither `>=` nor `<` checks, so
        // it needs (and gets) an explicit finiteness rejection instead of
        // NaN scores reaching the selector.
        for (lo, hi) in [
            (f64::NAN, 0.0),
            (-4.0, f64::NAN),
            (f64::NEG_INFINITY, 0.0),
            (-4.0, f64::INFINITY),
        ] {
            assert!(
                DeconvolutionConfig::builder()
                    .lambda_selection(LambdaSelection::Gcv {
                        log10_min: lo,
                        log10_max: hi,
                        points: 5,
                    })
                    .build()
                    .is_err(),
                "non-finite gcv bounds ({lo}, {hi}) accepted"
            );
            assert!(
                DeconvolutionConfig::builder()
                    .lambda_selection(LambdaSelection::KFold {
                        folds: 3,
                        log10_min: lo,
                        log10_max: hi,
                        points: 5,
                        seed: 0,
                    })
                    .build()
                    .is_err(),
                "non-finite k-fold bounds ({lo}, {hi}) accepted"
            );
        }
    }

    #[test]
    fn lambda_grid_log_spaced() {
        let sel = LambdaSelection::Gcv {
            log10_min: -4.0,
            log10_max: 0.0,
            points: 5,
        };
        let grid = sel.lambda_grid();
        assert_eq!(grid.len(), 5);
        assert!((grid[0] - 1e-4).abs() < 1e-16);
        assert!((grid[4] - 1.0).abs() < 1e-12);
        assert!((grid[2] - 1e-2).abs() < 1e-14);
        assert_eq!(LambdaSelection::Fixed(0.5).lambda_grid(), vec![0.5]);
    }
}
