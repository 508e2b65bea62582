//! Single-cell ODE parameter estimation (paper §5).
//!
//! The paper's closing claim: gene-regulation models are "typically built
//! to model single cell behavior but fitted to population data", and
//! fitting them to *deconvolved* data instead "yield\[s\] more accurate
//! single cell parameters than fitting to population data alone". This
//! module implements that experiment for the Lotka–Volterra oscillator:
//! rate constants `(a, b, c, d)` are recovered by Nelder–Mead minimization
//! of the mismatch between the model's phase profiles and a target pair of
//! profiles (either the deconvolved estimates or the raw population
//! series mapped to phase).

use cellsync_ode::models::LotkaVolterra;
use cellsync_ode::solver::Rk4;
use cellsync_opt::NelderMead;
use cellsync_runtime::Pool;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use crate::{DeconvError, PhaseProfile, Result};

/// The outcome of a Lotka–Volterra parameter fit.
#[derive(Debug, Clone, PartialEq)]
pub struct LvFit {
    /// Fitted rate constants `(a, b, c, d)`.
    pub params: (f64, f64, f64, f64),
    /// Final objective (mean squared profile mismatch across both
    /// species).
    pub objective: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
}

impl LvFit {
    /// Mean relative error of the fitted rates against the true ones —
    /// the §5 comparison metric.
    ///
    /// # Errors
    ///
    /// Propagates metric errors (zero true parameters).
    pub fn mean_relative_error(&self, truth: &LotkaVolterra) -> Result<f64> {
        let (ta, tb, tc, td) = truth.params();
        let (fa, fb, fc, fd) = self.params;
        let errs = [
            cellsync_stats::metrics::relative_error(ta, fa)?,
            cellsync_stats::metrics::relative_error(tb, fb)?,
            cellsync_stats::metrics::relative_error(tc, fc)?,
            cellsync_stats::metrics::relative_error(td, fd)?,
        ];
        Ok(errs.iter().sum::<f64>() / 4.0)
    }
}

/// Configuration for [`fit_lotka_volterra`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LvFitConfig {
    /// Cycle period in minutes that maps phase to time (`t = φ·period`).
    pub period: f64,
    /// Initial state `(x₁, x₂)(φ = 0)`, assumed known (the paper fits
    /// rates, not initial conditions).
    pub y0: [f64; 2],
    /// Starting guess for `(a, b, c, d)`.
    pub initial_guess: (f64, f64, f64, f64),
    /// Number of phase samples compared.
    pub samples: usize,
    /// Nelder–Mead iteration budget.
    pub max_iterations: usize,
    /// Worker count for [`fit_lotka_volterra_multistart`]: `0` means one
    /// worker per available core (the pool default). Set to `1` when
    /// calling multistart from inside an already-parallel outer loop to
    /// avoid oversubscribing the machine.
    pub threads: usize,
}

impl LvFitConfig {
    /// A reasonable default for 150-minute-period experiments: guess 30 %
    /// above the typical scaled rates, 60 comparison points, 4000
    /// iterations.
    pub fn for_period(period: f64, y0: [f64; 2], guess: (f64, f64, f64, f64)) -> Self {
        LvFitConfig {
            period,
            y0,
            initial_guess: guess,
            samples: 60,
            max_iterations: 4000,
            threads: 0,
        }
    }
}

/// Fits Lotka–Volterra rate constants to a pair of target phase profiles
/// (`x₁` and `x₂`).
///
/// Parameters are optimized in log-space, which enforces positivity
/// without constraints and equalizes step scales across the four rates.
///
/// # Errors
///
/// * [`DeconvError::InvalidConfig`] for non-positive period, guesses, or
///   initial state.
/// * Propagates optimizer failures (iteration limit).
pub fn fit_lotka_volterra(
    target_x1: &PhaseProfile,
    target_x2: &PhaseProfile,
    config: &LvFitConfig,
) -> Result<LvFit> {
    if !(config.period > 0.0) || !config.period.is_finite() {
        return Err(DeconvError::InvalidConfig("period must be positive"));
    }
    if config.y0.iter().any(|&v| !(v > 0.0)) {
        return Err(DeconvError::InvalidConfig("initial state must be positive"));
    }
    let (ga, gb, gc, gd) = config.initial_guess;
    if [ga, gb, gc, gd]
        .iter()
        .any(|&v| !(v > 0.0) || !v.is_finite())
    {
        return Err(DeconvError::InvalidConfig("initial guess must be positive"));
    }
    if config.samples < 8 {
        return Err(DeconvError::InvalidConfig("need at least 8 samples"));
    }

    let phases: Vec<f64> = (0..config.samples)
        .map(|i| i as f64 / (config.samples - 1) as f64)
        .collect();
    let t1: Vec<f64> = phases.iter().map(|&p| target_x1.eval(p)).collect();
    let t2: Vec<f64> = phases.iter().map(|&p| target_x2.eval(p)).collect();
    let period = config.period;
    let y0 = config.y0;

    // Scale-aware objective: normalized per-species MSE so x₂'s larger
    // amplitude does not dominate.
    let s1 = t1.iter().map(|v| v * v).sum::<f64>().max(1e-12);
    let s2 = t2.iter().map(|v| v * v).sum::<f64>().max(1e-12);

    let objective = move |logp: &[f64]| -> f64 {
        let params: Vec<f64> = logp.iter().map(|l| l.exp()).collect();
        let Ok(lv) = LotkaVolterra::new(params[0], params[1], params[2], params[3]) else {
            return f64::INFINITY;
        };
        // RK4 with ~600 steps per period is ample at these rates.
        let Ok(traj) =
            Rk4::new(period / 600.0).and_then(|rk| rk.integrate(&lv, &y0, 0.0, period * 1.001))
        else {
            return f64::INFINITY;
        };
        let mut sse = 0.0;
        for (k, &phi) in phases.iter().enumerate() {
            let Ok(state) = traj.sample(phi * period) else {
                return f64::INFINITY;
            };
            sse += (state[0] - t1[k]).powi(2) / s1 + (state[1] - t2[k]).powi(2) / s2;
        }
        sse
    };

    let start = [ga.ln(), gb.ln(), gc.ln(), gd.ln()];
    let result = NelderMead::new(config.max_iterations, 1e-10)?
        .with_initial_step(0.25)
        .minimize(objective, &start)?;
    Ok(LvFit {
        params: (
            result.x[0].exp(),
            result.x[1].exp(),
            result.x[2].exp(),
            result.x[3].exp(),
        ),
        objective: result.fx,
        evaluations: result.evaluations,
    })
}

/// Multi-start variant of [`fit_lotka_volterra`]: runs `n_starts`
/// independent Nelder–Mead descents — the configured guess plus
/// `n_starts − 1` deterministic log-space perturbations of it (each rate
/// scaled by a factor in `[½, 2]` drawn from the start's own stream,
/// seeded by [`cellsync_runtime::stream_seed`]`(seed, i)`) — and returns the fit with
/// the lowest objective.
///
/// Starts fan out over a [`cellsync_runtime::Pool`] sized by
/// [`LvFitConfig::threads`] (`0` = one worker per available core); every
/// start is always evaluated and ties break toward the lowest start
/// index, so the result is bit-identical at any thread count.
///
/// Nelder–Mead is local: from a single poor guess it can stall in a
/// shallow basin (the paper's §5 fits are sensitive to initialization).
/// Restarts are the standard mitigation, and they are embarrassingly
/// parallel.
///
/// # Errors
///
/// * [`DeconvError::InvalidConfig`] for `n_starts == 0` or an invalid
///   `config` (see [`fit_lotka_volterra`]).
/// * [`DeconvError::Series`] wrapping the lowest-indexed failing start —
///   only when *every* start fails; individual failures are tolerated as
///   long as one start converges.
pub fn fit_lotka_volterra_multistart(
    target_x1: &PhaseProfile,
    target_x2: &PhaseProfile,
    config: &LvFitConfig,
    n_starts: usize,
    seed: u64,
) -> Result<LvFit> {
    if n_starts == 0 {
        return Err(DeconvError::InvalidConfig("n_starts must be positive"));
    }
    let (ga, gb, gc, gd) = config.initial_guess;
    let pool = if config.threads == 0 {
        Pool::default()
    } else {
        Pool::new(config.threads)
    };
    let attempts = pool.par_map_indexed(n_starts, |i| {
        let mut start = *config;
        if i > 0 {
            // Log-uniform scale in [1/2, 2] per rate: wide enough to hop
            // basins, narrow enough to stay in the plausible range.
            let mut rng = StdRng::seed_from_u64(cellsync_runtime::stream_seed(seed, i as u64));
            let mut jitter = || 2f64.powf(rng.gen_range(-1.0..1.0));
            start.initial_guess = (ga * jitter(), gb * jitter(), gc * jitter(), gd * jitter());
        }
        fit_lotka_volterra(target_x1, target_x2, &start)
    });
    let mut best: Option<LvFit> = None;
    for fit in attempts.iter().flatten() {
        // NaN objectives (a diverged trajectory that slipped through as
        // Ok) must never stick: `x < NaN` is false for every x, so an
        // unguarded comparison would make a NaN first-success unbeatable.
        let better = best
            .as_ref()
            .is_none_or(|current| current.objective.is_nan() || fit.objective < current.objective);
        if better {
            best = Some(fit.clone());
        }
    }
    match best {
        Some(fit) => Ok(fit),
        None => {
            let (index, source) = attempts
                .into_iter()
                .enumerate()
                .find_map(|(i, a)| a.err().map(|e| (i, e)))
                .expect("no best fit implies at least one error");
            Err(DeconvError::Series {
                index,
                source: Box::new(source),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_ode::period::rescale_lotka_volterra;
    use cellsync_ode::solver::DormandPrince;

    /// Builds the true 150-min LV system and its exact phase profiles.
    fn truth() -> (LotkaVolterra, PhaseProfile, PhaseProfile) {
        let shape = LotkaVolterra::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let (lv, _) = rescale_lotka_volterra(&shape, [2.0, 1.0], 150.0).unwrap();
        let traj = DormandPrince::new(1e-10, 1e-12)
            .unwrap()
            .integrate(&lv, &[2.0, 1.0], 0.0, 151.0)
            .unwrap();
        let x1 = PhaseProfile::from_trajectory(&traj, 0, 0.0, 150.0, 200).unwrap();
        let x2 = PhaseProfile::from_trajectory(&traj, 1, 0.0, 150.0, 200).unwrap();
        (lv, x1, x2)
    }

    #[test]
    fn recovers_parameters_from_exact_profiles() {
        let (lv, x1, x2) = truth();
        let (a, b, c, d) = lv.params();
        // Start 40 % off.
        let config =
            LvFitConfig::for_period(150.0, [2.0, 1.0], (a * 1.4, b * 1.4, c * 0.7, d * 0.7));
        let fit = fit_lotka_volterra(&x1, &x2, &config).unwrap();
        let err = fit.mean_relative_error(&lv).unwrap();
        assert!(err < 0.02, "mean relative error {err}");
        assert!(fit.objective < 1e-4);
    }

    #[test]
    fn distorted_profiles_give_worse_parameters() {
        // Flattening the profiles (as population averaging does) must
        // degrade the fitted rates — the quantitative core of §5.
        let (lv, x1, x2) = truth();
        let damp = |p: &PhaseProfile| {
            let mean = p.values().iter().sum::<f64>() / p.len() as f64;
            PhaseProfile::from_samples(p.values().iter().map(|v| mean + 0.4 * (v - mean)).collect())
                .unwrap()
        };
        let (a, b, c, d) = lv.params();
        let config =
            LvFitConfig::for_period(150.0, [2.0, 1.0], (a * 1.2, b * 1.2, c * 0.8, d * 0.8));
        let clean_fit = fit_lotka_volterra(&x1, &x2, &config).unwrap();
        let damped_fit = fit_lotka_volterra(&damp(&x1), &damp(&x2), &config).unwrap();
        let clean_err = clean_fit.mean_relative_error(&lv).unwrap();
        let damped_err = damped_fit.mean_relative_error(&lv).unwrap();
        assert!(
            damped_err > 3.0 * clean_err,
            "damped {damped_err} vs clean {clean_err}"
        );
    }

    #[test]
    fn multistart_no_worse_than_single_start() {
        let (lv, x1, x2) = truth();
        let (a, b, c, d) = lv.params();
        // A deliberately bad guess: 3x off on every rate.
        let config =
            LvFitConfig::for_period(150.0, [2.0, 1.0], (a * 3.0, b * 3.0, c / 3.0, d / 3.0));
        let single = fit_lotka_volterra(&x1, &x2, &config).unwrap();
        let multi = fit_lotka_volterra_multistart(&x1, &x2, &config, 6, 11).unwrap();
        assert!(
            multi.objective <= single.objective + 1e-12,
            "multi {} vs single {}",
            multi.objective,
            single.objective
        );
        // Determinism: same seed, same answer.
        let again = fit_lotka_volterra_multistart(&x1, &x2, &config, 6, 11).unwrap();
        assert_eq!(multi, again);
    }

    #[test]
    fn multistart_validation() {
        let (_, x1, x2) = truth();
        let config = LvFitConfig::for_period(150.0, [2.0, 1.0], (1.0, 1.0, 1.0, 1.0));
        assert!(fit_lotka_volterra_multistart(&x1, &x2, &config, 0, 1).is_err());
        // Invalid config fails every start and surfaces start 0.
        let bad = LvFitConfig::for_period(0.0, [2.0, 1.0], (1.0, 1.0, 1.0, 1.0));
        match fit_lotka_volterra_multistart(&x1, &x2, &bad, 3, 1) {
            Err(DeconvError::Series { index, .. }) => assert_eq!(index, 0),
            other => panic!("expected Series error, got {other:?}"),
        }
    }

    #[test]
    fn validation() {
        let (_, x1, x2) = truth();
        let bad_period = LvFitConfig::for_period(0.0, [2.0, 1.0], (1.0, 1.0, 1.0, 1.0));
        assert!(fit_lotka_volterra(&x1, &x2, &bad_period).is_err());
        let bad_y0 = LvFitConfig::for_period(150.0, [0.0, 1.0], (1.0, 1.0, 1.0, 1.0));
        assert!(fit_lotka_volterra(&x1, &x2, &bad_y0).is_err());
        let bad_guess = LvFitConfig::for_period(150.0, [2.0, 1.0], (0.0, 1.0, 1.0, 1.0));
        assert!(fit_lotka_volterra(&x1, &x2, &bad_guess).is_err());
        let mut few = LvFitConfig::for_period(150.0, [2.0, 1.0], (1.0, 1.0, 1.0, 1.0));
        few.samples = 4;
        assert!(fit_lotka_volterra(&x1, &x2, &few).is_err());
    }
}
