//! Synthetic ground truths and the simulated-experiment harness.
//!
//! Two of the paper's evaluations rely on data this crate cannot ship:
//! Fig. 5 uses the McGrath et al. (2007) *Caulobacter* microarray series
//! for *ftsZ*, and Fig. 4's bottom panel reproduces cell counts from Judd
//! et al. (2003). Both are substituted here by synthetic equivalents that
//! exercise the identical code paths (see DESIGN.md §5):
//!
//! * [`ftsz_profile`] builds a synchronous profile with the three
//!   biological features of *ftsZ* established by Kelly et al. (1998) and
//!   recovered by the paper's deconvolution: transcription is **off**
//!   before the SW→ST transition (φ ≈ 0.15), peaks near φ ≈ 0.4, and
//!   declines without a second rise afterwards.
//! * [`SyntheticExperiment`] forward-convolves any truth through a kernel
//!   and adds measurement noise — the harness behind Figs. 2, 3 and 5.
//! * [`lotka_volterra_truth`] produces the paper's §4.1 oscillator truths:
//!   the two LV components over one 150-minute period.

use cellsync_linalg::{Matrix, Vector};
use cellsync_ode::models::LotkaVolterra;
use cellsync_ode::period::rescale_lotka_volterra;
use cellsync_ode::solver::DormandPrince;
use cellsync_opt::{QpProblem, QpWorkspace};
use cellsync_popsim::{CellCycleParams, PhaseKernel};
use cellsync_spline::SplineBasis;
use cellsync_stats::noise::NoiseModel;
use rand::Rng;

use crate::{constraints, DeconvError, ForwardModel, PhaseProfile, Result};

/// Default peak expression used by [`ftsz_profile`] (arbitrary microarray
/// units; the paper's Fig. 5 y-axis spans ≈ 0–12).
pub const FTSZ_PEAK: f64 = 10.0;

/// A synthetic *ftsZ*-like synchronous profile with `n` samples:
/// zero until `onset` (default-style usage passes the SW→ST transition
/// 0.15), a smooth rise to [`FTSZ_PEAK`] at `peak` (≈ 0.4 per the paper's
/// deconvolution), then a monotone decline to ≈ 15 % of peak at division.
///
/// # Errors
///
/// Returns [`DeconvError::InvalidConfig`] unless `0 < onset < peak < 1`
/// and `n ≥ 2`.
///
/// # Example
///
/// ```
/// use cellsync::synthetic::ftsz_profile;
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let truth = ftsz_profile(200, 0.15, 0.4)?;
/// let features = truth.features()?;
/// assert!((features.peak_phase - 0.4).abs() < 0.02);
/// assert!(features.declines_after_peak);
/// # Ok(())
/// # }
/// ```
pub fn ftsz_profile(n: usize, onset: f64, peak: f64) -> Result<PhaseProfile> {
    if !(onset > 0.0 && onset < peak && peak < 1.0) {
        return Err(DeconvError::InvalidConfig(
            "ftsz profile needs 0 < onset < peak < 1",
        ));
    }
    let floor = 0.15 * FTSZ_PEAK;
    PhaseProfile::from_fn(n, |phi| {
        if phi < onset {
            0.0
        } else if phi < peak {
            // Smoothstep rise from 0 to the peak (C¹ at both ends).
            let s = (phi - onset) / (peak - onset);
            FTSZ_PEAK * s * s * (3.0 - 2.0 * s)
        } else {
            // Monotone decline: smoothstep down to the floor at φ = 1.
            let s = (phi - peak) / (1.0 - peak);
            let down = s * s * (3.0 - 2.0 * s);
            FTSZ_PEAK - (FTSZ_PEAK - floor) * down
        }
    })
}

/// Projects an arbitrary profile onto the Caulobacter constraint manifold:
/// the closest (least-squares on a dense grid) natural cubic spline that
/// exactly satisfies positivity, RNA conservation, and transcript-rate
/// continuity for the given population parameters.
///
/// Used to build ground truths for which the constrained deconvolution is
/// *consistent* — the shape generator of [`ftsz_profile`] captures the
/// biology but does not know about the division identities, so the
/// constraint-ablation experiments project it first (dogfooding the same
/// QP machinery the deconvolver uses).
///
/// # Errors
///
/// Propagates spline/QP errors.
///
/// # Example
///
/// ```
/// use cellsync::constraints::conservation_residual;
/// use cellsync::synthetic::{ftsz_profile, project_onto_constraints};
/// use cellsync_popsim::CellCycleParams;
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let params = CellCycleParams::caulobacter()?;
/// let raw = ftsz_profile(200, 0.15, 0.4)?;
/// let projected = project_onto_constraints(&raw, 24, &params)?;
/// // Residual of the *resampled* profile: bounded by grid interpolation
/// // error (the spline itself satisfies the constraint to QP precision).
/// let r = conservation_residual(|phi| projected.eval(phi), &params)?;
/// assert!(r.abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
pub fn project_onto_constraints(
    profile: &PhaseProfile,
    basis_size: usize,
    params: &CellCycleParams,
) -> Result<PhaseProfile> {
    let basis = SplineBasis::uniform(basis_size, 0.0, 1.0)?;
    let n = basis.len();
    // Dense least-squares target: min ‖Bα − y‖² on a 4×basis grid.
    let grid: Vec<f64> = (0..4 * n).map(|i| i as f64 / (4 * n - 1) as f64).collect();
    let b = basis.collocation_matrix(&grid)?;
    let y = Vector::from_fn(grid.len(), |i| profile.eval(grid[i]));
    let mut h = b.gram().scaled(2.0);
    // Tiny ridge keeps H strictly positive definite.
    for i in 0..n {
        h[(i, i)] += 1e-9;
    }
    h.symmetrize()?;
    let c = -&b.tr_matvec(&y)?.scaled(2.0);

    // Pin f(0) to the input's starting value: without this, the QP can
    // satisfy RNA conservation by inventing expression at birth, which
    // would erase delayed-onset features (the whole point of Fig. 5).
    let pin0: Vec<f64> = (0..n).map(|i| basis.eval(i, 0.0)).collect();
    let eq_rows = [
        constraints::rna_conservation_row(&basis, params)?,
        constraints::rate_continuity_row(&basis, params)?,
        pin0,
    ];
    let refs: Vec<&[f64]> = eq_rows.iter().map(|r| r.as_slice()).collect();
    let eq = Matrix::from_rows(&refs)?;
    let eq_rhs = Vector::from_slice(&[0.0, 0.0, profile.eval(0.0)]);
    let pos = basis.collocation_matrix(&grid)?;

    let solution = QpWorkspace::new().solve(
        &QpProblem::new(&h, &c)?
            .with_equalities(&eq, &eq_rhs)?
            .with_inequalities(&pos, &Vector::zeros(grid.len()))?,
    )?;
    let samples: Vec<f64> = (0..profile.len())
        .map(|i| {
            basis.eval_combination(solution.x.as_slice(), i as f64 / (profile.len() - 1) as f64)
        })
        .collect::<std::result::Result<_, _>>()?;
    // Positivity was imposed on a finite grid; clip the dust between
    // collocation points.
    PhaseProfile::from_samples(samples.into_iter().map(|v| v.max(0.0)).collect())
}

/// The paper's §4.1 Lotka–Volterra ground truth: the orbit through
/// `(x₁, x₂)(0) = y0` rescaled to a 150-minute period, sampled over one
/// period as two phase profiles `(x₁(φ·150), x₂(φ·150))`.
///
/// The default shape `a = b = c = d = 1`, `y0 = (2.4, 1.0)` gives
/// amplitudes comparable to the paper's Fig. 2 (x₁ up to ≈ 2.8, x₂ up to
/// ≈ 10 with the species-conversion scaling applied by the caller if
/// desired).
///
/// # Errors
///
/// Propagates ODE integration/period-measurement errors.
pub fn lotka_volterra_truth(
    shape: &LotkaVolterra,
    y0: [f64; 2],
    period: f64,
    n: usize,
) -> Result<(PhaseProfile, PhaseProfile, LotkaVolterra)> {
    let (scaled, _) = rescale_lotka_volterra(shape, y0, period)?;
    let traj = DormandPrince::new(1e-10, 1e-12)?.integrate(&scaled, &y0, 0.0, period * 1.01)?;
    let x1 = PhaseProfile::from_trajectory(&traj, 0, 0.0, period, n)?;
    let x2 = PhaseProfile::from_trajectory(&traj, 1, 0.0, period, n)?;
    Ok((x1, x2, scaled))
}

/// A complete simulated population-measurement experiment: truth →
/// forward transform → measurement noise, with the per-point σₘ the
/// weighted cost of paper eq. 5 needs.
///
/// # Example
///
/// ```
/// use cellsync::synthetic::{ftsz_profile, SyntheticExperiment};
/// use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
/// use cellsync_stats::noise::NoiseModel;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let params = CellCycleParams::caulobacter()?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pop = Population::synchronized(500, &params, InitialCondition::UniformSwarmer, &mut rng)?
///     .simulate_until(80.0)?;
/// let kernel = KernelEstimator::new(40)?.estimate(&pop, &[0.0, 40.0, 80.0])?;
/// let truth = ftsz_profile(100, 0.15, 0.4)?;
/// let exp = SyntheticExperiment::generate(
///     kernel,
///     &truth,
///     NoiseModel::RelativeGaussian { fraction: 0.10 },
///     &mut rng,
/// )?;
/// assert_eq!(exp.noisy().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticExperiment {
    clean: Vec<f64>,
    noisy: Vec<f64>,
    sigmas: Vec<f64>,
    noise: NoiseModel,
}

impl SyntheticExperiment {
    /// Forward-convolves `truth` through `kernel` and applies `noise`.
    ///
    /// # Errors
    ///
    /// Propagates forward-model and noise-model errors.
    pub fn generate<R: Rng + ?Sized>(
        kernel: PhaseKernel,
        truth: &PhaseProfile,
        noise: NoiseModel,
        rng: &mut R,
    ) -> Result<Self> {
        let forward = ForwardModel::new(kernel);
        let clean = forward.predict(truth)?;
        let noisy = noise.apply(&clean, rng)?;
        let sigmas = noise.sigmas(&clean)?;
        Ok(SyntheticExperiment {
            clean,
            noisy,
            sigmas,
            noise,
        })
    }

    /// The noiseless population series.
    pub fn clean(&self) -> &[f64] {
        &self.clean
    }

    /// The noisy population series (one realization).
    pub fn noisy(&self) -> &[f64] {
        &self.noisy
    }

    /// Per-measurement standard deviations implied by the noise model.
    pub fn sigmas(&self) -> &[f64] {
        &self.sigmas
    }

    /// The noise model that generated this experiment.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ftsz_profile_features() {
        let p = ftsz_profile(400, 0.15, 0.4).unwrap();
        let f = p.features().unwrap();
        assert!(
            f.onset_phase > 0.13 && f.onset_phase < 0.25,
            "onset {}",
            f.onset_phase
        );
        assert!((f.peak_phase - 0.4).abs() < 0.01);
        // The grid need not sample φ = 0.4 exactly; allow discretization.
        assert!((f.peak_value - FTSZ_PEAK).abs() < 0.01);
        assert!(f.declines_after_peak);
        // Exactly zero through the swarmer stage.
        assert_eq!(p.eval(0.0), 0.0);
        assert_eq!(p.eval(0.10), 0.0);
        assert!(p.eval(0.99) > 0.0);
    }

    #[test]
    fn ftsz_profile_validation() {
        assert!(ftsz_profile(100, 0.0, 0.4).is_err());
        assert!(ftsz_profile(100, 0.5, 0.4).is_err());
        assert!(ftsz_profile(100, 0.15, 1.0).is_err());
    }

    #[test]
    fn projection_satisfies_both_constraints_and_keeps_features() {
        let params = CellCycleParams::caulobacter().unwrap();
        let raw = ftsz_profile(300, 0.15, 0.4).unwrap();
        let proj = project_onto_constraints(&raw, 24, &params).unwrap();
        // Both equality functionals vanish.
        // Tolerance covers the spline→grid resampling error; the spline
        // coefficients satisfy the row to QP precision.
        let cons =
            crate::constraints::conservation_residual(|phi| proj.eval(phi), &params).unwrap();
        assert!(cons.abs() < 1e-3, "conservation {cons}");
        // Positivity (up to grid dust already clipped).
        assert!(proj.min() >= 0.0);
        // Key biological features survive the projection.
        let f = proj.features().unwrap();
        assert!(
            f.onset_phase > 0.08 && f.onset_phase < 0.3,
            "onset {}",
            f.onset_phase
        );
        assert!((f.peak_phase - 0.4).abs() < 0.1, "peak {}", f.peak_phase);
        // Projection stays close to the shape.
        assert!(
            raw.nrmse(&proj).unwrap() < 0.15,
            "nrmse {}",
            raw.nrmse(&proj).unwrap()
        );
    }

    #[test]
    fn lv_truth_has_period_and_amplitude() {
        let shape = LotkaVolterra::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let (x1, x2, scaled) = lotka_volterra_truth(&shape, [2.4, 1.0], 150.0, 300).unwrap();
        // One full period: endpoints match.
        assert!((x1.eval(0.0) - x1.eval(1.0)).abs() < 0.05);
        assert!((x2.eval(0.0) - x2.eval(1.0)).abs() < 0.05);
        // Positive everywhere (LV preserves positivity).
        assert!(x1.min() > 0.0 && x2.min() > 0.0);
        // The rescaled system runs ~25x faster than the unit-rate shape
        // (unit-rate period ≈ 2π·corrections ≫ 150 would be false — rates
        // must have been scaled UP since unit period ≈ 6.9 ≪ 150... check
        // direction: period 6.9 → 150 means slowing down, γ < 1).
        let (a, ..) = scaled.params();
        assert!(a < 1.0, "rates must shrink to stretch the period, a = {a}");
    }

    #[test]
    fn experiment_noiseless_matches_clean() {
        let params = CellCycleParams::caulobacter().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let pop =
            Population::synchronized(800, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(100.0)
                .unwrap();
        let kernel = KernelEstimator::new(40)
            .unwrap()
            .estimate(&pop, &[0.0, 50.0, 100.0])
            .unwrap();
        let truth = ftsz_profile(100, 0.15, 0.4).unwrap();
        let exp =
            SyntheticExperiment::generate(kernel, &truth, NoiseModel::None, &mut rng).unwrap();
        assert_eq!(exp.clean(), exp.noisy());
        assert_eq!(exp.sigmas(), &[1.0, 1.0, 1.0]);
        assert_eq!(exp.noise(), NoiseModel::None);
    }

    #[test]
    fn experiment_noise_scales_with_magnitude() {
        let params = CellCycleParams::caulobacter().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let pop =
            Population::synchronized(800, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(100.0)
                .unwrap();
        let kernel = KernelEstimator::new(40)
            .unwrap()
            .estimate(&pop, &[0.0, 50.0, 100.0])
            .unwrap();
        let truth = ftsz_profile(100, 0.15, 0.4).unwrap();
        let exp = SyntheticExperiment::generate(
            kernel,
            &truth,
            NoiseModel::RelativeGaussian { fraction: 0.10 },
            &mut rng,
        )
        .unwrap();
        // NoiseModel::sigmas floors tiny values at 1e-9 + 1e-3·max|G| so
        // zero-crossing measurements keep finite weights.
        let scale = exp.clean().iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        let floor = 1e-9 + 1e-3 * scale;
        for (s, c) in exp.sigmas().iter().zip(exp.clean()) {
            let expected = (0.10 * c.abs()).max(floor);
            assert!(
                (s - expected).abs() <= 1e-12 + 1e-9 * expected,
                "sigma {s} vs {expected}"
            );
        }
    }
}
