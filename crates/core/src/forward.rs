//! The forward model: synchronous profile → population measurements.

use cellsync_linalg::Matrix;
use cellsync_popsim::PhaseKernel;
use cellsync_spline::SplineBasis;

use crate::{PhaseProfile, Result};

/// Applies the integral transform of paper eq. 3,
/// `G(tₘ) = ∫Q(φ,tₘ)·f(φ)dφ`, and assembles the spline design matrix used
/// by the inverse problem.
///
/// # Example
///
/// ```
/// use cellsync::{ForwardModel, PhaseProfile};
/// use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let params = CellCycleParams::caulobacter()?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let pop = Population::synchronized(500, &params, InitialCondition::UniformSwarmer, &mut rng)?
///     .simulate_until(60.0)?;
/// let kernel = KernelEstimator::new(40)?.estimate(&pop, &[0.0, 30.0, 60.0])?;
/// let forward = ForwardModel::new(kernel);
///
/// // A constant profile passes through the transform unchanged
/// // (Q integrates to one).
/// let constant = PhaseProfile::from_fn(50, |_| 2.0)?;
/// let g = forward.predict(&constant)?;
/// for v in g {
///     assert!((v - 2.0).abs() < 1e-9);
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ForwardModel {
    kernel: PhaseKernel,
}

impl ForwardModel {
    /// Wraps an estimated kernel.
    pub fn new(kernel: PhaseKernel) -> Self {
        ForwardModel { kernel }
    }

    /// The wrapped kernel.
    pub fn kernel(&self) -> &PhaseKernel {
        &self.kernel
    }

    /// The measurement times of the kernel.
    pub fn times(&self) -> &[f64] {
        self.kernel.times()
    }

    /// Number of measurements the model produces.
    pub fn num_measurements(&self) -> usize {
        self.kernel.times().len()
    }

    /// Predicts the population series `{G(tₘ)}` for a synchronous profile.
    ///
    /// # Errors
    ///
    /// Propagates kernel indexing errors (none in practice).
    pub fn predict(&self, profile: &PhaseProfile) -> Result<Vec<f64>> {
        (0..self.num_measurements())
            .map(|m| Ok(self.kernel.convolve(m, |phi| profile.eval(phi))?))
            .collect()
    }

    /// Predicts the population series for an arbitrary phase function.
    ///
    /// # Errors
    ///
    /// Propagates kernel indexing errors (none in practice).
    pub fn predict_fn<F: Fn(f64) -> f64>(&self, f: F) -> Result<Vec<f64>> {
        (0..self.num_measurements())
            .map(|m| Ok(self.kernel.convolve(m, &f)?))
            .collect()
    }

    /// Assembles the design matrix `A[m, i] = ∫Q(φ,tₘ)·ψᵢ(φ)dφ` for a
    /// spline basis, so that `Ĝ = A·α` (the discretized paper eq. 3 under
    /// the eq. 4 parameterization).
    ///
    /// The integral uses the midpoint rule on the kernel's phase bins —
    /// consistent with how the kernel itself was estimated.
    ///
    /// # Errors
    ///
    /// Propagates kernel indexing errors (none in practice).
    pub fn design_matrix(&self, basis: &SplineBasis) -> Result<Matrix> {
        let m = self.num_measurements();
        let n = basis.len();
        let dphi = self.kernel.bin_width();
        // Precompute basis values on the bin centers (shared across rows).
        let psi = basis.collocation_matrix(self.kernel.phi_centers())?;
        let mut a = Matrix::zeros(m, n);
        for row in 0..m {
            let q = self.kernel.row(row)?;
            for i in 0..n {
                let mut acc = 0.0;
                for (b, &qb) in q.iter().enumerate() {
                    acc += qb * psi[(b, i)];
                }
                a[(row, i)] = acc * dphi;
            }
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellsync_linalg::Vector;
    use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn forward(seed: u64) -> ForwardModel {
        let params = CellCycleParams::caulobacter().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pop =
            Population::synchronized(2000, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(150.0)
                .unwrap();
        let times: Vec<f64> = (0..=10).map(|i| i as f64 * 15.0).collect();
        let kernel = KernelEstimator::new(64)
            .unwrap()
            .estimate(&pop, &times)
            .unwrap();
        ForwardModel::new(kernel)
    }

    #[test]
    fn constant_profile_is_fixed_point() {
        let fm = forward(1);
        let constant = PhaseProfile::from_fn(100, |_| 3.7).unwrap();
        for g in fm.predict(&constant).unwrap() {
            assert!((g - 3.7).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_is_linear() {
        let fm = forward(2);
        let p1 = PhaseProfile::from_fn(100, |phi| phi).unwrap();
        let p2 = PhaseProfile::from_fn(100, |phi| (3.0 * phi).sin() + 1.0).unwrap();
        let sum = PhaseProfile::from_fn(100, |phi| phi + (3.0 * phi).sin() + 1.0).unwrap();
        let g1 = fm.predict(&p1).unwrap();
        let g2 = fm.predict(&p2).unwrap();
        let gs = fm.predict(&sum).unwrap();
        for m in 0..fm.num_measurements() {
            assert!((gs[m] - g1[m] - g2[m]).abs() < 1e-9);
        }
    }

    #[test]
    fn design_matrix_consistent_with_predict() {
        // A·α must equal predict(f_α) when f_α is the spline combination.
        let fm = forward(3);
        let basis = SplineBasis::uniform(10, 0.0, 1.0).unwrap();
        let alpha: Vec<f64> = (0..10).map(|i| 1.0 + (i as f64 * 0.8).sin()).collect();
        let a = fm.design_matrix(&basis).unwrap();
        let g_design = a.matvec(&Vector::from_slice(&alpha)).unwrap();
        let g_direct = fm
            .predict_fn(|phi| basis.eval_combination(&alpha, phi).expect("lengths match"))
            .unwrap();
        for m in 0..fm.num_measurements() {
            assert!(
                (g_design[m] - g_direct[m]).abs() < 1e-9,
                "m={m}: {} vs {}",
                g_design[m],
                g_direct[m]
            );
        }
    }

    #[test]
    fn design_rows_sum_to_one() {
        // Σᵢ A[m,i] = ∫Q·Σψᵢ = ∫Q·1 = 1 (partition of unity).
        let fm = forward(4);
        let basis = SplineBasis::uniform(8, 0.0, 1.0).unwrap();
        let a = fm.design_matrix(&basis).unwrap();
        for m in 0..a.rows() {
            let s: f64 = a.row(m).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {m} sums to {s}");
        }
    }

    #[test]
    fn population_average_smooths_oscillation() {
        // The population trace of an oscillating profile has smaller range
        // than the profile itself at late times (asynchrony damps it).
        let fm = forward(5);
        let osc = PhaseProfile::from_fn(200, |phi| 1.0 + (2.0 * std::f64::consts::PI * phi).sin())
            .unwrap();
        let g = fm.predict(&osc).unwrap();
        let late = &g[g.len() - 3..];
        let range = late.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - late.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(range < 2.0, "population range {range} vs single-cell 2.0");
    }
}
