//! Fixed-step and adaptive integrators.
//!
//! All integrators validate the time span and initial state, abort on
//! non-finite solutions, and return a dense [`Trajectory`].

use crate::{OdeError, OdeSystem, Result, Trajectory};

fn validate_setup<S: OdeSystem>(system: &S, y0: &[f64], t0: f64, t1: f64) -> Result<()> {
    if y0.len() != system.dim() {
        return Err(OdeError::DimensionMismatch {
            expected: system.dim(),
            got: y0.len(),
        });
    }
    if !t0.is_finite() || !t1.is_finite() || t1 <= t0 {
        return Err(OdeError::InvalidTimeSpan { t0, t1 });
    }
    if y0.iter().any(|v| !v.is_finite()) {
        return Err(OdeError::InvalidParameter {
            name: "y0",
            value: f64::NAN,
        });
    }
    Ok(())
}

/// The classic fourth-order Runge–Kutta method — the workhorse used to
/// generate the Lotka–Volterra "single cell" trajectories of Fig. 2/3.
///
/// # Example
///
/// ```
/// use cellsync_ode::solver::Rk4;
/// use cellsync_ode::OdeSystem;
///
/// struct Decay;
/// impl OdeSystem for Decay {
///     fn dim(&self) -> usize { 1 }
///     fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) { d[0] = -y[0]; }
/// }
///
/// # fn main() -> Result<(), cellsync_ode::OdeError> {
/// let traj = Rk4::new(0.01)?.integrate(&Decay, &[1.0], 0.0, 1.0)?;
/// let y1 = traj.last_state()[0];
/// assert!((y1 - (-1.0f64).exp()).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4 {
    dt: f64,
}

impl Rk4 {
    /// Creates an RK4 integrator with step size `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidStep`] for non-positive or non-finite `dt`.
    pub fn new(dt: f64) -> Result<Self> {
        if !(dt > 0.0) || !dt.is_finite() {
            return Err(OdeError::InvalidStep(dt));
        }
        Ok(Rk4 { dt })
    }

    /// The configured step size.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Integrates `system` from `y0` over `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Setup errors from validation plus [`OdeError::SolutionDiverged`].
    pub fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t1: f64,
    ) -> Result<Trajectory> {
        validate_setup(system, y0, t0, t1)?;
        let dim = system.dim();
        let mut t = t0;
        let mut y = y0.to_vec();
        let mut k1 = vec![0.0; dim];
        let mut k2 = vec![0.0; dim];
        let mut k3 = vec![0.0; dim];
        let mut k4 = vec![0.0; dim];
        let mut tmp = vec![0.0; dim];
        let mut times = vec![t0];
        let mut states = vec![y.clone()];
        while t < t1 {
            let h = self.dt.min(t1 - t);
            system.rhs(t, &y, &mut k1);
            for i in 0..dim {
                tmp[i] = y[i] + 0.5 * h * k1[i];
            }
            system.rhs(t + 0.5 * h, &tmp, &mut k2);
            for i in 0..dim {
                tmp[i] = y[i] + 0.5 * h * k2[i];
            }
            system.rhs(t + 0.5 * h, &tmp, &mut k3);
            for i in 0..dim {
                tmp[i] = y[i] + h * k3[i];
            }
            system.rhs(t + h, &tmp, &mut k4);
            for i in 0..dim {
                y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
            }
            t += h;
            if y.iter().any(|v| !v.is_finite()) {
                return Err(OdeError::SolutionDiverged { t });
            }
            times.push(t);
            states.push(y.clone());
        }
        Trajectory::from_parts(times, states)
    }
}

/// Adaptive Dormand–Prince 5(4) embedded pair with PI step-size control.
///
/// Used when trajectories must be accurate over many oscillation periods
/// (period measurement, parameter estimation) without hand-tuning a step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DormandPrince {
    rtol: f64,
    atol: f64,
}

/// Step budget of [`DormandPrince::integrate`]; exceeding it reports
/// [`OdeError::StepSizeUnderflow`].
const MAX_STEPS: usize = 10_000_000;

impl DormandPrince {
    /// Creates an adaptive integrator with relative tolerance `rtol` and
    /// absolute tolerance `atol`.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidStep`] for non-positive tolerances.
    pub fn new(rtol: f64, atol: f64) -> Result<Self> {
        if !(rtol > 0.0) || !rtol.is_finite() || !(atol > 0.0) || !atol.is_finite() {
            return Err(OdeError::InvalidStep(rtol.min(atol)));
        }
        Ok(DormandPrince { rtol, atol })
    }

    /// Integrates `system` from `y0` over `[t0, t1]`.
    ///
    /// # Errors
    ///
    /// Setup validation errors, [`OdeError::SolutionDiverged`],
    /// [`OdeError::StepSizeUnderflow`].
    pub fn integrate<S: OdeSystem>(
        &self,
        system: &S,
        y0: &[f64],
        t0: f64,
        t1: f64,
    ) -> Result<Trajectory> {
        validate_setup(system, y0, t0, t1)?;
        let dim = system.dim();

        // Butcher tableau (Dormand–Prince 5(4), FSAL).
        const C: [f64; 7] = [0.0, 0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0];
        const A: [[f64; 6]; 7] = [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.2, 0.0, 0.0, 0.0, 0.0, 0.0],
            [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
            [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
            [
                19372.0 / 6561.0,
                -25360.0 / 2187.0,
                64448.0 / 6561.0,
                -212.0 / 729.0,
                0.0,
                0.0,
            ],
            [
                9017.0 / 3168.0,
                -355.0 / 33.0,
                46732.0 / 5247.0,
                49.0 / 176.0,
                -5103.0 / 18656.0,
                0.0,
            ],
            [
                35.0 / 384.0,
                0.0,
                500.0 / 1113.0,
                125.0 / 192.0,
                -2187.0 / 6784.0,
                11.0 / 84.0,
            ],
        ];
        // 5th-order solution weights (same as row 7 of A) and 4th-order
        // embedded weights.
        const B5: [f64; 7] = [
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
            0.0,
        ];
        const B4: [f64; 7] = [
            5179.0 / 57600.0,
            0.0,
            7571.0 / 16695.0,
            393.0 / 640.0,
            -92097.0 / 339200.0,
            187.0 / 2100.0,
            1.0 / 40.0,
        ];

        let mut t = t0;
        let mut y = y0.to_vec();
        let mut k: Vec<Vec<f64>> = (0..7).map(|_| vec![0.0; dim]).collect();
        let mut ytmp = vec![0.0; dim];
        let mut y5 = vec![0.0; dim];
        let mut y4 = vec![0.0; dim];

        // Initial step heuristic.
        let mut h = ((t1 - t0) * 1e-3).max(1e-10);
        let h_min = (t1 - t0) * 1e-14;

        let mut times = vec![t0];
        let mut states = vec![y.clone()];

        system.rhs(t, &y, &mut k[0]);
        let mut steps = 0usize;
        while t < t1 {
            if steps >= MAX_STEPS {
                return Err(OdeError::StepSizeUnderflow { t });
            }
            steps += 1;
            h = h.min(t1 - t);

            // Stages 2..7 (stage 1 is k[0], FSAL from previous step).
            for s in 1..7 {
                for i in 0..dim {
                    let mut acc = 0.0;
                    for (j, kj) in k.iter().enumerate().take(s) {
                        let a = A[s][j];
                        if a != 0.0 {
                            acc += a * kj[i];
                        }
                    }
                    ytmp[i] = y[i] + h * acc;
                }
                let (head, tail) = k.split_at_mut(s);
                let _ = head;
                system.rhs(t + C[s] * h, &ytmp, &mut tail[0]);
            }
            for i in 0..dim {
                let mut acc5 = 0.0;
                let mut acc4 = 0.0;
                for (j, kj) in k.iter().enumerate() {
                    acc5 += B5[j] * kj[i];
                    acc4 += B4[j] * kj[i];
                }
                y5[i] = y[i] + h * acc5;
                y4[i] = y[i] + h * acc4;
            }
            if y5.iter().any(|v| !v.is_finite()) {
                return Err(OdeError::SolutionDiverged { t });
            }
            // Error norm.
            let mut err = 0.0_f64;
            for i in 0..dim {
                let sc = self.atol + self.rtol * y[i].abs().max(y5[i].abs());
                err += ((y5[i] - y4[i]) / sc).powi(2);
            }
            let err = (err / dim as f64).sqrt();

            if err <= 1.0 {
                // Accept.
                t += h;
                y.copy_from_slice(&y5);
                times.push(t);
                states.push(y.clone());
                // FSAL: k7 of this step is k1 of the next.
                let last = k[6].clone();
                k[0].copy_from_slice(&last);
            }
            // PI-style step update.
            let factor = if err == 0.0 {
                5.0
            } else {
                (0.9 * err.powf(-0.2)).clamp(0.2, 5.0)
            };
            h *= factor;
            if h < h_min {
                return Err(OdeError::StepSizeUnderflow { t });
            }
        }
        Trajectory::from_parts(times, states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// y' = -y, exact solution e^{-t}.
    struct Decay;
    impl OdeSystem for Decay {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = -y[0];
        }
    }

    /// Harmonic oscillator y'' = -y as first-order system; exact (cos t, −sin t).
    struct Harmonic;
    impl OdeSystem for Harmonic {
        fn dim(&self) -> usize {
            2
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = y[1];
            d[1] = -y[0];
        }
    }

    /// y' = y², diverges at t = 1 from y(0) = 1.
    struct Blowup;
    impl OdeSystem for Blowup {
        fn dim(&self) -> usize {
            1
        }
        fn rhs(&self, _t: f64, y: &[f64], d: &mut [f64]) {
            d[0] = y[0] * y[0];
        }
    }

    #[test]
    fn rk4_fourth_order_convergence() {
        let exact = (-1.0_f64).exp();
        let e1 = (Rk4::new(0.1)
            .unwrap()
            .integrate(&Decay, &[1.0], 0.0, 1.0)
            .unwrap()
            .last_state()[0]
            - exact)
            .abs();
        let e2 = (Rk4::new(0.05)
            .unwrap()
            .integrate(&Decay, &[1.0], 0.0, 1.0)
            .unwrap()
            .last_state()[0]
            - exact)
            .abs();
        let order = (e1 / e2).log2();
        assert!((order - 4.0).abs() < 0.4, "order {order}");
    }

    #[test]
    fn rk4_harmonic_energy_conservation() {
        let traj = Rk4::new(0.001)
            .unwrap()
            .integrate(&Harmonic, &[1.0, 0.0], 0.0, 20.0 * std::f64::consts::PI)
            .unwrap();
        let last = traj.last_state();
        // After 10 periods the solution should return to (1, 0).
        assert!((last[0] - 1.0).abs() < 1e-6);
        assert!(last[1].abs() < 1e-6);
    }

    #[test]
    fn dopri_matches_rk4_with_fewer_steps() {
        let rk = Rk4::new(1e-4)
            .unwrap()
            .integrate(&Harmonic, &[1.0, 0.0], 0.0, 10.0)
            .unwrap();
        let dp = DormandPrince::new(1e-10, 1e-12)
            .unwrap()
            .integrate(&Harmonic, &[1.0, 0.0], 0.0, 10.0)
            .unwrap();
        assert!(dp.len() < rk.len() / 10, "dp {} rk {}", dp.len(), rk.len());
        let a = rk.last_state();
        let b = dp.last_state();
        assert!((a[0] - b[0]).abs() < 1e-6);
        assert!((a[1] - b[1]).abs() < 1e-6);
    }

    #[test]
    fn dopri_tolerance_controls_error() {
        let loose = DormandPrince::new(1e-4, 1e-6)
            .unwrap()
            .integrate(&Harmonic, &[1.0, 0.0], 0.0, 50.0)
            .unwrap();
        let tight = DormandPrince::new(1e-10, 1e-12)
            .unwrap()
            .integrate(&Harmonic, &[1.0, 0.0], 0.0, 50.0)
            .unwrap();
        let exact = 50.0_f64.cos();
        let e_loose = (loose.last_state()[0] - exact).abs();
        let e_tight = (tight.last_state()[0] - exact).abs();
        assert!(e_tight < e_loose);
        assert!(e_tight < 1e-7);
    }

    #[test]
    fn divergence_detected() {
        let r = Rk4::new(0.001)
            .unwrap()
            .integrate(&Blowup, &[1.0], 0.0, 2.0);
        assert!(matches!(r.unwrap_err(), OdeError::SolutionDiverged { .. }));
    }

    #[test]
    fn setup_validation() {
        assert!(Rk4::new(0.0).is_err());
        assert!(DormandPrince::new(0.0, 1e-6).is_err());
        let rk = Rk4::new(0.1).unwrap();
        assert!(rk.integrate(&Decay, &[1.0, 2.0], 0.0, 1.0).is_err());
        assert!(rk.integrate(&Decay, &[1.0], 1.0, 0.0).is_err());
        assert!(rk.integrate(&Decay, &[f64::NAN], 0.0, 1.0).is_err());
    }

    #[test]
    fn endpoint_is_exactly_t1() {
        let traj = Rk4::new(0.3)
            .unwrap()
            .integrate(&Decay, &[1.0], 0.0, 1.0)
            .unwrap();
        let (_, t_end) = traj.span();
        assert_eq!(t_end, 1.0);
    }
}
