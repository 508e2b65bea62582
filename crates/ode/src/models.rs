//! Model library: the paper's Lotka–Volterra oscillator plus additional
//! gene-regulatory oscillators used in extended validations.

use crate::{OdeError, OdeSystem, Result};

fn check_positive(name: &'static str, v: f64) -> Result<f64> {
    if !(v > 0.0) || !v.is_finite() {
        return Err(OdeError::InvalidParameter { name, value: v });
    }
    Ok(v)
}

/// The classical Lotka–Volterra oscillator (paper eqs. 20–21):
///
/// ```text
/// ẋ₁ = x₁(a − b·x₂)
/// ẋ₂ = x₂(c·x₁ − d)
/// ```
///
/// The paper treats `x₁`, `x₂` as "two chemical species which bind and
/// convert x₁ to x₂" and selects parameters yielding a 150-minute period —
/// see [`crate::period::rescale_lotka_volterra`] for how this crate hits the
/// target period exactly via the system's time-scaling symmetry (if `x(t)`
/// solves the system with parameters `(a,b,c,d)`, then `x(γt)` solves it
/// with `γ·(a,b,c,d)`).
///
/// # Example
///
/// ```
/// use cellsync_ode::models::LotkaVolterra;
/// use cellsync_ode::OdeSystem;
///
/// # fn main() -> Result<(), cellsync_ode::OdeError> {
/// let lv = LotkaVolterra::new(0.5, 0.1, 0.3, 0.4)?;
/// // Equilibrium at (d/c, a/b):
/// let eq = lv.equilibrium();
/// let mut d = [0.0, 0.0];
/// lv.rhs(0.0, &[eq.0, eq.1], &mut d);
/// assert!(d[0].abs() < 1e-12 && d[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LotkaVolterra {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
}

impl LotkaVolterra {
    /// Creates the system with positive rate constants.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] for non-positive parameters.
    pub fn new(a: f64, b: f64, c: f64, d: f64) -> Result<Self> {
        Ok(LotkaVolterra {
            a: check_positive("a", a)?,
            b: check_positive("b", b)?,
            c: check_positive("c", c)?,
            d: check_positive("d", d)?,
        })
    }

    /// The rate constants `(a, b, c, d)`.
    pub fn params(&self) -> (f64, f64, f64, f64) {
        (self.a, self.b, self.c, self.d)
    }

    /// The nontrivial equilibrium `(d/c, a/b)`.
    pub fn equilibrium(&self) -> (f64, f64) {
        (self.d / self.c, self.a / self.b)
    }

    /// Period of infinitesimal oscillations around the equilibrium,
    /// `2π/√(a·d)`; finite-amplitude orbits are slower.
    pub fn linear_period(&self) -> f64 {
        2.0 * std::f64::consts::PI / (self.a * self.d).sqrt()
    }

    /// Returns the system with all four rates multiplied by `gamma`,
    /// which compresses time by the factor `gamma` (period divides by
    /// `gamma`) while leaving the orbit shape unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] for non-positive `gamma`.
    pub fn time_scaled(&self, gamma: f64) -> Result<Self> {
        check_positive("gamma", gamma)?;
        LotkaVolterra::new(
            self.a * gamma,
            self.b * gamma,
            self.c * gamma,
            self.d * gamma,
        )
    }

    /// The conserved quantity `V = c·x₁ − d·ln x₁ + b·x₂ − a·ln x₂`,
    /// constant along exact orbits (used to test integrator fidelity).
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] for non-positive state values.
    pub fn invariant(&self, x1: f64, x2: f64) -> Result<f64> {
        check_positive("x1", x1)?;
        check_positive("x2", x2)?;
        Ok(self.c * x1 - self.d * x1.ln() + self.b * x2 - self.a * x2.ln())
    }
}

impl OdeSystem for LotkaVolterra {
    fn dim(&self) -> usize {
        2
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = y[0] * (self.a - self.b * y[1]);
        dydt[1] = y[1] * (self.c * y[0] - self.d);
    }

    fn name(&self) -> &str {
        "lotka-volterra"
    }
}

/// The Goodwin oscillator in the Gonze et al. (2002) circadian form, a
/// minimal negative-feedback gene circuit with Michaelis–Menten
/// degradation:
///
/// ```text
/// ẋ = v₁·K₁ⁿ/(K₁ⁿ + zⁿ) − v₂·x/(K₂ + x)     (mRNA)
/// ẏ = k₃·x − v₄·y/(K₄ + y)                  (protein)
/// ż = k₅·y − v₆·z/(K₆ + z)                  (nuclear repressor)
/// ```
///
/// The saturating degradation terms let the circuit oscillate at the
/// biologically plausible Hill coefficient `n = 4` (the linear-degradation
/// Goodwin needs an unrealistically steep `n > 8`). Included as a second,
/// biochemically grounded oscillator for deconvolution validation beyond
/// the paper's LV example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Goodwin {
    v1: f64,
    big_k1: f64,
    hill: f64,
    v2: f64,
    big_k2: f64,
    k3: f64,
    v4: f64,
    big_k4: f64,
    k5: f64,
    v6: f64,
    big_k6: f64,
}

impl Goodwin {
    /// Creates a Goodwin–Gonze oscillator. Parameter order matches the
    /// equations above: `(v1, K1, n, v2, K2, k3, v4, K4, k5, v6, K6)`.
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] for non-positive values.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        v1: f64,
        big_k1: f64,
        hill: f64,
        v2: f64,
        big_k2: f64,
        k3: f64,
        v4: f64,
        big_k4: f64,
        k5: f64,
        v6: f64,
        big_k6: f64,
    ) -> Result<Self> {
        Ok(Goodwin {
            v1: check_positive("v1", v1)?,
            big_k1: check_positive("K1", big_k1)?,
            hill: check_positive("hill", hill)?,
            v2: check_positive("v2", v2)?,
            big_k2: check_positive("K2", big_k2)?,
            k3: check_positive("k3", k3)?,
            v4: check_positive("v4", v4)?,
            big_k4: check_positive("K4", big_k4)?,
            k5: check_positive("k5", k5)?,
            v6: check_positive("v6", v6)?,
            big_k6: check_positive("K6", big_k6)?,
        })
    }

    /// The oscillating circadian parameter set of Gonze et al. (2002):
    /// `v1 = 0.7, K1 = 1, n = 4, v2 = 0.35, K2 = 1, k3 = 0.7, v4 = 0.35,
    /// K4 = 1, k5 = 0.7, v6 = 0.35, K6 = 1` (period ≈ 24 time units).
    ///
    /// # Errors
    ///
    /// Never fails in practice; kept fallible for constructor uniformity.
    pub fn classic() -> Result<Self> {
        Goodwin::new(0.7, 1.0, 4.0, 0.35, 1.0, 0.7, 0.35, 1.0, 0.7, 0.35, 1.0)
    }
}

impl OdeSystem for Goodwin {
    fn dim(&self) -> usize {
        3
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        let x = y[0].max(0.0);
        let yy = y[1].max(0.0);
        let z = y[2].max(0.0);
        let kn = self.big_k1.powf(self.hill);
        dydt[0] = self.v1 * kn / (kn + z.powf(self.hill)) - self.v2 * x / (self.big_k2 + x);
        dydt[1] = self.k3 * x - self.v4 * yy / (self.big_k4 + yy);
        dydt[2] = self.k5 * yy - self.v6 * z / (self.big_k6 + z);
    }

    fn name(&self) -> &str {
        "goodwin"
    }
}

/// Damped linear oscillator `ẍ + 2ζω·ẋ + ω²·x = 0` with closed-form
/// solution — the ground truth for integrator-accuracy tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DampedOscillator {
    omega: f64,
    zeta: f64,
}

impl DampedOscillator {
    /// Creates an oscillator with natural frequency `omega` and damping
    /// ratio `zeta` (0 ≤ ζ < 1 for underdamped motion).
    ///
    /// # Errors
    ///
    /// Returns [`OdeError::InvalidParameter`] for `omega ≤ 0` or
    /// `zeta ∉ [0, 1)`.
    pub fn new(omega: f64, zeta: f64) -> Result<Self> {
        check_positive("omega", omega)?;
        if !(0.0..1.0).contains(&zeta) {
            return Err(OdeError::InvalidParameter {
                name: "zeta",
                value: zeta,
            });
        }
        Ok(DampedOscillator { omega, zeta })
    }

    /// Closed-form solution `x(t)` for initial conditions `x(0)=x0`,
    /// `ẋ(0)=0`.
    pub fn exact(&self, x0: f64, t: f64) -> f64 {
        let wd = self.omega * (1.0 - self.zeta * self.zeta).sqrt();
        let decay = (-self.zeta * self.omega * t).exp();
        decay * x0 * ((wd * t).cos() + self.zeta * self.omega / wd * (wd * t).sin())
    }
}

impl OdeSystem for DampedOscillator {
    fn dim(&self) -> usize {
        2
    }

    fn rhs(&self, _t: f64, y: &[f64], dydt: &mut [f64]) {
        dydt[0] = y[1];
        dydt[1] = -2.0 * self.zeta * self.omega * y[1] - self.omega * self.omega * y[0];
    }

    fn name(&self) -> &str {
        "damped oscillator"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{DormandPrince, Rk4};

    #[test]
    fn lv_equilibrium_is_fixed_point() {
        let lv = LotkaVolterra::new(0.5, 0.1, 0.3, 0.4).unwrap();
        let (x1, x2) = lv.equilibrium();
        let mut d = [0.0, 0.0];
        lv.rhs(0.0, &[x1, x2], &mut d);
        assert!(d[0].abs() < 1e-14 && d[1].abs() < 1e-14);
    }

    #[test]
    fn lv_invariant_conserved_along_orbit() {
        let lv = LotkaVolterra::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let traj = DormandPrince::new(1e-10, 1e-12)
            .unwrap()
            .integrate(&lv, &[1.5, 1.0], 0.0, 20.0)
            .unwrap();
        let v0 = lv.invariant(1.5, 1.0).unwrap();
        for idx in [traj.len() / 3, traj.len() / 2, traj.len() - 1] {
            let s = traj.state(idx);
            let v = lv.invariant(s[0], s[1]).unwrap();
            assert!((v - v0).abs() < 1e-7, "invariant drift {}", (v - v0).abs());
        }
    }

    #[test]
    fn lv_time_scaling_property() {
        // x(γt) for the base system must equal the solution of the scaled system.
        let base = LotkaVolterra::new(1.0, 1.0, 1.0, 1.0).unwrap();
        let gamma = 2.5;
        let scaled = base.time_scaled(gamma).unwrap();
        let tb = DormandPrince::new(1e-10, 1e-12)
            .unwrap()
            .integrate(&base, &[1.5, 1.0], 0.0, 10.0)
            .unwrap();
        let ts = DormandPrince::new(1e-10, 1e-12)
            .unwrap()
            .integrate(&scaled, &[1.5, 1.0], 0.0, 10.0 / gamma)
            .unwrap();
        for &t in &[0.5, 1.0, 2.0, 3.5] {
            let a = tb.sample(t * gamma).unwrap();
            let b = ts.sample(t).unwrap();
            assert!((a[0] - b[0]).abs() < 1e-5, "x1 {} vs {}", a[0], b[0]);
            assert!((a[1] - b[1]).abs() < 1e-5);
        }
    }

    #[test]
    fn lv_rejects_bad_params() {
        assert!(LotkaVolterra::new(0.0, 1.0, 1.0, 1.0).is_err());
        assert!(LotkaVolterra::new(1.0, -1.0, 1.0, 1.0).is_err());
        assert!(LotkaVolterra::new(1.0, 1.0, f64::NAN, 1.0).is_err());
        let lv = LotkaVolterra::new(1.0, 1.0, 1.0, 1.0).unwrap();
        assert!(lv.invariant(0.0, 1.0).is_err());
    }

    #[test]
    fn goodwin_oscillates() {
        let g = Goodwin::classic().unwrap();
        let traj = Rk4::new(0.01)
            .unwrap()
            .integrate(&g, &[0.1, 0.25, 2.5], 0.0, 300.0)
            .unwrap();
        // Discard transient, check the mRNA keeps crossing its mean.
        let x: Vec<f64> = traj
            .component(0)
            .unwrap()
            .into_iter()
            .skip(traj.len() / 2)
            .collect();
        let mean = x.iter().sum::<f64>() / x.len() as f64;
        let crossings = x
            .windows(2)
            .filter(|w| (w[0] - mean) * (w[1] - mean) < 0.0)
            .count();
        assert!(crossings >= 4, "crossings {crossings}");
    }

    #[test]
    fn damped_oscillator_matches_exact() {
        let d = DampedOscillator::new(2.0, 0.1).unwrap();
        let traj = Rk4::new(0.001)
            .unwrap()
            .integrate(&d, &[1.0, 0.0], 0.0, 10.0)
            .unwrap();
        for &t in &[1.0, 5.0, 10.0] {
            let num = traj.sample(t).unwrap()[0];
            let exact = d.exact(1.0, t);
            assert!((num - exact).abs() < 1e-8, "t={t}");
        }
    }

    #[test]
    fn constructor_validation() {
        assert!(Goodwin::new(0.7, 1.0, 4.0, 0.0, 1.0, 0.7, 0.35, 1.0, 0.7, 0.35, 1.0).is_err());
        assert!(DampedOscillator::new(1.0, 1.0).is_err());
        assert!(DampedOscillator::new(-1.0, 0.5).is_err());
    }
}
