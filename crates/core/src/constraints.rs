//! Equality-constraint functionals of the deconvolution problem.
//!
//! Two physical identities constrain the synchronous profile `f(φ)` across
//! cell division (paper §2.3 and §3.2). Both are linear in `f`, so under
//! the spline parameterization `f = Σαᵢψᵢ` each becomes one equality row
//! `rᵀα = 0` of the QP:
//!
//! 1. **RNA conservation** — transcript *number* is conserved at division:
//!    `V₀f(1) = 0.4V₀f(0) + 0.6V₀⟨f(φ_sst)⟩`, i.e.
//!    `∫w(φ)f(φ)dφ = 0` with `w(φ) = δ(1−φ) − 0.4δ(φ) − 0.6p(φ)`.
//!
//! 2. **Transcript-rate continuity** (new in the 2011 paper) — the rate of
//!    transcript *production* is also continuous across division,
//!    `R'(1) = R'(0) + R'(φ_sst)` with `R = v·f`, which averages to
//!    `∫w₁(φ)f(φ)dφ = ∫w₂(φ)f'(φ)dφ` (eq. 17) with
//!    `w₁ = β₀δ(1−φ) − β₀δ(φ) − β(φ)p(φ)` and
//!    `w₂ = 0.4δ(φ) + 0.6p(φ) − δ(1−φ)` (eqs. 18–19), where
//!    `β(φ) = 0.4/(1−φ)` and `β₀ = ∫β(φ)p(φ)dφ`.
//!
//! `p(φ)` is the Gaussian density of the SW→ST transition phase
//! (mean 0.15, CV 0.13). Its mass outside `[0, 1]` is below 10⁻¹⁰, so
//! integrating over `[0, 1]` is exact to solver precision.

use cellsync_numerics::quadrature::GaussLegendre;
use cellsync_popsim::{CellCycleParams, VolumeModel};
use cellsync_spline::SplineBasis;

use crate::Result;

/// Number of Gauss–Legendre points per knot panel used for the density
/// integrals (degree-31 exactness; the integrands are a Gaussian times a
/// cubic, so this is far past the accuracy floor).
const GL_POINTS: usize = 16;
/// Panels per knot interval (the spline is smooth inside a knot interval;
/// extra panels resolve the Gaussian density).
const PANELS_PER_INTERVAL: usize = 4;

fn integrate_over_basis<F: Fn(f64) -> f64>(basis: &SplineBasis, f: F) -> Result<f64> {
    let rule = GaussLegendre::new(GL_POINTS)?;
    let knots = basis.knots();
    let mut total = 0.0;
    for w in knots.windows(2) {
        total += rule.integrate_panels(&f, w[0], w[1], PANELS_PER_INTERVAL)?;
    }
    Ok(total)
}

/// The growth-rate constant `β₀ = ∫β(φ)p(φ)dφ` of paper eq. 14.
///
/// # Errors
///
/// Propagates quadrature errors (none in practice).
///
/// # Example
///
/// ```
/// use cellsync::constraints::beta_zero;
/// use cellsync_popsim::CellCycleParams;
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let params = CellCycleParams::caulobacter()?;
/// let b0 = beta_zero(&params)?;
/// // Slightly above β(μ_sst) = 0.4/0.85 by Jensen's inequality.
/// assert!(b0 > 0.4 / 0.85);
/// assert!(b0 < 0.4 / 0.85 * 1.01);
/// # Ok(())
/// # }
/// ```
pub fn beta_zero(params: &CellCycleParams) -> Result<f64> {
    let rule = GaussLegendre::new(GL_POINTS)?;
    // Integrate over ±8σ around the mean, clipped to (0, 1).
    let lo = (params.mu_sst() - 8.0 * params.sigma_sst()).max(1e-6);
    let hi = (params.mu_sst() + 8.0 * params.sigma_sst()).min(1.0 - 1e-6);
    Ok(rule.integrate_panels(
        |phi| VolumeModel::beta(phi).expect("phi in (0,1)") * params.sst_density(phi),
        lo,
        hi,
        8,
    )?)
}

/// The RNA-conservation equality row: `rᵢ = ψᵢ(1) − 0.4ψᵢ(0) −
/// 0.6∫p(φ)ψᵢ(φ)dφ`, so that `rᵀα = 0` enforces `∫w(φ)f_α(φ)dφ = 0`.
///
/// # Errors
///
/// Propagates quadrature errors (none in practice).
pub fn rna_conservation_row(basis: &SplineBasis, params: &CellCycleParams) -> Result<Vec<f64>> {
    let n = basis.len();
    let mut row = Vec::with_capacity(n);
    for i in 0..n {
        let integral =
            integrate_over_basis(basis, |phi| params.sst_density(phi) * basis.eval(i, phi))?;
        row.push(basis.eval(i, 1.0) - 0.4 * basis.eval(i, 0.0) - 0.6 * integral);
    }
    Ok(row)
}

/// The transcript-rate-continuity equality row (paper eqs. 17–19):
///
/// ```text
/// rᵢ = β₀ψᵢ(1) − β₀ψᵢ(0) − ∫β(φ)p(φ)ψᵢ(φ)dφ
///      − 0.4ψᵢ'(0) − 0.6∫p(φ)ψᵢ'(φ)dφ + ψᵢ'(1)
/// ```
///
/// so that `rᵀα = 0` enforces `∫w₁f_α = ∫w₂f_α'`.
///
/// # Errors
///
/// Propagates quadrature errors (none in practice).
pub fn rate_continuity_row(basis: &SplineBasis, params: &CellCycleParams) -> Result<Vec<f64>> {
    let b0 = beta_zero(params)?;
    let n = basis.len();
    let mut row = Vec::with_capacity(n);
    for i in 0..n {
        let int_beta_p_psi = integrate_over_basis(basis, |phi| {
            let beta = if phi < 1.0 - 1e-9 {
                0.4 / (1.0 - phi)
            } else {
                0.4 / 1e-9 // never reached: density is ~0 near 1
            };
            beta * params.sst_density(phi) * basis.eval(i, phi)
        })?;
        let int_p_dpsi =
            integrate_over_basis(basis, |phi| params.sst_density(phi) * basis.deriv(i, phi))?;
        row.push(
            b0 * basis.eval(i, 1.0)
                - b0 * basis.eval(i, 0.0)
                - int_beta_p_psi
                - 0.4 * basis.deriv(i, 0.0)
                - 0.6 * int_p_dpsi
                + basis.deriv(i, 1.0),
        );
    }
    Ok(row)
}

/// Directly evaluates the conservation functional
/// `f(1) − 0.4f(0) − 0.6∫p(φ)f(φ)dφ` for an arbitrary function — the
/// quadrature cross-check used by the test suite and the ablation bench.
///
/// # Errors
///
/// Propagates quadrature errors (none in practice).
pub fn conservation_residual<F: Fn(f64) -> f64>(f: F, params: &CellCycleParams) -> Result<f64> {
    let rule = GaussLegendre::new(GL_POINTS)?;
    let integral = rule.integrate_panels(|phi| params.sst_density(phi) * f(phi), 0.0, 1.0, 64)?;
    Ok(f(1.0) - 0.4 * f(0.0) - 0.6 * integral)
}

/// Directly evaluates the rate-continuity functional
/// `β₀f(1) − β₀f(0) − ∫βpf − 0.4f'(0) − 0.6∫pf' + f'(1)` for an arbitrary
/// function and its derivative.
///
/// # Errors
///
/// Propagates quadrature errors (none in practice).
pub fn rate_continuity_residual<F, D>(f: F, df: D, params: &CellCycleParams) -> Result<f64>
where
    F: Fn(f64) -> f64,
    D: Fn(f64) -> f64,
{
    let b0 = beta_zero(params)?;
    let rule = GaussLegendre::new(GL_POINTS)?;
    let int_bpf = rule.integrate_panels(
        |phi| 0.4 / (1.0 - phi.min(1.0 - 1e-9)) * params.sst_density(phi) * f(phi),
        0.0,
        1.0,
        64,
    )?;
    let int_pdf = rule.integrate_panels(|phi| params.sst_density(phi) * df(phi), 0.0, 1.0, 64)?;
    Ok(b0 * f(1.0) - b0 * f(0.0) - int_bpf - 0.4 * df(0.0) - 0.6 * int_pdf + df(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SplineBasis, CellCycleParams) {
        (
            SplineBasis::uniform(12, 0.0, 1.0).unwrap(),
            CellCycleParams::caulobacter().unwrap(),
        )
    }

    #[test]
    fn beta_zero_close_to_point_value() {
        let (_, params) = setup();
        let b0 = beta_zero(&params).unwrap();
        let point = 0.4 / (1.0 - 0.15);
        assert!(b0 > point, "Jensen: E[β] > β(E)");
        assert!((b0 - point) / point < 0.01, "b0 = {b0}");
    }

    #[test]
    fn conservation_row_annihilates_constants() {
        // f ≡ c satisfies conservation: c = 0.4c + 0.6c.
        let (basis, params) = setup();
        let row = rna_conservation_row(&basis, &params).unwrap();
        let dot: f64 = row.iter().sum(); // α = all ones = constant profile
        assert!(dot.abs() < 1e-8, "residual {dot}");
    }

    #[test]
    fn conservation_row_matches_direct_functional() {
        let (basis, params) = setup();
        let row = rna_conservation_row(&basis, &params).unwrap();
        // Random spline coefficients.
        let alpha: Vec<f64> = (0..basis.len())
            .map(|i| 1.0 + ((i * 7 % 5) as f64) * 0.3)
            .collect();
        let from_row: f64 = row.iter().zip(&alpha).map(|(r, a)| r * a).sum();
        let direct = conservation_residual(
            |phi| basis.eval_combination(&alpha, phi).expect("lengths match"),
            &params,
        )
        .unwrap();
        assert!(
            (from_row - direct).abs() < 1e-8,
            "row {from_row} vs direct {direct}"
        );
    }

    #[test]
    fn rate_row_matches_direct_functional() {
        let (basis, params) = setup();
        let row = rate_continuity_row(&basis, &params).unwrap();
        let alpha: Vec<f64> = (0..basis.len())
            .map(|i| 2.0 + (i as f64 * 0.9).cos())
            .collect();
        let from_row: f64 = row.iter().zip(&alpha).map(|(r, a)| r * a).sum();
        let direct = rate_continuity_residual(
            |phi| basis.eval_combination(&alpha, phi).expect("lengths match"),
            |phi| basis.deriv_combination(&alpha, phi).expect("lengths match"),
            &params,
        )
        .unwrap();
        assert!(
            (from_row - direct).abs() < 1e-7,
            "row {from_row} vs direct {direct}"
        );
    }

    #[test]
    fn rate_row_nonzero_for_constants() {
        // Constant concentration violates rate continuity (each daughter
        // inherits the mother's volume growth rate, so production must
        // jump); the row must NOT annihilate constants.
        let (basis, params) = setup();
        let row = rate_continuity_row(&basis, &params).unwrap();
        let dot: f64 = row.iter().sum();
        let b0 = beta_zero(&params).unwrap();
        // Expected residual for f ≡ 1: −β₀.
        assert!((dot + b0).abs() < 1e-6, "residual {dot} vs −β₀ = {}", -b0);
    }

    #[test]
    fn conservation_violated_by_step_profile() {
        // A profile with f(1) ≫ f(0), f(φ_sst): conservation must flag it.
        let (_, params) = setup();
        let r = conservation_residual(|phi| if phi > 0.9 { 10.0 } else { 1.0 }, &params).unwrap();
        assert!(r > 5.0);
    }

    #[test]
    fn legacy_mu_sst_shifts_rows() {
        let basis = SplineBasis::uniform(12, 0.0, 1.0).unwrap();
        let updated = CellCycleParams::caulobacter().unwrap();
        let legacy = CellCycleParams::caulobacter_legacy().unwrap();
        let r_new = rna_conservation_row(&basis, &updated).unwrap();
        let r_old = rna_conservation_row(&basis, &legacy).unwrap();
        let diff: f64 = r_new.iter().zip(&r_old).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "μ_sst update must move the constraint");
    }
}
