//! K-component mixture deconvolution: fit several cell types' profiles
//! against one bulk signal.
//!
//! The single-population model inverts `G(t) = ∫Q(φ,t)f(φ)dφ`. The
//! compositional generalization the deconvolution surveys stress is
//!
//! ```text
//! G(t) = Σₖ πₖ ∫ Q_k(φ, t) f_k(φ) dφ,    Σₖ πₖ = 1,
//! ```
//!
//! K cell types, each with its own reference kernel `Q_k` and its own
//! phase profile `f_k`, mixed with unknown fractions `πₖ`. This module
//! fits the *unnormalized contributions* `h_k = πₖ·f_k` (positivity
//! keeps every `h_k ≥ 0`) and reports estimated fractions as each
//! component's share of the total recovered mass,
//! `π̂ₖ = ∫h_k / Σⱼ∫h_j`.
//!
//! A K-component mixture is paper eq. 5 again, with one λ: the block
//! design `[A₁ … A_K]` over the concatenated coefficient vector
//! `[α₁ … α_K]`, a block-diagonal penalty `blockdiag(Ω)` and
//! block-diagonal copies of the equality/positivity rows. The
//! single-population engine ([`crate::Deconvolver`]) is the one-block
//! case of the same problem: [`MixtureDeconvolver`] builds its operators
//! once, by the same constructor from its components' designs, and fits
//! every K, 1 included, through the same fit path: the configured λ rule
//! (a fixed λ, the measurement-space GCV scan with its near-tie rule, or
//! k-fold), the one fixed-λ solve, and the one result builder. GCV
//! therefore scores the *joint* smoother, whose trace counts the
//! effective degrees of freedom of the whole K-component fit
//! (per-component GCV against the full bulk is badly biased: each
//! component alone must explain the whole mixture, which rewards
//! oversmoothing by decades of λ). A one-component mixture reproduces the
//! plain single-population fit bit for bit, with fraction 1.
//!
//! Components are *named*, the blocks are laid out in canonical
//! (sorted-by-name) order, and responses key results by name, so a
//! mixture fit is bit-identical under permutation of the component
//! list.
//!
//! # Example
//!
//! ```no_run
//! use cellsync::mixture::{MixtureComponent, MixtureDeconvolver, MixtureFitRequest};
//! use cellsync::DeconvolutionConfig;
//! # fn kernels() -> (cellsync_popsim::PhaseKernel, cellsync_popsim::PhaseKernel) {
//! #     unimplemented!()
//! # }
//!
//! # fn main() -> Result<(), cellsync::DeconvError> {
//! let (q_a, q_b) = kernels();
//! let config = DeconvolutionConfig::builder().basis_size(16).build()?;
//! let engine = MixtureDeconvolver::new(
//!     vec![
//!         MixtureComponent::new("a", q_a)?,
//!         MixtureComponent::new("b", q_b)?,
//!     ],
//!     config,
//! )?;
//! let bulk: Vec<f64> = vec![/* measurements */];
//! let fit = engine.fit(&MixtureFitRequest::new(bulk))?;
//! for c in fit.components() {
//!     println!("{}: fraction {:.3}", c.name(), c.fraction());
//! }
//! # Ok(())
//! # }
//! ```

use cellsync_linalg::Matrix;
use cellsync_popsim::{CellCycleParams, PhaseKernel};
use cellsync_spline::SplineBasis;

use crate::deconvolve::validate_series;
use crate::operators::FitOperators;
use crate::session::EngineKey;
use crate::{
    DeconvError, DeconvolutionConfig, DeconvolutionResult, FitWorkspace, ForwardModel, Result,
};

/// Phase-grid resolution of the mass quadrature behind fraction
/// estimates (trapezoid rule on a uniform grid; fixed so fractions do
/// not depend on any caller-tunable resolution).
const MASS_GRID: usize = 201;

/// One named component of a mixture fit: a reference kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureComponent {
    name: String,
    kernel: PhaseKernel,
}

impl MixtureComponent {
    /// Builds a component from a non-empty name and its reference kernel.
    ///
    /// # Errors
    ///
    /// [`DeconvError::InvalidConfig`] for an empty name.
    pub fn new(name: impl Into<String>, kernel: PhaseKernel) -> Result<Self> {
        let name = name.into();
        if name.is_empty() {
            return Err(DeconvError::InvalidConfig(
                "mixture component name must be non-empty",
            ));
        }
        Ok(MixtureComponent { name, kernel })
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's reference kernel.
    pub fn kernel(&self) -> &PhaseKernel {
        &self.kernel
    }
}

/// One mixture deconvolution job: the bulk measurements and their
/// optional standard deviations. The component set (names, kernels)
/// lives in the engine ([`MixtureDeconvolver`]), mirroring
/// the single-component engine/request split.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureFitRequest {
    series: Vec<f64>,
    sigmas: Option<Vec<f64>>,
}

impl MixtureFitRequest {
    /// Starts a request from bulk measurements `G(t_m)`.
    pub fn new(series: Vec<f64>) -> Self {
        MixtureFitRequest {
            series,
            sigmas: None,
        }
    }

    /// Attaches per-measurement standard deviations σₘ (same length as
    /// the series; validated at fit time).
    #[must_use]
    pub fn with_sigmas(mut self, sigmas: Vec<f64>) -> Self {
        self.sigmas = Some(sigmas);
        self
    }

    /// The bulk measurements.
    pub fn series(&self) -> &[f64] {
        &self.series
    }

    /// The per-measurement standard deviations, if any.
    pub fn sigmas(&self) -> Option<&[f64]> {
        self.sigmas.as_deref()
    }
}

/// One component's share of a mixture fit.
#[derive(Debug, Clone)]
pub struct ComponentFit {
    name: String,
    fraction: f64,
    result: DeconvolutionResult,
}

impl ComponentFit {
    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The estimated mixing fraction `π̂ₖ` — this component's share of
    /// the total recovered mass (fractions over a response sum to one).
    pub fn fraction(&self) -> f64 {
        self.fraction
    }

    /// The component's fitted contribution `h_k = πₖ·f_k` (coefficients,
    /// λ, per-component predictions).
    pub fn result(&self) -> &DeconvolutionResult {
        &self.result
    }
}

/// The outcome of a mixture fit: per-component contributions and
/// fractions (in the *request's* component order) and the joint
/// residual.
#[derive(Debug, Clone)]
pub struct MixtureFitResponse {
    components: Vec<ComponentFit>,
    residual_rel: f64,
}

impl MixtureFitResponse {
    /// Per-component fits, in the order the engine's components were
    /// specified. Prefer [`MixtureFitResponse::component`] — results are
    /// keyed by name, and name lookup is what stays stable under
    /// component-order permutation.
    pub fn components(&self) -> &[ComponentFit] {
        &self.components
    }

    /// The fit of the component named `name`, if present.
    pub fn component(&self, name: &str) -> Option<&ComponentFit> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Solver passes the fit took: always 1 — every fit, whatever K, is
    /// one solve of the block problem.
    pub fn sweeps(&self) -> usize {
        1
    }

    /// Relative weighted residual of the combined model,
    /// `‖W(G − Σₖ ĥ-predictions)‖ / ‖W G‖`. For a fully modeled mixture
    /// this is small; an unmodeled contaminant in the data shows up here
    /// as an elevated residual even when the fit itself succeeds.
    pub fn residual_rel(&self) -> f64 {
        self.residual_rel
    }
}

/// A prepared K-component mixture engine: the operators of the one
/// block problem over the components, sharing one configuration and one
/// basis.
///
/// Construction validates the component set once (non-empty, unique
/// names, shared measurement times, no duplicate kernels — two
/// identical kernels make the mixture unidentifiable), builds each
/// component's design and then the block problem's operators, so a
/// service fitting many bulk series against one reference set pays the
/// preparation cost once.
#[derive(Debug)]
pub struct MixtureDeconvolver {
    /// Component names, in specification order.
    names: Vec<String>,
    /// Component indices in canonical (sorted-by-name) order: the block
    /// order of the problem, so fits are invariant under component-list
    /// permutation.
    canonical: Vec<usize>,
    /// The spline basis every component's profile lives in.
    basis: SplineBasis,
    /// The components' designs `Aₖ`, in block order.
    designs: Vec<Matrix>,
    /// The operators of the block problem, blocks in canonical order.
    ops: FitOperators,
}

impl MixtureDeconvolver {
    /// Builds the engine: one design per component, then the operators
    /// of the block problem over them, using the paper's Caulobacter
    /// parameters for the constraint functionals (as
    /// [`crate::Deconvolver::new`] does).
    ///
    /// # Errors
    ///
    /// [`DeconvError::InvalidConfig`] for an empty component list,
    /// duplicate component names, kernels that disagree on measurement
    /// times, or bit-identical duplicate kernels (unidentifiable);
    /// otherwise propagates engine-construction errors.
    pub fn new(mut components: Vec<MixtureComponent>, config: DeconvolutionConfig) -> Result<Self> {
        if components.is_empty() {
            return Err(DeconvError::InvalidConfig(
                "mixture needs at least one component",
            ));
        }
        for (i, c) in components.iter().enumerate() {
            if components[..i].iter().any(|p| p.name == c.name) {
                return Err(DeconvError::InvalidConfig(
                    "duplicate mixture component name",
                ));
            }
            if c.kernel.times() != components[0].kernel.times() {
                return Err(DeconvError::InvalidConfig(
                    "mixture component kernels must share measurement times",
                ));
            }
        }
        // Duplicate kernels (same canonical engine key) are rejected:
        // the split of mass between two identical components is
        // unidentifiable, so only the penalty would decide it.
        let keys: Vec<EngineKey> = components
            .iter()
            .map(|c| EngineKey::new(&c.kernel, &config))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            if keys[..i].contains(k) {
                return Err(DeconvError::InvalidConfig(
                    "duplicate component kernels make the mixture unidentifiable",
                ));
            }
        }

        let names: Vec<String> = components.iter().map(|c| c.name.clone()).collect();
        let mut canonical: Vec<usize> = (0..names.len()).collect();
        canonical.sort_by(|&a, &b| names[a].cmp(&names[b]));
        components.sort_by(|a, b| a.name.cmp(&b.name));
        let basis = SplineBasis::uniform(config.basis_size(), 0.0, 1.0)?;
        let designs = components
            .into_iter()
            .map(|c| ForwardModel::new(c.kernel).design_matrix(&basis))
            .collect::<Result<Vec<_>>>()?;
        let params = CellCycleParams::caulobacter()?;
        let ops = FitOperators::blocks(&designs, &basis, &params, &config)?;
        Ok(MixtureDeconvolver {
            names,
            canonical,
            basis,
            designs,
            ops,
        })
    }

    /// Fits the mixture to one bulk series: one λ selection and one
    /// constrained solve of the block problem, split back into
    /// per-component results. Every component's result carries the
    /// shared λ and its selection scan.
    ///
    /// A single-component "mixture" is the one-block problem of the plain
    /// single-population fit: the result is bit-identical to
    /// [`crate::Deconvolver::fit`], with fraction 1.
    ///
    /// # Errors
    ///
    /// * [`DeconvError::InvalidConfig`] / [`DeconvError::LengthMismatch`]
    ///   for invalid series or sigmas, exactly as
    ///   [`crate::Deconvolver::fit`] reports them.
    /// * Solver errors from the λ selection or the constrained solve.
    pub fn fit(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
        let g = request.series();
        validate_series(self.ops.design.rows(), g, request.sigmas())?;
        let mut workspace = FitWorkspace::new();
        let unit = self.ops.prepare(&mut workspace, request.sigmas());
        let solution = self.ops.solve(&mut workspace, g, unit, None, None)?;
        let weights = self.ops.weights(&workspace, unit);
        let (results, total_pred) =
            DeconvolutionResult::blocks(&self.designs, &self.basis, solution, g, weights)?;

        // Fractions are recovered mass shares. The results, and so the
        // masses and their total, run in canonical order, which keeps the
        // sums invariant under component permutation.
        let masses: Vec<f64> = results
            .iter()
            .map(contribution_mass)
            .collect::<Result<_>>()?;
        let total: f64 = masses.iter().sum();
        let k = results.len();
        let mut fits: Vec<(usize, ComponentFit)> = self
            .canonical
            .iter()
            .zip(results.into_iter().zip(masses))
            .map(|(&i, (result, mass))| {
                let fit = ComponentFit {
                    name: self.names[i].clone(),
                    // A total recovered mass of ~zero (an all-zero fit)
                    // has no meaningful split; report uniform fractions
                    // rather than 0/0.
                    fraction: if total > 1e-12 {
                        mass / total
                    } else {
                        1.0 / k as f64
                    },
                    result,
                };
                (i, fit)
            })
            .collect();
        // Back from canonical block order to specification order.
        fits.sort_by_key(|&(i, _)| i);
        Ok(MixtureFitResponse {
            components: fits.into_iter().map(|(_, fit)| fit).collect(),
            residual_rel: residual_rel(request, &total_pred),
        })
    }
}

/// Recovered mass `∫₀¹ h_k(φ) dφ` of one component's contribution,
/// trapezoid rule on the fixed [`MASS_GRID`]. Positivity keeps the
/// integrand non-negative up to solver tolerance; tiny negative
/// excursions are clipped so fractions stay in `[0, 1]`.
fn contribution_mass(result: &DeconvolutionResult) -> Result<f64> {
    let profile = result.profile(MASS_GRID)?;
    let v = profile.values();
    let n = v.len();
    let mut acc = 0.5 * (v[0].max(0.0) + v[n - 1].max(0.0));
    for x in &v[1..n - 1] {
        acc += x.max(0.0);
    }
    Ok(acc / (n - 1) as f64)
}

/// Relative weighted residual `‖W(g − ĝ)‖ / ‖W g‖` of the summed
/// prediction `ĝ`.
fn residual_rel(request: &MixtureFitRequest, predicted: &[f64]) -> f64 {
    let g = request.series();
    let mut num = 0.0;
    let mut den = 0.0;
    for t in 0..g.len() {
        let w = request.sigmas().map_or(1.0, |s| 1.0 / s[t]);
        let r = w * (g[t] - predicted[t]);
        num += r * r;
        den += (w * g[t]) * (w * g[t]);
    }
    (num / den.max(1e-300)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ForwardModel, LambdaSelection, PhaseProfile};
    use cellsync_linalg::Vector;
    use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A volume-scaled reference kernel over a 37-point, 180-minute
    /// protocol for one set of cycle parameters.
    fn kernel(params: (f64, f64, f64, f64), seed: u64) -> PhaseKernel {
        let params = CellCycleParams::new(params.0, params.1, params.2, params.3).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pop =
            Population::synchronized(1_000, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(180.0)
                .unwrap();
        let times: Vec<f64> = (0..37).map(|i| 180.0 * i as f64 / 36.0).collect();
        KernelEstimator::new(40)
            .unwrap()
            .with_threads(1)
            .estimate(&pop, &times)
            .unwrap()
            .volume_scaled()
            .unwrap()
    }

    #[test]
    fn solve_at_never_returns_an_alpha_that_positivity_rejects() {
        // Pulse components (zero over most of the cycle) make positivity
        // bind; the dual QP stops at a violation tolerance, which must sit
        // inside the positivity check `binds` applies to the minimizer.
        let params = [
            (0.15, 0.13, 150.0, 0.12),
            (0.25, 0.13, 110.0, 0.12),
            (0.10, 0.13, 200.0, 0.12),
        ];
        let kernels: Vec<PhaseKernel> = (0..3).map(|i| kernel(params[i], 11 + i as u64)).collect();
        let m = 37;
        let sigmas: Vec<f64> = (0..m)
            .map(|t| 0.05 * (1.0 + 0.5 * (0.9 * t as f64).sin()))
            .collect();
        let mut binding = 0;
        for basis in [18, 128] {
            let config = DeconvolutionConfig::builder()
                .basis_size(basis)
                .positivity(true)
                .build()
                .unwrap();
            for k in 1..=3 {
                let components = kernels[..k]
                    .iter()
                    .enumerate()
                    .map(|(i, q)| MixtureComponent::new(["a", "b", "c"][i], q.clone()).unwrap())
                    .collect();
                let engine = MixtureDeconvolver::new(components, config.clone()).unwrap();
                let ops = &engine.ops;
                let mut bulk = vec![0.0; m];
                for (i, q) in kernels[..k].iter().enumerate() {
                    let center = 0.25 + 0.25 * i as f64;
                    let pulse = PhaseProfile::from_fn(200, |phi| {
                        (1.0 - ((phi - center) / 0.1).powi(2)).max(0.0)
                    })
                    .unwrap();
                    let g = ForwardModel::new(q.clone()).predict(&pulse).unwrap();
                    for (t, (acc, v)) in bulk.iter_mut().zip(&g).enumerate() {
                        *acc += v / k as f64 * (1.0 + 0.05 * (1.3 * t as f64).sin());
                    }
                }
                for weighted in [false, true] {
                    let mut ws = FitWorkspace::new();
                    let unit = ops.prepare(&mut ws, weighted.then_some(sigmas.as_slice()));
                    let FitWorkspace {
                        weights,
                        spectrum,
                        proj,
                        scan,
                        solve,
                    } = &mut ws;
                    let series = if unit {
                        ops.series(&ops.unit_weights, &bulk, &ops.frame.unit, proj)
                    } else {
                        spectrum.rebuild(&ops.frame, weights).unwrap();
                        ops.series(weights, &bulk, spectrum, proj)
                    };
                    for lambda in [1e-6, 1e-3, 1.0] {
                        let minimizer = ops.frame.minimizer(&series, lambda, scan).unwrap();
                        binding += usize::from(ops.binds(&minimizer));
                        let alpha = ops.solve_at(scan, solve, &series, lambda, None).unwrap();
                        assert!(
                            !ops.binds(&alpha),
                            "basis {basis}, K = {k}, weighted {weighted}, λ = {lambda:e}"
                        );
                    }
                }
            }
        }
        // Most of the 36 solves must have run the QP for this to test it.
        assert!(binding >= 24, "positivity bound in {binding} of 36 solves");
    }

    #[test]
    fn mixture_components_satisfy_the_paper_equality_rows() {
        // With conservation and rate continuity (paper eqs. 14–19) on,
        // every component's coefficients must satisfy both rows, and
        // positivity must hold where it binds: K ∈ {2, 3}, basis 18 and
        // 128, unit and σ weights, and a pulse first component (zero over
        // most of the cycle) so that positivity binds.
        let params = [
            (0.15, 0.13, 150.0, 0.12),
            (0.25, 0.13, 110.0, 0.12),
            (0.10, 0.13, 200.0, 0.12),
        ];
        let kernels: Vec<PhaseKernel> = (0..3).map(|i| kernel(params[i], 11 + i as u64)).collect();
        let truths = [
            PhaseProfile::from_fn(200, |phi| (1.0 - ((phi - 0.5) / 0.1).powi(2)).max(0.0)).unwrap(),
            PhaseProfile::from_fn(200, |phi| {
                1.0 + 0.5 * (2.0 * std::f64::consts::PI * phi).sin()
            })
            .unwrap(),
            PhaseProfile::from_fn(200, |phi| 0.5 + phi * (1.0 - phi)).unwrap(),
        ];
        let m = 37;
        let sigmas: Vec<f64> = (0..m)
            .map(|t| 0.05 * (1.0 + 0.5 * (0.9 * t as f64).sin()))
            .collect();
        let (mut worst, mut binding, mut cases) = (0.0_f64, 0, 0);
        for basis in [18, 128] {
            let config = DeconvolutionConfig::builder()
                .basis_size(basis)
                .positivity(true)
                .conservation(true)
                .rate_continuity(true)
                .build()
                .unwrap();
            for k in [2, 3] {
                let components = kernels[..k]
                    .iter()
                    .enumerate()
                    .map(|(i, q)| MixtureComponent::new(["a", "b", "c"][i], q.clone()).unwrap())
                    .collect();
                let engine = MixtureDeconvolver::new(components, config.clone()).unwrap();
                let (e, _) = engine.ops.equality.as_ref().expect("both rows are on");
                let mut bulk = vec![0.0; m];
                for (q, truth) in kernels[..k].iter().zip(&truths) {
                    let g = ForwardModel::new(q.clone()).predict(truth).unwrap();
                    for (t, (acc, v)) in bulk.iter_mut().zip(&g).enumerate() {
                        *acc += v / k as f64 * (1.0 + 0.05 * (1.3 * t as f64).sin());
                    }
                }
                for weighted in [false, true] {
                    let case = format!("basis {basis}, K = {k}, weighted {weighted}");
                    let mut request = MixtureFitRequest::new(bulk.clone());
                    if weighted {
                        request = request.with_sigmas(sigmas.clone());
                    }
                    let fit = engine.fit(&request).unwrap();
                    // Names sort in specification order here, so the
                    // components concatenate in block order.
                    let alpha: Vec<f64> = fit
                        .components()
                        .iter()
                        .flat_map(|c| c.result().alpha().to_vec())
                        .collect();
                    let alpha = Vector::from_slice(&alpha);
                    assert!(!engine.ops.binds(&alpha), "{case}: positivity violated");
                    binding +=
                        usize::from(!engine.ops.warm_active_rows(&alpha).unwrap().is_empty());
                    for (b, c) in fit.components().iter().enumerate() {
                        let block = c.result().alpha();
                        let scale = 1.0 + block.iter().fold(0.0_f64, |mx, v| mx.max(v.abs()));
                        for r in 2 * b..2 * b + 2 {
                            let row = &e.row(r)[b * basis..(b + 1) * basis];
                            let residual = row.iter().zip(block).map(|(x, y)| x * y).sum::<f64>();
                            worst = worst.max(residual.abs() / scale);
                            assert!(
                                residual.abs() <= 1e-9 * scale,
                                "{case}: component {}, row {}: residual {residual:e}",
                                c.name(),
                                r - 2 * b
                            );
                        }
                    }
                    cases += 1;
                }
            }
        }
        eprintln!(
            "largest equality residual over 1 + ‖αₖ‖∞: {worst:e}; \
             positivity active in {binding} of {cases} fits"
        );
        assert!(
            binding * 2 >= cases,
            "positivity bound in {binding} of {cases} fits"
        );
    }

    /// A K-component GCV engine and a bulk series mixing one smooth
    /// profile per component, with a deterministic wiggle standing in
    /// for noise.
    fn gcv_mixture(k: usize) -> (MixtureDeconvolver, Vec<f64>) {
        let params = [
            (0.15, 0.13, 150.0, 0.12),
            (0.25, 0.13, 110.0, 0.12),
            (0.10, 0.13, 200.0, 0.12),
        ];
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .positivity(true)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -8.0,
                log10_max: 1.0,
                points: 7,
            })
            .build()
            .unwrap();
        let kernels: Vec<PhaseKernel> = (0..k).map(|i| kernel(params[i], 11 + i as u64)).collect();
        let mut bulk = vec![0.0; 37];
        for (i, q) in kernels.iter().enumerate() {
            let peak = 0.3 + 0.2 * i as f64;
            let truth =
                PhaseProfile::from_fn(200, |phi| 0.5 + (-((phi - peak) / 0.15).powi(2)).exp())
                    .unwrap();
            let g = ForwardModel::new(q.clone()).predict(&truth).unwrap();
            for (acc, v) in bulk.iter_mut().zip(&g) {
                *acc += v / k as f64;
            }
        }
        for (t, v) in bulk.iter_mut().enumerate() {
            *v *= 1.0 + 0.03 * (1.7 * t as f64).sin();
        }
        let components = kernels
            .into_iter()
            .enumerate()
            .map(|(i, q)| MixtureComponent::new(["a", "b", "c"][i], q).unwrap())
            .collect();
        (MixtureDeconvolver::new(components, config).unwrap(), bulk)
    }

    /// The per-λ hat-matrix GCV scorer of the stacked criterion: factor
    /// the normal matrix `M = H/2 = BᵀB + λ̄·blockdiag(Ω) + εR` of the
    /// engine's own QP Hessian by Cholesky at every λ and read the
    /// smoother trace off `m` triangular solves, `tr H = Σᵣ bᵣᵀM⁻¹bᵣ`,
    /// with `B` the weighted stacked design. The saturation rule (edf above
    /// 99 % of the data scores `+∞`) is the scan's. Returns the score and
    /// the condition number of `M`.
    fn cholesky_gcv(ops: &FitOperators, weights: &[f64], g: &[f64], lambda: f64) -> (f64, f64) {
        let (m, kn) = ops.design.shape();
        let bw = Matrix::from_fn(m, kn, |r, p| weights[r] * ops.design[(r, p)]);
        let yw = Vector::from_fn(m, |r| weights[r] * g[r]);
        let mut normal = Matrix::zeros(kn, kn);
        ops.hessian(weights, lambda, &mut normal).unwrap();
        let normal = normal.scaled(0.5);
        let eigen = normal.symmetric_eigen().unwrap();
        let eigenvalues = eigen.eigenvalues().as_slice();
        let kappa = eigenvalues.iter().cloned().fold(0.0, f64::max)
            / eigenvalues.iter().cloned().fold(f64::INFINITY, f64::min);
        let chol = normal.cholesky().unwrap();
        let mut dof = 0.0;
        for r in 0..m {
            let mut work = Vector::from_slice(bw.row(r));
            chol.solve_in_place(&mut work).unwrap();
            dof += bw
                .row(r)
                .iter()
                .zip(work.iter())
                .map(|(a, b)| a * b)
                .sum::<f64>();
        }
        if dof / m as f64 > 0.99 {
            return (f64::INFINITY, kappa);
        }
        let mut coef = bw.tr_matvec(&yw).unwrap();
        chol.solve_in_place(&mut coef).unwrap();
        let fitted = bw.matvec(&coef).unwrap();
        let rss: f64 = yw
            .iter()
            .zip(fitted.iter())
            .map(|(y, f)| (y - f).powi(2))
            .sum();
        let score = m as f64 * rss / ((m as f64 - dof) * (m as f64 - dof));
        (score, kappa)
    }

    #[test]
    fn stacked_spectral_gcv_matches_the_cholesky_hat_matrix_reference() {
        for k in [2, 3] {
            let (engine, bulk) = gcv_mixture(k);
            let ops = &engine.ops;
            let m = bulk.len();
            let sigma_weights: Vec<f64> = (0..m)
                .map(|t| 1.0 / (0.05 * (1.0 + 0.8 * (0.9 * t as f64).sin())))
                .collect();
            for weights in [ops.unit_weights.clone(), sigma_weights] {
                let unit = weights.iter().all(|&w| w == 1.0);
                let mut ws = FitWorkspace::new();
                let spectrum = if unit {
                    &ops.frame.unit
                } else {
                    ws.spectrum.rebuild(&ops.frame, &weights).unwrap();
                    &ws.spectrum
                };
                let series = ops.series(&weights, &bulk, spectrum, &mut ws.proj);
                // The tolerance rule of `spectral_gcv_matches_dense_reference`
                // (ε times the (σ_max/σ_min)² growth of the weighted Gram's
                // conditioning, floored at 1e-9), plus ε times the
                // conditioning of the stacked normal matrix itself: near-
                // collinear component kernels make it ill-conditioned at
                // the grid ends whatever the weights, and both scorers
                // inherit that.
                let ratio = weights.iter().cloned().fold(0.0, f64::max)
                    / weights.iter().cloned().fold(f64::INFINITY, f64::min);
                for &lambda in &ops.lambda_grid {
                    let (dense, kappa) = cholesky_gcv(ops, &weights, &bulk, lambda);
                    let tol = (f64::EPSILON * ratio * ratio)
                        .max(f64::EPSILON * kappa)
                        .max(1e-9);
                    let scan = ops.frame.gcv_score(&series, lambda, &mut ws.scan).unwrap();
                    assert!(
                        (scan - dense).abs() <= tol * dense.abs().max(1e-12)
                            || (scan.is_infinite() && dense.is_infinite()),
                        "K = {k}, unit {unit}, λ = {lambda}: scan {scan} vs Cholesky {dense}"
                    );
                }
            }
        }
    }
}
