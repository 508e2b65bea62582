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
//! Two solvers share one request surface ([`MixtureFitRequest`]):
//!
//! * **Alternating** ([`MixtureMethod::Alternating`], the default):
//!   block-coordinate descent. Each sweep refits every component on the
//!   residual of the others through the existing single-component
//!   request machinery ([`crate::Deconvolver::fit_request`]); engines
//!   are prepared once per component through a
//!   [`crate::session::EngineCache`]. The per-sweep coefficient
//!   change is returned as a convergence trace; exhausting the sweep
//!   budget is [`crate::DeconvError::MixtureNotConverged`]. For K ≤ 3
//!   the sweeps are seeded from the joint solution (whose optimum is a
//!   fixed point of the sweep map); cold starts are Aitken-accelerated,
//!   since similar kernels make the mass-split direction a slow
//!   near-flat mode of the descent.
//! * **Joint** ([`MixtureMethod::Joint`], K ≤ 3): one stacked QP over
//!   the concatenated design `[A₁ … A_K]` with a block-diagonal
//!   `λₖΩ` penalty and block-diagonal constraint set — exact, at K³
//!   the solve cost.
//!
//! Both solvers resolve every component's λ *before* any solve — a
//! component override wins, then a `Fixed` engine selection, and all
//! remaining components share one joint-GCV choice made on the stacked
//! design (per-component GCV against the full bulk is badly biased:
//! each component alone must explain the whole mixture, which rewards
//! oversmoothing by decades of λ). Holding λ fixed across sweeps keeps
//! the alternating objective convex and the descent monotone.
//!
//! Components are *named*, sweeps always run in canonical (sorted-by-
//! name) order, and responses key results by name, so a mixture fit is
//! bit-identical under permutation of the component list.
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

use std::sync::Arc;

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::QuadraticProgram;
use cellsync_popsim::PhaseKernel;

use crate::session::{EngineCache, EngineKey};
use crate::{
    DeconvError, DeconvolutionConfig, DeconvolutionResult, Deconvolver, FitRequest, FitWorkspace,
    LambdaSelection, Result,
};

/// Phase-grid resolution of the mass quadrature behind fraction
/// estimates (trapezoid rule on a uniform grid; fixed so fractions do
/// not depend on any caller-tunable resolution).
const MASS_GRID: usize = 201;

/// Aitken acceleration (see [`MixtureDeconvolver::fit_alternating`]):
/// minimum sweeps between jumps — doubling as the contraction-ratio
/// estimation window and the post-jump transient-decay allowance before
/// a jump is judged — and the starting gain cap. The cap exists because
/// the gain `ρ/(1−ρ)` diverges as the estimated ratio approaches 1,
/// exactly where ratio-estimate noise is largest; a rejected jump (see
/// the safeguard in the sweep loop) quarters the cap for the rest of
/// the fit, so a problem whose iteration is not cleanly linear degrades
/// to plain sweeps instead of cycling.
const ACCEL_COOLDOWN: usize = 8;
const ACCEL_MAX_GAIN: f64 = 2000.0;

/// One named component of a mixture fit: a reference kernel plus an
/// optional per-component λ override.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureComponent {
    name: String,
    kernel: PhaseKernel,
    lambda_override: Option<f64>,
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
        Ok(MixtureComponent {
            name,
            kernel,
            lambda_override: None,
        })
    }

    /// Forces this component's smoothing parameter, skipping its λ
    /// selection. Validated at fit time, exactly like
    /// [`FitRequest::with_lambda`] — an invalid override surfaces as
    /// [`DeconvError::Component`] naming this component's index.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda_override = Some(lambda);
        self
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's reference kernel.
    pub fn kernel(&self) -> &PhaseKernel {
        &self.kernel
    }

    /// The component's λ override, if any.
    pub fn lambda_override(&self) -> Option<f64> {
        self.lambda_override
    }
}

/// Which mixture solver a request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum MixtureMethod {
    /// Alternating per-component residual refits (block-coordinate
    /// descent) — any K, each step through the single-component engine.
    #[default]
    Alternating,
    /// One stacked-design QP over all components — exact, K ≤ 3.
    Joint,
}

impl MixtureMethod {
    /// Stable lowercase label used in scenario names and `ACCURACY.json`.
    pub fn label(self) -> &'static str {
        match self {
            MixtureMethod::Alternating => "alt",
            MixtureMethod::Joint => "joint",
        }
    }
}

/// Solver options riding on a [`MixtureFitRequest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureFitOptions {
    method: MixtureMethod,
    max_sweeps: usize,
    tol: f64,
}

impl Default for MixtureFitOptions {
    /// Alternating solver, 8000-sweep budget, relative coefficient-change
    /// tolerance `1e-5`. Block-coordinate descent converges linearly at
    /// a rate set by how correlated the component kernels are — the
    /// near-collinear direction (how mass *splits* between similar
    /// components) is the slow mode, ~0.99 per sweep for the scenario
    /// catalog's cell types, so reaching `1e-5` from an unfit start can
    /// take several thousand cheap fixed-λ sweeps; unmodeled signal (a
    /// contaminant the component list cannot represent) slows the tail
    /// further. The defaults budget for that worst case and stop once
    /// per-sweep movement is well below the metrics' resolution. Tighten
    /// `tol` only with a correspondingly larger budget.
    fn default() -> Self {
        MixtureFitOptions {
            method: MixtureMethod::default(),
            max_sweeps: 8000,
            tol: 1e-5,
        }
    }
}

impl MixtureFitOptions {
    /// Selects the solver.
    #[must_use]
    pub fn with_method(mut self, method: MixtureMethod) -> Self {
        self.method = method;
        self
    }

    /// Caps the alternating solver's sweep count (ignored by the joint
    /// solver). Validated at fit time: must be ≥ 1.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Sets the convergence tolerance on the per-sweep relative
    /// coefficient change (ignored by the joint solver). Validated at
    /// fit time: must be finite and non-negative.
    #[must_use]
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// The selected solver.
    pub fn method(&self) -> MixtureMethod {
        self.method
    }

    /// The sweep cap.
    pub fn max_sweeps(&self) -> usize {
        self.max_sweeps
    }

    /// The convergence tolerance.
    pub fn tol(&self) -> f64 {
        self.tol
    }
}

/// One mixture deconvolution job: the bulk measurements plus per-request
/// options. The component set (kernels, λ overrides) lives in the
/// engine ([`MixtureDeconvolver`]), mirroring the single-component
/// engine/request split.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureFitRequest {
    series: Vec<f64>,
    sigmas: Option<Vec<f64>>,
    options: MixtureFitOptions,
}

impl MixtureFitRequest {
    /// Starts a request from bulk measurements `G(t_m)`.
    pub fn new(series: Vec<f64>) -> Self {
        MixtureFitRequest {
            series,
            sigmas: None,
            options: MixtureFitOptions::default(),
        }
    }

    /// Attaches per-measurement standard deviations σₘ (same length as
    /// the series; validated at fit time).
    #[must_use]
    pub fn with_sigmas(mut self, sigmas: Vec<f64>) -> Self {
        self.sigmas = Some(sigmas);
        self
    }

    /// Sets the solver options.
    #[must_use]
    pub fn with_options(mut self, options: MixtureFitOptions) -> Self {
        self.options = options;
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

    /// The solver options.
    pub fn options(&self) -> &MixtureFitOptions {
        &self.options
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
/// fractions (in the *request's* component order), the solver's
/// convergence trace, and the joint residual.
#[derive(Debug, Clone)]
pub struct MixtureFitResponse {
    components: Vec<ComponentFit>,
    sweeps: usize,
    trace: Vec<f64>,
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

    /// Sweeps the alternating solver ran (1 for joint and single-
    /// component fits).
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// The alternating solver's convergence trace: the maximum relative
    /// coefficient change of each sweep (empty for joint and single-
    /// component fits).
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }

    /// Relative weighted residual of the combined model,
    /// `‖W(G − Σₖ ĥ-predictions)‖ / ‖W G‖`. For a fully modeled mixture
    /// this is small; an unmodeled contaminant in the data shows up here
    /// as an elevated residual even when the fit itself succeeds.
    pub fn residual_rel(&self) -> f64 {
        self.residual_rel
    }
}

/// A component's engine slot inside [`MixtureDeconvolver`].
#[derive(Debug, Clone)]
struct Slot {
    name: String,
    lambda_override: Option<f64>,
    engine: Arc<Deconvolver>,
}

/// A prepared K-component mixture engine: one cached [`Deconvolver`] per
/// component, sharing a config family.
///
/// Construction validates the component set once (non-empty, unique
/// names, shared measurement times, no duplicate kernels — two
/// identical kernels make the mixture unidentifiable) and prepares each
/// component's engine through an [`EngineCache`], so a service fitting
/// many bulk series against one reference set pays the per-kernel
/// preparation cost once.
#[derive(Debug)]
pub struct MixtureDeconvolver {
    slots: Vec<Slot>,
    /// Slot indices in canonical (sorted-by-name) order: the sweep order
    /// of the alternating solver and the block order of the joint
    /// solver, so fits are invariant under component-list permutation.
    canonical: Vec<usize>,
}

impl MixtureDeconvolver {
    /// Builds the engine with a private, fit-for-purpose cache. Use
    /// [`MixtureDeconvolver::with_cache`] to share prepared engines
    /// with other mixtures or single-component sessions.
    ///
    /// # Errors
    ///
    /// Same as [`MixtureDeconvolver::with_cache`].
    pub fn new(components: Vec<MixtureComponent>, config: DeconvolutionConfig) -> Result<Self> {
        let cache = EngineCache::new(components.len().max(1));
        MixtureDeconvolver::with_cache(components, config, &cache)
    }

    /// Builds the engine, preparing each component's [`Deconvolver`]
    /// through `cache` (components whose (kernel, config) family is
    /// already cached are adopted, not rebuilt).
    ///
    /// # Errors
    ///
    /// [`DeconvError::InvalidConfig`] for an empty component list,
    /// duplicate component names, kernels that disagree on measurement
    /// times, or bit-identical duplicate kernels (unidentifiable);
    /// otherwise propagates engine-construction errors.
    pub fn with_cache(
        components: Vec<MixtureComponent>,
        config: DeconvolutionConfig,
        cache: &EngineCache,
    ) -> Result<Self> {
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
        // unidentifiable, and the alternating solver would shuttle
        // signal between them forever.
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

        let mut slots = Vec::with_capacity(components.len());
        for (c, key) in components.into_iter().zip(keys.iter()) {
            let engine = cache.get_or_build(key, || {
                Ok(Deconvolver::new(c.kernel.clone(), config.clone())?.with_threads(1))
            })?;
            slots.push(Slot {
                name: c.name,
                lambda_override: c.lambda_override,
                engine,
            });
        }
        let mut canonical: Vec<usize> = (0..slots.len()).collect();
        canonical.sort_by(|&a, &b| slots[a].name.cmp(&slots[b].name));
        Ok(MixtureDeconvolver { slots, canonical })
    }

    /// The component names, in specification order.
    pub fn component_names(&self) -> Vec<&str> {
        self.slots.iter().map(|s| s.name.as_str()).collect()
    }

    /// Number of components.
    pub fn num_components(&self) -> usize {
        self.slots.len()
    }

    /// Fits the mixture to one bulk series.
    ///
    /// A single-component "mixture" delegates to the component engine's
    /// [`Deconvolver::fit_request`] — the result is bit-identical to the
    /// plain single-population fit, with fraction 1 and an empty trace.
    ///
    /// # Errors
    ///
    /// * [`DeconvError::Component`] when one component's fit fails —
    ///   `index` is the component's position in the engine's
    ///   specification order.
    /// * [`DeconvError::MixtureNotConverged`] when the alternating
    ///   solver exhausts its sweep budget.
    /// * [`DeconvError::InvalidConfig`] / [`DeconvError::LengthMismatch`]
    ///   for invalid series, sigmas, or options.
    pub fn fit(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
        let opts = request.options();
        if opts.max_sweeps() == 0 {
            return Err(DeconvError::InvalidConfig("max_sweeps must be positive"));
        }
        if !(opts.tol() >= 0.0) || !opts.tol().is_finite() {
            return Err(DeconvError::InvalidConfig(
                "tol must be finite and non-negative",
            ));
        }
        let m = self.slots[0].engine.forward().num_measurements();
        if request.series().len() != m {
            return Err(DeconvError::LengthMismatch {
                what: "measurements",
                expected: m,
                got: request.series().len(),
            });
        }
        if let Some(s) = request.sigmas() {
            if s.len() != m {
                return Err(DeconvError::LengthMismatch {
                    what: "sigmas",
                    expected: m,
                    got: s.len(),
                });
            }
        }

        if self.slots.len() == 1 {
            return self.fit_single(request);
        }
        match opts.method() {
            MixtureMethod::Alternating => self.fit_alternating(request),
            MixtureMethod::Joint => self.fit_joint(request),
        }
    }

    /// K = 1: the mixture degenerates to a plain single-population fit.
    fn fit_single(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
        let slot = &self.slots[0];
        let mut req = FitRequest::new(request.series().to_vec());
        if let Some(s) = request.sigmas() {
            req = req.with_sigmas(s.to_vec());
        }
        if let Some(l) = slot.lambda_override {
            req = req.with_lambda(l);
        }
        let result = slot
            .engine
            .fit_request(&req)
            .map_err(|e| component_error(0, e))?
            .into_result();
        let residual_rel = residual_rel(request, &[result.predicted().to_vec()]);
        Ok(MixtureFitResponse {
            components: vec![ComponentFit {
                name: slot.name.clone(),
                fraction: 1.0,
                result,
            }],
            sweeps: 1,
            trace: Vec::new(),
            residual_rel,
        })
    }

    /// Per-measurement fit weights `1/σ` (all-ones without sigmas).
    fn fit_weights(&self, request: &MixtureFitRequest) -> Result<Vec<f64>> {
        match request.sigmas() {
            Some(s) => {
                if s.iter().any(|v| !(*v > 0.0) || !v.is_finite()) {
                    return Err(DeconvError::InvalidConfig("sigmas must be positive"));
                }
                Ok(s.iter().map(|s| 1.0 / s).collect())
            }
            None => Ok(vec![1.0; request.series().len()]),
        }
    }

    /// Weighted stacked design `B[r, block·n + j] = w_r · A_block[r, j]`
    /// with blocks in canonical order, shared by the joint solve and the
    /// joint GCV selection.
    fn stacked_weighted_design(&self, weights: &[f64]) -> Matrix {
        let m = weights.len();
        let n = self.slots[0].engine.basis().len();
        let kn = self.slots.len() * n;
        let mut bw = Matrix::zeros(m, kn);
        for (block, &i) in self.canonical.iter().enumerate() {
            let a = self.slots[i].engine.design_ref();
            for r in 0..m {
                for j in 0..n {
                    bw[(r, block * n + j)] = weights[r] * a[(r, j)];
                }
            }
        }
        bw
    }

    /// The components' interior directions stacked in canonical block
    /// order, or `None` when any component has none.
    fn stacked_interior_direction(&self) -> Option<Vector> {
        let mut stacked = Vec::new();
        for &i in &self.canonical {
            stacked.extend_from_slice(self.slots[i].engine.interior_ref()?.as_slice());
        }
        Some(Vector::from_slice(&stacked))
    }

    /// Selects one shared λ for every component by generalized
    /// cross-validation on the **stacked** mixture smoother.
    ///
    /// Per-component GCV against the full bulk series — the obvious
    /// reuse of the single-population path — answers the wrong question:
    /// each component alone must explain the *entire* mixture, so its
    /// GCV score rewards heavy smoothing and the selected λs land
    /// decades away from the joint optimum. Here the candidate λ is
    /// scored on the unconstrained joint smoother instead:
    ///
    /// ```text
    /// GCV(λ) = m · ‖y_w − ŷ_w(λ)‖² / (m − tr H(λ))²,
    /// H(λ)   = B (BᵀB + λ·blockdiag(Ω) + εI)⁻¹ Bᵀ
    /// ```
    ///
    /// with `B` the weighted stacked design — the hat-matrix trace
    /// counts the effective degrees of freedom of the whole K-component
    /// fit, so the score balances joint fidelity against joint
    /// roughness. The grid is the engine config's λ grid; candidates
    /// whose normal matrix fails to factor or whose residual degrees of
    /// freedom `m − tr H` vanish are skipped. Ties keep the smaller λ
    /// (first grid hit), making the choice deterministic.
    fn select_lambda_joint(&self, g: &[f64], weights: &[f64]) -> Result<f64> {
        let m = g.len();
        let n = self.slots[0].engine.basis().len();
        let kn = self.slots.len() * n;
        let grid = self.slots[0].engine.config().lambda().lambda_grid();
        if grid.len() == 1 {
            return Ok(grid[0]);
        }
        let bw = self.stacked_weighted_design(weights);
        let ridge = self.slots[0].engine.ridge_effective();
        let yw: Vec<f64> = (0..m).map(|r| weights[r] * g[r]).collect();

        // The λ-invariant parts, built once: BᵀB and Bᵀy_w.
        let gram = stacked_gram(&bw);
        let mut bty = Vector::zeros(kn);
        for p in 0..kn {
            let mut acc = 0.0;
            for r in 0..m {
                acc += bw[(r, p)] * yw[r];
            }
            bty[p] = acc;
        }

        let mut best: Option<(f64, f64)> = None;
        let mut mmat = Matrix::zeros(kn, kn);
        let mut work = Vector::zeros(kn);
        let mut rhs = Vector::zeros(kn);
        for &l in &grid {
            mmat.as_mut_slice().copy_from_slice(gram.as_slice());
            for (block, &i) in self.canonical.iter().enumerate() {
                let omega = self.slots[i].engine.omega_ref();
                for a in 0..n {
                    for b in 0..n {
                        mmat[(block * n + a, block * n + b)] += l * omega[(a, b)];
                    }
                }
            }
            for p in 0..kn {
                mmat[(p, p)] += ridge;
            }
            let chol = match mmat.cholesky() {
                Ok(c) => c,
                Err(_) => continue,
            };
            // tr H = Σᵣ bᵣᵀ M⁻¹ bᵣ, one triangular solve per row.
            let mut dof = 0.0;
            for r in 0..m {
                for p in 0..kn {
                    work[p] = bw[(r, p)];
                }
                chol.solve_in_place(&mut work)?;
                let mut acc = 0.0;
                for p in 0..kn {
                    acc += bw[(r, p)] * work[p];
                }
                dof += acc;
            }
            let denom = m as f64 - dof;
            if !(denom > 1e-9) {
                continue;
            }
            rhs.as_mut_slice().copy_from_slice(bty.as_slice());
            chol.solve_in_place(&mut rhs)?;
            let mut rss = 0.0;
            for (r, &y) in yw.iter().enumerate() {
                let mut fitted = 0.0;
                for p in 0..kn {
                    fitted += bw[(r, p)] * rhs[p];
                }
                rss += (y - fitted) * (y - fitted);
            }
            let score = m as f64 * rss / (denom * denom);
            if !score.is_finite() {
                continue;
            }
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, l));
            }
        }
        best.map(|(_, l)| l).ok_or(DeconvError::InvalidConfig(
            "joint GCV found no admissible lambda on the grid",
        ))
    }

    /// Resolves every component's λ before any solve: a component
    /// override wins, a `Fixed` engine selection is taken as-is, and all
    /// remaining components share one joint-GCV choice
    /// ([`Self::select_lambda_joint`]). Override validation reports the
    /// offending component's index like every other per-component error.
    fn resolve_lambdas(&self, request: &MixtureFitRequest) -> Result<Vec<f64>> {
        let mut lambda = vec![0.0; self.slots.len()];
        let mut shared: Option<f64> = None;
        for (i, slot) in self.slots.iter().enumerate() {
            lambda[i] = match slot.lambda_override {
                Some(l) => {
                    if !l.is_finite() || l < 0.0 {
                        return Err(component_error(
                            i,
                            DeconvError::InvalidConfig(
                                "lambda override must be finite and non-negative",
                            ),
                        ));
                    }
                    l
                }
                None => match slot.engine.config().lambda() {
                    LambdaSelection::Fixed(l) => *l,
                    _ => match shared {
                        Some(l) => l,
                        None => {
                            let weights = self.fit_weights(request)?;
                            let l = self.select_lambda_joint(request.series(), &weights)?;
                            shared = Some(l);
                            l
                        }
                    },
                },
            };
        }
        Ok(lambda)
    }

    /// The joint objective at the current sweep state: weighted RSS of
    /// the summed predictions plus each component's `λαᵀΩα + ε‖α‖²`
    /// penalty. Evaluated right after a sweep (where every prediction
    /// is a real fit of its coefficients) this is exactly the quantity
    /// block-coordinate descent monotonically decreases, which makes it
    /// the acceleration safeguard's acceptance test.
    fn sweep_objective(
        &self,
        g: &[f64],
        weights: &[f64],
        predicted: &[Vec<f64>],
        alpha: &[Vec<f64>],
        lambda: &[f64],
        ridge: f64,
    ) -> f64 {
        let mut rss = 0.0;
        for (r, &y) in g.iter().enumerate() {
            let fitted: f64 = predicted.iter().map(|p| p[r]).sum();
            let e = weights[r] * (y - fitted);
            rss += e * e;
        }
        let mut pen = 0.0;
        for (i, a) in alpha.iter().enumerate() {
            if a.is_empty() {
                continue;
            }
            let omega = self.slots[i].engine.omega_ref();
            let n = a.len();
            let mut quad = 0.0;
            for p in 0..n {
                for q in 0..n {
                    quad += a[p] * omega[(p, q)] * a[q];
                }
            }
            let norm2: f64 = a.iter().map(|v| v * v).sum();
            pen += lambda[i] * quad + ridge * norm2;
        }
        rss + pen
    }

    /// Block-coordinate descent: refit each component on the residual of
    /// the others, in canonical name order, until coefficients stop
    /// moving.
    fn fit_alternating(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
        let opts = request.options();
        let g = request.series();
        let m = g.len();
        let k = self.slots.len();

        let mut ws = FitWorkspace::new();
        let mut predicted: Vec<Vec<f64>> = vec![vec![0.0; m]; k];
        let mut results: Vec<Option<DeconvolutionResult>> = vec![None; k];
        let mut prev_alpha: Vec<Vec<f64>> = vec![Vec::new(); k];
        // λ per component, resolved before the first sweep (override >
        // Fixed config > shared joint GCV) and held fixed throughout, so
        // every sweep descends one fixed convex objective (per-sweep
        // re-selection can oscillate forever, and per-component GCV
        // against intermediate residuals picks wildly wrong smoothing —
        // see [`Self::select_lambda_joint`]).
        let lambda = self.resolve_lambdas(request)?;

        let mut trace = Vec::new();
        let mut residual = vec![0.0; m];
        let mut prev_predicted: Vec<Vec<f64>> = vec![vec![0.0; m]; k];
        let mut last_accel = 0usize;
        let mut max_gain = ACCEL_MAX_GAIN;
        // Pre-jump snapshot for the safeguard: (predictions, objective).
        let mut saved: Option<(Vec<Vec<f64>>, f64)> = None;
        let weights = self.fit_weights(request)?;
        let ridge = self.slots[0].engine.ridge_effective();

        // Seed the sweeps from the joint stacked-design solution where
        // it is available (K ≤ 3). The joint optimum is a fixed point of
        // the sweep map — at it, every block already minimizes the
        // shared objective given the others — so sweeps from this start
        // converge almost immediately and, crucially, to a
        // *well-defined* point: when near-collinear kernels leave the
        // objective with a nearly flat valley along the mass-split
        // direction, cold-started descent creeps down the valley and
        // parks wherever its budget runs out, while the joint QP
        // resolves the valley in one solve. A failed seed (the QP
        // refusing a pathological problem) falls back to the cold
        // start, which also keeps this path's error reporting — every
        // surfaced error still comes from a per-component refit.
        if (2..=3).contains(&k) {
            if let Ok(seed) = self.solve_joint(request, &lambda, &weights) {
                for (i, r) in seed.into_iter().enumerate() {
                    prev_alpha[i] = r.alpha().to_vec();
                    predicted[i] = r.predicted().to_vec();
                }
            }
        }
        for sweep in 1..=opts.max_sweeps() {
            let mut delta: f64 = 0.0;
            for &i in &self.canonical {
                for (t, r) in residual.iter_mut().enumerate() {
                    let others: f64 = (0..k).filter(|&j| j != i).map(|j| predicted[j][t]).sum();
                    *r = g[t] - others;
                }
                let mut req = FitRequest::new(residual.clone()).with_lambda(lambda[i]);
                if let Some(s) = request.sigmas() {
                    req = req.with_sigmas(s.to_vec());
                }
                let result = self.slots[i]
                    .engine
                    .fit_request_with(&mut ws, &req)
                    .map_err(|e| component_error(i, e))?
                    .into_result();
                let step = alpha_delta(&prev_alpha[i], result.alpha());
                delta = delta.max(step);
                prev_alpha[i] = result.alpha().to_vec();
                std::mem::swap(&mut prev_predicted[i], &mut predicted[i]);
                predicted[i] = result.predicted().to_vec();
                results[i] = Some(result);
            }
            trace.push(delta);
            if delta <= opts.tol() {
                let results: Vec<DeconvolutionResult> =
                    results.into_iter().map(|r| r.expect("fit ran")).collect();
                return self.finalize(request, results, sweep, trace);
            }
            // Aitken Δ² acceleration. The sweeps contract linearly, and
            // the dominant (slowest) mode is the near-collinear direction
            // along which bulk mass splits between similar components —
            // at ratios ~0.999/sweep that mode alone can demand tens of
            // thousands of sweeps, with the stopping rule still firing
            // ~delta·ρ/(1−ρ) short of the optimum. Once the observed
            // ratio is stable, jump each component's predicted
            // contribution to that mode's extrapolated limit
            // (gain ρ/(1−ρ) on the last per-sweep movement). The jump
            // only relocates the next sweep's residuals; every
            // coefficient vector the fit returns still comes from a real
            // constrained refit, and block-coordinate descent on this
            // convex objective re-descends from any starting point, so a
            // mis-extrapolation costs sweeps but never correctness. The
            // safeguard below enforces that bound in practice: the joint
            // objective is monotone under plain sweeps, so a jump that
            // has not pushed it below its pre-jump value by the next
            // checkpoint is rolled back and the gain cap is quartered; a
            // fit whose iteration is not cleanly linear (active-set
            // chatter, several comparable modes) degrades to plain
            // sweeps instead of entering a jump/recover limit cycle.
            // (Judging on the objective rather than on `delta` matters:
            // a good jump still excites fast modes whose decay keeps
            // `delta` elevated past the checkpoint.)
            if sweep >= last_accel + ACCEL_COOLDOWN {
                let objective =
                    self.sweep_objective(g, &weights, &predicted, &prev_alpha, &lambda, ridge);
                if let Some((snapshot, pre_obj)) = saved.take() {
                    if !(objective < pre_obj) {
                        predicted = snapshot;
                        max_gain *= 0.25;
                        last_accel = sweep;
                        continue;
                    }
                }
                let n_tr = trace.len();
                let w = ACCEL_COOLDOWN;
                if n_tr > w && max_gain >= 1.0 {
                    // Geometric-mean contraction ratio over the window —
                    // far less noisy than a single sweep-to-sweep ratio —
                    // cross-checked against the half-window estimate.
                    let rho = (trace[n_tr - 1] / trace[n_tr - 1 - w]).powf(1.0 / w as f64);
                    let rho_h = (trace[n_tr - 1] / trace[n_tr - 1 - w / 2]).powf(2.0 / w as f64);
                    let stable = rho.is_finite()
                        && rho_h.is_finite()
                        && rho > 0.5
                        && rho < 1.0
                        && rho_h < 1.0
                        && (rho - rho_h).abs() <= 0.5 * (1.0 - rho);
                    if stable {
                        let gain = (rho / (1.0 - rho)).min(max_gain);
                        saved = Some((predicted.clone(), objective));
                        for i in 0..k {
                            for t in 0..m {
                                let d = predicted[i][t] - prev_predicted[i][t];
                                predicted[i][t] += gain * d;
                            }
                        }
                        last_accel = sweep;
                    }
                }
            }
        }
        Err(DeconvError::MixtureNotConverged {
            sweeps: opts.max_sweeps(),
            delta: trace.last().copied().unwrap_or(f64::INFINITY),
        })
    }

    /// Stacked-design QP: minimize over the concatenated coefficient
    /// vector `[α₁ … α_K]` with block-diagonal penalty and constraints.
    fn fit_joint(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
        let k = self.slots.len();
        if k > 3 {
            return Err(DeconvError::InvalidConfig(
                "joint mixture fits support at most 3 components",
            ));
        }
        let g = request.series();
        let weights = self.fit_weights(request)?;
        if g.iter().any(|v| !v.is_finite()) {
            return Err(DeconvError::InvalidConfig("measurements must be finite"));
        }

        // Per-component λ: override > Fixed config > shared joint GCV
        // (see [`Self::resolve_lambdas`]).
        let lambda = self.resolve_lambdas(request)?;
        let results = self.solve_joint(request, &lambda, &weights)?;
        self.finalize(request, results, 1, Vec::new())
    }

    /// Assembles and solves the stacked-design QP behind
    /// [`Self::fit_joint`], returning per-component results in
    /// specification order. Also used to seed the alternating sweeps
    /// (see [`Self::fit_alternating`]).
    fn solve_joint(
        &self,
        request: &MixtureFitRequest,
        lambda: &[f64],
        weights: &[f64],
    ) -> Result<Vec<DeconvolutionResult>> {
        let k = self.slots.len();
        let g = request.series();
        let m = g.len();
        let n = self.slots[0].engine.basis().len();
        let kn = k * n;

        // Weighted stacked design B[r, b·n + j] = w_r · A_b[r, j], with
        // blocks laid out in canonical order so the assembled QP — and
        // therefore the solution bits — do not depend on specification
        // order.
        let bw = self.stacked_weighted_design(weights);
        // H = 2(BᵀB + blockdiag(λₖΩ) + εI), c = −2 Bᵀ(W g).
        let ridge = self.slots[0].engine.ridge_effective();
        let mut h = stacked_gram(&bw);
        for (block, &i) in self.canonical.iter().enumerate() {
            let omega = self.slots[i].engine.omega_ref();
            let l = lambda[i];
            for a in 0..n {
                for b in 0..n {
                    h[(block * n + a, block * n + b)] += l * omega[(a, b)];
                }
            }
        }
        for p in 0..kn {
            for q in 0..kn {
                h[(p, q)] *= 2.0;
            }
            h[(p, p)] += 2.0 * ridge;
        }
        let mut c = Vector::zeros(kn);
        for p in 0..kn {
            let mut acc = 0.0;
            for r in 0..m {
                acc += bw[(r, p)] * weights[r] * g[r];
            }
            c[p] = -2.0 * acc;
        }

        // Block-diagonal constraint stacks: every component contributes
        // its own copy of the engine's equality/positivity rows over its
        // coefficient block.
        let mut qp = QuadraticProgram::new(h, c).map_err(DeconvError::from)?;
        let eq0 = self.slots[0].engine.equality_ref();
        if let Some((e, _)) = eq0 {
            let rows = e.rows();
            let mut stacked = Matrix::zeros(k * rows, kn);
            for (block, &i) in self.canonical.iter().enumerate() {
                let (e, _) = self.slots[i].engine.equality_ref().expect("same config");
                for r in 0..rows {
                    for j in 0..n {
                        stacked[(block * rows + r, block * n + j)] = e[(r, j)];
                    }
                }
            }
            let rhs = Vector::zeros(k * rows);
            qp = qp
                .with_equalities(stacked, rhs)
                .map_err(DeconvError::from)?;
        }
        if let Some((p0, _)) = self.slots[0].engine.positivity_ref() {
            let rows = p0.rows();
            let mut stacked = Matrix::zeros(k * rows, kn);
            for (block, &i) in self.canonical.iter().enumerate() {
                let (p, _) = self.slots[i].engine.positivity_ref().expect("same config");
                for r in 0..rows {
                    for j in 0..n {
                        stacked[(block * rows + r, block * n + j)] = p[(r, j)];
                    }
                }
            }
            let rhs = Vector::zeros(k * rows);
            qp = qp
                .with_inequalities(stacked, rhs)
                .map_err(DeconvError::from)?;
        }
        // The components' interior directions, stacked block by block,
        // are an interior direction of the block-diagonal constraint set.
        if let Some(d) = self.stacked_interior_direction() {
            qp = qp.with_interior_direction(d);
        }
        let solution = qp.solve().map_err(DeconvError::from)?;

        // Split the stacked solution back into per-component results.
        let mut results: Vec<Option<DeconvolutionResult>> = vec![None; k];
        let mut total_pred = vec![0.0; m];
        let mut split = Vec::with_capacity(k);
        for (block, &i) in self.canonical.iter().enumerate() {
            let alpha: Vec<f64> = (0..n).map(|j| solution.x[block * n + j]).collect();
            let alpha = Vector::from_slice(&alpha);
            let pred = self.slots[i].engine.design_ref().matvec(&alpha)?;
            for (t, p) in pred.as_slice().iter().enumerate() {
                total_pred[t] += p;
            }
            split.push((i, alpha, pred));
        }
        let weighted_sse: f64 = (0..m)
            .map(|t| {
                let r = weights[t] * (g[t] - total_pred[t]);
                r * r
            })
            .sum();
        for (i, alpha, pred) in split {
            results[i] = Some(DeconvolutionResult::from_parts(
                alpha,
                self.slots[i].engine.basis().clone(),
                lambda[i],
                pred.as_slice().to_vec(),
                weighted_sse,
            ));
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all blocks"))
            .collect())
    }

    /// Shared epilogue: estimate fractions from recovered mass shares
    /// and assemble the response in specification order.
    fn finalize(
        &self,
        request: &MixtureFitRequest,
        results: Vec<DeconvolutionResult>,
        sweeps: usize,
        trace: Vec<f64>,
    ) -> Result<MixtureFitResponse> {
        let masses: Vec<f64> = results
            .iter()
            .map(contribution_mass)
            .collect::<Result<_>>()?;
        let total: f64 = masses.iter().sum();
        let k = results.len();
        let predictions: Vec<Vec<f64>> = results.iter().map(|r| r.predicted().to_vec()).collect();
        let residual_rel = residual_rel(request, &predictions);
        let components = results
            .into_iter()
            .zip(masses)
            .zip(&self.slots)
            .map(|((result, mass), slot)| ComponentFit {
                name: slot.name.clone(),
                // A total recovered mass of ~zero (an all-zero fit) has
                // no meaningful split; report uniform fractions rather
                // than 0/0.
                fraction: if total > 1e-12 {
                    mass / total
                } else {
                    1.0 / k as f64
                },
                result,
            })
            .collect();
        Ok(MixtureFitResponse {
            components,
            sweeps,
            trace,
            residual_rel,
        })
    }
}

/// `BᵀB` of a weighted stacked design, upper triangle accumulated row by
/// row and mirrored — the one summation order the joint λ scan and the
/// joint QP share.
fn stacked_gram(bw: &Matrix) -> Matrix {
    let (m, kn) = bw.shape();
    let mut gram = Matrix::zeros(kn, kn);
    for p in 0..kn {
        for q in p..kn {
            let mut acc = 0.0;
            for r in 0..m {
                acc += bw[(r, p)] * bw[(r, q)];
            }
            gram[(p, q)] = acc;
            gram[(q, p)] = acc;
        }
    }
    gram
}

/// Wraps a component failure with its specification-order index, like
/// [`DeconvError::Series`] does for batch items.
fn component_error(index: usize, source: DeconvError) -> DeconvError {
    DeconvError::Component {
        index,
        source: Box::new(source),
    }
}

/// Max relative coefficient change between sweeps:
/// `max_i |αᵢ − αᵢ'| / (1 + max_i |αᵢ|)`.
fn alpha_delta(prev: &[f64], next: &[f64]) -> f64 {
    let scale = 1.0 + next.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let diff = next.iter().enumerate().fold(0.0_f64, |m, (i, v)| {
        m.max((v - prev.get(i).copied().unwrap_or(0.0)).abs())
    });
    diff / scale
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

/// Relative weighted residual `‖W(g − Σ preds)‖ / ‖W g‖`.
fn residual_rel(request: &MixtureFitRequest, predictions: &[Vec<f64>]) -> f64 {
    let g = request.series();
    let mut num = 0.0;
    let mut den = 0.0;
    for t in 0..g.len() {
        let w = request.sigmas().map_or(1.0, |s| 1.0 / s[t]);
        let total: f64 = predictions.iter().map(|p| p[t]).sum();
        let r = w * (g[t] - total);
        num += r * r;
        den += (w * g[t]) * (w * g[t]);
    }
    (num / den.max(1e-300)).sqrt()
}
