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
//! One solver fits every K ≥ 2: a single stacked QP over the
//! concatenated coefficient vector `[α₁ … α_K]`, with the concatenated
//! design `[A₁ … A_K]`, a block-diagonal `λₖΩ` penalty and a
//! block-diagonal copy of each component's equality/positivity rows —
//! the joint constrained least-squares problem the forward model
//! defines, solved exactly at `O((Kn)³)` per factorization. Engines are
//! prepared once per component through a
//! [`crate::session::EngineCache`]; K = 1 delegates to the component
//! engine's [`crate::Deconvolver::fit_request`].
//!
//! Every component's λ is resolved *before* the solve — a component
//! override wins, then a `Fixed` engine selection, and all remaining
//! components share one joint-GCV choice made on the stacked design
//! (per-component GCV against the full bulk is badly biased: each
//! component alone must explain the whole mixture, which rewards
//! oversmoothing by decades of λ).
//!
//! Components are *named*, the stacked blocks are laid out in canonical
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

use std::sync::Arc;

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::QuadraticProgram;
use cellsync_popsim::PhaseKernel;

use crate::session::{EngineCache, EngineKey};
use crate::{
    DeconvError, DeconvolutionConfig, DeconvolutionResult, Deconvolver, FitRequest,
    LambdaSelection, Result,
};

/// Phase-grid resolution of the mass quadrature behind fraction
/// estimates (trapezoid rule on a uniform grid; fixed so fractions do
/// not depend on any caller-tunable resolution).
const MASS_GRID: usize = 201;

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

/// One mixture deconvolution job: the bulk measurements and their
/// optional standard deviations. The component set (kernels, λ
/// overrides) lives in the engine ([`MixtureDeconvolver`]), mirroring
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

    /// Solver passes the fit took: always 1 — every fit is one stacked
    /// solve (or, for K = 1, one single-component fit).
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
    /// Slot indices in canonical (sorted-by-name) order: the block order
    /// of the stacked QP, so fits are invariant under component-list
    /// permutation.
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

    /// Fits the mixture to one bulk series with the stacked joint QP.
    ///
    /// A single-component "mixture" delegates to the component engine's
    /// [`Deconvolver::fit_request`] — the result is bit-identical to the
    /// plain single-population fit, with fraction 1.
    ///
    /// # Errors
    ///
    /// * [`DeconvError::Component`] when a component's λ override is
    ///   invalid (or, for K = 1, when the component's fit fails) —
    ///   `index` is the component's position in the engine's
    ///   specification order.
    /// * [`DeconvError::InvalidConfig`] / [`DeconvError::LengthMismatch`]
    ///   for invalid series or sigmas.
    /// * Solver errors from the joint λ scan or the stacked QP.
    pub fn fit(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
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
        self.fit_joint(request)
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
        let residual_rel = residual_rel(request, result.predicted());
        Ok(MixtureFitResponse {
            components: vec![ComponentFit {
                name: slot.name.clone(),
                fraction: 1.0,
                result,
            }],
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
    /// with `B` the weighted stacked design `bw` and `gram = BᵀB` (built
    /// once per fit and shared with the QP) — the hat-matrix trace
    /// counts the effective degrees of freedom of the whole K-component
    /// fit, so the score balances joint fidelity against joint
    /// roughness. The grid is the engine config's λ grid; candidates
    /// whose normal matrix fails to factor or whose residual degrees of
    /// freedom `m − tr H` vanish are skipped. Ties keep the smaller λ
    /// (first grid hit), making the choice deterministic.
    fn select_lambda_joint(
        &self,
        g: &[f64],
        weights: &[f64],
        bw: &Matrix,
        gram: &Matrix,
    ) -> Result<f64> {
        let m = g.len();
        let n = self.slots[0].engine.basis().len();
        let kn = self.slots.len() * n;
        let grid = self.slots[0].engine.config().lambda().lambda_grid();
        if grid.len() == 1 {
            return Ok(grid[0]);
        }
        let ridge = self.slots[0].engine.ridge_effective();
        let yw: Vec<f64> = (0..m).map(|r| weights[r] * g[r]).collect();

        // The other λ-invariant part, built once: Bᵀy_w.
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
                self.slots[i]
                    .engine
                    .omega_ref()
                    .add_scaled_into(&mut mmat, block * n, l);
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
    fn resolve_lambdas(
        &self,
        g: &[f64],
        weights: &[f64],
        bw: &Matrix,
        gram: &Matrix,
    ) -> Result<Vec<f64>> {
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
                            let l = self.select_lambda_joint(g, weights, bw, gram)?;
                            shared = Some(l);
                            l
                        }
                    },
                },
            };
        }
        Ok(lambda)
    }

    /// The stacked-design QP: minimize over the concatenated coefficient
    /// vector `[α₁ … α_K]` with block-diagonal penalty and constraints.
    fn fit_joint(&self, request: &MixtureFitRequest) -> Result<MixtureFitResponse> {
        let g = request.series();
        let weights = self.fit_weights(request)?;
        if g.iter().any(|v| !v.is_finite()) {
            return Err(DeconvError::InvalidConfig("measurements must be finite"));
        }
        let k = self.slots.len();
        let m = g.len();
        let n = self.slots[0].engine.basis().len();
        let kn = k * n;

        // Weighted stacked design B[r, b·n + j] = w_r · A_b[r, j], with
        // blocks laid out in canonical order so the assembled QP — and
        // therefore the solution bits — do not depend on specification
        // order. BᵀB is shared by the joint λ scan and the QP.
        let bw = self.stacked_weighted_design(&weights);
        let gram = stacked_gram(&bw);
        // Per-component λ: override > Fixed config > shared joint GCV
        // (see [`Self::resolve_lambdas`]).
        let lambda = self.resolve_lambdas(g, &weights, &bw, &gram)?;

        // H = 2(BᵀB + blockdiag(λₖΩ) + εI), c = −2 Bᵀ(W g).
        let ridge = self.slots[0].engine.ridge_effective();
        let mut h = gram;
        for (block, &i) in self.canonical.iter().enumerate() {
            self.slots[i]
                .engine
                .omega_ref()
                .add_scaled_into(&mut h, block * n, lambda[i]);
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
        // Back from canonical block order to specification order.
        split.sort_by_key(|&(i, _, _)| i);
        let results = split
            .into_iter()
            .map(|(i, alpha, pred)| {
                DeconvolutionResult::from_parts(
                    alpha,
                    self.slots[i].engine.basis().clone(),
                    lambda[i],
                    pred.into_vec(),
                    weighted_sse,
                )
            })
            .collect();
        self.finalize(request, results, &total_pred)
    }

    /// The joint fit's epilogue: estimate fractions from recovered mass
    /// shares and assemble the response in specification order. Sums
    /// across components (`total_pred`, the total mass) run in canonical
    /// order, so they too are invariant under component permutation.
    fn finalize(
        &self,
        request: &MixtureFitRequest,
        results: Vec<DeconvolutionResult>,
        total_pred: &[f64],
    ) -> Result<MixtureFitResponse> {
        let masses: Vec<f64> = results
            .iter()
            .map(contribution_mass)
            .collect::<Result<_>>()?;
        let total: f64 = self.canonical.iter().map(|&i| masses[i]).sum();
        let k = results.len();
        let residual_rel = residual_rel(request, total_pred);
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
