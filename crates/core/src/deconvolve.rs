//! The constrained-spline deconvolution solver (paper §2.3).

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::QpInstance;
use cellsync_popsim::{CellCycleParams, PhaseKernel};
use cellsync_runtime::{CancelToken, Pool};
use cellsync_spline::SplineBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::banded::ScanScratch;
use crate::operators::{check_cancel, FitOperators, LambdaScan};
use crate::request::{BootstrapSpec, FitRequest, FitResponse};
use crate::solver::SolveScratch;
use crate::{DeconvError, DeconvolutionConfig, FitWorkspace, ForwardModel, PhaseProfile, Result};

/// The deconvolution engine: inverts `G(t) = ∫Q(φ,t)f(φ)dφ` for the
/// synchronous profile `f` by solving the constrained penalized
/// least-squares problem of paper eq. 5.
///
/// Construction precomputes everything independent of the measurements —
/// design matrix, roughness penalty, constraint rows, the banded factor
/// of the penalty's interior block, the measurement-space operators of
/// the λ scan and their eigenbasis for unit weights — so a single engine
/// can cheaply fit many series measured on the same protocol, exactly the
/// genome-wide use case of the original work. Every λ candidate of the
/// GCV scan then costs a shrinkage of the m measurement-space
/// eigenvalues (no per-λ factorization; see `docs/SOLVER.md`).
///
/// Batch entry points ([`Deconvolver::fit_many`],
/// [`Deconvolver::fit_bootstrap`]) fan out over a
/// [`cellsync_runtime::Pool`] sized by [`Deconvolver::with_threads`]
/// (default: one worker per available core), handing each worker a
/// thread-local [`FitWorkspace`] — results are bit-identical at any
/// thread count.
///
/// # Example
///
/// See the crate-level quickstart ([`crate`]).
#[derive(Debug, Clone)]
pub struct Deconvolver {
    forward: ForwardModel,
    config: DeconvolutionConfig,
    basis: SplineBasis,
    /// Design, penalty, constraint rows and λ-path structures — every
    /// measurement-independent operator of the fit.
    ops: FitOperators,
    /// Worker pool for the batch entry points.
    pool: Pool,
}

/// The outcome of a deconvolution fit.
#[derive(Debug, Clone)]
pub struct DeconvolutionResult {
    alpha: Vector,
    basis: SplineBasis,
    lambda: f64,
    predicted: Vec<f64>,
    weighted_sse: f64,
    /// `(λ, score)` pairs scanned during λ selection (empty for `Fixed`).
    selection_scores: Vec<(f64, f64)>,
}

/// Per-worker scratch for bootstrap replicates: the replicate's
/// resampled data, its projection onto the point fit's spectrum, and the
/// scratch of its fixed-λ solve.
#[derive(Debug, Default)]
struct BootScratch {
    resampled: Vec<f64>,
    proj: Vec<f64>,
    scan: ScanScratch,
    solve: SolveScratch,
}

impl Deconvolver {
    /// Builds the engine for a kernel and configuration, using the paper's
    /// Caulobacter parameters for the constraint functionals.
    ///
    /// # Errors
    ///
    /// * [`DeconvError::TooFewMeasurements`] when the kernel has fewer than
    ///   four measurement times (nothing to regularize against).
    /// * Propagates substrate errors.
    pub fn new(kernel: PhaseKernel, config: DeconvolutionConfig) -> Result<Self> {
        let params = CellCycleParams::caulobacter()?;
        Deconvolver::with_params(kernel, config, &params)
    }

    /// Builds the engine with explicit population parameters (used by the
    /// μ_sst ablation).
    ///
    /// # Errors
    ///
    /// Same as [`Deconvolver::new`].
    pub fn with_params(
        kernel: PhaseKernel,
        config: DeconvolutionConfig,
        params: &CellCycleParams,
    ) -> Result<Self> {
        let basis = SplineBasis::uniform(config.basis_size(), 0.0, 1.0)?;
        let forward = ForwardModel::new(kernel);
        let design = forward.design_matrix(&basis)?;
        let ops = FitOperators::blocks(&[design], &basis, params, &config)?;
        Ok(Deconvolver {
            forward,
            config,
            basis,
            ops,
            pool: Pool::default(),
        })
    }

    /// Sets the worker count used by the batch entry points
    /// ([`Deconvolver::fit_many`], [`Deconvolver::fit_bootstrap`]);
    /// `0` is clamped to `1`. Results are bit-identical at any thread
    /// count — this knob trades wall time only.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = Pool::new(threads);
        self
    }

    /// The worker count the batch entry points use.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The spline basis the profile estimate lives in: the natural cubic
    /// B-splines on `basis_size` uniform knots, at every size.
    pub fn basis(&self) -> &SplineBasis {
        &self.basis
    }

    /// The forward model (kernel) in use.
    pub fn forward(&self) -> &ForwardModel {
        &self.forward
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeconvolutionConfig {
        &self.config
    }

    /// Fits the synchronous profile to population measurements `g`.
    ///
    /// `sigmas` are the per-measurement standard deviations σₘ of paper
    /// eq. 5; pass `None` for unit weights.
    ///
    /// Allocates a fresh [`FitWorkspace`]; hot loops fitting many series
    /// should hold one workspace and call [`Deconvolver::fit_with`] (or
    /// use [`Deconvolver::fit_many`], which does so per worker).
    ///
    /// # Errors
    ///
    /// * [`DeconvError::LengthMismatch`] for wrong-length inputs.
    /// * [`DeconvError::InvalidConfig`] for non-finite measurements or
    ///   non-positive sigmas.
    /// * Propagates QP/linear-algebra failures.
    pub fn fit(&self, g: &[f64], sigmas: Option<&[f64]>) -> Result<DeconvolutionResult> {
        let mut workspace = FitWorkspace::new();
        self.fit_with(&mut workspace, g, sigmas)
    }

    /// Harvests the constrained QP a real fit of `g` solves, as a
    /// portable [`QpInstance`] in the corpus text format.
    ///
    /// Runs the full fit (λ selection included), then re-assembles the
    /// Hessian `H = 2(BᵀW²B + λ̄Ω + εR)` and linear term `c = −2BᵀW²g`
    /// at the selected λ — exactly what the production solve saw — along
    /// with the engine's equality and positivity blocks. The fitted
    /// coefficients become the instance's warm start, and the positivity
    /// rows active at them (to 10⁻⁸ relative) its active set, so the
    /// corpus records the hinted solve shape, not just the cold one. The
    /// origin line records λ, the problem sizes, and the weighting for
    /// provenance.
    ///
    /// This is how the committed instances under
    /// `tests/fixtures/qp_corpus/harvest-*.qp` were produced.
    ///
    /// # Errors
    ///
    /// Same as [`Deconvolver::fit`], plus [`cellsync_opt::OptError`]
    /// (wrapped in [`DeconvError::Opt`]) for an invalid instance `name`.
    pub fn harvest_qp(&self, g: &[f64], sigmas: Option<&[f64]>, name: &str) -> Result<QpInstance> {
        let mut workspace = FitWorkspace::new();
        let fitted = self.fit_with(&mut workspace, g, sigmas)?;
        let lambda = fitted.lambda();
        let alpha = Vector::from_slice(fitted.alpha());
        let n = self.basis.len();
        let m = self.forward.num_measurements();

        let weights = self.ops.weights(&workspace, sigmas.is_none());
        let mut h = Matrix::zeros(n, n);
        self.ops.hessian(weights, lambda, &mut h)?;
        let mut c = Vector::zeros(n);
        self.ops
            .linear_term_into(weights, g, &mut Vector::zeros(m), &mut c)?;

        let weighting = if sigmas.is_some() {
            "sigma-weighted"
        } else {
            "unit-weighted"
        };
        let mut instance = QpInstance::new(name, h, c)?.with_origin(&format!(
            "harvested deconvolution fit: n={n} m={m} lambda={lambda:e} ridge={:e} {weighting}",
            DeconvolutionConfig::RIDGE
        ))?;
        if let Some((e_mat, e_rhs)) = &self.ops.equality {
            instance = instance.with_equalities(e_mat.clone(), e_rhs.clone())?;
        }
        if let Some((p_mat, p_rhs)) = self.ops.positivity_rows() {
            instance = instance
                .with_inequalities(p_mat.clone(), p_rhs.clone())?
                .with_active(self.ops.warm_active_rows(&alpha)?)?;
        }
        instance = instance.with_start(alpha)?;
        Ok(instance)
    }

    /// Fits one series reusing `workspace` for every buffer,
    /// factorization, and QP scratch the fit needs.
    ///
    /// The result is identical to [`Deconvolver::fit`] regardless of the
    /// workspace's history: each fit fully re-initializes the state it
    /// reads, so a workspace is an allocation cache, never a source of
    /// cross-fit coupling.
    ///
    /// # Errors
    ///
    /// Same as [`Deconvolver::fit`].
    pub fn fit_with(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        sigmas: Option<&[f64]>,
    ) -> Result<DeconvolutionResult> {
        validate_series(self.forward.num_measurements(), g, sigmas)?;
        self.fit_validated(workspace, g, sigmas, None, None)
    }

    /// Runs one owned [`FitRequest`] through the engine, allocating a
    /// fresh workspace. This is the canonical fit entry point: `fit`,
    /// `fit_with`, `fit_many`, and `fit_bootstrap` are all thin wrappers
    /// over the same validated path, so request validation lives in
    /// exactly one place.
    ///
    /// # Errors
    ///
    /// Same as [`Deconvolver::fit`], plus
    /// [`DeconvError::InvalidConfig`] for a non-finite or negative λ
    /// override, a bootstrap spec without sigmas, or replicates or grid
    /// outside the [`BootstrapSpec`] limits.
    pub fn fit_request(&self, request: &FitRequest) -> Result<FitResponse> {
        let mut workspace = FitWorkspace::new();
        self.fit_request_with(&mut workspace, request)
    }

    /// [`Deconvolver::fit_request`] reusing a caller-held workspace.
    ///
    /// # Errors
    ///
    /// Same as [`Deconvolver::fit_request`].
    pub fn fit_request_with(
        &self,
        workspace: &mut FitWorkspace,
        request: &FitRequest,
    ) -> Result<FitResponse> {
        self.validate_request(request)?;
        let g = request.series();
        let sigmas = request.sigmas();
        let lambda_override = request.lambda_override();
        let cancel = request.cancel();
        match request.bootstrap() {
            None => {
                let result = self.fit_validated(workspace, g, sigmas, lambda_override, cancel)?;
                Ok(FitResponse::new(result, None))
            }
            Some(spec) => {
                let sigmas = sigmas.expect("validate_request: bootstrap requires sigmas");
                let band =
                    self.bootstrap_validated(workspace, g, sigmas, spec, lambda_override, cancel)?;
                Ok(FitResponse::new(band.point.clone(), Some(band)))
            }
        }
    }

    /// Validates a full [`FitRequest`]: the series checks of
    /// [`validate_series`] plus the request-only options (λ override,
    /// bootstrap spec).
    fn validate_request(&self, request: &FitRequest) -> Result<()> {
        let m = self.forward.num_measurements();
        validate_series(m, request.series(), request.sigmas())?;
        if let Some(l) = request.lambda_override() {
            if !l.is_finite() || l < 0.0 {
                return Err(DeconvError::InvalidConfig(
                    "lambda override must be finite and non-negative",
                ));
            }
        }
        if let Some(spec) = request.bootstrap() {
            if request.sigmas().is_none() {
                return Err(DeconvError::InvalidConfig("bootstrap requires sigmas"));
            }
            if spec.replicates() == 0 {
                return Err(DeconvError::InvalidConfig("n_boot must be positive"));
            }
            if spec.replicates() > BootstrapSpec::MAX_REPLICATES {
                return Err(DeconvError::InvalidConfig(
                    "n_boot exceeds BootstrapSpec::MAX_REPLICATES",
                ));
            }
            if spec.grid() < 2 {
                return Err(DeconvError::InvalidConfig("n_grid must be at least 2"));
            }
            if spec.grid() > BootstrapSpec::MAX_GRID {
                return Err(DeconvError::InvalidConfig(
                    "n_grid exceeds BootstrapSpec::MAX_GRID",
                ));
            }
        }
        Ok(())
    }

    /// The post-validation fit body shared by every entry point. A
    /// `lambda_override` skips the engine's λ-selection entirely (empty
    /// selection scores).
    fn fit_validated(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        sigmas: Option<&[f64]>,
        lambda_override: Option<f64>,
        cancel: Option<&CancelToken>,
    ) -> Result<DeconvolutionResult> {
        check_cancel(cancel)?;
        let unit = self.ops.prepare(workspace, sigmas);
        let solution = self
            .ops
            .solve(workspace, g, unit, lambda_override, cancel)?;
        let weights = self.ops.weights(workspace, unit);
        let designs = std::slice::from_ref(&self.ops.design);
        let (results, _) = DeconvolutionResult::blocks(designs, &self.basis, solution, g, weights)?;
        results
            .into_iter()
            .next()
            .ok_or(DeconvError::InvalidConfig("the engine fits one block"))
    }

    /// Fits many series measured on the same protocol — the genome-wide
    /// microarray use case of the original work, where thousands of genes
    /// share one kernel and one design matrix.
    ///
    /// Each entry of `series` is `(measurements, optional sigmas)`. The
    /// engine's precomputed design/penalty/constraint/scan structures
    /// are reused; only the per-gene scan and solve differ. The
    /// per-gene fits fan out over the engine's worker pool
    /// ([`Deconvolver::with_threads`]), each worker carrying one
    /// thread-local [`FitWorkspace`]
    /// ([`cellsync_runtime::Pool::par_map_with`]). Results are ordered
    /// like `series` and bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`DeconvError::Series`] wrapping the failure of the
    /// lowest-indexed failing series (every series is attempted, so the
    /// reported index is deterministic).
    pub fn fit_many(
        &self,
        series: &[(&[f64], Option<&[f64]>)],
    ) -> Result<Vec<DeconvolutionResult>> {
        self.pool
            .try_par_map_with(series.len(), FitWorkspace::new, |workspace, i| {
                let (g, s) = series[i];
                self.fit_with(workspace, g, s)
            })
            .map_err(|(index, source)| DeconvError::Series {
                index,
                source: Box::new(source),
            })
    }

    /// Parametric-bootstrap uncertainty for a fitted profile: refits
    /// `n_boot` noise realizations `g + ε`, `εₘ ~ N(0, σₘ²)`, around the
    /// point fit and returns the per-phase mean and standard deviation of
    /// the deconvolved profiles on an `n_grid`-point phase grid.
    ///
    /// λ is selected once on the original data and held fixed across
    /// replicates (standard practice; re-selecting per replicate mixes
    /// model-selection variance into the band). Because λ and the weights
    /// are shared, every replicate projects its data onto the point fit's
    /// σ-weighted spectrum and runs the engine's one fixed-λ solve on it —
    /// the arithmetic of a fixed-λ [`Deconvolver::fit`] of the replicate.
    ///
    /// Replicates refit in parallel over the engine's worker pool
    /// ([`Deconvolver::with_threads`]). Replicate `i` draws its noise from
    /// its own stream, seeded by [`cellsync_runtime::stream_seed`]`(seed, i)`
    /// (a hash of the pair, so distinct seeds give distinct replicate
    /// sets), and the replicate profiles are accumulated in index order,
    /// so the band is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// * [`DeconvError::InvalidConfig`] for `n_boot` or `n_grid` outside
    ///   the [`BootstrapSpec`] limits.
    /// * [`DeconvError::Series`] wrapping the lowest-indexed failing
    ///   replicate.
    /// * Propagates point-fit errors.
    pub fn fit_bootstrap(
        &self,
        g: &[f64],
        sigmas: &[f64],
        n_boot: usize,
        n_grid: usize,
        seed: u64,
    ) -> Result<BootstrapBand> {
        let request = FitRequest::new(g.to_vec())
            .with_sigmas(sigmas.to_vec())
            .with_bootstrap(BootstrapSpec::new(n_boot, n_grid, seed));
        let (_, band) = self.fit_request(&request)?.into_parts();
        Ok(band.expect("bootstrap request always returns a band"))
    }

    /// The post-validation bootstrap body behind
    /// [`Deconvolver::fit_request`] / [`Deconvolver::fit_bootstrap`].
    fn bootstrap_validated(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        sigmas: &[f64],
        spec: &BootstrapSpec,
        lambda_override: Option<f64>,
        cancel: Option<&CancelToken>,
    ) -> Result<BootstrapBand> {
        let n_boot = spec.replicates();
        let n_grid = spec.grid();
        let seed = spec.seed();
        let point = self.fit_validated(workspace, g, Some(sigmas), lambda_override, cancel)?;
        let lambda = point.lambda();
        // The point fit left the weights `1/σ` and their spectrum in the
        // workspace; every replicate shares both.
        let FitWorkspace {
            weights, spectrum, ..
        } = &*workspace;

        let normal = cellsync_stats::dist::Normal::new(0.0, 1.0)?;
        // Per-replicate RNG streams (`stream_seed(seed, i)`) decouple the
        // replicates from each other, which is what lets them refit in
        // parallel while staying bit-identical at any thread count.
        let profiles: Vec<Vec<f64>> = self
            .pool
            .try_par_map_with(n_boot, BootScratch::default, |scratch, i| {
                use cellsync_stats::dist::ContinuousDistribution as _;
                check_cancel(cancel)?;
                let BootScratch {
                    resampled,
                    proj,
                    scan,
                    solve,
                } = scratch;
                let mut rng = StdRng::seed_from_u64(cellsync_runtime::stream_seed(seed, i as u64));
                resampled.clear();
                resampled.extend(
                    g.iter()
                        .zip(sigmas)
                        .map(|(&v, &s)| v + s * normal.sample(&mut rng)),
                );
                let series = self.ops.series(weights, resampled, spectrum, proj);
                let alpha = self.ops.solve_at(scan, solve, &series, lambda, cancel)?;

                let mut values = Vec::with_capacity(n_grid);
                for k in 0..n_grid {
                    values.push(
                        self.basis
                            .eval_combination(alpha.as_slice(), k as f64 / (n_grid - 1) as f64)?,
                    );
                }
                Ok::<_, DeconvError>(values)
            })
            .map_err(|(index, source)| DeconvError::Series {
                index,
                source: Box::new(source),
            })?;

        let mut sum = vec![0.0; n_grid];
        let mut sum_sq = vec![0.0; n_grid];
        for profile in &profiles {
            for (i, v) in profile.iter().enumerate() {
                sum[i] += v;
                sum_sq[i] += v * v;
            }
        }
        let nb = n_boot as f64;
        let mean: Vec<f64> = sum.iter().map(|s| s / nb).collect();
        let std: Vec<f64> = sum_sq
            .iter()
            .zip(&mean)
            .map(|(sq, m)| (sq / nb - m * m).max(0.0).sqrt())
            .collect();
        Ok(BootstrapBand {
            point,
            mean,
            std,
            replicates: n_boot,
        })
    }
}

/// The single validation site for per-series inputs of an engine with
/// `m` measurements: series length and finiteness, sigma length and
/// positivity. Every fit entry point, single or mixture, funnels through
/// here (directly or via [`Deconvolver::validate_request`]).
pub(crate) fn validate_series(m: usize, g: &[f64], sigmas: Option<&[f64]>) -> Result<()> {
    if g.len() != m {
        return Err(DeconvError::LengthMismatch {
            what: "measurements",
            expected: m,
            got: g.len(),
        });
    }
    if g.iter().any(|v| !v.is_finite()) {
        return Err(DeconvError::InvalidConfig("measurements must be finite"));
    }
    if let Some(s) = sigmas {
        if s.len() != m {
            return Err(DeconvError::LengthMismatch {
                what: "sigmas",
                expected: m,
                got: s.len(),
            });
        }
        if s.iter().any(|v| !(*v > 0.0) || !v.is_finite()) {
            return Err(DeconvError::InvalidConfig("sigmas must be positive"));
        }
    }
    Ok(())
}

/// Bootstrap uncertainty band around a deconvolved profile.
#[derive(Debug, Clone)]
pub struct BootstrapBand {
    /// The point fit on the original data.
    pub point: DeconvolutionResult,
    /// Per-phase mean of the bootstrap replicates (uniform grid).
    pub mean: Vec<f64>,
    /// Per-phase standard deviation of the replicates.
    pub std: Vec<f64>,
    /// Number of replicates used.
    pub replicates: usize,
}

impl BootstrapBand {
    /// The `±k·σ` band as `(lower, upper)` sample vectors.
    pub fn band(&self, k: f64) -> (Vec<f64>, Vec<f64>) {
        let lower = self
            .mean
            .iter()
            .zip(&self.std)
            .map(|(m, s)| m - k * s)
            .collect();
        let upper = self
            .mean
            .iter()
            .zip(&self.std)
            .map(|(m, s)| m + k * s)
            .collect();
        (lower, upper)
    }
}

impl DeconvolutionResult {
    /// The one result builder, for every engine and every K: splits the
    /// solution `(α, λ, scan)` of a K-block fit, `α = [α₁ … α_K]`, into
    /// one result per block, in block order. Block k predicts `Aₖ·αₖ`
    /// (`designs[k]`), and every block carries λ, the selection scan and
    /// the joint weighted SSE `Σₜ (wₜ·(gₜ − Σₖ predₖ(tₘ)))²`, with the
    /// block predictions summed in block order. Also returns that summed
    /// prediction.
    pub(crate) fn blocks(
        designs: &[Matrix],
        basis: &SplineBasis,
        (alpha, lambda, scores): (Vector, f64, LambdaScan),
        g: &[f64],
        weights: &[f64],
    ) -> Result<(Vec<Self>, Vec<f64>)> {
        let mut total = vec![0.0; g.len()];
        let mut results = Vec::with_capacity(designs.len());
        for (design, alpha) in designs
            .iter()
            .zip(alpha.as_slice().chunks_exact(basis.len()))
        {
            let alpha = Vector::from_slice(alpha);
            let predicted = design.matvec(&alpha)?.into_vec();
            for (t, p) in total.iter_mut().zip(&predicted) {
                *t += p;
            }
            results.push(DeconvolutionResult {
                alpha,
                basis: basis.clone(),
                lambda,
                predicted,
                weighted_sse: 0.0,
                selection_scores: scores.clone(),
            });
        }
        let weighted_sse: f64 = g
            .iter()
            .zip(&total)
            .zip(weights)
            .map(|((gv, p), w)| (w * (gv - p)).powi(2))
            .sum();
        for result in &mut results {
            result.weighted_sse = weighted_sse;
        }
        Ok((results, total))
    }

    /// The fitted spline coefficients `α`: the profile's coordinates in
    /// the natural cubic B-spline basis ([`Deconvolver::basis`]), not its
    /// knot values. Evaluate the profile with
    /// [`DeconvolutionResult::eval`] or [`DeconvolutionResult::profile`].
    pub fn alpha(&self) -> &[f64] {
        self.alpha.as_slice()
    }

    /// The selected (or fixed) smoothing parameter λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Model-predicted measurements `Ĝ(tₘ) = A·α`.
    pub fn predicted(&self) -> &[f64] {
        &self.predicted
    }

    /// The weighted sum of squared residuals (first term of paper eq. 5).
    pub fn weighted_sse(&self) -> f64 {
        self.weighted_sse
    }

    /// `(λ, score)` pairs from the λ scan (empty when λ was fixed).
    pub fn selection_scores(&self) -> &[(f64, f64)] {
        &self.selection_scores
    }

    /// Evaluates the deconvolved profile at one phase.
    ///
    /// # Errors
    ///
    /// Returns [`DeconvError::InvalidPhase`] outside `[0, 1]`.
    pub fn eval(&self, phi: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&phi) {
            return Err(DeconvError::InvalidPhase(phi));
        }
        Ok(self.basis.eval_combination(self.alpha.as_slice(), phi)?)
    }

    /// Samples the deconvolved profile on `n` uniform phases.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn profile(&self, n: usize) -> Result<PhaseProfile> {
        if n < 2 {
            return Err(DeconvError::InvalidConfig("need at least two samples"));
        }
        let values: Vec<f64> = (0..n)
            .map(|i| {
                self.basis
                    .eval_combination(self.alpha.as_slice(), i as f64 / (n - 1) as f64)
            })
            .collect::<std::result::Result<_, _>>()?;
        PhaseProfile::from_samples(values)
    }
}

#[cfg(test)]
impl Deconvolver {
    /// The engine's measurement-independent operators.
    pub(crate) fn operators(&self) -> &FitOperators {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{constraints, LambdaSelection};
    use cellsync_popsim::{InitialCondition, KernelEstimator, Population};

    fn kernel(seed: u64, n_times: usize) -> PhaseKernel {
        let params = CellCycleParams::caulobacter().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pop =
            Population::synchronized(3000, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(150.0)
                .unwrap();
        let times: Vec<f64> = (0..n_times)
            .map(|i| 150.0 * i as f64 / (n_times - 1) as f64)
            .collect();
        KernelEstimator::new(64)
            .unwrap()
            .estimate(&pop, &times)
            .unwrap()
    }

    fn smooth_truth() -> PhaseProfile {
        PhaseProfile::from_fn(200, |phi| {
            2.0 + (2.0 * std::f64::consts::PI * phi).sin() + 0.5 * phi
        })
        .unwrap()
    }

    #[test]
    fn noiseless_roundtrip_recovers_truth() {
        let k = kernel(1, 16);
        let truth = smooth_truth();
        let forward = ForwardModel::new(k.clone());
        let g = forward.predict(&truth).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(16)
            .lambda(1e-6)
            .build()
            .unwrap();
        let result = Deconvolver::new(k, config).unwrap().fit(&g, None).unwrap();
        let recovered = result.profile(200).unwrap();
        let nrmse = truth.nrmse(&recovered).unwrap();
        assert!(nrmse < 0.08, "nrmse {nrmse}");
        assert!(truth.correlation(&recovered).unwrap() > 0.98);
    }

    #[test]
    fn positivity_constraint_respected() {
        // A truth that touches zero: the estimate must not go negative.
        let k = kernel(2, 14);
        let truth = PhaseProfile::from_fn(200, |phi| {
            (2.0 * (std::f64::consts::PI * (phi - 0.1)).sin()).max(0.0)
        })
        .unwrap();
        let forward = ForwardModel::new(k.clone());
        let g = forward.predict(&truth).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(14)
            .lambda(1e-5)
            .build()
            .unwrap();
        let result = Deconvolver::new(k, config).unwrap().fit(&g, None).unwrap();
        for i in 0..=100 {
            let v = result.eval(i as f64 / 100.0).unwrap();
            assert!(v >= -1e-7, "negative estimate {v} at {}", i as f64 / 100.0);
        }
    }

    #[test]
    fn gcv_selects_reasonable_lambda() {
        let k = kernel(3, 16);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(14)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -9.0,
                log10_max: 1.0,
                points: 11,
            })
            .build()
            .unwrap();
        let result = Deconvolver::new(k, config).unwrap().fit(&g, None).unwrap();
        // 11 grid points, plus possibly one golden-refined interior point.
        assert!(result.selection_scores().len() >= 11);
        // Noiseless data → GCV should pick a small λ.
        assert!(result.lambda() < 1e-2, "lambda {}", result.lambda());
        let recovered = result.profile(200).unwrap();
        assert!(truth.nrmse(&recovered).unwrap() < 0.1);
    }

    #[test]
    fn oversmoothing_flattens_profile() {
        let k = kernel(4, 14);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let fit_with = |lambda: f64, kern: PhaseKernel| {
            let config = DeconvolutionConfig::builder()
                .basis_size(12)
                .lambda(lambda)
                .build()
                .unwrap();
            let d = Deconvolver::new(kern, config).unwrap();
            let r = d.fit(&g, None).unwrap();
            // Roughness ∫f''² = αᵀΩα of the estimate.
            let omega = d.basis().penalty_matrix();
            let alpha = Vector::from_slice(r.alpha());
            alpha.dot(&omega.matvec(&alpha).unwrap()).unwrap()
        };
        // λ → ∞ drives the estimate toward Ω's null space (a straight
        // line), so the roughness — not the range — must collapse.
        let tight = fit_with(1e-7, k.clone());
        let smooth = fit_with(1e3, k);
        assert!(
            smooth < 0.05 * tight,
            "oversmoothed roughness {smooth} vs {tight}"
        );
    }

    #[test]
    fn equality_constraints_enforced() {
        let k = kernel(5, 16);
        let truth =
            PhaseProfile::from_fn(200, |phi| 3.0 + 2.0 * (std::f64::consts::PI * phi).sin())
                .unwrap();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(14)
            .conservation(true)
            .rate_continuity(true)
            .lambda(1e-4)
            .build()
            .unwrap();
        let params = CellCycleParams::caulobacter().unwrap();
        let deconv = Deconvolver::new(k, config).unwrap();
        let result = deconv.fit(&g, None).unwrap();
        // Verify both functionals vanish on the estimate.
        let cons = constraints::conservation_residual(
            |phi| result.eval(phi).expect("phi in range"),
            &params,
        )
        .unwrap();
        assert!(cons.abs() < 1e-6, "conservation residual {cons}");
        let rate = constraints::rate_continuity_residual(
            |phi| result.eval(phi).expect("phi in range"),
            |phi| {
                deconv
                    .basis()
                    .deriv_combination(result.alpha(), phi)
                    .expect("lengths match")
            },
            &params,
        )
        .unwrap();
        assert!(rate.abs() < 1e-6, "rate residual {rate}");
    }

    #[test]
    fn gcv_with_equality_constraints_scans_the_reduced_smoother() {
        // GCV + equality constraints: the score is computed on the
        // equality-constrained smoother, and the selected fit still
        // honors the constraints exactly.
        let k = kernel(5, 16);
        let truth =
            PhaseProfile::from_fn(200, |phi| 3.0 + 2.0 * (std::f64::consts::PI * phi).sin())
                .unwrap();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(14)
            .conservation(true)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -8.0,
                log10_max: 1.0,
                points: 9,
            })
            .build()
            .unwrap();
        let params = CellCycleParams::caulobacter().unwrap();
        let result = Deconvolver::new(k, config).unwrap().fit(&g, None).unwrap();
        assert!(result.selection_scores().len() >= 9);
        assert!(result.lambda() > 0.0);
        let cons = constraints::conservation_residual(
            |phi| result.eval(phi).expect("phi in range"),
            &params,
        )
        .unwrap();
        assert!(cons.abs() < 1e-6, "conservation residual {cons}");
    }

    #[test]
    fn weighted_fit_downweights_noisy_points() {
        let k = kernel(6, 14);
        let truth = smooth_truth();
        let mut g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        // Corrupt one point badly and give it a huge sigma.
        g[7] += 50.0;
        let mut sigmas = vec![0.05; g.len()];
        sigmas[7] = 1e3;
        let config = DeconvolutionConfig::builder()
            .basis_size(12)
            .lambda(1e-5)
            .build()
            .unwrap();
        let result = Deconvolver::new(k, config)
            .unwrap()
            .fit(&g, Some(&sigmas))
            .unwrap();
        let recovered = result.profile(200).unwrap();
        // The corrupted point must not drag the fit.
        assert!(truth.nrmse(&recovered).unwrap() < 0.12);
    }

    #[test]
    fn kfold_selection_runs() {
        let k = kernel(7, 16);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda_selection(LambdaSelection::KFold {
                folds: 4,
                log10_min: -7.0,
                log10_max: 0.0,
                points: 5,
                seed: 9,
            })
            .build()
            .unwrap();
        let result = Deconvolver::new(k, config).unwrap().fit(&g, None).unwrap();
        assert_eq!(result.selection_scores().len(), 5);
        let recovered = result.profile(100).unwrap();
        assert!(truth.nrmse(&recovered).unwrap() < 0.15);
    }

    #[test]
    fn input_validation() {
        let k = kernel(8, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        assert!(d.fit(&[1.0; 5], None).is_err());
        assert!(d.fit(&[f64::NAN; 12], None).is_err());
        assert!(d.fit(&[1.0; 12], Some(&[1.0; 5])).is_err());
        assert!(d.fit(&[1.0; 12], Some(&[0.0; 12])).is_err());
        let r = d.fit(&[1.0; 12], None).unwrap();
        assert!(r.eval(1.5).is_err());
        assert!(r.profile(1).is_err());
    }

    #[test]
    fn fit_with_reused_workspace_is_bit_identical_to_fresh() {
        // A workspace is an allocation cache, not state: interleaving
        // unit-weight, weighted, GCV, and fixed-λ fits through ONE
        // workspace must reproduce fresh-workspace results exactly.
        let k = kernel(17, 14);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let sigmas: Vec<f64> = (0..g.len()).map(|i| 0.05 + 0.01 * i as f64).collect();
        let gcv = DeconvolutionConfig::builder()
            .basis_size(12)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -8.0,
                log10_max: 1.0,
                points: 7,
            })
            .build()
            .unwrap();
        let fixed = DeconvolutionConfig::builder()
            .basis_size(12)
            .lambda(1e-4)
            .build()
            .unwrap();
        let engine_gcv = Deconvolver::new(k.clone(), gcv).unwrap();
        let engine_fixed = Deconvolver::new(k, fixed).unwrap();

        let mut shared = FitWorkspace::new();
        let fits: Vec<(&Deconvolver, Option<&[f64]>)> = vec![
            (&engine_gcv, None),
            (&engine_gcv, Some(&sigmas)),
            (&engine_fixed, Some(&sigmas)),
            (&engine_gcv, None),
            (&engine_fixed, None),
        ];
        for (i, (engine, s)) in fits.iter().enumerate() {
            let reused = engine.fit_with(&mut shared, &g, *s).unwrap();
            let fresh = engine.fit(&g, *s).unwrap();
            assert_eq!(reused.alpha(), fresh.alpha(), "fit {i}");
            assert_eq!(reused.lambda(), fresh.lambda(), "fit {i}");
            assert_eq!(reused.predicted(), fresh.predicted(), "fit {i}");
        }
    }

    #[test]
    fn weighted_spectral_rebuild_ignores_workspace_history() {
        // A weighted series' spectrum is rebuilt inside the workspace's
        // buffers. After the workspace has served a weighted fit on a
        // larger engine (with equality rows: a larger border) and then a
        // unit-weight fit, a weighted GCV scan must match a fresh
        // workspace bit for bit.
        let gcv = |basis: usize, conservation: bool| {
            DeconvolutionConfig::builder()
                .basis_size(basis)
                .positivity(true)
                .conservation(conservation)
                .lambda_selection(LambdaSelection::Gcv {
                    log10_min: -8.0,
                    log10_max: 1.0,
                    points: 9,
                })
                .build()
                .unwrap()
        };
        let k = kernel(23, 14);
        let big = Deconvolver::new(k.clone(), gcv(14, true)).unwrap();
        let small = Deconvolver::new(k.clone(), gcv(9, false)).unwrap();
        let g = ForwardModel::new(k).predict(&smooth_truth()).unwrap();
        let sigmas_a: Vec<f64> = (0..g.len()).map(|i| 0.02 + 0.03 * i as f64).collect();
        let sigmas_b: Vec<f64> = (0..g.len()).map(|i| 10f64.powi(i as i32 % 5 - 3)).collect();

        let mut shared = FitWorkspace::new();
        big.fit_with(&mut shared, &g, Some(&sigmas_a)).unwrap();
        small.fit_with(&mut shared, &g, None).unwrap();
        let reused = small.fit_with(&mut shared, &g, Some(&sigmas_b)).unwrap();
        let fresh = small
            .fit_with(&mut FitWorkspace::new(), &g, Some(&sigmas_b))
            .unwrap();
        assert_eq!(reused.alpha(), fresh.alpha());
        assert_eq!(reused.lambda().to_bits(), fresh.lambda().to_bits());
        assert_eq!(reused.selection_scores(), fresh.selection_scores());
        assert_eq!(reused.predicted(), fresh.predicted());
    }

    #[test]
    fn zero_lambda_fits_are_finite() {
        // The criterion floors the smoothing weight at the ridge,
        // λ̄ = max(λ, ε), so Fixed(0) and a λ = 0 override are well posed
        // at every basis size, with and without equality rows.
        let k = kernel(19, 16);
        let g = ForwardModel::new(k.clone())
            .predict(&smooth_truth())
            .unwrap();
        for basis in [18, 128] {
            for equalities in [false, true] {
                let config = DeconvolutionConfig::builder()
                    .basis_size(basis)
                    .conservation(equalities)
                    .rate_continuity(equalities)
                    .lambda(0.0)
                    .build()
                    .unwrap();
                let engine = Deconvolver::new(k.clone(), config).unwrap();
                let fixed = engine.fit(&g, None).unwrap();
                let overridden = engine
                    .fit_request(&FitRequest::new(g.clone()).with_lambda(0.0))
                    .unwrap();
                let case = format!("basis {basis}, equalities {equalities}");
                assert_eq!(fixed.lambda(), 0.0, "{case}");
                assert!(
                    fixed.alpha().iter().all(|a| a.is_finite()),
                    "{case}: non-finite α"
                );
                assert_eq!(overridden.result().alpha(), fixed.alpha(), "{case}");
            }
        }
    }

    #[test]
    fn nan_selection_score_is_a_structured_error() {
        use crate::operators::argmin_score;
        let scores = [(1e-3, 0.5), (1e-2, f64::NAN), (1e-1, 0.25)];
        let err = argmin_score(&scores).unwrap_err();
        assert_eq!(err.code(), "numerical_breakdown");
        // Infinite scores (saturated smoothers) are ordinary losers.
        let scores = [(1e-3, f64::INFINITY), (1e-2, 0.5), (1e-1, 0.5)];
        assert_eq!(argmin_score(&scores).unwrap(), 1e-2);
        assert!(argmin_score(&[]).is_err());
    }

    #[test]
    fn bootstrap_band_covers_truth() {
        let k = kernel(10, 14);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let sigmas = vec![0.1; g.len()];
        // One noisy realization as "the data".
        use cellsync_stats::dist::ContinuousDistribution as _;
        let normal = cellsync_stats::dist::Normal::new(0.0, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(5150);
        let noisy: Vec<f64> = g.iter().map(|v| v + normal.sample(&mut rng)).collect();
        let config = DeconvolutionConfig::builder()
            .basis_size(12)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        let band = d.fit_bootstrap(&noisy, &sigmas, 30, 50, 99).unwrap();
        assert_eq!(band.replicates, 30);
        assert_eq!(band.mean.len(), 50);
        // The ±3σ band should cover the truth at the vast majority of
        // phases (endpoints can escape under natural-BC extrapolation).
        let (lo, hi) = band.band(3.0);
        let mut covered = 0;
        for i in 0..50 {
            let phi = i as f64 / 49.0;
            let t = truth.eval(phi);
            if t >= lo[i] - 0.05 && t <= hi[i] + 0.05 {
                covered += 1;
            }
        }
        assert!(covered >= 45, "covered {covered}/50");
        // Nonzero spread.
        assert!(band.std.iter().sum::<f64>() > 0.0);
        // Validation.
        assert!(d.fit_bootstrap(&noisy, &sigmas, 0, 50, 1).is_err());
        assert!(d.fit_bootstrap(&noisy, &sigmas, 5, 1, 1).is_err());
    }

    #[test]
    fn distinct_seeds_give_distinct_bootstrap_bands() {
        // Seeds that differ only in low bits must not share replicate
        // streams: deriving stream i as `seed ^ i` would hand seeds 0 and
        // 1 the same set of eight streams, so their bands would agree up
        // to summation order.
        let k = kernel(10, 14);
        let g = ForwardModel::new(k.clone())
            .predict(&smooth_truth())
            .unwrap();
        let sigmas = vec![0.1; g.len()];
        let config = DeconvolutionConfig::builder()
            .basis_size(12)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        let a = d.fit_bootstrap(&g, &sigmas, 8, 50, 0).unwrap();
        let b = d.fit_bootstrap(&g, &sigmas, 8, 50, 1).unwrap();
        let gap = a
            .mean
            .iter()
            .zip(&b.mean)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        let scale = a.mean.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
        assert!(gap > 1e-9 * scale, "bands agree to {gap:e}");
    }

    #[test]
    fn bootstrap_replicates_match_full_refits() {
        // Each replicate is a fixed-λ fit of its resampled data on the
        // point fit's spectrum, so the band mean must be the mean of
        // refits from scratch bit for bit. The second engine's truth
        // touches zero, so positivity binds and its refits run the QP.
        let touching = PhaseProfile::from_fn(200, |phi| {
            (2.0 * (std::f64::consts::PI * (phi - 0.1)).sin()).max(0.0)
        })
        .unwrap();
        let cases = [(12, smooth_truth(), 0.08), (128, touching, 0.3)];
        use cellsync_stats::dist::ContinuousDistribution as _;
        let normal = cellsync_stats::dist::Normal::new(0.0, 1.0).unwrap();
        let k = kernel(18, 14);
        for (basis, truth, sigma) in cases {
            let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
            let sigmas = vec![sigma; g.len()];
            let config = DeconvolutionConfig::builder()
                .basis_size(basis)
                .lambda(1e-4)
                .build()
                .unwrap();
            let d = Deconvolver::new(k.clone(), config).unwrap();
            let n_grid = 40;
            let seed = 77;
            let band = d.fit_bootstrap(&g, &sigmas, 6, n_grid, seed).unwrap();
            // Reconstruct each replicate by hand through the public fit API.
            let mut sum = vec![0.0; n_grid];
            let mut binding = 0;
            for i in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(cellsync_runtime::stream_seed(seed, i));
                let resampled: Vec<f64> = g
                    .iter()
                    .zip(&sigmas)
                    .map(|(v, s)| v + s * normal.sample(&mut rng))
                    .collect();
                let refit = d.fit(&resampled, Some(&sigmas)).unwrap();
                let alpha = Vector::from_slice(refit.alpha());
                if !d.ops.warm_active_rows(&alpha).unwrap().is_empty() {
                    binding += 1;
                }
                let profile = refit.profile(n_grid).unwrap();
                for (acc, v) in sum.iter_mut().zip(profile.values()) {
                    *acc += v;
                }
            }
            if basis >= 128 {
                assert!(binding > 0, "basis {basis}: positivity never binds");
            }
            for (mean, acc) in band.mean.iter().zip(&sum) {
                assert_eq!(
                    mean.to_bits(),
                    (acc / 6.0).to_bits(),
                    "basis {basis}: replicate mean {mean} vs refit {}",
                    acc / 6.0
                );
            }
        }
    }

    #[test]
    fn fit_many_matches_individual_fits() {
        let k = kernel(11, 12);
        let t1 = smooth_truth();
        let t2 = PhaseProfile::from_fn(100, |phi| 1.0 + phi).unwrap();
        let g1 = ForwardModel::new(k.clone()).predict(&t1).unwrap();
        let g2 = ForwardModel::new(k.clone()).predict(&t2).unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        let batch = d
            .fit_many(&[(g1.as_slice(), None), (g2.as_slice(), None)])
            .unwrap();
        let solo1 = d.fit(&g1, None).unwrap();
        let solo2 = d.fit(&g2, None).unwrap();
        assert_eq!(batch[0].alpha(), solo1.alpha());
        assert_eq!(batch[1].alpha(), solo2.alpha());
    }

    #[test]
    fn fit_many_reports_lowest_failing_index() {
        let k = kernel(12, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        let good = vec![1.0; 12];
        let short = vec![1.0; 5];
        let nan = vec![f64::NAN; 12];
        // Failures at indices 1 and 3: the structured error must name 1.
        let batch: Vec<(&[f64], Option<&[f64]>)> = vec![
            (good.as_slice(), None),
            (short.as_slice(), None),
            (good.as_slice(), None),
            (nan.as_slice(), None),
        ];
        for threads in [1, 4] {
            let err = d
                .clone()
                .with_threads(threads)
                .fit_many(&batch)
                .unwrap_err();
            match err {
                DeconvError::Series { index, source } => {
                    assert_eq!(index, 1, "threads {threads}");
                    assert!(matches!(*source, DeconvError::LengthMismatch { .. }));
                }
                other => panic!("expected Series error, got {other:?}"),
            }
        }
    }

    #[test]
    fn fit_many_empty_batch_is_ok_and_empty() {
        let k = kernel(14, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        // An empty genome panel is a valid (if pointless) batch, not an
        // error — the scenario runner and callers iterating over filtered
        // gene sets rely on this.
        for threads in [1, 4] {
            let results = d.clone().with_threads(threads).fit_many(&[]).unwrap();
            assert!(results.is_empty(), "threads {threads}");
        }
    }

    #[test]
    fn fit_bootstrap_zero_and_one_replicates() {
        let k = kernel(15, 12);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let sigmas = vec![0.1; g.len()];
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        // Zero replicates cannot define a band.
        assert!(matches!(
            d.fit_bootstrap(&g, &sigmas, 0, 30, 1),
            Err(DeconvError::InvalidConfig(_))
        ));
        // One replicate is degenerate but well-defined: the band collapses
        // onto that single replicate profile with zero spread.
        let band = d.fit_bootstrap(&g, &sigmas, 1, 30, 1).unwrap();
        assert_eq!(band.replicates, 1);
        assert_eq!(band.mean.len(), 30);
        assert!(band.std.iter().all(|&s| s == 0.0), "std {:?}", band.std);
        let (lo, hi) = band.band(3.0);
        assert_eq!(lo, band.mean);
        assert_eq!(hi, band.mean);
    }

    #[test]
    fn fit_many_surfaces_mid_batch_poisoned_series_index() {
        let k = kernel(16, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        let good = vec![1.0; 12];
        let mut poisoned = vec![1.0; 12];
        poisoned[6] = f64::NAN;
        // Only the middle series (index 2 of 5) is poisoned; the error
        // must name exactly that index at any thread count.
        let batch: Vec<(&[f64], Option<&[f64]>)> = vec![
            (good.as_slice(), None),
            (good.as_slice(), None),
            (poisoned.as_slice(), None),
            (good.as_slice(), None),
            (good.as_slice(), None),
        ];
        for threads in [1, 2, 4] {
            let err = d
                .clone()
                .with_threads(threads)
                .fit_many(&batch)
                .unwrap_err();
            match err {
                DeconvError::Series { index, source } => {
                    assert_eq!(index, 2, "threads {threads}");
                    assert!(
                        matches!(*source, DeconvError::InvalidConfig(_)),
                        "source {source:?}"
                    );
                }
                other => panic!("expected Series error, got {other:?}"),
            }
        }
    }

    #[test]
    fn thread_count_is_configurable() {
        let k = kernel(13, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        assert!(d.threads() >= 1);
        assert_eq!(d.clone().with_threads(3).threads(), 3);
        assert_eq!(d.with_threads(0).threads(), 1);
    }

    #[test]
    fn constant_data_gives_constant_profile() {
        let k = kernel(9, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-3)
            .build()
            .unwrap();
        let result = Deconvolver::new(k, config)
            .unwrap()
            .fit(&[4.2; 12], None)
            .unwrap();
        for i in 0..=20 {
            let v = result.eval(i as f64 / 20.0).unwrap();
            assert!((v - 4.2).abs() < 0.15, "v = {v}");
        }
    }

    #[test]
    fn fit_request_matches_fit() {
        let k = kernel(21, 12);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let sigmas = vec![0.05; g.len()];
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -6.0,
                log10_max: 0.0,
                points: 9,
            })
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();

        let direct = d.fit(&g, Some(&sigmas)).unwrap();
        let request = FitRequest::new(g.clone()).with_sigmas(sigmas.clone());
        let via_request = d.fit_request(&request).unwrap();
        assert_eq!(via_request.result().alpha(), direct.alpha());
        assert_eq!(via_request.result().lambda(), direct.lambda());
        assert_eq!(via_request.result().predicted(), direct.predicted());
        assert!(via_request.band().is_none());
    }

    #[test]
    fn lambda_override_matches_fixed_lambda_engine() {
        let k = kernel(22, 12);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let gcv_config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -6.0,
                log10_max: 0.0,
                points: 9,
            })
            .build()
            .unwrap();
        let fixed_config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-3)
            .build()
            .unwrap();
        let gcv_engine = Deconvolver::new(k.clone(), gcv_config).unwrap();
        let fixed_engine = Deconvolver::new(k, fixed_config).unwrap();

        // Overriding λ on a GCV engine must reproduce the Fixed-λ engine
        // bit for bit: selection is skipped, not re-parameterized.
        let overridden = gcv_engine
            .fit_request(&FitRequest::new(g.clone()).with_lambda(1e-3))
            .unwrap();
        let fixed = fixed_engine.fit(&g, None).unwrap();
        assert_eq!(overridden.result().alpha(), fixed.alpha());
        assert_eq!(overridden.result().lambda(), 1e-3);
        assert!(overridden.result().selection_scores().is_empty());
    }

    #[test]
    fn fit_request_bootstrap_matches_fit_bootstrap() {
        let k = kernel(23, 12);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let sigmas = vec![0.05; g.len()];
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();

        let direct = d.fit_bootstrap(&g, &sigmas, 8, 25, 7).unwrap();
        let request = FitRequest::new(g.clone())
            .with_sigmas(sigmas.clone())
            .with_bootstrap(BootstrapSpec::new(8, 25, 7));
        let via_request = d.fit_request(&request).unwrap();
        let band = via_request.band().expect("bootstrap request has a band");
        assert_eq!(band.mean, direct.mean);
        assert_eq!(band.std, direct.std);
        assert_eq!(band.replicates, direct.replicates);
        assert_eq!(via_request.result().alpha(), direct.point.alpha());
    }

    #[test]
    fn request_validation_is_centralized() {
        let k = kernel(24, 12);
        let config = DeconvolutionConfig::builder()
            .basis_size(8)
            .lambda(1e-4)
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();
        let g = vec![1.0; 12];

        // Bootstrap without sigmas.
        let r =
            d.fit_request(&FitRequest::new(g.clone()).with_bootstrap(BootstrapSpec::new(4, 25, 0)));
        assert!(matches!(r, Err(DeconvError::InvalidConfig(_))));
        // Non-finite / negative λ overrides.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let r = d.fit_request(&FitRequest::new(g.clone()).with_lambda(bad));
            assert!(matches!(r, Err(DeconvError::InvalidConfig(_))), "{bad}");
        }
        // Bootstrap limits: each bound is accepted, one past it is not.
        let sigmas = vec![0.1; 12];
        let boot = |replicates, grid| {
            d.fit_request(
                &FitRequest::new(g.clone())
                    .with_sigmas(sigmas.clone())
                    .with_lambda(1.0)
                    .with_bootstrap(BootstrapSpec::new(replicates, grid, 0)),
            )
        };
        let (max_r, max_g) = (BootstrapSpec::MAX_REPLICATES, BootstrapSpec::MAX_GRID);
        for (replicates, grid) in [(0, 2), (1, 1), (max_r + 1, 2), (1, max_g + 1)] {
            let r = boot(replicates, grid);
            assert!(
                matches!(r, Err(DeconvError::InvalidConfig(_))),
                "{replicates} × {grid}"
            );
        }
        for (replicates, grid) in [(max_r, 2), (1, max_g)] {
            let band = boot(replicates, grid).unwrap().into_parts().1.unwrap();
            assert_eq!((band.replicates, band.mean.len()), (replicates, grid));
        }
        // Series validation still runs on the request path.
        let r = d.fit_request(&FitRequest::new(vec![1.0; 5]));
        assert!(matches!(r, Err(DeconvError::LengthMismatch { .. })));
        let r = d.fit_request(&FitRequest::new(vec![f64::NAN; 12]));
        assert!(matches!(r, Err(DeconvError::InvalidConfig(_))));
        let r = d.fit_request(&FitRequest::new(g.clone()).with_sigmas(vec![0.0; 12]));
        assert!(matches!(r, Err(DeconvError::InvalidConfig(_))));
    }

    #[test]
    fn cancelled_request_returns_deadline_exceeded() {
        let k = kernel(31, 12);
        let truth = smooth_truth();
        let g = ForwardModel::new(k.clone()).predict(&truth).unwrap();
        let sigmas = vec![0.05; g.len()];
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda_selection(LambdaSelection::default_gcv())
            .build()
            .unwrap();
        let d = Deconvolver::new(k, config).unwrap();

        // A pre-fired token aborts before any work: plain fit, λ
        // override, and bootstrap all surface the deadline error.
        let fired = crate::CancelToken::new();
        fired.cancel();
        for request in [
            FitRequest::new(g.clone()),
            FitRequest::new(g.clone()).with_lambda(1e-3),
            FitRequest::new(g.clone())
                .with_sigmas(sigmas.clone())
                .with_bootstrap(BootstrapSpec::new(8, 25, 7)),
        ] {
            let r = d.fit_request(&request.with_cancel(fired.clone()));
            assert!(matches!(r, Err(DeconvError::DeadlineExceeded)), "{r:?}");
        }

        // A live token changes nothing: results stay bit-identical to a
        // token-free fit.
        let live = crate::CancelToken::after(std::time::Duration::from_secs(3600));
        let with_token = d
            .fit_request(&FitRequest::new(g.clone()).with_cancel(live))
            .unwrap();
        let without = d.fit_request(&FitRequest::new(g.clone())).unwrap();
        assert_eq!(with_token.result().alpha(), without.result().alpha());
        assert_eq!(with_token.result().lambda(), without.result().lambda());
    }

    /// Fixed-λ engine with positivity and the given equalities.
    fn fixed_engine(basis: usize, conservation: bool, rate: bool) -> Deconvolver {
        let config = DeconvolutionConfig::builder()
            .basis_size(basis)
            .conservation(conservation)
            .rate_continuity(rate)
            .lambda(1e-5)
            .build()
            .unwrap();
        Deconvolver::new(kernel(41, 16), config).unwrap()
    }

    /// The constrained QP of a unit-weight fit, as [`Deconvolver::harvest_qp`]
    /// records it, solved by a fresh workspace without the row hint.
    fn harvested_alpha(engine: &Deconvolver, g: &[f64]) -> Vector {
        let instance = engine.harvest_qp(g, None, "harvested").unwrap();
        cellsync_opt::QpWorkspace::new()
            .solve(&instance.problem().unwrap())
            .unwrap()
            .x
    }

    /// A profile that dips well below zero, so positivity binds.
    fn dipping_series(engine: &Deconvolver) -> Vec<f64> {
        let truth = PhaseProfile::from_fn(200, |phi| {
            (2.0 * std::f64::consts::PI * phi).sin() * 1.5 - 0.3
        })
        .unwrap();
        engine.forward().predict(&truth).unwrap()
    }

    #[test]
    fn binding_fits_are_the_harvested_qp_solve() {
        for (conservation, rate) in [(false, false), (true, false), (true, true)] {
            let engine = fixed_engine(18, conservation, rate);
            let g = dipping_series(&engine);
            let fitted = engine.fit(&g, None).unwrap();
            assert_eq!(
                fitted.alpha(),
                harvested_alpha(&engine, &g).as_slice(),
                "{conservation}/{rate}: the fit must be the QP solve, bit for bit"
            );
        }
    }

    #[test]
    fn pinned_collocation_row_fits_like_the_harvested_qp() {
        // Pin the profile to zero at φ = 0 with an equality row equal to
        // the first collocation row: that positivity row is then
        // dependent on the equality, and the dual loop must never add it.
        let mut engine = fixed_engine(18, true, false);
        let ops = &engine.ops;
        let (p, _) = ops.positivity_rows().unwrap();
        let pin = Matrix::from_rows(&[p.row(0)]).unwrap();
        engine.ops = FitOperators::new(
            ops.design.clone(),
            ops.omega.clone(),
            &engine.basis.greville(),
            Some((pin, Vector::zeros(1))),
            ops.positivity.clone(),
            &engine.config,
        )
        .unwrap();
        let g = dipping_series(&engine);
        let fitted = engine.fit(&g, None).unwrap();
        assert_eq!(fitted.alpha(), harvested_alpha(&engine, &g).as_slice());
        let at_zero = engine.basis.eval_combination(fitted.alpha(), 0.0).unwrap();
        assert!(at_zero.abs() < 1e-12, "f(0) = {at_zero:e}");
        assert!(!engine.ops.binds(&Vector::from_slice(fitted.alpha())));
    }
}
