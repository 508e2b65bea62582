//! The measurement-independent operators of one penalized, constrained
//! least-squares problem (paper eq. 5) and the fit over them: the one
//! place that selects λ, solves at it (the frame's minimizer, then the
//! constrained QP when positivity binds) and builds every QP.
//!
//! Every engine owns one [`FitOperators`], built by
//! [`FitOperators::blocks`] from one design per block: the K-component
//! mixture ([`crate::mixture::MixtureDeconvolver`]) is the problem with
//! the block design `[A₁ … A_K]`, a block-diagonal penalty and
//! block-diagonal constraint rows, and the single-population engine
//! ([`crate::Deconvolver`]) is its one-block case. Every K is fitted by
//! the very same λ rule ([`gcv_select`] over the measurement-space scan,
//! or k-fold) and the same constrained solve.

use std::sync::OnceLock;

use cellsync_linalg::{BandedMatrix, Matrix, SparseRowMatrix, Vector};
use cellsync_opt::QpProblem;
use cellsync_popsim::CellCycleParams;
use cellsync_runtime::CancelToken;
use cellsync_spline::SplineBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::banded::{dot, floored, Frame, ScanScratch, Series, Spectrum};
use crate::config::LambdaSelection;
use crate::solver::SolveScratch;
use crate::{constraints, DeconvError, DeconvolutionConfig, FitWorkspace, Result};

/// The `(λ, score)` pairs of a λ-selection scan, in scan order.
pub(crate) type LambdaScan = Vec<(f64, f64)>;

/// The engine's cooperative cancellation poll: errors with
/// [`DeconvError::DeadlineExceeded`] once the request's token has fired.
/// Call sites sit at outer-loop boundaries (per λ-grid point, per
/// bootstrap replicate, per constrained solve), so a fired deadline is
/// noticed within one loop body, never mid-kernel.
pub(crate) fn check_cancel(cancel: Option<&CancelToken>) -> Result<()> {
    match cancel {
        Some(token) if token.is_cancelled() => Err(DeconvError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// The one rule for a broken λ score, shared by GCV and k-fold: a NaN
/// score means the selection criterion broke down, which is an error
/// rather than a silently skipped grid point.
fn check_scores(scores: &[(f64, f64)]) -> Result<()> {
    if scores.iter().any(|(_, s)| s.is_nan()) {
        return Err(DeconvError::NumericalBreakdown(
            "cross-validation score is NaN",
        ));
    }
    Ok(())
}

/// The λ with the smallest score in a `(λ, score)` scan (the first on
/// ties); a NaN score is an error ([`check_scores`]).
pub(crate) fn argmin_score(scores: &[(f64, f64)]) -> Result<f64> {
    check_scores(scores)?;
    scores
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(l, _)| l)
        .ok_or(DeconvError::InvalidConfig("λ grid is empty"))
}

/// The GCV λ-selection rule of every engine:
/// score every grid point (polling `cancel` before each; a NaN grid score
/// is an error, [`check_scores`]), take the
/// LARGEST λ whose score is within 5 % of the minimum, then refine by
/// golden-section search in log₁₀λ between that point's grid neighbours
/// (interior points only; a boundary pick keeps its grid value). The
/// refined point is accepted only when it scores no worse than the grid
/// pick, and is appended to the returned scan.
///
/// The near-tie rule exists because GCV is known to undersmooth: when
/// the basis is rich relative to the measurement count the score can
/// dip spuriously at the λ → 0 boundary while the genuine minimum sits
/// in the interior, so among near-ties the most parsimonious fit wins.
pub(crate) fn gcv_select(
    grid: &[f64],
    cancel: Option<&CancelToken>,
    mut score: impl FnMut(f64) -> Result<f64>,
) -> Result<(f64, LambdaScan)> {
    let mut scores = Vec::with_capacity(grid.len() + 1);
    for &l in grid {
        check_cancel(cancel)?;
        scores.push((l, score(l)?));
    }
    check_scores(&scores)?;
    let s_min = scores.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let threshold = s_min + 0.05 * s_min.abs() + f64::MIN_POSITIVE;
    let (best_idx, best) = scores
        .iter()
        .cloned()
        .enumerate()
        .rfind(|(_, (_, s))| *s <= threshold)
        .ok_or(DeconvError::NumericalBreakdown("GCV scored no grid point"))?;
    let refined = if best_idx > 0 && best_idx + 1 < scores.len() {
        let lo = scores[best_idx - 1].0.log10();
        let hi = scores[best_idx + 1].0.log10();
        match cellsync_opt::golden_section(
            |log_l| score(10f64.powf(log_l)).unwrap_or(f64::INFINITY),
            lo,
            hi,
            1e-3,
            60,
        ) {
            Ok((log_l, s)) if s <= best.1 => {
                let l = 10f64.powf(log_l);
                scores.push((l, s));
                l
            }
            _ => best.0,
        }
    } else {
        best.0
    };
    Ok((refined, scores))
}

/// `h[a][b] += scale·Ω[a][b]` over the band of `Ω` (the entries outside
/// it are exact zeros, so skipping them changes no bit of `h`): how every
/// dense consumer (the QP Hessian, a mixture's normal matrix) reads the
/// banded penalty.
pub(crate) fn add_band_into(omega: &BandedMatrix, h: &mut Matrix, scale: f64) {
    let (n, bw) = (omega.dim(), omega.bandwidth());
    for a in 0..n {
        for b in a.saturating_sub(bw)..(a + bw + 1).min(n) {
            h[(a, b)] += scale * omega.get(a, b);
        }
    }
}

/// Everything about one fit problem that does not depend on the
/// measurements: design, penalty, constraint rows, the frame of the λ
/// scan and the fixed-λ minimizer ([`Frame`]), the λ grid and the unit
/// weights.
#[derive(Debug, Clone)]
pub(crate) struct FitOperators {
    /// Design matrix `A[m, i] = ∫Q(φ,tₘ)ψᵢ(φ)dφ` (`m × n`).
    pub(crate) design: Matrix,
    /// Roughness Gram matrix `Ω` (bandwidth 3: the basis is local).
    pub(crate) omega: BandedMatrix,
    /// Stacked equality rows with their zero right-hand side.
    pub(crate) equality: Option<(Matrix, Vector)>,
    /// The positivity collocation rows (zero right-hand side) in
    /// sparse-row storage (≤ 4 nnz per row): the O(rows) feasibility
    /// check of the frame's minimizer.
    pub(crate) positivity: Option<SparseRowMatrix>,
    /// The same rows dense, with their zero right-hand side, for the QP:
    /// built on first use ([`FitOperators::positivity_rows`]), so an
    /// engine that never runs a QP holds the rows once.
    positivity_dense: OnceLock<(Matrix, Vector)>,
    /// The λ-independent frame of the scan and the minimizer.
    pub(crate) frame: Frame,
    /// The configured λ selection.
    pub(crate) selection: LambdaSelection,
    /// The λ grid of the configured selection, computed once.
    pub(crate) lambda_grid: Vec<f64>,
    /// Unit weights, kept so `sigmas: None` fits never allocate them.
    pub(crate) unit_weights: Vec<f64>,
}

impl FitOperators {
    /// Assembles the operators and builds the frame: `design` holds one
    /// or more blocks of the basis whose Greville abscissae are
    /// `greville`, `omega` is their (block-diagonal) banded penalty.
    pub(crate) fn new(
        design: Matrix,
        omega: BandedMatrix,
        greville: &[f64],
        equality: Option<(Matrix, Vector)>,
        positivity: Option<SparseRowMatrix>,
        config: &DeconvolutionConfig,
    ) -> Result<Self> {
        let frame = Frame::new(&design, &omega, equality.as_ref().map(|(e, _)| e), greville)?;
        Ok(FitOperators {
            unit_weights: vec![1.0; design.rows()],
            design,
            omega,
            equality,
            positivity,
            positivity_dense: OnceLock::new(),
            frame,
            selection: config.lambda().clone(),
            lambda_grid: config.lambda().lambda_grid(),
        })
    }

    /// The operators of the K-block problem over `[α₁ … α_K]`, one block
    /// per design in `designs` (K = 1 is the single-population fit):
    /// design `[A₁ … A_K]`, penalty `blockdiag(Ω)`, and block-diagonal
    /// copies of the equality rows `config` enables (paper eqs. 14–19,
    /// under `params`) and of the positivity rows on the
    /// [`DeconvolutionConfig::POSITIVITY_GRID`]-point grid. Those
    /// per-block parts depend on the basis, `params` and `config` only,
    /// not on the kernel, so they are built once whatever K is.
    ///
    /// # Errors
    ///
    /// [`DeconvError::TooFewMeasurements`] for fewer than four
    /// measurements (nothing to regularize against); otherwise
    /// propagates substrate errors.
    pub(crate) fn blocks(
        designs: &[Matrix],
        basis: &SplineBasis,
        params: &CellCycleParams,
        config: &DeconvolutionConfig,
    ) -> Result<Self> {
        let (k, m, n) = (
            designs.len(),
            designs.first().map_or(0, Matrix::rows),
            basis.len(),
        );
        if m < 4 {
            return Err(DeconvError::TooFewMeasurements {
                measurements: m,
                basis: n,
            });
        }
        let omega = basis.penalty();
        let mut eq_rows = Vec::new();
        if config.conservation() {
            eq_rows.push(constraints::rna_conservation_row(basis, params)?);
        }
        if config.rate_continuity() {
            eq_rows.push(constraints::rate_continuity_row(basis, params)?);
        }
        let positivity = if config.positivity() {
            let last = (DeconvolutionConfig::POSITIVITY_GRID - 1) as f64;
            let grid: Vec<f64> = (0..DeconvolutionConfig::POSITIVITY_GRID)
                .map(|i| i as f64 / last)
                .collect();
            let rows = SparseRowMatrix::from_dense(&basis.collocation_matrix(&grid)?)?;
            Some(SparseRowMatrix::block_diagonal(&vec![&rows; k])?)
        } else {
            None
        };

        let (bw, q) = (omega.bandwidth(), eq_rows.len());
        let mut design = Matrix::zeros(m, k * n);
        let mut block_omega = BandedMatrix::zeros(k * n, bw)?;
        let mut equality = Matrix::zeros(k * q, k * n);
        for (b, block) in designs.iter().enumerate() {
            for r in 0..m {
                for j in 0..n {
                    design[(r, b * n + j)] = block[(r, j)];
                }
            }
            for i in 0..n {
                for j in i.saturating_sub(bw)..=i {
                    block_omega.set(b * n + i, b * n + j, omega.get(i, j))?;
                }
            }
            for (r, row) in eq_rows.iter().enumerate() {
                for (j, &v) in row.iter().enumerate() {
                    equality[(b * q + r, b * n + j)] = v;
                }
            }
        }
        let equality = (q > 0).then(|| (equality, Vector::zeros(k * q)));
        FitOperators::new(
            design,
            block_omega,
            &basis.greville(),
            equality,
            positivity,
            config,
        )
    }

    /// Number of coefficients `n`.
    pub(crate) fn dim(&self) -> usize {
        self.design.cols()
    }

    /// Readies `workspace` for one fit: stores the weights `1/σ` (when
    /// `sigmas` are given). Returns whether the fit is unit-weighted.
    pub(crate) fn prepare(&self, workspace: &mut FitWorkspace, sigmas: Option<&[f64]>) -> bool {
        if let Some(s) = sigmas {
            workspace.weights.clear();
            workspace.weights.extend(s.iter().map(|s| 1.0 / s));
        }
        sigmas.is_none()
    }

    /// The fit's weights: the cached unit weights, or the workspace's
    /// `1/σ` set by [`FitOperators::prepare`].
    pub(crate) fn weights<'a>(&'a self, workspace: &'a FitWorkspace, unit: bool) -> &'a [f64] {
        if unit {
            &self.unit_weights
        } else {
            &workspace.weights
        }
    }

    /// One series on these operators: its weights and data, its spectrum
    /// (which must be built for `weights`: the engine's unit-weight one,
    /// or one [`Spectrum::rebuild`] made) and the data projected onto it
    /// (into `proj`).
    pub(crate) fn series<'a>(
        &'a self,
        weights: &'a [f64],
        g: &'a [f64],
        spectrum: &'a Spectrum,
        proj: &'a mut Vec<f64>,
    ) -> Series<'a> {
        spectrum.project(weights, g, proj);
        Series {
            equality: self.equality.as_ref().map(|(e, _)| e),
            weights,
            g,
            spectrum,
            proj,
        }
    }

    /// The coefficient solve behind every fit: select λ (a
    /// `lambda_override` skips the selection; otherwise the configured
    /// fixed value, GCV over the measurement-space scan, or k-fold), then
    /// run the fixed-λ solve ([`FitOperators::solve_at`]) at that λ.
    /// Returns `(α, λ, selection scores)`.
    pub(crate) fn solve(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        unit: bool,
        lambda_override: Option<f64>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vector, f64, LambdaScan)> {
        let FitWorkspace {
            weights,
            spectrum,
            proj,
            scan,
            solve,
        } = workspace;
        let series = if unit {
            self.series(&self.unit_weights, g, &self.frame.unit, proj)
        } else {
            spectrum.rebuild(&self.frame, weights)?;
            self.series(weights, g, spectrum, proj)
        };
        let (lambda, scores) = match (lambda_override, &self.selection) {
            (Some(l), _) | (None, &LambdaSelection::Fixed(l)) => (l, Vec::new()),
            (None, LambdaSelection::Gcv { .. }) => gcv_select(&self.lambda_grid, cancel, |l| {
                self.frame.gcv_score(&series, l, scan)
            })?,
            (None, &LambdaSelection::KFold { folds, seed, .. }) => {
                self.kfold_lambda(scan, solve, &series, folds, seed, cancel)?
            }
        };
        let alpha = self.solve_at(scan, solve, &series, lambda, cancel)?;
        Ok((alpha, lambda, scores))
    }

    /// The one fixed-λ solve behind every fit, every k-fold fold and
    /// every bootstrap replicate.
    ///
    /// It builds the equality-constrained minimizer in closed form in the
    /// frame ([`Frame::minimizer`]). When that satisfies positivity,
    /// convexity makes it the optimum with zero inequality multipliers,
    /// and the QP is skipped: a feasible solve allocates only the α it
    /// returns. When positivity binds, the dense QP
    /// `min ½αᵀHα + cᵀα` over the equality and positivity rows is solved
    /// by the dual active-set method, which starts at the unconstrained
    /// minimizer and adds the equality rows and then the violated
    /// positivity rows. It stops once no row is violated beyond
    /// `1e-10·‖p‖₁·‖α‖∞`, inside the tolerance of the positivity check
    /// here ([`FitOperators::binds`]); a test pins that the α it returns
    /// passes that check. (The dense
    /// rows cost the QP nothing measurable next to its `n × n` Hessian
    /// factor: traced `genome_fine` fits read the same p50 with the
    /// sparse-row form.)
    pub(crate) fn solve_at(
        &self,
        scan: &mut ScanScratch,
        scratch: &mut SolveScratch,
        series: &Series<'_>,
        lambda: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vector> {
        let alpha = self.frame.minimizer(series, lambda, scan)?;
        if !self.binds(&alpha) {
            return Ok(alpha);
        }
        check_cancel(cancel)?;
        let SolveScratch { qp, h, c, w2g } = scratch;
        self.hessian(series.weights, lambda, h)?;
        self.linear_term_into(series.weights, series.g, w2g, c)?;
        let mut problem = QpProblem::new(h, c)?;
        if let Some(token) = cancel {
            problem = problem.with_cancel(token.clone());
        }
        if let Some((e, rhs)) = &self.equality {
            problem = problem.with_equalities(e, rhs)?;
        }
        if let Some((p, rhs)) = self.positivity_rows() {
            problem = problem.with_inequalities(p, rhs)?;
        }
        Ok(qp.solve(&problem)?.x)
    }

    /// Whether `alpha` violates a positivity row by more than
    /// `1e-9·(1 + ‖α‖∞)`, checked row by row.
    pub(crate) fn binds(&self, alpha: &Vector) -> bool {
        let tol = 1e-9 * (1.0 + alpha.norm_inf());
        self.positivity
            .as_ref()
            .is_some_and(|p| (0..p.rows()).any(|r| p.row_dot(r, alpha.as_slice()) < -tol))
    }

    /// The dense positivity rows with their zero right-hand side, as the
    /// QP takes them; `None` without positivity.
    pub(crate) fn positivity_rows(&self) -> Option<&(Matrix, Vector)> {
        let sparse = self.positivity.as_ref()?;
        Some(
            self.positivity_dense
                .get_or_init(|| (sparse.to_dense(), Vector::zeros(sparse.rows()))),
        )
    }

    /// The QP Hessian `H = 2(AᵀW²A + λ̄Ω + ε·R)` for weights `weights`,
    /// with `λ̄ = max(λ, ε)` and `R` holding `NᵀN` on each block's end
    /// coefficients, symmetrized, written into `h` (resized when needed):
    /// the Hessian of every constrained solve ([`FitOperators::solve_at`])
    /// and of a harvested QP — the single site for the scale/ridge
    /// convention. It is positive definite for any data.
    pub(crate) fn hessian(&self, weights: &[f64], lambda: f64, h: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if h.shape() != (n, n) {
            h.reset_zeroed(n, n);
        }
        self.design.weighted_gram_into(weights, h)?;
        add_band_into(&self.omega, h, floored(lambda));
        self.frame.add_null_ridge(h, 1.0);
        for v in h.as_mut_slice() {
            *v *= 2.0;
        }
        h.symmetrize()?;
        Ok(())
    }

    /// The positivity rows active at `alpha` — `|P·α| ≤ 10⁻⁸·(1 + ‖α‖∞)` —
    /// recorded as a harvested QP's active hint. Empty without
    /// positivity.
    pub(crate) fn warm_active_rows(&self, alpha: &Vector) -> Result<Vec<usize>> {
        let Some(p) = &self.positivity else {
            return Ok(Vec::new());
        };
        let px = p.matvec(alpha)?;
        let scale = 1.0 + alpha.norm_inf();
        Ok((0..px.len())
            .filter(|&i| px[i].abs() <= 1e-8 * scale)
            .collect())
    }

    /// K-fold cross-validated λ selection. The folds are drawn once; a
    /// training fold is the series with zero weight on its held-out rows,
    /// with its own spectrum (decomposed once per fold), so every
    /// (λ, fold) pair is one fixed-λ solve ([`FitOperators::solve_at`])
    /// with the full constraint set. A λ scores the mean held-out
    /// weighted squared error `(wᵥ·(Aᵥ·α − gᵥ))²` over all folds.
    fn kfold_lambda(
        &self,
        scan: &mut ScanScratch,
        scratch: &mut SolveScratch,
        series: &Series<'_>,
        folds: usize,
        seed: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<(f64, LambdaScan)> {
        let m = self.design.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let folds = cellsync_stats::crossval::k_fold(m, folds.min(m), &mut rng)?;
        let mut masked = series.weights.to_vec();
        let (mut spectrum, mut proj) = (Spectrum::default(), Vec::new());
        let mut totals = vec![0.0; self.lambda_grid.len()];
        let mut count = 0usize;
        for fold in &folds {
            masked.copy_from_slice(series.weights);
            for &v in &fold.validation {
                masked[v] = 0.0;
            }
            spectrum.rebuild(&self.frame, &masked)?;
            let train = self.series(&masked, series.g, &spectrum, &mut proj);
            for (total, &l) in totals.iter_mut().zip(&self.lambda_grid) {
                check_cancel(cancel)?;
                let alpha = self.solve_at(scan, scratch, &train, l, cancel)?;
                for &v in &fold.validation {
                    let pred = dot(self.design.row(v), alpha.as_slice());
                    let r = series.weights[v] * (pred - series.g[v]);
                    *total += r * r;
                }
            }
            count += fold.validation.len();
        }
        let scores: LambdaScan = self
            .lambda_grid
            .iter()
            .zip(totals)
            .map(|(&l, total)| (l, total / count as f64))
            .collect();
        Ok((argmin_score(&scores)?, scores))
    }

    /// The QP linear term `c = −2·AᵀW²g` for weights `weights` and data
    /// `g`, written into `c` with `w2g` as scratch (both resized when
    /// needed): the linear term of every constrained solve
    /// ([`FitOperators::solve_at`]) and of a harvested QP.
    pub(crate) fn linear_term_into(
        &self,
        weights: &[f64],
        g: &[f64],
        w2g: &mut Vector,
        c: &mut Vector,
    ) -> Result<()> {
        let (m, n) = self.design.shape();
        if (w2g.len(), c.len()) != (m, n) {
            (*w2g, *c) = (Vector::zeros(m), Vector::zeros(n));
        }
        for (w2, (&wi, &gi)) in w2g
            .as_mut_slice()
            .iter_mut()
            .zip(weights.iter().zip(g.iter()))
        {
            *w2 = wi * wi * gi;
        }
        self.design.tr_matvec_into(w2g, c)?;
        c.scale_in_place(-2.0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Deconvolver, ForwardModel, PhaseProfile};
    use cellsync_popsim::{CellCycleParams, InitialCondition, KernelEstimator, Population};

    #[test]
    fn gcv_select_refuses_a_nan_grid_score() {
        // GCV shares k-fold's rule for a broken score: NaN at one interior
        // grid point is a structured error, not a silently skipped point.
        let grid = [1e-4, 1e-3, 1e-2, 1e-1, 1.0];
        let bowl = |l: f64| (l.log10() + 2.5).powi(2) + 1.0;
        let broken = |l: f64| Ok(if l == 1e-2 { f64::NAN } else { bowl(l) });
        let err = gcv_select(&grid, None, broken).unwrap_err();
        assert_eq!(err.code(), "numerical_breakdown");
        let (lambda, scores) = gcv_select(&grid, None, |l| Ok(bowl(l))).unwrap();
        assert!(lambda > 1e-3 && lambda < 1e-1, "λ = {lambda:e}");
        assert!(scores.len() >= grid.len());
    }

    #[test]
    fn fold_solve_matches_the_training_rows_problem() {
        // A k-fold training fold is the fit with zero weight on its
        // held-out rows: its fixed-λ solve must be the fit of the
        // operators built from the training rows alone, at a small and a
        // large basis, with and without binding positivity.
        let params = CellCycleParams::caulobacter().unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let pop =
            Population::synchronized(2_000, &params, InitialCondition::UniformSwarmer, &mut rng)
                .unwrap()
                .simulate_until(150.0)
                .unwrap();
        let times: Vec<f64> = (0..14).map(|i| 150.0 * i as f64 / 13.0).collect();
        let kernel = KernelEstimator::new(64)
            .unwrap()
            .estimate(&pop, &times)
            .unwrap();
        let truths = [
            PhaseProfile::from_fn(200, |phi| 2.0 + (2.0 * std::f64::consts::PI * phi).sin())
                .unwrap(),
            PhaseProfile::from_fn(200, |phi| {
                (2.0 * std::f64::consts::PI * phi).sin() * 1.5 - 0.3
            })
            .unwrap(),
        ];
        let held_out = [1, 6, 10];
        let lambda = 1e-4;
        for basis in [24, 128] {
            let config = DeconvolutionConfig::builder()
                .basis_size(basis)
                .conservation(true)
                .rate_continuity(true)
                .lambda(lambda)
                .build()
                .unwrap();
            let engine = Deconvolver::new(kernel.clone(), config.clone()).unwrap();
            let ops = engine.operators();
            let (m, n) = ops.design.shape();
            let train: Vec<usize> = (0..m).filter(|i| !held_out.contains(i)).collect();
            let train_ops = FitOperators::new(
                Matrix::from_fn(train.len(), n, |r, j| ops.design[(train[r], j)]),
                ops.omega.clone(),
                &engine.basis().greville(),
                ops.equality.clone(),
                ops.positivity.clone(),
                &config,
            )
            .unwrap();
            let sigmas: Vec<f64> = (0..m).map(|i| 0.05 + 0.01 * (i % 4) as f64).collect();
            let weights: Vec<f64> = sigmas.iter().map(|s| 1.0 / s).collect();
            let mut masked = weights.clone();
            for &v in &held_out {
                masked[v] = 0.0;
            }
            for truth in &truths {
                let g = ForwardModel::new(kernel.clone()).predict(truth).unwrap();
                let mut workspace = FitWorkspace::new();
                ops.prepare(&mut workspace, None);
                let FitWorkspace {
                    spectrum,
                    proj,
                    scan,
                    solve,
                    ..
                } = &mut workspace;
                spectrum.rebuild(&ops.frame, &masked).unwrap();
                let series = ops.series(&masked, &g, spectrum, proj);
                let fold = ops.solve_at(scan, solve, &series, lambda, None).unwrap();

                let g_train: Vec<f64> = train.iter().map(|&i| g[i]).collect();
                let s_train: Vec<f64> = train.iter().map(|&i| sigmas[i]).collect();
                let mut workspace = FitWorkspace::new();
                let unit = train_ops.prepare(&mut workspace, Some(&s_train));
                let (direct, _, _) = train_ops
                    .solve(&mut workspace, &g_train, unit, None, None)
                    .unwrap();
                let scale = 1.0 + direct.norm_inf();
                let diff = (&fold - &direct).norm_inf();
                assert!(
                    diff <= 1e-10 * scale,
                    "basis {basis}: fold vs training-rows solve {diff:e} (scale {scale:e})"
                );
            }
        }
    }
}
