//! The measurement-independent operators of one penalized, constrained
//! least-squares problem (paper eq. 5) and the fit over them: the one
//! place that decides how a fit is solved (dense spectral path or banded
//! Woodbury path, then the constrained QP) and builds every QP.
//!
//! [`crate::Deconvolver`] owns one [`FitOperators`] built from its basis
//! and kernel. [`crate::mixture::MixtureDeconvolver`] owns a *stacked*
//! one: the K-component mixture is the same problem with the block
//! design `[A₁ … A_K]`, a block-diagonal penalty and block-diagonal
//! constraint rows, so it is fitted by the very same λ rule
//! ([`gcv_select`] over the spectral path, or k-fold) and the same
//! constrained solve.

use cellsync_linalg::{BandedMatrix, Matrix, Vector};
use cellsync_opt::{QpProblem, QpWorkspace};
use cellsync_runtime::CancelToken;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::banded::{BandedFit, BandedOperators};
use crate::config::LambdaSelection;
use crate::solver::{ReducedOperators, SpectralPath};
use crate::{DeconvError, DeconvolutionConfig, FitWorkspace, Result};

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

/// The λ with the smallest score in a `(λ, score)` scan (the first on
/// ties). A NaN score means the selection criterion broke down, which is
/// an error rather than a silently skipped grid point.
pub(crate) fn argmin_score(scores: &[(f64, f64)]) -> Result<f64> {
    if scores.iter().any(|(_, s)| s.is_nan()) {
        return Err(DeconvError::NumericalBreakdown(
            "cross-validation score is NaN",
        ));
    }
    scores
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|&(l, _)| l)
        .ok_or(DeconvError::InvalidConfig("λ grid is empty"))
}

/// The GCV λ-selection rule shared by the spectral and banded paths:
/// score every grid point (polling `cancel` before each), take the
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
/// measurements: design, penalty, constraint rows, the interior
/// direction, the equality-reduced operators with their unit-weight
/// spectral decomposition (dense path) or the banded operators (banded
/// path), the λ grid and the unit weights.
#[derive(Debug, Clone)]
pub(crate) struct FitOperators {
    /// Design matrix `A[m, i] = ∫Q(φ,tₘ)ψᵢ(φ)dφ` (`m × n`).
    pub(crate) design: Matrix,
    /// Roughness Gram matrix `Ω` (bandwidth 3: the basis is local).
    pub(crate) omega: BandedMatrix,
    /// Stacked equality rows with their zero right-hand side.
    pub(crate) equality: Option<(Matrix, Vector)>,
    /// Positivity collocation matrix with its zero right-hand side.
    pub(crate) positivity: Option<(Matrix, Vector)>,
    /// Interior direction of the constraint set (`E·d = 0`, `P·d > 0`;
    /// [`crate::constraints::interior_direction`]), handed to every QP
    /// so cold solves start strictly inside the positivity cone. `None`
    /// without positivity, or when the equalities admit no such
    /// direction (the QP then starts at the origin).
    pub(crate) interior: Option<Vector>,
    /// Equality-nullspace-reduced design and penalty. Built only for
    /// dense-path GCV selection — the only consumer of the reduction.
    pub(crate) reduced: Option<ReducedOperators>,
    /// Factor-once spectral decomposition for unit weights (weighted fits
    /// build their own, once per fit, reused across the whole λ path).
    /// Built exactly when `reduced` is.
    pub(crate) spectral_unit: Option<SpectralPath>,
    /// Banded-path operators (interior Ω, null-space basis, sparse
    /// positivity rows). `Some` exactly when fits execute on the banded
    /// path ([`crate::banded`]).
    pub(crate) banded: Option<BandedOperators>,
    /// The configured λ selection.
    pub(crate) selection: LambdaSelection,
    /// The λ grid of the configured selection, computed once.
    pub(crate) lambda_grid: Vec<f64>,
    /// Unit weights, kept so `sigmas: None` fits never allocate them.
    pub(crate) unit_weights: Vec<f64>,
}

impl FitOperators {
    /// Assembles the operators and builds the λ-path structures the
    /// configured selection reads. The nullspace reduction and the
    /// spectral decomposition only serve the dense GCV scan, so the
    /// `O(n³)` setup is skipped everywhere else (fixed-λ, k-fold, the
    /// banded path).
    pub(crate) fn new(
        design: Matrix,
        omega: BandedMatrix,
        equality: Option<(Matrix, Vector)>,
        positivity: Option<(Matrix, Vector)>,
        interior: Option<Vector>,
        banded: Option<BandedOperators>,
        config: &DeconvolutionConfig,
    ) -> Result<Self> {
        let unit_weights = vec![1.0; design.rows()];
        let gcv = matches!(config.lambda(), LambdaSelection::Gcv { .. });
        let (reduced, spectral_unit) = if gcv && banded.is_none() {
            let ops = ReducedOperators::new(
                &design,
                &omega.to_dense(),
                equality.as_ref().map(|(e, _)| e),
            )?;
            let spectral = SpectralPath::new(&ops, &unit_weights)?;
            (Some(ops), Some(spectral))
        } else {
            (None, None)
        };
        Ok(FitOperators {
            design,
            omega,
            equality,
            positivity,
            interior,
            reduced,
            spectral_unit,
            banded,
            selection: config.lambda().clone(),
            lambda_grid: config.lambda().lambda_grid(),
            unit_weights,
        })
    }

    /// The operators of the block problem over `[α₁ … α_K]`: design
    /// `[A₁ … A_K]`, penalty `blockdiag(Ωₖ)` (banded like its blocks), and
    /// block-diagonal equality and positivity rows, in the order of
    /// `blocks`. The blocks' interior directions, stacked, are an
    /// interior direction of the block-diagonal constraint set. Every
    /// block must share one configuration (`config`), so they agree on
    /// the measurement count, basis size and constraint rows.
    pub(crate) fn stacked(blocks: &[&FitOperators], config: &DeconvolutionConfig) -> Result<Self> {
        let m = blocks[0].design.rows();
        let n = blocks[0].design.cols();
        let kn = blocks.len() * n;
        let block_diag = |part: fn(&FitOperators) -> Option<&Matrix>| {
            let rows = part(blocks[0])?.rows();
            let mut stacked = Matrix::zeros(blocks.len() * rows, kn);
            for (b, block) in blocks.iter().enumerate() {
                let rows_b = part(block).expect("blocks share one config");
                for r in 0..rows {
                    for j in 0..n {
                        stacked[(b * rows + r, b * n + j)] = rows_b[(r, j)];
                    }
                }
            }
            let rhs = Vector::zeros(stacked.rows());
            Some((stacked, rhs))
        };

        let bw = blocks[0].omega.bandwidth();
        let mut design = Matrix::zeros(m, kn);
        let mut omega = BandedMatrix::zeros(kn, bw)?;
        for (b, block) in blocks.iter().enumerate() {
            for r in 0..m {
                for j in 0..n {
                    design[(r, b * n + j)] = block.design[(r, j)];
                }
            }
            for i in 0..n {
                for j in i.saturating_sub(bw)..=i {
                    omega.set(b * n + i, b * n + j, block.omega.get(i, j))?;
                }
            }
        }
        let equality = block_diag(|o| o.equality.as_ref().map(|(e, _)| e));
        let positivity = block_diag(|o| o.positivity.as_ref().map(|(p, _)| p));
        let interior = blocks
            .iter()
            .map(|o| o.interior.as_ref().map(Vector::as_slice))
            .collect::<Option<Vec<_>>>()
            .map(|parts| Vector::from_slice(&parts.concat()));
        FitOperators::new(design, omega, equality, positivity, interior, None, config)
    }

    /// Number of coefficients `n`.
    pub(crate) fn dim(&self) -> usize {
        self.design.cols()
    }

    /// Readies `workspace` for one fit: stores the weights `1/σ` (when
    /// `sigmas` are given) and sizes every buffer. Returns whether the
    /// fit is unit-weighted.
    pub(crate) fn prepare(&self, workspace: &mut FitWorkspace, sigmas: Option<&[f64]>) -> bool {
        if let Some(s) = sigmas {
            workspace.weights.clear();
            workspace.weights.extend(s.iter().map(|s| 1.0 / s));
        }
        let reduced = self
            .reduced
            .as_ref()
            .map_or(0, ReducedOperators::reduced_dim);
        workspace.ensure(self.design.rows(), self.dim(), reduced);
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

    /// The coefficient solve behind every fit, on the path the operators
    /// were built for: select λ (a `lambda_override` skips the selection;
    /// otherwise the configured fixed value, GCV on the banded
    /// capacitance or on the spectral path, or k-fold), then solve the
    /// constrained problem at that λ. Returns `(α, λ, selection scores)`.
    ///
    /// Banded operators solve the equality-constrained minimizer by
    /// Woodbury ([`crate::banded`]). When it is feasible, convexity makes
    /// it the optimum with zero inequality multipliers and the QP is
    /// skipped; when positivity binds, it is not the optimum, and the
    /// active-set QP at the selected λ starts from it.
    ///
    /// Dense GCV fits get a deterministic warm hint for the constrained
    /// solve: the spectral path's own unconstrained minimizer at the
    /// selected λ. It is a pure function of (operators, data, λ) — never
    /// of workspace history — so batch results stay order- and
    /// thread-invariant. When it violates positivity the QP moves it
    /// inside along the interior direction instead. A λ override never
    /// ran the sweep, so it carries no hint.
    pub(crate) fn solve(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        unit: bool,
        lambda_override: Option<f64>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Vector, f64, LambdaScan)> {
        let banded = self.banded.as_ref().map(|bops| {
            let eq = self.equality.as_ref().map(|(e, _)| e);
            let weights = self.weights(workspace, unit);
            let fit = BandedFit::new(bops, &self.design, weights, g, eq);
            (bops, fit)
        });
        let (lambda, scores) = match (lambda_override, &self.selection) {
            (Some(l), _) | (None, &LambdaSelection::Fixed(l)) => (l, Vec::new()),
            (None, LambdaSelection::Gcv { .. }) => match &banded {
                Some((_, fit)) => gcv_select(&self.lambda_grid, cancel, |l| fit.gcv_score(l))?,
                None => self.gcv_lambda(workspace, g, unit, cancel)?,
            },
            (None, &LambdaSelection::KFold { folds, seed, .. }) => {
                self.kfold_lambda(workspace, g, unit, folds, seed, cancel)?
            }
        };
        let hint = match &banded {
            Some((bops, fit)) => {
                let alpha = fit.solve(lambda)?;
                let tol = 1e-9 * (1.0 + alpha.norm_inf());
                let binds = match &bops.positivity {
                    Some((p, _)) => p.matvec(&alpha)?.iter().any(|&v| v < -tol),
                    None => false,
                };
                if !binds {
                    return Ok((alpha, lambda, scores));
                }
                Some(alpha)
            }
            None if lambda_override.is_none() => {
                self.spectral_warm_hint(workspace, unit, lambda)?
            }
            None => None,
        };
        let alpha = self.solve_constrained_full(workspace, g, unit, lambda, hint, cancel)?;
        Ok((alpha, lambda, scores))
    }

    /// The QP Hessian `H = 2(AᵀW²A + λΩ + εI)` for weights `weights`,
    /// written into `h` (resized when needed): the Hessian of every fit,
    /// of the bootstrap's once-per-band replicate solves and of a
    /// harvested QP.
    pub(crate) fn hessian(&self, weights: &[f64], lambda: f64, h: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if h.shape() != (n, n) {
            h.reset_zeroed(n, n);
        }
        self.design.weighted_gram_into(weights, h)?;
        self.assemble_hessian(h, lambda)
    }

    /// Turns `h` (holding `BᵀB` on entry) into the QP Hessian
    /// `H = 2(BᵀB + λΩ + εI)`, symmetrized — the single site for the
    /// scale/ridge convention.
    fn assemble_hessian(&self, h: &mut Matrix, lambda: f64) -> Result<()> {
        let n = self.dim();
        add_band_into(&self.omega, h, lambda);
        for i in 0..n {
            for j in 0..n {
                h[(i, j)] *= 2.0;
            }
            h[(i, i)] += 2.0 * DeconvolutionConfig::RIDGE;
        }
        h.symmetrize()?;
        Ok(())
    }

    /// The constrained QP `min ½xᵀHx + cᵀx` over the operators'
    /// constraint set: the equality rows, the positivity rows (banded
    /// operators add the sparse-row collocation block, ≤ 4 nnz per row,
    /// for the QP's matvecs next to the dense rows) and the interior
    /// direction, so cold solves start strictly inside the positivity
    /// cone. The one QP builder behind fits and bootstrap replicates.
    pub(crate) fn constrained_problem<'a>(
        &'a self,
        h: &'a Matrix,
        c: &'a Vector,
        cancel: Option<&CancelToken>,
    ) -> Result<QpProblem<'a>> {
        let mut problem = QpProblem::new(h, c)?;
        if let Some(token) = cancel {
            problem = problem.with_cancel(token.clone());
        }
        if let Some((e, rhs)) = &self.equality {
            problem = problem.with_equalities(e, rhs)?;
        }
        if let Some((p, rhs)) = &self.positivity {
            problem = match self.banded.as_ref().and_then(|b| b.positivity.as_ref()) {
                Some((sp, srhs)) => problem.with_inequalities_sparse(sp, p, srhs)?,
                None => problem.with_inequalities(p, rhs)?,
            };
        }
        if let Some(d) = &self.interior {
            problem = problem.with_interior_direction(d);
        }
        Ok(problem)
    }

    /// The positivity rows active at `alpha` — `|P·α|` within the QP's
    /// warm-activity tolerance, scaled by `1 + ‖α‖∞` — which seed the
    /// active set of a solve warm-started at `alpha`. Empty without
    /// positivity.
    pub(crate) fn warm_active_rows(&self, alpha: &Vector) -> Result<Vec<usize>> {
        let Some((p, _)) = &self.positivity else {
            return Ok(Vec::new());
        };
        let px = p.matvec(alpha)?;
        let scale = 1.0 + alpha.norm_inf();
        Ok((0..px.len())
            .filter(|&i| px[i].abs() <= QpWorkspace::WARM_ACTIVITY_TOL * scale)
            .collect())
    }

    /// The deterministic warm hint of a GCV fit: the unconstrained
    /// spectral solution `α = Z·T·(zproj ⊙ s(λ))` at the selected λ
    /// (`None` for non-GCV selections, whose workspaces hold no spectral
    /// projection). The QP validates feasibility at solve time: a hint
    /// that violates positivity becomes the base point of the interior
    /// start (see [`FitOperators::solve_assembled`]).
    fn spectral_warm_hint(
        &self,
        workspace: &mut FitWorkspace,
        unit: bool,
        lambda: f64,
    ) -> Result<Option<Vector>> {
        if !matches!(self.selection, LambdaSelection::Gcv { .. }) {
            return Ok(None);
        }
        if self.equality.is_none() && self.positivity.is_none() {
            return Ok(None); // direct SPD solve path: no QP to warm.
        }
        let FitWorkspace {
            spectral,
            zproj,
            d,
            beta,
            ..
        } = workspace;
        let path: &SpectralPath = if unit {
            self.spectral_unit
                .as_ref()
                .expect("GCV operators build the unit-weight decomposition")
        } else {
            spectral
        };
        path.reduced_solution(zproj, lambda, d, beta)?;
        let ops = self
            .reduced
            .as_ref()
            .expect("dense GCV operators build the reduction");
        let alpha = match &ops.z {
            Some(z) => z.matvec(beta)?,
            None => beta.clone(),
        };
        Ok(Some(alpha))
    }

    /// GCV λ selection on the spectral path ([`gcv_select`]), every
    /// score a diagonal shrinkage.
    fn gcv_lambda(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        unit: bool,
        cancel: Option<&CancelToken>,
    ) -> Result<(f64, LambdaScan)> {
        let ops = self
            .reduced
            .as_ref()
            .expect("dense GCV operators build the reduction");
        if !unit {
            workspace.spectral.rebuild(ops, &workspace.weights)?;
        }
        let FitWorkspace {
            spectral,
            weights,
            w2g,
            rhs_r,
            zproj,
            d,
            beta,
            u,
            ..
        } = workspace;
        let weights: &[f64] = if unit { &self.unit_weights } else { weights };
        let path: &SpectralPath = if unit {
            self.spectral_unit
                .as_ref()
                .expect("GCV operators build the unit-weight decomposition")
        } else {
            spectral
        };
        path.project_series(ops, weights, g, w2g, rhs_r, zproj)?;
        gcv_select(&self.lambda_grid, cancel, |l| {
            path.gcv_score(ops, weights, g, zproj, l, d, beta, u)
        })
    }

    /// K-fold cross-validated λ selection: refit (with the full
    /// constraint set) on each training fold and score the held-out
    /// weighted squared error. The fold designs differ per fold, so this
    /// path stays dense — it reuses the workspace's assembly buffers but
    /// factors per (fold, λ).
    fn kfold_lambda(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        unit: bool,
        folds: usize,
        seed: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<(f64, LambdaScan)> {
        let m = self.design.rows();
        // Weighted design and data: B = W·A, y = W·g (cloned out of the
        // workspace so the per-fold solves below can borrow it mutably).
        let weights = self.weights(workspace, unit).to_vec();
        let b = Matrix::from_fn(m, self.dim(), |r, c| weights[r] * self.design[(r, c)]);
        let y = Vector::from_fn(m, |i| weights[i] * g[i]);

        let mut scores = Vec::with_capacity(self.lambda_grid.len());
        for &l in &self.lambda_grid {
            check_cancel(cancel)?;
            scores.push((
                l,
                self.kfold_score(workspace, &b, &y, l, folds, seed, cancel)?,
            ));
        }
        Ok((argmin_score(&scores)?, scores))
    }

    /// Mean held-out weighted squared error of the constrained fit at one
    /// λ.
    #[allow(clippy::too_many_arguments)]
    fn kfold_score(
        &self,
        workspace: &mut FitWorkspace,
        b: &Matrix,
        y: &Vector,
        lambda: f64,
        folds: usize,
        seed: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<f64> {
        let m = b.rows();
        let mut rng = StdRng::seed_from_u64(seed);
        let folds = cellsync_stats::crossval::k_fold(m, folds.min(m), &mut rng)?;
        let mut total = 0.0;
        let mut count = 0usize;
        for fold in &folds {
            let bt = Matrix::from_fn(fold.train.len(), self.dim(), |r, c| b[(fold.train[r], c)]);
            let yt = Vector::from_fn(fold.train.len(), |r| y[fold.train[r]]);
            let alpha = self.solve_constrained_dense(workspace, &bt, &yt, lambda, cancel)?;
            for &v in &fold.validation {
                let pred = Vector::from_slice(b.row(v)).dot(&alpha)?;
                total += (pred - y[v]).powi(2);
                count += 1;
            }
        }
        Ok(total / count as f64)
    }

    /// Solves the constrained QP at `lambda` for the operators' own
    /// design and the given data, assembling `H` and `c = −2BᵀW²g`
    /// straight from the unweighted design (the weighted design is never
    /// materialized).
    fn solve_constrained_full(
        &self,
        workspace: &mut FitWorkspace,
        g: &[f64],
        unit: bool,
        lambda: f64,
        hint: Option<Vector>,
        cancel: Option<&CancelToken>,
    ) -> Result<Vector> {
        {
            let FitWorkspace {
                h, c, w2g, weights, ..
            } = workspace;
            let weights: &[f64] = if unit { &self.unit_weights } else { weights };
            self.hessian(weights, lambda, h)?;
            self.linear_term_into(weights, g, w2g, c)?;
        }
        self.solve_assembled(workspace, hint, cancel)
    }

    /// The QP linear term `c = −2·AᵀW²g` for weights `weights` and data
    /// `g`, written into `c` with `w2g` (length m) as scratch: the linear
    /// term of every fit, of each bootstrap replicate and of a harvested
    /// QP.
    pub(crate) fn linear_term_into(
        &self,
        weights: &[f64],
        g: &[f64],
        w2g: &mut Vector,
        c: &mut Vector,
    ) -> Result<()> {
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

    /// Solves the constrained QP at `lambda` for an explicit weighted
    /// design `b` and data `y` (the k-fold path, where folds subset the
    /// rows).
    fn solve_constrained_dense(
        &self,
        workspace: &mut FitWorkspace,
        b: &Matrix,
        y: &Vector,
        lambda: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<Vector> {
        let n = self.dim();
        if workspace.h.shape() != (n, n) {
            workspace.h.reset_zeroed(n, n);
        }
        b.gram_into(&mut workspace.h)?;
        self.assemble_hessian(&mut workspace.h, lambda)?;
        b.tr_matvec_into(y, &mut workspace.c)?;
        workspace.c.scale_in_place(-2.0);
        self.solve_assembled(workspace, None, cancel)
    }

    /// Core constrained solve: expects the Hessian `workspace.h = H` and
    /// the linear term `workspace.c = −2Bᵀy`, and dispatches to the
    /// direct SPD solve or the active-set QP. The QP
    /// gets the interior direction, so it starts at `hint` when that is
    /// feasible, else at `hint` (or the equality-constrained minimizer
    /// when there is no hint) moved strictly inside the positivity cone —
    /// never at the degenerate origin unless the constraints admit no
    /// interior direction.
    fn solve_assembled(
        &self,
        workspace: &mut FitWorkspace,
        hint: Option<Vector>,
        cancel: Option<&CancelToken>,
    ) -> Result<Vector> {
        check_cancel(cancel)?;
        let n = self.dim();

        if self.equality.is_none() && self.positivity.is_none() {
            // Pure smoothing spline: direct SPD solve (the workspace's
            // Cholesky storage is re-factored in place, never reused
            // stale — H changes with λ and data).
            match &mut workspace.chol {
                Some(chol) => chol.refactor(&workspace.h)?,
                None => workspace.chol = Some(workspace.h.cholesky()?),
            }
            let mut x = Vector::from_fn(n, |i| -workspace.c[i]);
            workspace
                .chol
                .as_ref()
                .expect("just ensured")
                .solve_in_place(&mut x)?;
            return Ok(x);
        }

        let FitWorkspace { h, c, qp, .. } = workspace;
        // H differs per call in fit context and fits must be independent
        // of workspace history: drop the cached factor and replace any
        // warm hint with the (history-free) spectral one, if supplied.
        qp.invalidate_hessian();
        match hint {
            Some(x0) => qp.set_warm_start(x0, Vec::new()),
            None => qp.clear_warm_start(),
        }
        Ok(qp.solve(&self.constrained_problem(h, c, cancel)?)?.x)
    }
}
