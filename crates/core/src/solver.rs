//! The workspace-based λ-path solver core behind [`crate::Deconvolver`].
//!
//! The λ-selection scan of paper eq. 5 evaluates the GCV score of the
//! penalized smoother `S(λ) = B(BᵀB + λΩ + εI)⁻¹Bᵀ` at dozens of λ
//! values (grid scan plus golden-section refinement) for every fitted
//! series. Re-factorizing the penalized normal matrix per λ costs
//! `O(basis³)` each; this module factors **once** per (design, weights)
//! pair instead:
//!
//! 1. Reduce out the equality constraints: `α = Z·β` with `Z` an
//!    orthonormal basis of `null(E)` ([`ReducedOperators`]), giving the
//!    reduced design `A_r = A·Z` and penalty `Ω_r = ZᵀΩZ`.
//! 2. Decompose the symmetric-definite pencil `(Ω_r, G_r + μΩ_r)` with
//!    `G_r = A_rᵀW²A_r + εI` and a fixed conditioning anchor μ once
//!    ([`cellsync_linalg::GeneralizedSymmetricEigen`]): a basis `T` with
//!    `Tᵀ(G_r + μΩ_r)T = I`, `TᵀΩ_rT = diag(γ)` — the Demmler–Reinsch
//!    basis of the weighted smoother ([`SpectralPath`], which documents
//!    why the anchor is needed and why the shifted algebra is exact).
//! 3. Every λ then costs a diagonal shrinkage: the smoother trace is the
//!    `O(r)` sum `Σᵢ effᵢ/(1 + (λ−μ)γᵢ)` and the residual needs one
//!    `O(r²)` basis rotation plus one `O(m·r)` prediction — no
//!    factorization, no allocation.
//!
//! [`FitWorkspace`] carries the per-thread scratch (shrinkage buffers,
//! QP workspace, assembled Hessian) that [`crate::Deconvolver::fit_many`]
//! hands to each worker via
//! [`cellsync_runtime::Pool::par_map_with`]. See `docs/SOLVER.md` for the
//! full derivation.

use cellsync_linalg::{GeneralizedSymmetricEigen, Matrix, Vector};
use cellsync_opt::QpWorkspace;

use crate::{DeconvError, DeconvolutionConfig, Result};

/// Weight-independent reduced operators, built once per engine.
#[derive(Debug, Clone)]
pub(crate) struct ReducedOperators {
    /// Orthonormal basis `Z` of the equality-constraint null space
    /// (`None` means no equality constraints, i.e. `Z = I`). Consumed by
    /// the warm-hint path (`α = Z·β` lifts the reduced spectral solution
    /// back to coefficient space) and by tests pinning `E·Z = 0`.
    pub(crate) z: Option<Matrix>,
    /// Reduced design `A·Z` (`m × r`; the design itself when `Z = I`).
    pub(crate) a_r: Matrix,
    /// Reduced roughness penalty `ZᵀΩZ` (`r × r`), symmetrized.
    pub(crate) omega_r: Matrix,
}

impl ReducedOperators {
    /// Builds the reduced operators for a design, penalty, and optional
    /// stacked equality rows `E` (the fit then searches `null(E)` only).
    pub(crate) fn new(design: &Matrix, omega: &Matrix, equality: Option<&Matrix>) -> Result<Self> {
        match equality {
            None => Ok(ReducedOperators {
                z: None,
                a_r: design.clone(),
                omega_r: omega.clone(),
            }),
            Some(e) => {
                let z = e.transpose().qr()?.null_space_basis(1e-12).ok_or(
                    DeconvError::InvalidConfig("equality constraints leave no degrees of freedom"),
                )?;
                let a_r = design.matmul(&z)?;
                let mut omega_r = z.transpose().matmul(&omega.matmul(&z)?)?;
                omega_r.symmetrize()?;
                Ok(ReducedOperators {
                    z: Some(z),
                    a_r,
                    omega_r,
                })
            }
        }
    }

    /// Dimension `r` of the reduced coefficient space.
    pub(crate) fn reduced_dim(&self) -> usize {
        self.a_r.cols()
    }
}

/// The factor-once spectral decomposition of the reduced pencil for one
/// weight vector — everything λ-independent about the GCV smoother.
///
/// The decomposition is anchored at a fixed interior shift μ: the pencil
/// is `(Ω_r, G_r + μΩ_r)` rather than `(Ω_r, G_r)`, because `G_r` alone
/// is numerically singular whenever the basis outnumbers the
/// measurements (its small eigenvalues collapse onto the tiny ridge ε,
/// condition number ~ `‖AᵀA‖/ε`), which poisons the reduction to
/// ordinary-eigenvalue form. Adding `μΩ_r` fills exactly the directions
/// `G_r` is blind to (rough ones), so the metric stays well-conditioned;
/// `μ = tr(G_r)/tr(Ω_r)` balances the two operators scale-free. The
/// shifted algebra is exact, not an approximation:
/// `K(λ) = G_r + λΩ_r = (G_r + μΩ_r) + (λ−μ)Ω_r`, so with
/// `Tᵀ(G_r + μΩ_r)T = I` and `TᵀΩ_rT = diag(γ)`,
/// `K(λ)⁻¹ = T·diag(1/(1 + (λ−μ)γᵢ))·Tᵀ` — and the denominators equal
/// `(g + λω)/(g + μω) > 0` per eigendirection, positive for every λ > 0.
///
/// A weighted fit needs its own decomposition per weight vector;
/// [`SpectralPath::rebuild`] redoes it inside the path's existing buffers
/// (the one [`FitWorkspace`] keeps), so a genome of σ-weighted series
/// allocates nothing per gene. The [`Default`] value is an empty path to
/// rebuild into.
#[derive(Debug, Clone, Default)]
pub(crate) struct SpectralPath {
    /// The decomposed pencil: eigenvalues γ ∈ [0, 1/μ), ascending
    /// (roughness per unit of shifted data-fit in each Demmler–Reinsch
    /// direction), and basis `T` (`r × r`) with `Tᵀ(G_r + μΩ_r)T = I`,
    /// `TᵀΩ_rT = diag(γ)`.
    pencil: GeneralizedSymmetricEigen,
    /// Per-direction effective data mass `effᵢ = ‖W·A_r·tᵢ‖²` — the
    /// diagonal of `TᵀBᵀBT`, computed directly (no cancellation).
    eff: Vec<f64>,
    /// The anchor shift μ of the pencil metric.
    mu: f64,
    /// Scratch: the pencil metric `G_r + μΩ_r` (`r × r`).
    metric: Matrix,
    /// Scratch: one row of `A_r·T` (`r`).
    row: Vec<f64>,
}

impl SpectralPath {
    /// Decomposes the pencil for `weights` (`1/σ` per measurement) and
    /// the ridge `ε` ([`DeconvolutionConfig::RIDGE`]).
    pub(crate) fn new(ops: &ReducedOperators, weights: &[f64]) -> Result<Self> {
        let mut path = SpectralPath::default();
        path.rebuild(ops, weights)?;
        Ok(path)
    }

    /// Re-decomposes the pencil for new `weights` in place, reusing every
    /// buffer. The result is bit-identical to [`SpectralPath::new`]
    /// whatever the path held before (another engine's size, another
    /// weight vector, a failed rebuild).
    pub(crate) fn rebuild(&mut self, ops: &ReducedOperators, weights: &[f64]) -> Result<()> {
        let r = ops.reduced_dim();
        let g = &mut self.metric;
        if g.shape() != (r, r) {
            g.reset_zeroed(r, r);
        }
        ops.a_r.weighted_gram_into(weights, g)?;
        for i in 0..r {
            g[(i, i)] += DeconvolutionConfig::RIDGE;
        }
        // Scale-free anchor: equal-trace balance of Gram and penalty.
        // A (reduced) penalty with no mass means a λ-independent smoother;
        // μ = 0 then degenerates gracefully (γ ≈ 0, no shift needed).
        let omega_trace = ops.omega_r.trace()?;
        self.mu = if omega_trace > 0.0 {
            g.trace()? / omega_trace
        } else {
            0.0
        };
        if self.mu > 0.0 {
            for (gij, &oij) in g.as_mut_slice().iter_mut().zip(ops.omega_r.as_slice()) {
                *gij += self.mu * oij;
            }
        }
        self.pencil.refactor(&ops.omega_r, g)?;

        // effⱼ = Σᵢ (wᵢ·(A_r·T)ᵢⱼ)², one row of A_r·T at a time.
        let t = self.pencil.vectors().as_slice();
        self.eff.clear();
        self.eff.resize(r, 0.0);
        self.row.resize(r, 0.0);
        for (i, &wi) in weights.iter().enumerate() {
            self.row.fill(0.0);
            for (&a, t_k) in ops.a_r.row(i).iter().zip(t.chunks_exact(r)) {
                for (x, &tkj) in self.row.iter_mut().zip(t_k) {
                    *x += a * tkj;
                }
            }
            for (e, &x) in self.eff.iter_mut().zip(&self.row) {
                let v = wi * x;
                *e += v * v;
            }
        }
        Ok(())
    }

    /// Dimension `r` of the reduced coefficient space.
    pub(crate) fn dim(&self) -> usize {
        self.pencil.dim()
    }

    /// The shrink factor of eigendirection `i` at `lambda`:
    /// `1/(1 + (λ−μ)γᵢ) = (gᵢ + μωᵢ)/(gᵢ + λωᵢ)`, in `(0, 1 + μγᵢ]`.
    fn shrink(&self, lambda: f64, i: usize) -> f64 {
        1.0 / (1.0 + (lambda - self.mu) * self.pencil.eigenvalues()[i])
    }

    /// The reduced-space **unconstrained** solution at `lambda`:
    /// `β = T·(zproj ⊙ s(λ))` — the smoother's own minimizer, used as
    /// the deterministic warm hint for the constrained QP (when it is
    /// feasible, the QP terminates after one multiplier check).
    /// `d`/`beta` are caller scratch; the result lands in `beta`.
    pub(crate) fn reduced_solution(
        &self,
        zproj: &Vector,
        lambda: f64,
        d: &mut Vector,
        beta: &mut Vector,
    ) -> Result<()> {
        for i in 0..self.dim() {
            d[i] = zproj[i] * self.shrink(lambda, i);
        }
        self.pencil.vectors().matvec_into(d, beta)?;
        Ok(())
    }

    /// Projects the data onto the Demmler–Reinsch basis:
    /// `zproj = Tᵀ·A_rᵀ·W²·g` — the once-per-series setup for the λ scan.
    /// `w2g`/`rhs_r` are caller scratch (overwritten).
    pub(crate) fn project_series(
        &self,
        ops: &ReducedOperators,
        weights: &[f64],
        g: &[f64],
        w2g: &mut Vector,
        rhs_r: &mut Vector,
        zproj: &mut Vector,
    ) -> Result<()> {
        for (w2, (&wi, &gi)) in w2g
            .as_mut_slice()
            .iter_mut()
            .zip(weights.iter().zip(g.iter()))
        {
            *w2 = wi * wi * gi;
        }
        ops.a_r.tr_matvec_into(w2g, rhs_r)?;
        self.pencil.vectors().tr_matvec_into(rhs_r, zproj)?;
        Ok(())
    }

    /// Generalized cross validation score of the (equality-reduced)
    /// smoother at one λ:
    /// `GCV(λ) = (‖y − ŷ(λ)‖²/M) / (1 − tr S(λ)/M)²`, evaluated from the
    /// spectral decomposition — `O(r)` for the trace, one `O(r²)` basis
    /// rotation and one `O(m·r)` prediction for the residual; no
    /// factorization and no allocation (`d`/`beta`/`u` are caller
    /// scratch).
    ///
    /// GCV is degenerate once the smoother saturates (`tr S → M` makes
    /// both numerator and denominator vanish — guaranteed when the basis
    /// is at least as large as the measurement count and λ → 0); λ values
    /// whose effective degrees of freedom exceed 99 % of the data score
    /// `+∞`, so the scan picks the best non-interpolating fit.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gcv_score(
        &self,
        ops: &ReducedOperators,
        weights: &[f64],
        g: &[f64],
        zproj: &Vector,
        lambda: f64,
        d: &mut Vector,
        beta: &mut Vector,
        u: &mut Vector,
    ) -> Result<f64> {
        let m = g.len() as f64;
        let r = self.dim();
        let mut trace = 0.0;
        for i in 0..r {
            let shrink = self.shrink(lambda, i);
            d[i] = zproj[i] * shrink;
            trace += self.eff[i] * shrink;
        }
        let edf_ratio = trace / m;
        if edf_ratio > 0.99 {
            return Ok(f64::INFINITY);
        }
        // Residual of the unconstrained-in-β smoother at this λ.
        self.pencil.vectors().matvec_into(d, beta)?;
        ops.a_r.matvec_into(beta, u)?;
        let mut rss = 0.0;
        for ((&gi, &ui), &wi) in g.iter().zip(u.iter()).zip(weights.iter()) {
            let resid = wi * (gi - ui);
            rss += resid * resid;
        }
        let denom = 1.0 - edf_ratio;
        Ok((rss / m) / (denom * denom))
    }
}

/// Reusable per-thread scratch for [`crate::Deconvolver`] fits.
///
/// One workspace serves any number of sequential fits on engines of any
/// size (buffers re-size lazily); [`crate::Deconvolver::fit_many`] builds
/// one per pool worker. Fit results are independent of the workspace's
/// history — every fit fully re-initializes the state it reads — which is
/// what keeps batch results bit-identical at any thread count.
#[derive(Debug, Clone, Default)]
pub struct FitWorkspace {
    /// Per-fit spectral decomposition for weighted fits, rebuilt in place
    /// for every weighted GCV fit (unit-weight fits use the engine's
    /// cached decomposition instead).
    pub(crate) spectral: SpectralPath,
    /// Per-measurement weights `1/σ`.
    pub(crate) weights: Vec<f64>,
    /// `W²·g` (m) of the spectral projection.
    pub(crate) w2g: Vector,
    /// `A_rᵀW²g` (r).
    pub(crate) rhs_r: Vector,
    /// Demmler–Reinsch projection of the data (r).
    pub(crate) zproj: Vector,
    /// Shrunk spectral coordinates (r).
    pub(crate) d: Vector,
    /// Reduced coefficients `T·d` (r).
    pub(crate) beta: Vector,
    /// Unweighted prediction `A_r·β` (m).
    pub(crate) u: Vector,
    /// Scratch of the fixed-λ solve, shared by the fit and every k-fold
    /// fold.
    pub(crate) solve: SolveScratch,
}

/// Scratch of the engine's one fixed-λ solve: the QP workspace and the
/// QP it assembles. A separate struct so a solve can borrow it next to
/// the workspace's weights.
#[derive(Debug, Clone, Default)]
pub(crate) struct SolveScratch {
    /// Active-set QP scratch (cached Hessian factor, warm hints).
    pub(crate) qp: QpWorkspace,
    /// Assembled QP Hessian (n × n).
    pub(crate) h: Matrix,
    /// Assembled QP linear term (n).
    pub(crate) c: Vector,
    /// `W²·g` (m) of the linear term.
    pub(crate) w2g: Vector,
}

impl FitWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        FitWorkspace::default()
    }

    /// Ensures the vector buffers match the engine's measurement count
    /// `m`, full basis size `n`, and reduced dimension `r`.
    pub(crate) fn ensure(&mut self, m: usize, n: usize, r: usize) {
        if self.w2g.len() != m {
            self.w2g = Vector::zeros(m);
            self.u = Vector::zeros(m);
            self.solve.w2g = Vector::zeros(m);
        }
        if self.rhs_r.len() != r {
            self.rhs_r = Vector::zeros(r);
            self.zproj = Vector::zeros(r);
            self.d = Vector::zeros(r);
            self.beta = Vector::zeros(r);
        }
        if self.solve.c.len() != n {
            self.solve.c = Vector::zeros(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_design() -> (Matrix, Matrix) {
        // 8 measurements, 5 basis functions, a smooth synthetic kernel.
        let a = Matrix::from_fn(8, 5, |i, j| {
            let t = i as f64 / 7.0;
            let phi = j as f64 / 4.0;
            (-((phi - t) * (phi - t)) / 0.1).exp() + 0.1
        });
        // A synthetic SPD-ish penalty: second-difference Gram.
        (a, second_difference().gram())
    }

    /// The 3 × 5 second-difference operator `D` with `Ω = DᵀD`.
    fn second_difference() -> Matrix {
        Matrix::from_fn(3, 5, |i, j| match j as isize - i as isize {
            0 | 2 => 1.0,
            1 => -2.0,
            _ => 0.0,
        })
    }

    /// Dense reference GCV score for the toy penalty `Ω = DᵀD`, by
    /// Householder QR of the stacked least-squares system
    /// `[W·A; √λ·D; √ε·I]`. Unlike the normal equations, this does not
    /// square the conditioning that wide σ ratios create, so it stays a
    /// trustworthy reference at σ_max/σ_min = 1e6.
    fn dense_gcv(a: &Matrix, weights: &[f64], g: &[f64], lambda: f64) -> f64 {
        let ridge = 1e-9_f64;
        let (m, n) = a.shape();
        let d = second_difference();
        let stacked = Matrix::from_fn(m, n, |i, j| weights[i] * a[(i, j)])
            .vstack(&d.scaled(lambda.sqrt()))
            .unwrap()
            .vstack(&Matrix::identity(n).scaled(ridge.sqrt()))
            .unwrap();
        let rhs = Vector::from_fn(
            stacked.rows(),
            |i| if i < m { weights[i] * g[i] } else { 0.0 },
        );
        let qr = stacked.qr().unwrap();
        let alpha = qr.solve_least_squares(&rhs).unwrap();
        let rss: f64 = (0..m)
            .map(|i| {
                let fit: f64 = a.row(i).iter().zip(alpha.iter()).map(|(x, y)| x * y).sum();
                (weights[i] * (fit - g[i])).powi(2)
            })
            .sum();
        // tr S(λ) = ‖Q₁‖²_F over the data rows of the thin Q factor.
        let q = qr.q();
        let trace: f64 = (0..m)
            .flat_map(|i| (0..n).map(move |j| q[(i, j)] * q[(i, j)]))
            .sum();
        let edf_ratio = trace / m as f64;
        if edf_ratio > 0.99 {
            return f64::INFINITY;
        }
        let denom = 1.0 - edf_ratio;
        (rss / m as f64) / (denom * denom)
    }

    #[test]
    fn spectral_gcv_matches_dense_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let (a, omega) = toy_design();
        let ops = ReducedOperators::new(&a, &omega, None).unwrap();
        let g: Vec<f64> = (0..8).map(|i| 1.0 + (i as f64 * 0.8).sin()).collect();
        // One hand-picked weight vector, then seeded σ vectors spanning
        // 1 to 6 decades; the widest pin σ_max/σ_min = 1e6 exactly.
        let mut weight_sets = vec![vec![1.0, 0.5, 2.0, 1.0, 1.5, 0.8, 1.0, 1.2]];
        for (seed, decades) in [1.0, 2.0, 4.0, 6.0, 6.0, 6.0].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut sigmas: Vec<f64> = (0..8)
                .map(|_| 10f64.powf(decades * (rng.gen::<f64>() - 0.5)))
                .collect();
            if decades == 6.0 {
                sigmas[seed % 8] = 1e-3;
                sigmas[(seed + 3) % 8] = 1e3;
            }
            weight_sets.push(sigmas.iter().map(|s| 1.0 / s).collect());
        }
        // One path rebuilt in place across all weight sets, as a
        // workspace does across genes.
        let mut path = SpectralPath::default();
        let mut ws = FitWorkspace::new();
        ws.ensure(8, 5, 5);
        for weights in &weight_sets {
            // The pencil metric inherits the weighted Gram's conditioning,
            // which grows like (σ_max/σ_min)²; agreement is held to ε
            // times that, and to 1e-9 for mild ratios.
            let ratio = weights.iter().cloned().fold(0.0, f64::max)
                / weights.iter().cloned().fold(f64::INFINITY, f64::min);
            let tol = (f64::EPSILON * ratio * ratio).max(1e-9);
            path.rebuild(&ops, weights).unwrap();
            path.project_series(&ops, weights, &g, &mut ws.w2g, &mut ws.rhs_r, &mut ws.zproj)
                .unwrap();
            for &lambda in &[1e-6, 1e-3, 1e-1, 1.0, 10.0] {
                let spectral = path
                    .gcv_score(
                        &ops,
                        weights,
                        &g,
                        &ws.zproj,
                        lambda,
                        &mut ws.d,
                        &mut ws.beta,
                        &mut ws.u,
                    )
                    .unwrap();
                let dense = dense_gcv(&a, weights, &g, lambda);
                assert!(
                    (spectral - dense).abs() <= tol * dense.abs().max(1e-12)
                        || (spectral.is_infinite() && dense.is_infinite()),
                    "weights {weights:?}, λ = {lambda}: spectral {spectral} vs dense {dense}"
                );
            }
        }
    }

    #[test]
    fn nullspace_reduction_annihilates_equalities() {
        let (a, omega) = toy_design();
        let e =
            Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0, 1.0], &[1.0, 0.0, -1.0, 0.0, 1.0]]).unwrap();
        let ops = ReducedOperators::new(&a, &omega, Some(&e)).unwrap();
        assert_eq!(ops.reduced_dim(), 3);
        let z = ops.z.as_ref().unwrap();
        assert!(e.matmul(z).unwrap().norm_frobenius() < 1e-12);
        // Reduced operators agree with explicit projection.
        assert!(
            (&ops.a_r - &a.matmul(z).unwrap()).norm_frobenius() < 1e-14,
            "reduced design mismatch"
        );
        // The reduced penalty stays symmetric PSD.
        assert!(ops.omega_r.asymmetry().unwrap() == 0.0);
        let eig = ops.omega_r.symmetric_eigen().unwrap();
        assert!(eig.min_eigenvalue() > -1e-10);
    }

    #[test]
    fn trace_decreases_with_lambda() {
        // The effective degrees of freedom must shrink monotonically as λ
        // grows — the spectral trace formula makes this structural.
        let (a, omega) = toy_design();
        let ops = ReducedOperators::new(&a, &omega, None).unwrap();
        let weights = vec![1.0; 8];
        let path = SpectralPath::new(&ops, &weights).unwrap();
        let trace_at = |lambda: f64| -> f64 {
            (0..path.dim())
                .map(|i| path.eff[i] * path.shrink(lambda, i))
                .sum()
        };
        let mut previous = trace_at(1e-9);
        for &lambda in &[1e-6, 1e-3, 1.0, 1e3] {
            let current = trace_at(lambda);
            assert!(current <= previous + 1e-12, "trace rose at λ = {lambda}");
            previous = current;
        }
    }
}
