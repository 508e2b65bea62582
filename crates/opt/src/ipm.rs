//! Mehrotra predictor–corrector interior-point method for convex QPs.
//!
//! This is the second, algorithmically independent backend behind the
//! [`crate::QpBackend`] trait: where [`crate::QpWorkspace`] walks vertices
//! of the feasible polyhedron with an incrementally factored active-set
//! method, [`IpmWorkspace`] follows the central path through its interior.
//! The two share nothing but the [`crate::QpProblem`] view and the
//! `cellsync_linalg` factorizations, which is exactly what makes their
//! agreement on the committed problem corpus a meaningful oracle: a bug in
//! either solver shows up as a cross-backend discrepancy long before it
//! silently bends a deconvolved expression profile.
//!
//! # The method
//!
//! For `min ½xᵀHx + cᵀx  s.t.  Ex = e, Ax ≥ b`, introduce slacks
//! `s = Ax − b ≥ 0` and duals `y` (equalities), `z ≥ 0` (inequalities).
//! The KKT conditions are
//!
//! ```text
//! r_d = Hx + c − Eᵀy − Aᵀz = 0        (stationarity)
//! r_e = Ex − e            = 0          (equality feasibility)
//! r_p = Ax − s − b        = 0          (inequality feasibility)
//!       s ∘ z             = 0,  s, z ≥ 0  (complementarity)
//! ```
//!
//! Each iteration eliminates `Δs` and `Δz` from the Newton system and
//! solves the **condensed normal equations**
//!
//! ```text
//! (H + AᵀDA)·Δx − Eᵀ·Δy = rhs,   E·Δx = −r_e,   D = diag(z/s)
//! ```
//!
//! via one Cholesky factorization of `M = H + AᵀDA` per iteration plus a
//! small dense Schur complement `E·M⁻¹·Eᵀ` for the equality multipliers —
//! both reusing `cellsync_linalg`. Mehrotra's scheme solves this system
//! twice per iteration with the *same* factorization: an affine-scaling
//! predictor fixes the centering parameter `σ = (μ_aff/μ)³`, and the
//! corrector re-solves with the centered, second-order-corrected
//! complementarity right-hand side. See `docs/SOLVER.md` §6 for the full
//! derivation.
//!
//! Once the path converges, a **polish** step identifies the active set
//! from the slack/dual split and re-solves the resulting
//! equality-constrained QP exactly (whitened Gram–Schmidt QR, the same
//! algebra the active-set backend terminates with). On nondegenerate
//! problems this removes the `O(μ)` interior error entirely, which is what
//! lets the corpus differential suite demand 1e-8 agreement even on
//! `cond(H) ~ 1e10` harvested instances. A polish that fails its own
//! verification (wrong split on a degenerate vertex) is discarded and the
//! converged interior iterate returned instead.

use cellsync_linalg::{CholeskyDecomposition, Matrix, Vector};

use crate::qp::{QpProblem, QpSolution};
use crate::{OptError, Result};

/// Interior-point iteration cap. The central path contracts `μ`
/// superlinearly, so well-posed problems converge in 10–25 iterations
/// regardless of size; hitting this cap means the problem is infeasible,
/// unbounded, or pathologically scaled, and the solve reports a
/// structured [`OptError::IterationLimit`] rather than spinning.
const MAX_ITERATIONS: usize = 100;

/// Relative KKT residual tolerance for path convergence.
const TOL_RESIDUAL: f64 = 1e-10;

/// Relative complementarity-gap tolerance for path convergence.
const TOL_GAP: f64 = 1e-10;

/// Fraction-to-boundary factor: steps stop short of the nonnegativity
/// boundary by this factor so `s, z > 0` strictly throughout.
const TAU: f64 = 0.995;

/// Reusable scratch for Mehrotra interior-point solves.
///
/// Like [`crate::QpWorkspace`], the workspace owns every buffer the
/// iteration needs, so repeated same-shape solves allocate nothing. Unlike
/// the active-set workspace it carries **no** cross-solve state (no warm
/// hint): interior-point methods restart from their own
/// self-dual starting point, which is what keeps this backend's answers
/// independent of solve history — the property the differential corpus
/// suite leans on. A supplied [`QpProblem`] starting point is therefore
/// deliberately ignored rather than validated.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
/// use cellsync_opt::{IpmWorkspace, QpProblem};
///
/// # fn main() -> Result<(), cellsync_opt::OptError> {
/// // min (x−1)² + (y−2.5)² s.t. x ≥ 0, y ≥ 0, y ≤ 2  →  (1, 2)
/// let h = Matrix::identity(2).scaled(2.0);
/// let c = Vector::from_slice(&[-2.0, -5.0]);
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).expect("rows");
/// let b = Vector::from_slice(&[0.0, 0.0, -2.0]);
/// let problem = QpProblem::new(&h, &c)?.with_inequalities(&a, &b)?;
/// let sol = IpmWorkspace::new().solve(&problem)?;
/// assert!((sol.x[0] - 1.0).abs() < 1e-8);
/// assert!((sol.x[1] - 2.0).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IpmWorkspace {
    /// Cholesky factor of `H` (whitening for start/polish solves).
    chol_h: Option<CholeskyDecomposition>,
    /// Cholesky factor of the normal matrix `M = H + AᵀDA`.
    chol_m: Option<CholeskyDecomposition>,
    /// Assembled normal matrix (n × n).
    m_mat: Matrix,
    /// Independent equality rows after preprocessing (k × n).
    e_keep: Matrix,
    /// Right-hand side of the kept equality rows (k).
    e_rhs: Vector,
    /// `T = M⁻¹E_keepᵀ` columns (n × k, column-major in a flat vec).
    tcols: Vec<f64>,
    /// Schur complement `E_keep·M⁻¹·E_keepᵀ` (k × k).
    schur: Matrix,
    /// Primal iterate.
    x: Vector,
    /// Slacks `s = Ax − b` (m).
    s: Vector,
    /// Inequality duals (m).
    z: Vector,
    /// Equality duals (k).
    y: Vector,
    /// Stationarity residual (n).
    rd: Vector,
    /// Inequality residual `Ax − s − b` (m).
    rp: Vector,
    /// Equality residual `E_keep·x − e_rhs` (k).
    re: Vector,
    /// Condensed right-hand side / step Δx (n).
    dx: Vector,
    /// Step Δy (k).
    dy: Vector,
    /// Predictor steps Δs, Δz and corrector steps (m each).
    ds: Vector,
    dz: Vector,
    ds_aff: Vector,
    dz_aff: Vector,
    /// Complementarity right-hand side (m).
    rc: Vector,
    /// Scratch (n).
    scratch_n: Vector,
    /// Scratch (m).
    scratch_m: Vector,
    /// Polish: orthonormal basis Q of whitened working rows (n per col).
    qmat: Vec<f64>,
    /// Polish: upper-triangular R, row stride n.
    rmat: Vec<f64>,
    /// Polish: candidate active rows.
    candidates: Vec<usize>,
    /// Polish: admitted inequality rows.
    admitted: Vec<usize>,
    /// Polish scratch vectors.
    u0: Vector,
    vcol: Vector,
    gvec: Vec<f64>,
    hcoef: Vec<f64>,
}

impl IpmWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        IpmWorkspace::default()
    }

    /// Solves `problem` with the Mehrotra predictor–corrector method.
    ///
    /// # Errors
    ///
    /// * [`OptError::NotConvex`] when `H` (or the condensed normal
    ///   matrix) is not positive definite.
    /// * [`OptError::Infeasible`] when the equality system is
    ///   inconsistent.
    /// * [`OptError::IterationLimit`] when the central path fails to
    ///   converge within the iteration cap (primal/dual infeasibility or
    ///   pathological scaling); the residual field carries the final
    ///   complementarity gap `μ`.
    pub fn solve(&mut self, problem: &QpProblem<'_>) -> Result<QpSolution> {
        let h = problem.hessian();
        let c = problem.linear();
        let n = problem.dim();

        // H must be positive definite for the problem to be strictly
        // convex — mirror the active-set backend's contract exactly so
        // degenerate inputs fail identically on both.
        let not_pd = |_| OptError::NotConvex("hessian is not positive definite".into());
        match &mut self.chol_h {
            Some(f) if f.dim() == n => f.refactor(h).map_err(not_pd)?,
            slot => *slot = Some(h.cholesky().map_err(not_pd)?),
        }

        self.preprocess_equalities(problem)?;
        let k = self.e_keep.rows();
        let m = problem.inequalities().map_or(0, |(a, _)| a.rows());
        self.ensure(n, k, m);

        if m == 0 {
            // No inequalities: the KKT system is linear — solve it
            // exactly through the polish path with an empty active set.
            self.candidates.clear();
            let x = self
                .polish(problem)?
                .ok_or_else(|| OptError::NotConvex("equality rows degenerate".into()))?;
            let objective = objective_of(h, c, &x)?;
            return Ok(QpSolution {
                x,
                objective,
                iterations: 0,
                active_set: Vec::new(),
            });
        }

        let (a_mat, b_rhs) = problem.inequalities().expect("m > 0");
        self.starting_point(problem)?;

        let h_norm = h.norm_inf();
        let c_norm = c.norm_inf();
        let b_norm = b_rhs.norm_inf().max(self.e_rhs.norm_inf());
        let gap_scale = 1.0 + c_norm + h_norm;

        let mut mu = self.complementarity_gap();
        let mut iterations = 0;
        let mut converged = false;
        while iterations < MAX_ITERATIONS.min(problem.iteration_budget()) {
            problem.check_cancel()?;
            self.residuals(problem)?;
            mu = self.complementarity_gap();
            let x_norm = self.x.norm_inf();
            let sd = 1.0 + c_norm + h_norm * x_norm;
            let sp = 1.0 + x_norm + b_norm;
            if self.rd.norm_inf() <= TOL_RESIDUAL * sd
                && self.rp.norm_inf() <= TOL_RESIDUAL * sp
                && self.re.norm_inf() <= TOL_RESIDUAL * sp
                && mu <= TOL_GAP * gap_scale
            {
                converged = true;
                break;
            }

            if let Err(err) = self.factor_normal_matrix(problem) {
                // A normal matrix that factored on earlier iterations and
                // collapses while the primal residual is still far from
                // feasible is the signature of conflicting constraints
                // (the duals diverge and destroy the scaling), not of a
                // nonconvex objective — report it as such.
                let sp = 1.0 + self.x.norm_inf() + b_norm;
                let stuck = self.rp.norm_inf() > 1e2 * TOL_RESIDUAL * sp
                    || self.re.norm_inf() > 1e2 * TOL_RESIDUAL * sp;
                return Err(match err {
                    OptError::NotConvex(_) if iterations > 0 && stuck => OptError::Infeasible(
                        "interior-point path diverged before reaching primal feasibility; \
                         the constraint system admits no feasible point"
                            .into(),
                    ),
                    other => other,
                });
            }

            // Predictor (affine scaling): aim straight at the KKT point.
            // rc = −s∘z, so S⁻¹rc = −z.
            for i in 0..m {
                self.rc[i] = -self.s[i] * self.z[i];
            }
            self.condensed_rhs(a_mat)?;
            self.solve_condensed()?;
            self.recover_ineq_steps(a_mat, &mut |ws, i| {
                ws.ds_aff[i] = ws.ds[i];
                ws.dz_aff[i] = ws.dz[i];
            })?;

            // Centering from the affine step's predicted gap.
            let alpha_p_aff = max_step(&self.s, &self.ds_aff);
            let alpha_d_aff = max_step(&self.z, &self.dz_aff);
            let mut gap_aff = 0.0;
            for i in 0..m {
                gap_aff += (self.s[i] + alpha_p_aff * self.ds_aff[i])
                    * (self.z[i] + alpha_d_aff * self.dz_aff[i]);
            }
            let mu_aff = gap_aff / m as f64;
            let sigma = (mu_aff / mu).powi(3).clamp(0.0, 1.0);

            // Corrector: centered + second-order complementarity target,
            // same factorization, new right-hand side.
            let target = sigma * mu;
            for i in 0..m {
                self.rc[i] = -self.s[i] * self.z[i] - self.ds_aff[i] * self.dz_aff[i] + target;
            }
            self.condensed_rhs(a_mat)?;
            self.solve_condensed()?;
            self.recover_ineq_steps(a_mat, &mut |_, _| {})?;

            // Fraction-to-boundary steps, primal and dual separately.
            let alpha_p = (TAU * max_step(&self.s, &self.ds)).min(1.0);
            let alpha_d = (TAU * max_step(&self.z, &self.dz)).min(1.0);
            for (xv, &d) in self.x.as_mut_slice().iter_mut().zip(self.dx.iter()) {
                *xv += alpha_p * d;
            }
            for (sv, &d) in self.s.as_mut_slice().iter_mut().zip(self.ds.iter()) {
                *sv += alpha_p * d;
            }
            for (zv, &d) in self.z.as_mut_slice().iter_mut().zip(self.dz.iter()) {
                *zv += alpha_d * d;
            }
            for (yv, &d) in self.y.as_mut_slice().iter_mut().zip(self.dy.iter()) {
                *yv += alpha_d * d;
            }
            iterations += 1;
        }

        // Polish: resolve the active set exactly. Attempted even at the
        // iteration cap — a verified polished point is a solution no
        // matter how the path got near it.
        self.candidates.clear();
        for i in 0..m {
            if self.z[i] > self.s[i] {
                self.candidates.push(i);
            }
        }
        if let Some(x) = self.polish(problem)? {
            let objective = objective_of(h, c, &x)?;
            return Ok(QpSolution {
                x,
                objective,
                iterations,
                active_set: self.admitted.clone(),
            });
        }
        if !converged {
            return Err(OptError::IterationLimit {
                iterations,
                residual: mu,
            });
        }
        let x = self.x.clone();
        let objective = objective_of(h, c, &x)?;
        Ok(QpSolution {
            x,
            objective,
            iterations,
            active_set: self.candidates.clone(),
        })
    }

    /// Sizes all per-solve buffers, allocating only on shape changes.
    fn ensure(&mut self, n: usize, k: usize, m: usize) {
        if self.x.len() != n {
            self.x = Vector::zeros(n);
            self.rd = Vector::zeros(n);
            self.dx = Vector::zeros(n);
            self.scratch_n = Vector::zeros(n);
            self.u0 = Vector::zeros(n);
            self.vcol = Vector::zeros(n);
            self.qmat = vec![0.0; n * n];
            self.rmat = vec![0.0; n * n];
            self.gvec = vec![0.0; n];
            self.hcoef = vec![0.0; n];
        }
        if self.m_mat.shape() != (n, n) {
            self.m_mat.reset_zeroed(n, n);
        }
        if self.y.len() != k {
            self.y = Vector::zeros(k);
            self.re = Vector::zeros(k);
            self.dy = Vector::zeros(k);
        }
        self.y.as_mut_slice().fill(0.0);
        if self.schur.shape() != (k, k) {
            self.schur.reset_zeroed(k, k);
        }
        self.tcols.resize(n * k, 0.0);
        if self.s.len() != m {
            self.s = Vector::zeros(m);
            self.z = Vector::zeros(m);
            self.rp = Vector::zeros(m);
            self.ds = Vector::zeros(m);
            self.dz = Vector::zeros(m);
            self.ds_aff = Vector::zeros(m);
            self.dz_aff = Vector::zeros(m);
            self.rc = Vector::zeros(m);
            self.scratch_m = Vector::zeros(m);
        }
    }

    /// Reduces the equality block to an independent row set and proves
    /// consistency, or reports [`OptError::Infeasible`].
    ///
    /// Consistency is checked globally first: the minimum-norm
    /// least-squares solution `x₀ = Eᵀ(EEᵀ)⁺e` (spectral pseudo-inverse
    /// of the row Gram matrix) must reproduce `e` to tolerance — for a
    /// rank-deficient `E` this is exactly the test of whether the
    /// dependent rows' right-hand sides agree with the independent ones.
    /// The independent subset itself is selected by greedy modified
    /// Gram–Schmidt over the rows.
    fn preprocess_equalities(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        let n = problem.dim();
        let Some((e_mat, e_rhs)) = problem.equalities() else {
            self.e_keep = Matrix::zeros(0, n);
            self.e_rhs = Vector::zeros(0);
            return Ok(());
        };
        let p = e_mat.rows();
        if p == 0 {
            self.e_keep = Matrix::zeros(0, n);
            self.e_rhs = Vector::zeros(0);
            return Ok(());
        }

        // Global consistency through the row-Gram pseudo-inverse.
        let eet = e_mat.matmul(&e_mat.transpose())?;
        let eig = eet.symmetric_eigen()?;
        let lambda_max = eig
            .eigenvalues()
            .iter()
            .fold(0.0f64, |acc, &l| acc.max(l.abs()));
        let cutoff = lambda_max.max(1e-300) * 1e-12;
        // w = V·diag(1/λ̂)·Vᵀ·e with rank-deficient directions zeroed.
        let vt_e = eig.eigenvectors().tr_matvec(e_rhs)?;
        let scaled = Vector::from_fn(p, |i| {
            let l = eig.eigenvalues()[i];
            if l > cutoff {
                vt_e[i] / l
            } else {
                0.0
            }
        });
        let w = eig.eigenvectors().matvec(&scaled)?;
        let x0 = e_mat.tr_matvec(&w)?;
        let resid = &e_mat.matvec(&x0)? - e_rhs;
        let scale = 1.0 + e_rhs.norm_inf() + x0.norm_inf() * e_mat.norm_inf();
        if resid.norm_inf() > 1e-8 * scale {
            return Err(OptError::Infeasible(
                "equality system is inconsistent (dependent rows with conflicting \
                 right-hand sides)"
                    .into(),
            ));
        }

        // Greedy MGS row selection: dependent rows are redundant now that
        // consistency is proven, so drop them.
        let mut basis: Vec<Vec<f64>> = Vec::new();
        let mut keep: Vec<usize> = Vec::new();
        for r in 0..p {
            let mut v = e_mat.row(r).to_vec();
            let norm0: f64 = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            if norm0 <= 0.0 {
                continue;
            }
            for q in &basis {
                let h: f64 = q.iter().zip(&v).map(|(a, b)| a * b).sum();
                for (vi, qi) in v.iter_mut().zip(q) {
                    *vi -= h * qi;
                }
            }
            let norm: f64 = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            if norm > 1e-10 * norm0 {
                for vi in &mut v {
                    *vi /= norm;
                }
                basis.push(v);
                keep.push(r);
            }
        }
        self.e_keep = Matrix::from_fn(keep.len(), n, |i, j| e_mat[(keep[i], j)]);
        self.e_rhs = Vector::from_fn(keep.len(), |i| e_rhs[keep[i]]);
        Ok(())
    }

    /// Mehrotra's heuristic starting point: the equality-constrained
    /// unconstrained-in-inequalities minimizer for `x`, then slack/dual
    /// shifts that center the initial complementarity products.
    fn starting_point(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        let (a_mat, b_rhs) = problem.inequalities().expect("called with inequalities");
        let m = a_mat.rows();

        // x₀: minimize the quadratic subject to the (kept) equalities
        // only — the analytic center of the objective, not of the
        // inequalities, which the shifts below account for.
        self.candidates.clear();
        let admit_all_eq = self.polish_system(problem, /* ineq_rows */ &[])?;
        if admit_all_eq {
            self.x.as_mut_slice().copy_from_slice(self.u0.as_slice());
            self.chol_h
                .as_ref()
                .expect("factored in solve")
                .backward_solve_in_place(&mut self.x)?;
            // u0 currently holds the working-set minimizer in whitened
            // coordinates (see polish_system); x = L⁻ᵀu.
        } else {
            self.x.as_mut_slice().fill(0.0);
        }

        a_mat.matvec_into(&self.x, &mut self.s)?;
        for (sv, &bi) in self.s.as_mut_slice().iter_mut().zip(b_rhs.iter()) {
            *sv -= bi;
        }
        self.z.as_mut_slice().fill(1.0);

        // Shift slacks positive, then balance the complementarity
        // products (Mehrotra 1992, adapted from the LP starting point).
        let s_min = self.s.iter().fold(f64::INFINITY, |a, &v| a.min(v));
        let ds0 = (-1.5 * s_min).max(0.0);
        for sv in self.s.as_mut_slice() {
            *sv += ds0;
        }
        let dot: f64 = self.s.iter().zip(self.z.iter()).map(|(a, b)| a * b).sum();
        let s_sum: f64 = self.s.iter().sum();
        let z_sum: f64 = self.z.iter().sum();
        let ds1 = 0.5 * dot / z_sum.max(1e-300);
        let dz1 = 0.5 * dot / s_sum.max(1e-300);
        // Absolute floor keeps the degenerate all-zero-slack case (start
        // exactly on every constraint) strictly interior.
        let floor = 1e-2 * (1.0 + self.s.norm_inf() / m as f64);
        for sv in self.s.as_mut_slice() {
            *sv = (*sv + ds1).max(floor);
        }
        for zv in self.z.as_mut_slice() {
            *zv = (*zv + dz1).max(floor);
        }
        self.y.as_mut_slice().fill(0.0);
        Ok(())
    }

    /// Average complementarity product `μ = sᵀz/m`.
    fn complementarity_gap(&self) -> f64 {
        let m = self.s.len();
        if m == 0 {
            return 0.0;
        }
        let dot: f64 = self.s.iter().zip(self.z.iter()).map(|(a, b)| a * b).sum();
        dot / m as f64
    }

    /// Evaluates the KKT residuals at the current iterate.
    fn residuals(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        let h = problem.hessian();
        let c = problem.linear();
        let (a_mat, b_rhs) = problem.inequalities().expect("called with inequalities");
        let k = self.e_keep.rows();

        // r_d = Hx + c − Eᵀy − Aᵀz.
        h.matvec_into(&self.x, &mut self.rd)?;
        for (r, &ci) in self.rd.as_mut_slice().iter_mut().zip(c.iter()) {
            *r += ci;
        }
        for j in 0..k {
            let yj = self.y[j];
            if yj != 0.0 {
                let row = self.e_keep.row(j);
                for (r, &ej) in self.rd.as_mut_slice().iter_mut().zip(row) {
                    *r -= yj * ej;
                }
            }
        }
        a_mat.tr_matvec_into(&self.z, &mut self.scratch_n)?;
        for (r, &v) in self.rd.as_mut_slice().iter_mut().zip(self.scratch_n.iter()) {
            *r -= v;
        }

        // r_e = E_keep·x − e_rhs.
        if k > 0 {
            self.e_keep.matvec_into(&self.x, &mut self.re)?;
            for (r, &ei) in self.re.as_mut_slice().iter_mut().zip(self.e_rhs.iter()) {
                *r -= ei;
            }
        }

        // r_p = Ax − s − b.
        a_mat.matvec_into(&self.x, &mut self.rp)?;
        for ((r, &si), &bi) in self
            .rp
            .as_mut_slice()
            .iter_mut()
            .zip(self.s.iter())
            .zip(b_rhs.iter())
        {
            *r -= si + bi;
        }
        Ok(())
    }

    /// Assembles and factors `M = H + AᵀDA`, `D = diag(z/s)`, plus the
    /// equality Schur complement `E·M⁻¹·Eᵀ` and its solved columns
    /// `T = M⁻¹Eᵀ`. One factorization per iteration, shared by the
    /// predictor and corrector solves.
    fn factor_normal_matrix(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        let h = problem.hessian();
        let (a_mat, _) = problem.inequalities().expect("called with inequalities");
        let n = problem.dim();
        let m = a_mat.rows();
        let k = self.e_keep.rows();

        self.m_mat.copy_from(h);
        for i in 0..m {
            // Slacks stay strictly positive by fraction-to-boundary, but
            // floor the ratio's denominator against underflow anyway.
            let d = self.z[i] / self.s[i].max(1e-300);
            if d == 0.0 {
                continue;
            }
            let row = a_mat.row(i);
            for r in 0..n {
                let ar = row[r];
                if ar == 0.0 {
                    continue;
                }
                let coeff = d * ar;
                let out = &mut self.m_mat.as_mut_slice()[r * n..(r + 1) * n];
                for (o, &ac) in out.iter_mut().zip(row) {
                    *o += coeff * ac;
                }
            }
        }

        // Static regularization ladder: the normal matrix can lose
        // definiteness to roundoff when D spans ~16 decades near
        // convergence; a tiny diagonal shift restores it without moving
        // the step meaningfully. Three escalations, then give up.
        let scale = self.m_mat.norm_inf().max(1.0);
        let mut reg = 0.0;
        for attempt in 0..4 {
            if attempt > 0 {
                let add = scale * 1e-14 * 100f64.powi(attempt);
                for i in 0..n {
                    self.m_mat[(i, i)] += add - reg;
                }
                reg = add;
            }
            let ok = match &mut self.chol_m {
                Some(f) if f.dim() == n => f.refactor(&self.m_mat).is_ok(),
                slot => match self.m_mat.cholesky() {
                    Ok(f) => {
                        *slot = Some(f);
                        true
                    }
                    Err(_) => false,
                },
            };
            if ok {
                if k > 0 {
                    self.factor_schur()?;
                }
                return Ok(());
            }
        }
        Err(OptError::NotConvex(
            "interior-point normal matrix lost positive definiteness".into(),
        ))
    }

    /// Builds `T = M⁻¹E_keepᵀ` and the Schur complement `E_keep·T`.
    fn factor_schur(&mut self) -> Result<()> {
        let n = self.x.len();
        let k = self.e_keep.rows();
        let chol = self.chol_m.as_ref().expect("factored by caller");
        for j in 0..k {
            self.scratch_n
                .as_mut_slice()
                .copy_from_slice(self.e_keep.row(j));
            chol.solve_in_place(&mut self.scratch_n)?;
            self.tcols[j * n..(j + 1) * n].copy_from_slice(self.scratch_n.as_slice());
        }
        for i in 0..k {
            let row_i = self.e_keep.row(i).to_vec();
            for j in 0..k {
                let t_j = &self.tcols[j * n..(j + 1) * n];
                self.schur[(i, j)] = row_i.iter().zip(t_j).map(|(a, b)| a * b).sum();
            }
        }
        self.schur.symmetrize()?;
        Ok(())
    }

    /// Builds the condensed right-hand side
    /// `dx ← −r_d + Aᵀ(S⁻¹·rc − D·r_p)` from the current `rc`.
    fn condensed_rhs(&mut self, a_mat: &Matrix) -> Result<()> {
        let m = self.s.len();
        for i in 0..m {
            let s = self.s[i].max(1e-300);
            self.scratch_m[i] = self.rc[i] / s - (self.z[i] / s) * self.rp[i];
        }
        a_mat.tr_matvec_into(&self.scratch_m, &mut self.dx)?;
        for (d, &r) in self.dx.as_mut_slice().iter_mut().zip(self.rd.iter()) {
            *d -= r;
        }
        Ok(())
    }

    /// Solves the condensed KKT system in place: on entry `dx` holds the
    /// right-hand side; on exit `dx`/`dy` hold the steps.
    fn solve_condensed(&mut self) -> Result<()> {
        let n = self.x.len();
        let k = self.e_keep.rows();
        let chol = self.chol_m.as_ref().expect("factored this iteration");
        chol.solve_in_place(&mut self.dx)?;
        if k == 0 {
            return Ok(());
        }
        // K·Δy = −r_e − E·t, Δx = t + T·Δy.
        self.e_keep.matvec_into(&self.dx, &mut self.dy)?;
        for (d, &r) in self.dy.as_mut_slice().iter_mut().zip(self.re.iter()) {
            *d = -(r + *d);
        }
        // The Schur complement of an SPD M over independent rows is SPD;
        // LU keeps a margin on nearly dependent kept rows.
        let dy = self.schur.lu()?.solve(&self.dy)?;
        self.dy.as_mut_slice().copy_from_slice(dy.as_slice());
        for j in 0..k {
            let w = self.dy[j];
            if w != 0.0 {
                let t_j = &self.tcols[j * n..(j + 1) * n];
                for (d, &t) in self.dx.as_mut_slice().iter_mut().zip(t_j) {
                    *d += w * t;
                }
            }
        }
        Ok(())
    }

    /// Recovers `Δs = AΔx + r_p` and `Δz = S⁻¹(rc − Z·Δs)` from a solved
    /// condensed step, then hands each index to `stash` (used by the
    /// predictor to save its steps before the corrector overwrites them).
    fn recover_ineq_steps(
        &mut self,
        a_mat: &Matrix,
        stash: &mut dyn FnMut(&mut Self, usize),
    ) -> Result<()> {
        a_mat.matvec_into(&self.dx, &mut self.scratch_m)?;
        let m = self.s.len();
        for i in 0..m {
            self.ds[i] = self.scratch_m[i] + self.rp[i];
            let s = self.s[i].max(1e-300);
            self.dz[i] = (self.rc[i] - self.z[i] * self.ds[i]) / s;
            stash(self, i);
        }
        Ok(())
    }

    /// Builds the whitened working-row factorization `L⁻¹A_Wᵀ = Q·R` for
    /// the kept equality rows plus `ineq_rows`, admitting rows through
    /// modified Gram–Schmidt with dependence rejection, and leaves the
    /// whitened working-set minimizer in `u0`. Returns `false` when an
    /// equality row is rejected (degenerate system — cannot happen after
    /// preprocessing, pure safety net).
    fn polish_system(&mut self, problem: &QpProblem<'_>, ineq_rows: &[usize]) -> Result<bool> {
        let n = problem.dim();
        let c = problem.linear();
        let chol_h = self.chol_h.as_ref().expect("factored in solve");
        let k = self.e_keep.rows();

        // u₀ = −L⁻¹c.
        for (u, &ci) in self.u0.as_mut_slice().iter_mut().zip(c.iter()) {
            *u = -ci;
        }
        chol_h.forward_solve_in_place(&mut self.u0)?;

        self.admitted.clear();
        let mut t = 0usize; // admitted rows (eq + ineq)
        let mut rhs: Vec<f64> = Vec::with_capacity(k + ineq_rows.len());
        let ineq = problem.inequalities();
        for idx in 0..k + ineq_rows.len() {
            if t >= n {
                break;
            }
            let (row, b): (&[f64], f64) = if idx < k {
                (self.e_keep.row(idx), self.e_rhs[idx])
            } else {
                let (a_mat, b_rhs) = ineq.expect("ineq rows requested");
                let i = ineq_rows[idx - k];
                (a_mat.row(i), b_rhs[i])
            };
            self.vcol.as_mut_slice().copy_from_slice(row);
            chol_h.forward_solve_in_place(&mut self.vcol)?;
            let vnorm = self.vcol.norm2();
            if !(vnorm > 0.0) || !vnorm.is_finite() {
                if idx < k {
                    return Ok(false);
                }
                continue;
            }
            self.hcoef[..t].fill(0.0);
            for _pass in 0..2 {
                for j in 0..t {
                    let q_j = &self.qmat[j * n..(j + 1) * n];
                    let h: f64 = q_j.iter().zip(self.vcol.iter()).map(|(a, b)| a * b).sum();
                    self.hcoef[j] += h;
                    for (v, &qv) in self.vcol.as_mut_slice().iter_mut().zip(q_j) {
                        *v -= h * qv;
                    }
                }
            }
            let rho = self.vcol.norm2();
            if rho <= 1e-12 * vnorm {
                if idx < k {
                    return Ok(false);
                }
                continue; // dependent inequality row: skip
            }
            let inv = 1.0 / rho;
            for (q, &v) in self.qmat[t * n..(t + 1) * n]
                .iter_mut()
                .zip(self.vcol.iter())
            {
                *q = v * inv;
            }
            for j in 0..t {
                self.rmat[j * n + t] = self.hcoef[j];
            }
            self.rmat[t * n + t] = rho;
            if idx >= k {
                self.admitted.push(ineq_rows[idx - k]);
            }
            rhs.push(b);
            t += 1;
        }

        // g = R⁻ᵀ·b_W − Qᵀu₀; u = u₀ + Q·g; multipliers λ = R⁻¹g (left in
        // gvec for the caller).
        for (i, &rhs_i) in rhs.iter().enumerate().take(t) {
            let mut sum = rhs_i;
            for j in 0..i {
                sum -= self.rmat[j * n + i] * self.gvec[j];
            }
            self.gvec[i] = sum / self.rmat[i * n + i];
        }
        for j in 0..t {
            let q_j = &self.qmat[j * n..(j + 1) * n];
            let qtu: f64 = q_j.iter().zip(self.u0.iter()).map(|(a, b)| a * b).sum();
            self.gvec[j] -= qtu;
        }
        for j in 0..t {
            let gj = self.gvec[j];
            if gj != 0.0 {
                let q_j = &self.qmat[j * n..(j + 1) * n];
                for (u, &qv) in self.u0.as_mut_slice().iter_mut().zip(q_j) {
                    *u += gj * qv;
                }
            }
        }
        for i in (0..t).rev() {
            let mut sum = self.gvec[i];
            for j in (i + 1)..t {
                sum -= self.rmat[i * n + j] * self.gvec[j];
            }
            self.gvec[i] = sum / self.rmat[i * n + i];
        }
        Ok(true)
    }

    /// Active-set polish (crossover): solves the equality-constrained QP
    /// on the candidate active rows exactly, then iterates — dropping
    /// the row with the most negative multiplier, or adding the most
    /// violated inequality row — until the full KKT conditions hold or a
    /// bounded round budget is exhausted. The add direction matters on
    /// near-degenerate vertices (`cond(H) ≳ 1e9`), where the interior
    /// iterate misclassifies weakly active rows and a drop-only polish
    /// would land slightly infeasible and give up. Returns `None` when
    /// the verified polish fails — the caller falls back to the interior
    /// iterate.
    fn polish(&mut self, problem: &QpProblem<'_>) -> Result<Option<Vector>> {
        let k = self.e_keep.rows();
        let mut rows: Vec<usize> = self.candidates.clone();
        let m = problem.inequalities().map_or(0, |(a, _)| a.rows());
        let max_rounds = 2 * (rows.len() + m) + 4;
        for _round in 0..max_rounds {
            if !self.polish_system(problem, &rows)? {
                return Ok(None);
            }
            // Multiplier sign check on the admitted inequality rows.
            let t = k + self.admitted.len();
            let lam_scale = 1.0 + (0..t).fold(0.0f64, |a, j| a.max(self.gvec[j].abs()));
            let mut worst: Option<(usize, f64)> = None;
            for (pos, _) in self.admitted.iter().enumerate() {
                let l = self.gvec[k + pos];
                if l < -1e-9 * lam_scale {
                    match worst {
                        Some((_, best)) if l >= best => {}
                        _ => worst = Some((pos, l)),
                    }
                }
            }
            if let Some((pos, _)) = worst {
                let dropped = self.admitted[pos];
                rows.retain(|&r| r != dropped);
                continue;
            }
            // x = L⁻ᵀu (u left in u0 by polish_system).
            let mut x = self.u0.clone();
            self.chol_h
                .as_ref()
                .expect("factored in solve")
                .backward_solve_in_place(&mut x)?;
            match self.polish_check(problem, &x)? {
                PolishCheck::Feasible => return Ok(Some(x)),
                PolishCheck::EqualityViolated => return Ok(None),
                PolishCheck::InequalityViolated(i) => {
                    if rows.contains(&i) {
                        // Already in the working set but rejected as
                        // dependent during admission — the vertex is
                        // overdetermined; give up.
                        return Ok(None);
                    }
                    rows.push(i);
                }
            }
        }
        Ok(None)
    }

    /// Classifies a polished point against **all** constraints: feasible,
    /// equality-violated (unrecoverable), or the worst violated
    /// inequality row (a candidate for working-set addition).
    fn polish_check(&self, problem: &QpProblem<'_>, x: &Vector) -> Result<PolishCheck> {
        let scale = 1.0 + x.norm_inf();
        let tol = 1e-8 * scale;
        if self.e_keep.rows() > 0 {
            let r = &self.e_keep.matvec(x)? - &self.e_rhs;
            if r.norm_inf() > tol {
                return Ok(PolishCheck::EqualityViolated);
            }
        }
        let mut worst: Option<(usize, f64)> = None;
        if let Some((a_mat, b_rhs)) = problem.inequalities() {
            let ax = a_mat.matvec(x)?;
            for i in 0..b_rhs.len() {
                let slack = ax[i] - b_rhs[i];
                if slack < -tol {
                    match worst {
                        Some((_, best)) if slack >= best => {}
                        _ => worst = Some((i, slack)),
                    }
                }
            }
        }
        Ok(match worst {
            Some((i, _)) => PolishCheck::InequalityViolated(i),
            None => PolishCheck::Feasible,
        })
    }
}

/// Outcome of checking a polished point against the full constraint set.
enum PolishCheck {
    /// All constraints hold to tolerance.
    Feasible,
    /// A kept equality row is violated — polish cannot recover.
    EqualityViolated,
    /// The worst violated inequality row (working-set addition candidate).
    InequalityViolated(usize),
}

/// Largest `α ∈ (0, 1]` with `v + α·dv ≥ 0` (unclamped ratio test).
fn max_step(v: &Vector, dv: &Vector) -> f64 {
    let mut alpha = 1.0f64;
    for (&vi, &di) in v.iter().zip(dv.iter()) {
        if di < 0.0 {
            alpha = alpha.min(-vi / di);
        }
    }
    alpha.max(0.0)
}

/// Objective `½xᵀHx + cᵀx`.
fn objective_of(h: &Matrix, c: &Vector, x: &Vector) -> Result<f64> {
    let hx = h.matvec(x)?;
    Ok(0.5 * x.dot(&hx)? + c.dot(x)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QpWorkspace;

    fn solve_both(problem: &QpProblem<'_>) -> (QpSolution, QpSolution) {
        let ipm = IpmWorkspace::new().solve(problem).expect("ipm solves");
        let active = QpWorkspace::new()
            .solve(problem)
            .expect("active-set solves");
        (ipm, active)
    }

    #[test]
    fn textbook_inequality_example() {
        // Nocedal & Wright example 16.4: solution (1.4, 1.7).
        let h = Matrix::identity(2).scaled(2.0);
        let c = Vector::from_slice(&[-2.0, -5.0]);
        let a = Matrix::from_rows(&[
            &[1.0, -2.0],
            &[-1.0, -2.0],
            &[-1.0, 2.0],
            &[1.0, 0.0],
            &[0.0, 1.0],
        ])
        .unwrap();
        let b = Vector::from_slice(&[-2.0, -6.0, -2.0, 0.0, 0.0]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap();
        let sol = IpmWorkspace::new().solve(&problem).unwrap();
        assert!((sol.x[0] - 1.4).abs() < 1e-8, "x = {}", sol.x);
        assert!((sol.x[1] - 1.7).abs() < 1e-8);
    }

    #[test]
    fn unconstrained_and_equality_only() {
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let c = Vector::from_slice(&[-1.0, -2.0]);
        let problem = QpProblem::new(&h, &c).unwrap();
        let sol = IpmWorkspace::new().solve(&problem).unwrap();
        let direct = h.lu().unwrap().solve(&(-&c)).unwrap();
        assert!((&sol.x - &direct).norm2() < 1e-10);
        assert_eq!(sol.iterations, 0);

        // min ½‖x‖² s.t. x₀ + x₁ = 2 → (1, 1).
        let h2 = Matrix::identity(2);
        let c2 = Vector::zeros(2);
        let e = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let rhs = Vector::from_slice(&[2.0]);
        let problem = QpProblem::new(&h2, &c2)
            .unwrap()
            .with_equalities(&e, &rhs)
            .unwrap();
        let sol = IpmWorkspace::new().solve(&problem).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-10);
        assert!((sol.x[1] - 1.0).abs() < 1e-10);
        assert!((sol.objective - 1.0).abs() < 1e-10);
    }

    #[test]
    fn mixed_constraints_match_active_set() {
        // min ½‖x‖² s.t. Σx = 3, x ≥ 0, x₂ ≥ 1.5 → (0.75, 1.5, 0.75).
        let h = Matrix::identity(3);
        let c = Vector::zeros(3);
        let e = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let e_rhs = Vector::from_slice(&[3.0]);
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
        ])
        .unwrap();
        let b = Vector::from_slice(&[0.0, 0.0, 0.0, 1.5]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_equalities(&e, &e_rhs)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap();
        // Neither the origin nor the minimum-norm equality solution is
        // feasible; the IPM synthesizes its own interior point.
        let sol = IpmWorkspace::new().solve(&problem).unwrap();
        assert!((sol.x[0] - 0.75).abs() < 1e-8, "x = {}", sol.x);
        assert!((sol.x[1] - 1.5).abs() < 1e-8);
        assert!((sol.x[2] - 0.75).abs() < 1e-8);
    }

    #[test]
    fn agrees_with_active_set_on_ill_conditioned_family() {
        // The deconvolution-shaped regime: cond(H) ~ 1e9 from a tiny
        // ridge on a smooth-kernel Gram matrix, positivity constraints.
        let n = 14;
        let mreas = 12;
        let a_design = Matrix::from_fn(mreas, n, |r, c| {
            let t = r as f64 / (mreas - 1) as f64;
            let phi = c as f64 / (n - 1) as f64;
            (-((phi - t).powi(2)) / 0.03).exp() + 0.05
        });
        let truth = Vector::from_fn(n, |i| {
            let phi = i as f64 / (n - 1) as f64;
            (2.0 * std::f64::consts::PI * phi).sin() * 1.5 - 0.3
        });
        let data = a_design.matvec(&truth).unwrap();
        let mut h = a_design.gram().scaled(2.0);
        for i in 0..n {
            h[(i, i)] += 2e-9;
        }
        h.symmetrize().unwrap();
        let c = -&a_design.tr_matvec(&data).unwrap().scaled(2.0);
        let ineq = Matrix::identity(n);
        let zero = Vector::zeros(n);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&ineq, &zero)
            .unwrap();
        let (ipm, active) = solve_both(&problem);
        let scale = 1.0 + active.x.norm_inf();
        assert!(
            (&ipm.x - &active.x).norm_inf() <= 1e-8 * scale,
            "|Δx|∞ = {:e}",
            (&ipm.x - &active.x).norm_inf()
        );
        assert!(
            (ipm.objective - active.objective).abs() <= 1e-8 * (1.0 + active.objective.abs()),
            "objectives {} vs {}",
            ipm.objective,
            active.objective
        );
        let mut ia = ipm.active_set.clone();
        let mut aa = active.active_set.clone();
        ia.sort_unstable();
        aa.sort_unstable();
        assert_eq!(ia, aa, "active sets differ");
    }

    #[test]
    fn duplicated_inequality_rows_are_harmless() {
        // Interior-point methods have no working-set rank requirement:
        // duplicated rows split their dual mass and converge anyway.
        let h = Matrix::identity(2);
        let c = Vector::from_slice(&[1.0, -2.0]);
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let b = Vector::zeros(4);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap();
        let sol = IpmWorkspace::new().solve(&problem).unwrap();
        assert!(sol.x[0].abs() < 1e-8);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn inconsistent_equalities_are_infeasible() {
        let h = Matrix::identity(2);
        let c = Vector::zeros(2);
        let e = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let rhs = Vector::from_slice(&[1.0, 2.0]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_equalities(&e, &rhs)
            .unwrap();
        let err = IpmWorkspace::new().solve(&problem).unwrap_err();
        assert!(matches!(err, OptError::Infeasible(_)), "got {err}");
    }

    #[test]
    fn consistent_dependent_equalities_are_reduced() {
        // Duplicated equality rows with matching right-hand sides: the
        // preprocessing keeps one copy and the solve proceeds.
        let h = Matrix::identity(2);
        let c = Vector::zeros(2);
        let e = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0]]).unwrap();
        let rhs = Vector::from_slice(&[2.0, 4.0]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_equalities(&e, &rhs)
            .unwrap();
        let sol = IpmWorkspace::new().solve(&problem).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9, "x = {}", sol.x);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn non_pd_hessian_is_structured_error() {
        let h = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let c = Vector::zeros(2);
        let problem = QpProblem::new(&h, &c).unwrap();
        let err = IpmWorkspace::new().solve(&problem).unwrap_err();
        assert!(matches!(err, OptError::NotConvex(_)), "got {err}");
    }

    #[test]
    fn workspace_reuse_across_shapes() {
        let mut ws = IpmWorkspace::new();
        for n in [2usize, 5, 3, 5] {
            let h = Matrix::identity(n).scaled(2.0);
            let c = Vector::from_fn(n, |i| -(i as f64) - 1.0);
            let ineq = Matrix::identity(n);
            let zero = Vector::zeros(n);
            let problem = QpProblem::new(&h, &c)
                .unwrap()
                .with_inequalities(&ineq, &zero)
                .unwrap();
            let sol = ws.solve(&problem).unwrap();
            for i in 0..n {
                let expect = (i as f64 + 1.0) / 2.0;
                assert!((sol.x[i] - expect).abs() < 1e-8, "n={n} i={i} x={}", sol.x);
            }
        }
    }
}
