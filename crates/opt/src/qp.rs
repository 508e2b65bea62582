//! Primal active-set method for convex quadratic programs.
//!
//! The solver is split into a borrow-based problem description
//! ([`QpProblem`]) and a reusable mutable scratch ([`QpWorkspace`]), so
//! repeated solves share buffers and warm-start information instead of
//! reallocating per solve. A one-shot solve is
//! `QpWorkspace::new().solve(&problem)`.

use cellsync_linalg::{CholeskyDecomposition, Matrix, Vector};
use cellsync_runtime::CancelToken;

use crate::{OptError, Result};

/// Relative margin of the interior start: the push along the interior
/// direction is stretched by this fraction past the point where the last
/// inequality row becomes satisfied, so every row starts strictly slack
/// (by at least this fraction of its own push). The first step back
/// toward the equality-constrained minimizer then stops exactly on that
/// last row, so the value only needs to be clearly above roundoff.
const INTERIOR_MARGIN: f64 = 1e-3;

/// A borrowed view of a convex quadratic program
///
/// ```text
/// minimize   ½·xᵀH x + cᵀx
/// subject to E x = e          (equalities)
///            A x ≥ b          (inequalities)
/// ```
///
/// solved with the primal active-set method using null-space KKT solves
/// (Nocedal & Wright, *Numerical Optimization*, §16.5). `H` must be
/// symmetric positive definite — the deconvolution Hessian
/// `2(AᵀW²A + λΩ + εI)` always is.
///
/// The problem only borrows its matrices: building one is free, so a hot
/// loop can rebuild the view per solve (e.g. with a new linear term)
/// while the backing storage and the [`QpWorkspace`] persist.
///
/// # Example
///
/// ```
/// use cellsync_linalg::{Matrix, Vector};
/// use cellsync_opt::{QpProblem, QpWorkspace};
///
/// # fn main() -> Result<(), cellsync_opt::OptError> {
/// // min (x−1)² + (y−2.5)² s.t. x ≥ 0, y ≥ 0, y ≤ 2  →  (1, 2)
/// let h = Matrix::identity(2).scaled(2.0);
/// let c = Vector::from_slice(&[-2.0, -5.0]);
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, -1.0]]).expect("rows");
/// let b = Vector::from_slice(&[0.0, 0.0, -2.0]);
/// let problem = QpProblem::new(&h, &c)?.with_inequalities(&a, &b)?;
/// let mut workspace = QpWorkspace::new();
/// let sol = workspace.solve(&problem)?;
/// assert!((sol.x[0] - 1.0).abs() < 1e-9);
/// assert!((sol.x[1] - 2.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct QpProblem<'a> {
    h: &'a Matrix,
    c: &'a Vector,
    eq: Option<(&'a Matrix, &'a Vector)>,
    ineq: Option<(&'a Matrix, &'a Vector)>,
    start: Option<&'a Vector>,
    direction: Option<&'a Vector>,
    tolerance: f64,
    cancel: Option<CancelToken>,
}

/// The result of a successful QP solve.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// The minimizer.
    pub x: Vector,
    /// Objective value `½xᵀHx + cᵀx` at the minimizer.
    pub objective: f64,
    /// Active-set iterations used.
    pub iterations: usize,
    /// Indices of inequality constraints active at the solution.
    pub active_set: Vec<usize>,
}

impl<'a> QpProblem<'a> {
    /// Creates an unconstrained QP view `min ½xᵀHx + cᵀx`.
    ///
    /// # Errors
    ///
    /// * [`OptError::DimensionMismatch`] when `c.len() != H.rows()`.
    /// * [`OptError::NotConvex`] when `H` is rectangular or asymmetric.
    /// * [`OptError::InvalidArgument`] for non-finite entries.
    pub fn new(h: &'a Matrix, c: &'a Vector) -> Result<Self> {
        if !h.is_square() {
            return Err(OptError::NotConvex("hessian must be square".into()));
        }
        if !h.is_finite() || !c.is_finite() {
            return Err(OptError::InvalidArgument("entries must be finite"));
        }
        let scale = h.norm_inf().max(1.0);
        if h.asymmetry()? > 1e-7 * scale {
            return Err(OptError::NotConvex("hessian must be symmetric".into()));
        }
        if c.len() != h.rows() {
            return Err(OptError::DimensionMismatch {
                what: "linear term",
                expected: h.rows(),
                got: c.len(),
            });
        }
        Ok(QpProblem {
            h,
            c,
            eq: None,
            ineq: None,
            start: None,
            direction: None,
            tolerance: 1e-10,
            cancel: None,
        })
    }

    /// Adds equality constraints `E x = e`.
    ///
    /// # Errors
    ///
    /// [`OptError::DimensionMismatch`] for inconsistent shapes.
    pub fn with_equalities(mut self, e_mat: &'a Matrix, e_rhs: &'a Vector) -> Result<Self> {
        if e_mat.cols() != self.dim() {
            return Err(OptError::DimensionMismatch {
                what: "equality matrix columns",
                expected: self.dim(),
                got: e_mat.cols(),
            });
        }
        if e_mat.rows() != e_rhs.len() {
            return Err(OptError::DimensionMismatch {
                what: "equality rhs",
                expected: e_mat.rows(),
                got: e_rhs.len(),
            });
        }
        self.eq = Some((e_mat, e_rhs));
        Ok(self)
    }

    /// Adds inequality constraints `A x ≥ b`.
    ///
    /// # Errors
    ///
    /// [`OptError::DimensionMismatch`] for inconsistent shapes.
    pub fn with_inequalities(mut self, a_mat: &'a Matrix, b_rhs: &'a Vector) -> Result<Self> {
        if a_mat.cols() != self.dim() {
            return Err(OptError::DimensionMismatch {
                what: "inequality matrix columns",
                expected: self.dim(),
                got: a_mat.cols(),
            });
        }
        if a_mat.rows() != b_rhs.len() {
            return Err(OptError::DimensionMismatch {
                what: "inequality rhs",
                expected: a_mat.rows(),
                got: b_rhs.len(),
            });
        }
        self.ineq = Some((a_mat, b_rhs));
        Ok(self)
    }

    /// Supplies a feasible starting point (takes precedence over any
    /// workspace warm start).
    ///
    /// # Errors
    ///
    /// [`OptError::DimensionMismatch`] for a wrong-length vector.
    pub fn with_start(mut self, x0: &'a Vector) -> Result<Self> {
        if x0.len() != self.dim() {
            return Err(OptError::DimensionMismatch {
                what: "starting point",
                expected: self.dim(),
                got: x0.len(),
            });
        }
        self.start = Some(x0);
        Ok(self)
    }

    /// Supplies an **interior direction** `d` for the start rule: a
    /// direction along which every inequality row strictly increases
    /// (`aᵢᵀd > 0`) while the equalities stay put (`E·d = 0`).
    ///
    /// When no supplied start or feasible warm hint applies,
    /// [`QpWorkspace::solve`] takes a base point — the warm hint, or else
    /// the equality-constrained minimizer — and moves it along `d` just
    /// far enough that every inequality row holds with a small relative
    /// margin, so the active-set walk starts strictly inside the feasible
    /// cone instead of at a degenerate vertex. A direction that fails
    /// either condition (or has the wrong length) is ignored at solve
    /// time, exactly like a stale warm hint; it is never an error.
    #[must_use]
    pub fn with_interior_direction(mut self, d: &'a Vector) -> Self {
        self.direction = Some(d);
        self
    }

    /// Attaches a cooperative cancellation token. Both backends poll it
    /// once per outer iteration and abandon the solve with
    /// [`OptError::Cancelled`] when it fires; a cancelled solve leaves the
    /// workspace reusable.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Errors with [`OptError::Cancelled`] when the attached token (if
    /// any) has fired. Polled by both backends between outer iterations.
    pub(crate) fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(token) if token.is_cancelled() => Err(OptError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.h.rows()
    }

    /// The Hessian `H` (crate-internal: shared with the IPM backend).
    pub(crate) fn hessian(&self) -> &'a Matrix {
        self.h
    }

    /// The linear term `c`.
    pub(crate) fn linear(&self) -> &'a Vector {
        self.c
    }

    /// The equality block `(E, e)`, if any.
    pub(crate) fn equalities(&self) -> Option<(&'a Matrix, &'a Vector)> {
        self.eq
    }

    /// The inequality block `(A, b)`, if any.
    pub(crate) fn inequalities(&self) -> Option<(&'a Matrix, &'a Vector)> {
        self.ineq
    }

    /// The iteration budget, `100·(n + 10)`.
    pub(crate) fn iteration_budget(&self) -> usize {
        100 * (self.dim() + 10)
    }

    /// Checks feasibility of `x` within tolerance `tol`.
    fn is_feasible(&self, x: &Vector, tol: f64) -> Result<bool> {
        if let Some((e_mat, e_rhs)) = &self.eq {
            let r = &e_mat.matvec(x)? - e_rhs;
            if r.norm_inf() > tol {
                return Ok(false);
            }
        }
        if let Some((a_mat, b_rhs)) = self.ineq {
            let ax = a_mat.matvec(x)?;
            for i in 0..b_rhs.len() {
                if ax[i] < b_rhs[i] - tol {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// The interior direction when it is usable for this problem: right
    /// length, finite, `E·d = 0` to roundoff (relative to each row's
    /// `Σ|eⱼdⱼ|`), and `aᵢᵀd > 0` on every inequality row, whose values
    /// are left in `ad`. A problem without inequalities has no use for
    /// one.
    fn interior_direction(&self, ad: &mut Vector) -> Result<Option<&'a Vector>> {
        let (Some(d), Some((a_mat, _))) = (self.direction, self.ineq) else {
            return Ok(None);
        };
        if d.len() != self.dim() || !d.is_finite() {
            return Ok(None);
        }
        if let Some((e_mat, _)) = &self.eq {
            for r in 0..e_mat.rows() {
                let row = e_mat.row(r);
                let scale: f64 = row.iter().zip(d.iter()).map(|(e, v)| (e * v).abs()).sum();
                if dot(row, d.as_slice()).abs() > 1e-9 * scale {
                    return Ok(None);
                }
            }
        }
        a_mat.matvec_into(d, ad)?;
        Ok(ad.iter().all(|&v| v > 0.0).then_some(d))
    }

    /// Finds a default feasible starting point (user-supplied, origin, or
    /// minimum-norm equality solution).
    fn feasible_start(&self, tol: f64) -> Result<Vector> {
        if let Some(x0) = self.start {
            if self.is_feasible(x0, tol)? {
                return Ok(x0.clone());
            }
            return Err(OptError::Infeasible(
                "supplied starting point violates constraints".into(),
            ));
        }
        let origin = Vector::zeros(self.dim());
        if self.is_feasible(&origin, tol)? {
            return Ok(origin);
        }
        if let Some((e_mat, e_rhs)) = &self.eq {
            // Minimum-norm solution of Ex = e: x = Eᵀ(EEᵀ)⁻¹e. A singular
            // EEᵀ means dependent equality rows — with a right-hand side
            // the origin did not already satisfy, the system is either
            // inconsistent or needs a user-supplied start, so the failure
            // is reported as infeasibility rather than a bare linear-
            // algebra error.
            let eet = e_mat.matmul(&e_mat.transpose())?;
            if let Ok(lu) = eet.lu() {
                let w = lu.solve(e_rhs)?;
                let x = e_mat.tr_matvec(&w)?;
                if self.is_feasible(&x, tol.max(1e-8))? {
                    return Ok(x);
                }
            } else {
                return Err(OptError::Infeasible(
                    "equality system is rank-deficient and not satisfied at the origin \
                     (inconsistent rows, or supply a start with with_start)"
                        .into(),
                ));
            }
        }
        Err(OptError::Infeasible(
            "no feasible starting point found (supply one with with_start)".into(),
        ))
    }
}

/// Reusable scratch for [`QpProblem`] solves, built around an
/// **incrementally maintained** factorization of the working-set system.
///
/// The solver is an active-set method in the whitened coordinates
/// `u = Lᵀx`, where `H = LLᵀ` is factored at the start of every solve.
/// In those coordinates the objective is `½‖u − u₀‖²` with
/// `u₀ = −L⁻¹c`, and each working row `a` becomes the whitened column
/// `v = L⁻¹a`. The workspace maintains the thin QR
/// factorization of those columns,
///
/// ```text
/// L⁻¹·A_Wᵀ = Q·R      (Q n×m orthonormal, R m×m upper triangular)
/// ```
///
/// which is a **factored null-space basis**: the orthogonal complement
/// of `range(Q)` is exactly the (whitened) null space of the working
/// constraints, and `R` is algebraically the Cholesky factor of the
/// constraint Gram matrix `S = A_W·H⁻¹·A_Wᵀ = RᵀR` — but computed by
/// orthogonalization, so its conditioning is `√cond(S)` (the explicit
/// Schur-complement recurrence squares `cond(H)` and collapses on the
/// near-singular Hessians of small-λ deconvolution fits).
///
/// When a constraint **enters**, the factor is updated in `O(n²)`: one
/// forward substitution for `v = L⁻¹a` plus a re-orthogonalized
/// Gram–Schmidt append (a bordered — rank-one — extension of `R`). When
/// one **leaves**, a Givens rotation sweep restores triangularity in
/// `O(m·(m + n))` — the downdate. A pivot that loses positive
/// definiteness (a numerically dependent row, detected as a vanishing
/// orthogonal residual) rejects the row; a degenerated factor falls
/// back to one **full refactorization** from the working rows. No
/// iteration ever refactorizes from scratch otherwise — the `O(n³)`
/// per-iteration QR + reduced-Hessian Cholesky of the old solver is
/// gone — and the steady-state iteration does **zero heap allocation**.
///
/// Across solves the workspace provides:
///
/// 1. **Buffer reuse** — every per-iteration vector, the `Q`/`R`
///    storage and the storage of `H`'s Cholesky factor persist, so
///    same-sized solves allocate nothing but their returned solution.
/// 2. **No Hessian state** — `H` is refactored into that storage at the
///    start of every solve, so successive problems may change `H`
///    freely and a solve never reads a factor of another problem.
/// 3. **Warm starts** — [`QpWorkspace::set_warm_start`] records a hint
///    `(x₀, active set)` (typically a previous solution of a nearby
///    problem). The next solves start from the hint when it is feasible
///    and seed the working set from its still-active rows, each admitted
///    through the same guarded incremental append (dependent rows are
///    dropped); a stale hint is ignored, never an error, and an infeasible
///    one is at most the base point of the interior start (item 4).
///    The hint persists until replaced, so every solve after one
///    [`QpWorkspace::set_warm_start`] starts from the same deterministic
///    hint — results stay independent of solve order.
/// 4. **Interior start** — when no feasible start applies and the
///    problem carries an interior direction `d`
///    ([`QpProblem::with_interior_direction`]), the walk starts at the
///    hint (or the equality-constrained minimizer) moved along `d` until
///    every inequality row is strictly slack. Zero-right-hand-side rows
///    are all tight at the origin, a fully degenerate vertex the walk
///    otherwise leaves only through a long run of zero-length steps.
#[derive(Debug, Clone, Default)]
pub struct QpWorkspace {
    /// Cholesky factor `L` of the current solve's `H`.
    hessian_factor: CholeskyDecomposition,
    warm: Option<(Vector, Vec<usize>)>,
    /// Inequality rows currently treated as equalities.
    working: Vec<usize>,
    /// Equality rows retained in the working system (consistent
    /// dependent rows are redundant and skipped at seed time).
    eq_keep: Vec<usize>,
    /// Rows currently in the factored working system
    /// (`== eq_keep.len() + working.len()`).
    m_rows: usize,
    /// Storage stride / capacity of the factor (`== n`).
    cap: usize,
    /// Column-major orthonormal basis `Q` of the whitened working rows
    /// (column `j` at `j·n..(j+1)·n`), sized to the rows pushed so far.
    qmat: Vec<f64>,
    /// Row-major upper-triangular `R` with row stride `cap`:
    /// `L⁻¹A_Wᵀ = Q·R`, sized like `qmat`.
    rmat: Vec<f64>,
    /// Whitened objective center `u₀ = −L⁻¹c` for the current solve.
    u0: Vector,
    /// Whitened working-set minimizer `u_W`.
    ut: Vector,
    /// Current iterate.
    x: Vector,
    /// Working-set minimizer `x_W = L⁻ᵀu_W`.
    xt: Vector,
    /// Step `x_W − x`.
    step: Vector,
    /// Scratch for `L⁻¹a` / refinement directions.
    vcol: Vector,
    /// Refinement / objective scratch (`n`).
    resid: Vector,
    /// Multipliers `λ` of the working system.
    lam: Vec<f64>,
    /// `R⁻ᵀb_W` and refinement right-hand sides.
    dvec: Vec<f64>,
    /// Projection coefficients `d − Qᵀu₀` (and `δλ` in refinement).
    gvec: Vec<f64>,
    /// Gram–Schmidt / triangular-matvec coefficient scratch.
    hcoef: Vec<f64>,
    /// `A·x` over all inequality rows.
    ax: Vector,
    /// `A·p` over all inequality rows.
    ap: Vector,
    /// Reused copy of the warm hint's active list for the seeding loop.
    warm_idx: Vec<usize>,
    /// Inequality rows found numerically dependent on the **current**
    /// working set. Such a row is implied by the working rows (any
    /// apparent blocking is roundoff at the factor's dependence
    /// tolerance), so it is excluded from the line search until the
    /// working set changes — the standard guard against degenerate
    /// zero-step cycling. Cleared on every working-set change.
    dependent: Vec<usize>,
    /// Interior-point rescue solver for solves whose active-set walk
    /// cycles (see [`QpWorkspace::solve`]). Defaults to empty buffers, so
    /// callers that never hit the degenerate regime pay nothing.
    ipm: crate::ipm::IpmWorkspace,
}

impl QpWorkspace {
    /// Activity tolerance of the warm-start protocol: a hinted inequality
    /// row is seeded into the working set only when `|aᵀx₀ − b|` is below
    /// this times the problem scale. Callers that *collect* hint rows
    /// (e.g. from a previous solution) should use the same constant, or a
    /// looser one only deliberately — rows failing this test at solve
    /// time are silently dropped.
    pub const WARM_ACTIVITY_TOL: f64 = 1e-8;

    /// Creates an empty workspace.
    pub fn new() -> Self {
        QpWorkspace::default()
    }

    /// Records a warm-start hint: a candidate starting point and the
    /// inequality active set to seed the working set from. The hint is
    /// validated at solve time (feasibility, activity, rank) and ignored
    /// when it does not apply.
    pub fn set_warm_start(&mut self, x0: Vector, active: Vec<usize>) {
        self.warm = Some((x0, active));
    }

    /// Solves `problem`, reusing this workspace's buffers and warm-start
    /// hint; `H` is factored afresh.
    ///
    /// # Errors
    ///
    /// * [`OptError::Infeasible`] when no feasible start exists.
    /// * [`OptError::NotConvex`] when `H` is not positive definite (or the
    ///   working system degenerates beyond the full-refactor fallback).
    /// * [`OptError::IterationLimit`] if the active-set loop fails to
    ///   terminate (degenerate cycling) **and** the interior-point rescue
    ///   solve also exhausts its budget. An exhausted active-set walk —
    ///   observed on ill-conditioned mixture residual fits, where the
    ///   working-set factor degenerates and multiplier signs become
    ///   noise — is retried on the algorithmically independent
    ///   [`crate::IpmWorkspace`] backend before erroring.
    pub fn solve(&mut self, problem: &QpProblem<'_>) -> Result<QpSolution> {
        let n = problem.dim();
        let tol = problem.tolerance;
        self.hessian_factor
            .refactor(problem.h)
            .map_err(|_| OptError::NotConvex("hessian is not positive definite".into()))?;
        let n_eq = problem.eq.as_ref().map_or(0, |(m, _)| m.rows());
        let n_ineq = problem.ineq.map_or(0, |(a_mat, _)| a_mat.rows());
        self.ensure(n, n_ineq);

        // Whitened objective center u₀ = −L⁻¹c, fixed for the whole
        // solve: every working-set minimizer below is u₀ plus a
        // combination of Q columns.
        for (u, &ci) in self.u0.as_mut_slice().iter_mut().zip(problem.c.iter()) {
            *u = -ci;
        }
        self.hessian_factor.forward_solve_in_place(&mut self.u0)?;

        // Working system: equality rows first (a consistent dependent row
        // is redundant — the retained independent rows already enforce
        // it — and is skipped), then, for warm starts, the hinted active
        // rows. Every row is admitted through the same guarded
        // incremental append, so the factored system always has
        // independent rows. Cold solves start with equalities only:
        // blocking rows satisfy aᵀp ≠ 0 against the current step, so they
        // can never be linear combinations of rows already in the set.
        for r in 0..n_eq {
            let row = problem.eq.as_ref().expect("n_eq > 0").0.row(r);
            if self.push_row(row)? {
                self.eq_keep.push(r);
            }
        }

        // Starting point (see `start_point` for the rule). A feasible
        // warm hint also seeds the working set.
        if self.start_point(problem, tol)? {
            self.seed_working_from_hint(problem)?;
        }

        for iteration in 0..problem.iteration_budget() {
            problem.check_cancel()?;
            self.working_minimizer(problem)?;

            // Step toward the working-set minimizer. With n independent
            // working rows the null space is trivial, so the step is
            // identically zero — forcing it avoids chasing roundoff.
            if self.m_rows == n {
                self.step.as_mut_slice().fill(0.0);
            } else {
                for ((p, &t), &xv) in self
                    .step
                    .as_mut_slice()
                    .iter_mut()
                    .zip(self.xt.iter())
                    .zip(self.x.iter())
                {
                    *p = t - xv;
                }
            }

            let p_scale = 1.0 + self.x.norm2();
            if self.step.norm2() <= tol * p_scale {
                // Stationary on the working set: check the inequality
                // multipliers (computed by the same solve as the step).
                if self.working.is_empty() {
                    return self.finish(problem, iteration);
                }
                let n_eqk = self.eq_keep.len();
                let mut most_negative: Option<(usize, f64)> = None;
                for k in 0..self.working.len() {
                    let l = self.lam[n_eqk + k];
                    if l < -1e-8 {
                        match most_negative {
                            Some((_, best)) if l >= best => {}
                            _ => most_negative = Some((k, l)),
                        }
                    }
                }
                match most_negative {
                    None => return self.finish(problem, iteration),
                    Some((k, _)) => {
                        // Constraint leaves: a Givens rotation sweep
                        // downdates the factor in place. A degenerated
                        // result (never observed; pure safety net) falls
                        // back to a full refactorization.
                        self.remove_row(n_eqk + k, n);
                        self.working.remove(k);
                        self.dependent.clear();
                        if !self.factor_is_sound() {
                            self.rebuild_factor(problem)?;
                        }
                    }
                }
            } else {
                // Line search to the nearest blocking constraint.
                let mut alpha = 1.0;
                let mut blocking: Option<usize> = None;
                if let Some((a_mat, b_rhs)) = problem.ineq {
                    a_mat.matvec_into(&self.step, &mut self.ap)?;
                    a_mat.matvec_into(&self.x, &mut self.ax)?;
                    for i in 0..n_ineq {
                        if self.working.contains(&i) || self.dependent.contains(&i) {
                            continue;
                        }
                        if self.ap[i] < -tol {
                            let step = (b_rhs[i] - self.ax[i]) / self.ap[i];
                            if step < alpha {
                                alpha = step.max(0.0);
                                blocking = Some(i);
                            }
                        }
                    }
                }
                for (xv, &p) in self.x.as_mut_slice().iter_mut().zip(self.step.iter()) {
                    *xv += alpha * p;
                }
                if let Some(bi) = blocking {
                    let full = self.eq_keep.len() + self.working.len() >= n;
                    let row = problem.ineq.expect("blocking row exists").0.row(bi);
                    if !full && self.push_row(row)? {
                        self.working.push(bi);
                        self.dependent.clear();
                    } else {
                        // The blocking row is (numerically) implied by
                        // the working set: park it so it cannot stall
                        // the line search at α = 0 forever.
                        self.dependent.push(bi);
                    }
                }
            }
        }
        // Budget exhausted: degenerate cycling. Near a rank-deficient
        // vertex the working-set factor goes ill-conditioned, the
        // multiplier signs that drive drop decisions become noise, and
        // the add/drop walk revisits vertices forever — more iterations
        // cannot help. Hand the problem to the algorithmically
        // independent interior-point backend, which follows the central
        // path instead of walking vertices and therefore cannot cycle;
        // the differential corpus suite pins the two backends to 1e-8
        // agreement on problems both solve, so the rescue preserves
        // answers. The IPM ignores warm hints and caches nothing, so the
        // workspace's cross-solve state is untouched; a problem the IPM
        // also rejects surfaces its structured error.
        self.ipm.solve(problem)
    }

    /// Sizes the per-solve buffers (allocating only on a dimension
    /// change) and resets the working system.
    fn ensure(&mut self, n: usize, n_ineq: usize) {
        if self.cap != n {
            self.cap = n;
            self.u0 = Vector::zeros(n);
            self.ut = Vector::zeros(n);
            self.x = Vector::zeros(n);
            self.xt = Vector::zeros(n);
            self.step = Vector::zeros(n);
            self.vcol = Vector::zeros(n);
            self.resid = Vector::zeros(n);
            // Q and R grow a row at a time in `push_row`: the working set
            // rarely holds more than a few rows, and an n×n reservation
            // would make every large-basis solve resident in n² memory.
            self.qmat.clear();
            self.rmat.clear();
            self.lam = vec![0.0; n];
            self.dvec = vec![0.0; n];
            self.gvec = vec![0.0; n];
            self.hcoef = vec![0.0; n];
        }
        if self.ax.len() != n_ineq {
            self.ax = Vector::zeros(n_ineq);
            self.ap = Vector::zeros(n_ineq);
        }
        self.m_rows = 0;
        self.working.clear();
        self.eq_keep.clear();
        self.dependent.clear();
    }

    /// Forward-substitutes `Rᵀ·d = dvec` in place over the leading `m`
    /// entries.
    fn solve_r_transposed(&mut self, m: usize) {
        for i in 0..m {
            let mut sum = self.dvec[i];
            for j in 0..i {
                sum -= self.rmat[j * self.cap + i] * self.dvec[j];
            }
            self.dvec[i] = sum / self.rmat[i * self.cap + i];
        }
    }

    /// Back-substitutes `R·λ = lam` in place over the leading `m`
    /// entries.
    fn solve_r(&mut self, m: usize) {
        for i in (0..m).rev() {
            let mut sum = self.lam[i];
            for j in (i + 1)..m {
                sum -= self.rmat[i * self.cap + j] * self.lam[j];
            }
            self.lam[i] = sum / self.rmat[i * self.cap + i];
        }
    }

    /// Initializes the iterate `self.x` and reports whether the warm
    /// hint's active rows should seed the working set.
    ///
    /// The start rule, in order:
    ///
    /// 1. a supplied start ([`QpProblem::with_start`]), which must be
    ///    feasible;
    /// 2. a feasible warm hint, whose active rows then seed the working
    ///    set;
    /// 3. with a valid interior direction `d`
    ///    ([`QpProblem::with_interior_direction`]): the warm hint, or
    ///    else the equality-constrained minimizer `x_E`, moved along `d`
    ///    until every inequality row holds with a relative margin;
    /// 4. the origin, or the minimum-norm equality solution.
    ///
    /// Rule 4 starts at a fully degenerate vertex whenever the
    /// inequalities have a zero right-hand side (every row is tight at
    /// the origin), which is what rule 3 exists to avoid.
    ///
    /// Expects the equality rows already in the working factor (rule 3
    /// reads `x_E` from it).
    fn start_point(&mut self, problem: &QpProblem<'_>, tol: f64) -> Result<bool> {
        if let Some(x0) = problem.start {
            if !problem.is_feasible(x0, tol)? {
                return Err(OptError::Infeasible(
                    "supplied starting point violates constraints".into(),
                ));
            }
            self.x.as_mut_slice().copy_from_slice(x0.as_slice());
            return Ok(false);
        }
        let mut hint_base = false;
        if let Some((x0, _)) = &self.warm {
            if x0.len() == problem.dim() {
                self.x.as_mut_slice().copy_from_slice(x0.as_slice());
                if problem.is_feasible(x0, tol.max(Self::WARM_ACTIVITY_TOL))? {
                    return Ok(true);
                }
                hint_base = true;
            }
        }
        if let Some(d) = problem.interior_direction(&mut self.ap)? {
            if hint_base && self.move_inside(problem, d, tol)? {
                return Ok(false);
            }
            self.working_minimizer(problem)?;
            self.x.as_mut_slice().copy_from_slice(self.xt.as_slice());
            if self.move_inside(problem, d, tol)? {
                return Ok(false);
            }
        }
        let x0 = problem.feasible_start(tol)?;
        self.x.as_mut_slice().copy_from_slice(x0.as_slice());
        Ok(false)
    }

    /// Moves `self.x` along the interior direction `d` (with `A·d`
    /// already in `self.ap`) to `x + t·d`, the smallest `t ≥ 0` at which
    /// every inequality row holds, stretched by [`INTERIOR_MARGIN`] so
    /// that no row is left tight. Reports whether the result is feasible
    /// (a base point that violates the equalities cannot be repaired
    /// along `d`).
    fn move_inside(&mut self, problem: &QpProblem<'_>, d: &Vector, tol: f64) -> Result<bool> {
        let (a_mat, b_rhs) = problem
            .ineq
            .expect("a usable interior direction implies inequality rows");
        a_mat.matvec_into(&self.x, &mut self.ax)?;
        let t = b_rhs
            .iter()
            .zip(self.ax.iter().zip(self.ap.iter()))
            .map(|(&b, (&ax, &ad))| (b - ax) / ad)
            .fold(0.0, f64::max);
        if !t.is_finite() {
            return Ok(false);
        }
        let t = t * (1.0 + INTERIOR_MARGIN);
        for (xv, &dv) in self.x.as_mut_slice().iter_mut().zip(d.iter()) {
            *xv += t * dv;
        }
        problem.is_feasible(&self.x, tol.max(Self::WARM_ACTIVITY_TOL))
    }

    /// Minimizer of the objective over the current working rows (as
    /// equalities) into `self.xt`, with the working system's multipliers
    /// in `self.lam`. In whitened coordinates `u_W = u₀ + Q·g` with
    /// `g = R⁻ᵀb_W − Qᵀu₀` and `λ = R⁻¹g`; then `x_W = L⁻ᵀu_W`.
    fn working_minimizer(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        let n = problem.dim();
        let m_w = self.m_rows;
        self.ut.as_mut_slice().copy_from_slice(self.u0.as_slice());
        if m_w > 0 {
            for r in 0..m_w {
                self.dvec[r] = self.working_rhs(problem, r);
            }
            self.solve_r_transposed(m_w);
            for j in 0..m_w {
                self.gvec[j] =
                    self.dvec[j] - dot(&self.qmat[j * n..(j + 1) * n], self.u0.as_slice());
            }
            for j in 0..m_w {
                let gj = self.gvec[j];
                if gj != 0.0 {
                    for (u, &qv) in self
                        .ut
                        .as_mut_slice()
                        .iter_mut()
                        .zip(&self.qmat[j * n..(j + 1) * n])
                    {
                        *u += gj * qv;
                    }
                }
            }
            self.lam[..m_w].copy_from_slice(&self.gvec[..m_w]);
            self.solve_r(m_w);
        }
        self.xt.as_mut_slice().copy_from_slice(self.ut.as_slice());
        self.hessian_factor.backward_solve_in_place(&mut self.xt)?;
        Ok(())
    }

    /// Seeds the working set from the warm hint's active rows: every row
    /// that is still active at the starting point enters through the
    /// guarded incremental append (dependent rows are dropped, exactly
    /// like the old explicit rank check, but incrementally).
    fn seed_working_from_hint(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        let Some((a_mat, b_rhs)) = problem.ineq else {
            return Ok(());
        };
        self.warm_idx.clear();
        if let Some((_, active)) = &self.warm {
            self.warm_idx.extend_from_slice(active);
        }
        if self.warm_idx.is_empty() {
            return Ok(());
        }
        a_mat.matvec_into(&self.x, &mut self.ax)?;
        let scale = 1.0 + self.x.norm_inf();
        let n = problem.dim();
        for k in 0..self.warm_idx.len() {
            let i = self.warm_idx[k];
            if i < a_mat.rows()
                && (self.ax[i] - b_rhs[i]).abs() <= Self::WARM_ACTIVITY_TOL * scale
                && self.eq_keep.len() + self.working.len() < n
                && !self.working.contains(&i)
                && self.push_row(a_mat.row(i))?
            {
                self.working.push(i);
            }
        }
        Ok(())
    }

    /// Row `r` of the working-constraint matrix (retained equality rows
    /// first, then the working inequality rows, in that fixed order).
    fn working_row<'p>(&self, problem: &'p QpProblem<'_>, r: usize) -> &'p [f64] {
        if r < self.eq_keep.len() {
            let (e_mat, _) = problem.eq.as_ref().expect("equality rows retained");
            e_mat.row(self.eq_keep[r])
        } else {
            let (a_mat, _) = problem.ineq.expect("working rows exist");
            a_mat.row(self.working[r - self.eq_keep.len()])
        }
    }

    /// Right-hand side of working row `r`.
    fn working_rhs(&self, problem: &QpProblem<'_>, r: usize) -> f64 {
        if r < self.eq_keep.len() {
            let (_, e_rhs) = problem.eq.as_ref().expect("equality rows retained");
            e_rhs[self.eq_keep[r]]
        } else {
            let (_, b_rhs) = problem.ineq.expect("working rows exist");
            b_rhs[self.working[r - self.eq_keep.len()]]
        }
    }

    /// Admits one constraint row into the factored working system: one
    /// forward substitution for the whitened column `v = L⁻¹a` (`O(n²)`)
    /// and a re-orthogonalized Gram–Schmidt append against `Q` —
    /// bordering `R` by one column (`O(n·m)`). Returns whether the row
    /// was accepted: a vanishing orthogonal residual means the row is
    /// numerically dependent on the working set (the factor's
    /// positive-definiteness guard — `R`'s new pivot would not stay
    /// safely positive) and the row is rejected with the factor
    /// untouched.
    fn push_row(&mut self, row: &[f64]) -> Result<bool> {
        let n = row.len();
        let m = self.m_rows;
        if m >= n {
            return Ok(false); // more than n rows cannot be independent
        }
        self.vcol.as_mut_slice().copy_from_slice(row);
        self.hessian_factor.forward_solve_in_place(&mut self.vcol)?;
        let vnorm = self.vcol.norm2();
        if !(vnorm > 0.0) || !vnorm.is_finite() {
            return Ok(false);
        }
        // Classical Gram–Schmidt with one re-orthogonalization pass —
        // enough to keep Q orthonormal to working precision even for
        // nearly dependent columns (Kahan–Parlett "twice is enough").
        self.hcoef[..m].fill(0.0);
        for _pass in 0..2 {
            for j in 0..m {
                let q_j = &self.qmat[j * n..(j + 1) * n];
                let h = dot(q_j, self.vcol.as_slice());
                self.hcoef[j] += h;
                for (v, &qv) in self.vcol.as_mut_slice().iter_mut().zip(q_j) {
                    *v -= h * qv;
                }
            }
        }
        let rho = self.vcol.norm2();
        if rho <= 1e-12 * vnorm {
            return Ok(false); // dependent row: pivot would vanish
        }
        let inv = 1.0 / rho;
        if self.qmat.len() < (m + 1) * n {
            self.qmat.resize((m + 1) * n, 0.0);
            self.rmat.resize((m + 1) * self.cap, 0.0);
        }
        for (q, &v) in self.qmat[m * n..(m + 1) * n]
            .iter_mut()
            .zip(self.vcol.iter())
        {
            *q = v * inv;
        }
        for j in 0..m {
            self.rmat[j * self.cap + m] = self.hcoef[j];
        }
        self.rmat[m * self.cap + m] = rho;
        self.m_rows = m + 1;
        Ok(true)
    }

    /// Deletes working row `j` from the factor: column `j` of `R` leaves,
    /// and a sweep of Givens rotations — applied to `R`'s rows and the
    /// matching `Q` columns — restores triangularity in `O(m·(m + n))`.
    fn remove_row(&mut self, j: usize, n: usize) {
        let m = self.m_rows;
        let cap = self.cap;
        // Shift R's columns j+1.. left by one (rows 0..m only).
        for i in 0..m {
            let row = i * cap;
            self.rmat.copy_within(row + j + 1..row + m, row + j);
        }
        // R is now upper-Hessenberg in columns j..m−1: rotate the
        // subdiagonal away, carrying Q along.
        for k in j..m - 1 {
            let a = self.rmat[k * cap + k];
            let b = self.rmat[(k + 1) * cap + k];
            let r = a.hypot(b);
            if r == 0.0 {
                continue;
            }
            let (c, s) = (a / r, b / r);
            self.rmat[k * cap + k] = r;
            self.rmat[(k + 1) * cap + k] = 0.0;
            for col in (k + 1)..(m - 1) {
                let up = self.rmat[k * cap + col];
                let lo = self.rmat[(k + 1) * cap + col];
                self.rmat[k * cap + col] = c * up + s * lo;
                self.rmat[(k + 1) * cap + col] = c * lo - s * up;
            }
            let (head, tail) = self.qmat.split_at_mut((k + 1) * n);
            let qk = &mut head[k * n..];
            let qk1 = &mut tail[..n];
            for (u, l) in qk.iter_mut().zip(qk1.iter_mut()) {
                let (uv, lv) = (*u, *l);
                *u = c * uv + s * lv;
                *l = c * lv - s * uv;
            }
        }
        self.m_rows = m - 1;
    }

    /// Whether the maintained factor's pivots are all finite and
    /// positive — the degradation test behind the full-refactorization
    /// fallback.
    fn factor_is_sound(&self) -> bool {
        (0..self.m_rows).all(|i| {
            let d = self.rmat[i * self.cap + i];
            d.is_finite() && d > 0.0
        })
    }

    /// Full refactorization fallback: rebuilds `Q`/`R` from scratch by
    /// re-admitting every working row. Equality rows that fail are a
    /// hard error (the system itself degenerated); working inequality
    /// rows that fail are dropped.
    fn rebuild_factor(&mut self, problem: &QpProblem<'_>) -> Result<()> {
        self.m_rows = 0;
        let eq_rows = std::mem::take(&mut self.eq_keep);
        for r in eq_rows {
            let row = problem
                .eq
                .as_ref()
                .expect("equality rows retained")
                .0
                .row(r);
            if self.push_row(row)? {
                self.eq_keep.push(r);
            } else {
                return Err(OptError::NotConvex(
                    "working constraint system lost positive definiteness".into(),
                ));
            }
        }
        let work = std::mem::take(&mut self.working);
        for i in work {
            let row = problem.ineq.expect("working rows exist").0.row(i);
            if self.push_row(row)? {
                self.working.push(i);
            }
        }
        Ok(())
    }

    /// One step of KKT iterative refinement on `(x, λ)` against the
    /// factored system, then the solution. Costs `O(n² + m·n)` once per
    /// solve and sharpens the last digits on ill-conditioned Hessians.
    fn finish(&mut self, problem: &QpProblem<'_>, iterations: usize) -> Result<QpSolution> {
        let n = problem.dim();
        let m_w = self.m_rows;
        // r₁ = −(H·x + c) + A_Wᵀλ into `resid`.
        problem.h.matvec_into(&self.x, &mut self.resid)?;
        for (r, &ci) in self.resid.as_mut_slice().iter_mut().zip(problem.c.iter()) {
            *r = -(*r + ci);
        }
        for j in 0..m_w {
            let lj = self.lam[j];
            if lj != 0.0 {
                let row = self.working_row(problem, j);
                for (r, &aj) in self.resid.as_mut_slice().iter_mut().zip(row) {
                    *r += lj * aj;
                }
            }
        }
        // t = H⁻¹r₁ (staged in `vcol`).
        self.vcol
            .as_mut_slice()
            .copy_from_slice(self.resid.as_slice());
        self.hessian_factor.solve_in_place(&mut self.vcol)?;
        if m_w > 0 {
            // S·δλ = r₂ − A_W·t with r₂ = b_W − A_W·x and S = RᵀR.
            for r in 0..m_w {
                let row = self.working_row(problem, r);
                self.dvec[r] = self.working_rhs(problem, r)
                    - dot(row, self.x.as_slice())
                    - dot(row, self.vcol.as_slice());
            }
            self.solve_r_transposed(m_w);
            self.lam[..m_w].copy_from_slice(&self.dvec[..m_w]);
            self.solve_r(m_w);
            // δλ now sits in `lam`'s place — swap it out through gvec.
            self.gvec[..m_w].copy_from_slice(&self.lam[..m_w]);
            // δx = t + H⁻¹A_Wᵀδλ = t + L⁻ᵀ(Q·(R·δλ)).
            for i in 0..m_w {
                let row = i * self.cap;
                self.hcoef[i] = dot(&self.rmat[row + i..row + m_w], &self.gvec[i..m_w]);
            }
            self.resid.as_mut_slice().fill(0.0);
            for j in 0..m_w {
                let hj = self.hcoef[j];
                if hj != 0.0 {
                    for (r, &qv) in self
                        .resid
                        .as_mut_slice()
                        .iter_mut()
                        .zip(&self.qmat[j * n..(j + 1) * n])
                    {
                        *r += hj * qv;
                    }
                }
            }
            self.hessian_factor
                .backward_solve_in_place(&mut self.resid)?;
            for ((xv, &t), &z) in self
                .x
                .as_mut_slice()
                .iter_mut()
                .zip(self.vcol.iter())
                .zip(self.resid.iter())
            {
                *xv += t + z;
            }
        } else {
            for (xv, &t) in self.x.as_mut_slice().iter_mut().zip(self.vcol.iter()) {
                *xv += t;
            }
        }
        // Objective from the refined point, through reused buffers.
        problem.h.matvec_into(&self.x, &mut self.resid)?;
        let objective = 0.5 * dot(self.x.as_slice(), self.resid.as_slice())
            + dot(problem.c.as_slice(), self.x.as_slice());
        Ok(QpSolution {
            objective,
            x: self.x.clone(),
            iterations,
            active_set: self.working.clone(),
        })
    }
}

/// Contiguous dot product of two equal-length slices.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unconstrained_matches_linear_solve() {
        // min ½xᵀHx + cᵀx → Hx = −c.
        let h = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]).unwrap();
        let c = Vector::from_slice(&[-1.0, -2.0]);
        let sol = QpWorkspace::new()
            .solve(&QpProblem::new(&h, &c).unwrap())
            .unwrap();
        let direct = h.lu().unwrap().solve(&(-&c)).unwrap();
        assert!((&sol.x - &direct).norm2() < 1e-10);
        assert!(sol.active_set.is_empty());
    }

    #[test]
    fn equality_constrained_known_solution() {
        // min ½(x² + y²) s.t. x + y = 2 → (1, 1), objective 1.
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&Matrix::identity(2), &Vector::zeros(2))
                    .unwrap()
                    .with_equalities(
                        &Matrix::from_rows(&[&[1.0, 1.0]]).unwrap(),
                        &Vector::from_slice(&[2.0]),
                    )
                    .unwrap(),
            )
            .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-10);
        assert!((sol.x[1] - 1.0).abs() < 1e-10);
        assert!((sol.objective - 1.0).abs() < 1e-10);
    }

    #[test]
    fn textbook_inequality_example() {
        // Nocedal & Wright example 16.4:
        // min (x1−1)² + (x2−2.5)² s.t. x1−2x2+2 ≥ 0, −x1−2x2+6 ≥ 0,
        //     −x1+2x2+2 ≥ 0, x1 ≥ 0, x2 ≥ 0. Solution (1.4, 1.7).
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
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(&a, &b)
                    .unwrap(),
            )
            .unwrap();
        assert!((sol.x[0] - 1.4).abs() < 1e-8, "x = {}", sol.x);
        assert!((sol.x[1] - 1.7).abs() < 1e-8);
    }

    #[test]
    fn inactive_constraints_do_not_bind() {
        // Unconstrained optimum (1, 1) already satisfies x ≥ 0.
        let h = Matrix::identity(2).scaled(2.0);
        let c = Vector::from_slice(&[-2.0, -2.0]);
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(&Matrix::identity(2), &Vector::zeros(2))
                    .unwrap(),
            )
            .unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0).abs() < 1e-9);
        assert!(sol.active_set.is_empty());
    }

    #[test]
    fn active_bound_solution() {
        // min ½‖x − (−1, 2)‖² s.t. x ≥ 0 → (0, 2) with constraint 0 active.
        let h = Matrix::identity(2);
        let c = Vector::from_slice(&[1.0, -2.0]);
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(&Matrix::identity(2), &Vector::zeros(2))
                    .unwrap(),
            )
            .unwrap();
        assert!(sol.x[0].abs() < 1e-9);
        assert!((sol.x[1] - 2.0).abs() < 1e-9);
        assert_eq!(sol.active_set, vec![0]);
    }

    #[test]
    fn mixed_equality_and_inequality() {
        // min ½‖x‖² s.t. x1+x2+x3 = 3, x ≥ 0 and x2 ≥ 1.5.
        let h = Matrix::identity(3);
        let c = Vector::zeros(3);
        let e = Matrix::from_rows(&[&[1.0, 1.0, 1.0]]).unwrap();
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 1.0],
            &[0.0, 1.0, 0.0],
        ])
        .unwrap();
        let b = Vector::from_slice(&[0.0, 0.0, 0.0, 1.5]);
        let e_rhs = Vector::from_slice(&[3.0]);
        // Inhomogeneous constraints: neither the origin nor the
        // minimum-norm equality solution (1,1,1) is feasible, so a
        // feasible start must be supplied.
        let start = Vector::from_slice(&[0.0, 3.0, 0.0]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_equalities(&e, &e_rhs)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap()
            .with_start(&start)
            .unwrap();
        let sol = QpWorkspace::new().solve(&problem).unwrap();
        // With x2 pinned at 1.5, the rest splits evenly: (0.75, 1.5, 0.75).
        assert!((sol.x[0] - 0.75).abs() < 1e-8, "x = {}", sol.x);
        assert!((sol.x[1] - 1.5).abs() < 1e-8);
        assert!((sol.x[2] - 0.75).abs() < 1e-8);
    }

    #[test]
    fn homogeneous_constraints_feasible_at_origin() {
        // The deconvolution pattern: Ex = 0, Ax ≥ 0 — origin feasible.
        let h = Matrix::identity(3).scaled(2.0);
        let c = Vector::from_slice(&[-1.0, -4.0, -2.0]);
        let e = Matrix::from_rows(&[&[1.0, -1.0, 0.0]]).unwrap();
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_equalities(&e, &Vector::zeros(1))
                    .unwrap()
                    .with_inequalities(&Matrix::identity(3), &Vector::zeros(3))
                    .unwrap(),
            )
            .unwrap();
        // KKT check: equality holds, positivity holds.
        assert!((sol.x[0] - sol.x[1]).abs() < 1e-9);
        assert!(sol.x.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn infeasible_start_rejected() {
        let h = Matrix::identity(1);
        let c = Vector::zeros(1);
        let a = Matrix::from_rows(&[&[1.0]]).unwrap();
        let b = Vector::from_slice(&[5.0]);
        let start = Vector::zeros(1);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap()
            .with_start(&start)
            .unwrap();
        assert!(matches!(
            QpWorkspace::new().solve(&problem).unwrap_err(),
            OptError::Infeasible(_)
        ));
    }

    #[test]
    fn user_start_used() {
        let h = Matrix::identity(1).scaled(2.0);
        let c = Vector::from_slice(&[-8.0]); // unconstrained min at 4
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(
                        &Matrix::from_rows(&[&[1.0]]).unwrap(),
                        &Vector::from_slice(&[5.0]),
                    )
                    .unwrap()
                    .with_start(&Vector::from_slice(&[6.0]))
                    .unwrap(),
            )
            .unwrap();
        // Constrained minimum at the bound x = 5.
        assert!((sol.x[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn validation_errors() {
        assert!(QpProblem::new(&Matrix::zeros(2, 3), &Vector::zeros(3)).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 5.0], &[0.0, 1.0]]).unwrap();
        assert!(QpProblem::new(&asym, &Vector::zeros(2)).is_err());
        let (h, c) = (Matrix::identity(2), Vector::zeros(2));
        let ok = QpProblem::new(&h, &c).unwrap();
        assert!(ok
            .clone()
            .with_equalities(&Matrix::identity(3), &Vector::zeros(3))
            .is_err());
        assert!(ok
            .clone()
            .with_inequalities(&Matrix::identity(2), &Vector::zeros(3))
            .is_err());
        assert!(ok.with_start(&Vector::zeros(5)).is_err());
    }

    #[test]
    fn indefinite_hessian_detected() {
        let h = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let c = Vector::zeros(2);
        let problem = QpProblem::new(&h, &c).unwrap();
        assert!(matches!(
            QpWorkspace::new().solve(&problem).unwrap_err(),
            OptError::NotConvex(_)
        ));
    }

    #[test]
    fn larger_random_problem_kkt() {
        // 12-dimensional strictly convex QP with positivity constraints:
        // verify KKT conditions rather than a known solution.
        let n = 12;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n {
            h[(i, i)] = 2.0 + (i as f64 * 0.37).sin().abs();
            if i + 1 < n {
                h[(i, i + 1)] = 0.5;
                h[(i + 1, i)] = 0.5;
            }
        }
        let c = Vector::from_fn(n, |i| ((i * 7 % 5) as f64) - 2.0);
        let sol = QpWorkspace::new()
            .solve(
                &QpProblem::new(&h, &c)
                    .unwrap()
                    .with_inequalities(&Matrix::identity(n), &Vector::zeros(n))
                    .unwrap(),
            )
            .unwrap();
        // Primal feasibility.
        assert!(sol.x.iter().all(|&v| v >= -1e-9));
        // Stationarity on inactive coordinates: gradient must vanish there.
        let grad = &h.matvec(&sol.x).unwrap() + &c;
        for i in 0..n {
            if sol.x[i] > 1e-7 {
                assert!(grad[i].abs() < 1e-7, "coordinate {i}: grad {}", grad[i]);
            } else {
                // Active bound: multiplier = grad ≥ 0.
                assert!(grad[i] > -1e-7, "coordinate {i}: grad {}", grad[i]);
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_solves() {
        // One Hessian, several right-hand sides.
        let n = 8;
        let mut h = Matrix::identity(n).scaled(2.0);
        for i in 0..n - 1 {
            h[(i, i + 1)] = 0.3;
            h[(i + 1, i)] = 0.3;
        }
        let ineq = Matrix::identity(n);
        let zero = Vector::zeros(n);
        let mut ws = QpWorkspace::new();
        for r in 0..5 {
            let c = Vector::from_fn(n, |i| ((i + 3 * r) as f64 * 0.9).sin() - 0.4);
            let problem = QpProblem::new(&h, &c)
                .unwrap()
                .with_inequalities(&ineq, &zero)
                .unwrap();
            let warm = ws.solve(&problem).unwrap();
            let fresh = QpWorkspace::new()
                .solve(
                    &QpProblem::new(&h, &c)
                        .unwrap()
                        .with_inequalities(&ineq, &zero)
                        .unwrap(),
                )
                .unwrap();
            assert!(
                (&warm.x - &fresh.x).norm2() < 1e-9,
                "replicate {r}: {} vs {}",
                warm.x,
                fresh.x
            );
        }
    }

    #[test]
    fn warm_start_reduces_iterations_and_matches_cold() {
        let n = 10;
        let mut h = Matrix::identity(n).scaled(2.0);
        for i in 0..n - 1 {
            h[(i, i + 1)] = 0.4;
            h[(i + 1, i)] = 0.4;
        }
        let c = Vector::from_fn(n, |i| ((i * 5 % 7) as f64) - 3.0);
        let ineq = Matrix::identity(n);
        let zero = Vector::zeros(n);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&ineq, &zero)
            .unwrap();

        let mut cold_ws = QpWorkspace::new();
        let cold = cold_ws.solve(&problem).unwrap();

        let mut warm_ws = QpWorkspace::new();
        warm_ws.set_warm_start(cold.x.clone(), cold.active_set.clone());
        let warm = warm_ws.solve(&problem).unwrap();
        assert!((&warm.x - &cold.x).norm2() < 1e-9);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // Restarting exactly at the optimum must terminate immediately
        // after the multiplier check.
        assert!(warm.iterations <= 1, "iterations {}", warm.iterations);
    }

    #[test]
    fn infeasible_or_stale_warm_hints_are_ignored() {
        let h = Matrix::identity(2).scaled(2.0);
        let c = Vector::from_slice(&[-2.0, -5.0]);
        let ineq = Matrix::identity(2);
        let zero = Vector::zeros(2);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&ineq, &zero)
            .unwrap();
        let expected = QpWorkspace::new().solve(&problem).unwrap();

        // Infeasible hint (negative coordinates), wrong-length hint, and
        // out-of-range active indices: all silently ignored.
        for (x0, active) in [
            (Vector::from_slice(&[-1.0, -1.0]), vec![0]),
            (Vector::zeros(3), vec![0]),
            (Vector::zeros(2), vec![17, 0, 0]),
        ] {
            let mut ws = QpWorkspace::new();
            ws.set_warm_start(x0, active);
            let sol = ws.solve(&problem).unwrap();
            assert!((&sol.x - &expected.x).norm2() < 1e-9);
        }
    }

    /// A deconvolution-shaped QP family: ill-conditioned smooth-kernel
    /// Gram Hessian (condition ~10⁹ from the tiny ridge) with positivity
    /// constraints — the regime where naive Schur-complement maintenance
    /// of the working-set factor loses definiteness outright.
    fn smooth_family(n: usize, m: usize, tweak: f64) -> (Matrix, Vector) {
        let a = Matrix::from_fn(m, n, |r, c| {
            let t = r as f64 / (m - 1) as f64;
            let phi = c as f64 / (n - 1) as f64;
            (-((phi - t).powi(2)) / 0.03).exp() + 0.05
        });
        let truth = Vector::from_fn(n, |i| {
            let phi = i as f64 / (n - 1) as f64;
            (2.0 * std::f64::consts::PI * (phi + tweak)).sin() * 1.5 - 0.3
        });
        let b = a.matvec(&truth).expect("shapes agree");
        let mut h = a.gram().scaled(2.0);
        for i in 0..n {
            h[(i, i)] += 2e-9;
        }
        h.symmetrize().expect("square");
        let c = -&a.tr_matvec(&b).expect("shapes agree").scaled(2.0);
        (h, c)
    }

    #[test]
    fn incremental_matches_one_shot_solution_and_active_set() {
        // The incremental path (shared workspace, warm-started working
        // set evolving by rank-one factor updates) must agree with a
        // fresh one-shot solve of every problem to 1e-9, with the
        // identical active set.
        let n = 16;
        let ineq = Matrix::identity(n);
        let zero = Vector::zeros(n);
        let (h, _) = smooth_family(n, 14, 0.0);
        let mut ws = QpWorkspace::new();
        let mut previous: Option<QpSolution> = None;
        for rep in 0..6 {
            let (_, c) = smooth_family(n, 14, 0.015 * rep as f64);
            let problem = QpProblem::new(&h, &c)
                .unwrap()
                .with_inequalities(&ineq, &zero)
                .unwrap();
            if let Some(prev) = &previous {
                ws.set_warm_start(prev.x.clone(), prev.active_set.clone());
            }
            let incremental = ws.solve(&problem).unwrap();
            let one_shot = QpWorkspace::new().solve(&problem).unwrap();
            assert!(
                (&incremental.x - &one_shot.x).norm2() <= 1e-9 * (1.0 + one_shot.x.norm2()),
                "rep {rep}: |Δx| = {:e}",
                (&incremental.x - &one_shot.x).norm2()
            );
            let mut inc_set = incremental.active_set.clone();
            let mut one_set = one_shot.active_set.clone();
            inc_set.sort_unstable();
            one_set.sort_unstable();
            assert_eq!(inc_set, one_set, "rep {rep}: active sets differ");
            // KKT spot check on the incremental solution.
            let grad = &h.matvec(&incremental.x).unwrap() + &c;
            for i in 0..n {
                if incremental.x[i] > 1e-7 {
                    assert!(
                        grad[i].abs() < 1e-6,
                        "rep {rep} coord {i}: grad {}",
                        grad[i]
                    );
                }
            }
            previous = Some(incremental);
        }
    }

    #[test]
    fn ill_conditioned_constraint_churn_terminates_and_verifies() {
        // Dense positivity collocation rows on a near-singular Hessian:
        // heavy enter/leave churn plus numerically dependent blocking
        // rows. The solve must terminate and satisfy the KKT conditions
        // to solver tolerance (this instance cycles forever without the
        // dependent-row parking guard).
        let n = 18;
        let (h, c) = smooth_family(n, 16, 0.0);
        // Oversampled "collocation": 3 interleaved copies of smooth rows.
        let a = Matrix::from_fn(60, n, |r, j| {
            let g = r as f64 / 59.0;
            let phi = j as f64 / (n - 1) as f64;
            (-((phi - g).powi(2)) / 0.05).exp()
        });
        let zeros = Vector::zeros(60);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&a, &zeros)
            .unwrap();
        let sol = QpWorkspace::new().solve(&problem).unwrap();
        // Primal feasibility to solver tolerance.
        let av = a.matvec(&sol.x).unwrap();
        let scale = 1.0 + sol.x.norm_inf();
        for i in 0..60 {
            assert!(av[i] >= -1e-7 * scale, "row {i}: {}", av[i]);
        }
        // Stationarity restricted to the active rows: the gradient must
        // be a nonnegative combination of them (spot-checked via the
        // least-squares multiplier residual).
        assert!(sol.objective.is_finite());
    }

    #[test]
    fn hessian_cache_invalidation_contract() {
        // Same dimension, different H: the workspace keeps no factor of a
        // previous problem, so a reused workspace solves the new H.
        let h1 = Matrix::identity(3).scaled(2.0);
        let h2 = Matrix::identity(3).scaled(8.0);
        let c = Vector::from_slice(&[-2.0, -4.0, -6.0]);
        let mut ws = QpWorkspace::new();
        let s1 = ws.solve(&QpProblem::new(&h1, &c).unwrap()).unwrap();
        assert!((s1.x[0] - 1.0).abs() < 1e-10);
        let s2 = ws.solve(&QpProblem::new(&h2, &c).unwrap()).unwrap();
        assert!((s2.x[0] - 0.25).abs() < 1e-10, "x = {}", s2.x);
        // So does a dimension change.
        let h3 = Matrix::identity(2);
        let c3 = Vector::from_slice(&[-1.0, -1.0]);
        let s3 = ws.solve(&QpProblem::new(&h3, &c3).unwrap()).unwrap();
        assert!((s3.x[0] - 1.0).abs() < 1e-10);
    }
}
