//! Dual active-set method for strictly convex quadratic programs
//! (Goldfarb & Idnani, *Math. Programming* 27 (1983) 1–33).
//!
//! The solver is split into a borrow-based problem description
//! ([`QpProblem`]) and a reusable mutable scratch ([`QpWorkspace`]), so
//! repeated solves share buffers instead of reallocating per solve. A
//! one-shot solve is `QpWorkspace::new().solve(&problem)`.

use cellsync_linalg::{CholeskyDecomposition, Matrix, Vector};
use cellsync_runtime::CancelToken;

use crate::{OptError, Result};

/// Dependence test of a constraint row: the row is numerically dependent
/// on the working rows when its whitened column keeps less than this
/// fraction of its norm after orthogonalization against them (the new
/// pivot of `R` would not stay safely positive).
const DEPENDENCE_TOL: f64 = 1e-12;

/// A borrowed view of a strictly convex quadratic program
///
/// ```text
/// minimize   ½·xᵀH x + cᵀx
/// subject to E x = e          (equalities)
///            A x ≥ b          (inequalities)
/// ```
///
/// solved with the dual active-set method of Goldfarb & Idnani, which
/// starts at the unconstrained minimizer and needs no feasible start.
/// `H` must be symmetric positive definite — the deconvolution Hessian
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

    /// Whether `slack = aᵀx − b` of a row with right-hand side `b` and
    /// absolute row sum `row_abs` is negative beyond the rounding of
    /// `aᵀx` at `x_inf = ‖x‖∞`: the violation test of the dual loop (and,
    /// on `−|slack|`, the consistency test of a dependent equality row).
    /// A NaN slack never counts as a violation.
    fn violates(&self, slack: f64, b: f64, row_abs: f64, x_inf: f64) -> bool {
        slack < -self.tolerance * (b.abs() + row_abs * x_inf)
    }
}

/// Reusable scratch for [`QpProblem`] solves: the dual active-set method
/// of Goldfarb & Idnani over an **incrementally maintained**
/// factorization of the working-set system.
///
/// The solver works in the whitened coordinates `u = Lᵀx`, where
/// `H = LLᵀ` is factored at the start of every solve. In those
/// coordinates the objective is `½‖u − u₀‖²` with `u₀ = −L⁻¹c`, and each
/// working row `a` becomes the whitened column `v = L⁻¹a`. The workspace
/// maintains the thin QR factorization of those columns,
///
/// ```text
/// L⁻¹·A_Wᵀ = Q·R      (Q n×m orthonormal, R m×m upper triangular)
/// ```
///
/// where `R` is algebraically the Cholesky factor of the constraint Gram
/// matrix `S = A_W·H⁻¹·A_Wᵀ = RᵀR`, computed by orthogonalization, so
/// its conditioning is `√cond(S)`.
///
/// **The dual loop.** The solve starts at the unconstrained minimizer
/// `u₀` (`x = −H⁻¹c`), which is optimal for the empty working set, and
/// adds the equality rows with full steps. Every iteration then takes
/// the most violated inequality row `a` and orthogonalizes its column
/// `v` against `Q`: the residual `z = v − Q·h` is the primal direction
/// (it keeps every working row's value and raises `a`'s at rate `‖z‖²`)
/// and `r = R⁻¹h` the dual one (the working multipliers fall by `t·r`
/// while `a`'s rises by `t`). The step is the smaller of `t₂ = −s/‖z‖²`,
/// which makes the row active, and `t₁`, the step at which the first
/// working inequality multiplier reaches zero; a partial step drops that
/// row and retries the same one. A row dependent on the working set
/// (`z ≈ 0`) takes a pure dual step, and one that no multiplier can
/// make room for proves the problem infeasible. Every step keeps the
/// iterate optimal for its working set with nonnegative multipliers, so
/// the loop stops at the first iterate no row violates: no feasible
/// start is needed, and the walk never visits a degenerate vertex.
///
/// When a row **enters**, the factor is bordered in `O(n²)`: one forward
/// substitution for `v = L⁻¹a` plus a re-orthogonalized Gram–Schmidt
/// append. When one **leaves**, a Givens rotation sweep restores
/// triangularity in `O(m·(m + n))`. The steady-state iteration does
/// **zero heap allocation**.
///
/// Across solves the workspace provides:
///
/// 1. **Buffer reuse** — every per-iteration vector, the `Q`/`R`
///    storage and the storage of `H`'s Cholesky factor persist, so
///    same-sized solves allocate nothing but their returned solution.
/// 2. **No Hessian state** — `H` is refactored into that storage at the
///    start of every solve, so successive problems may change `H`
///    freely and a solve never reads a factor of another problem.
/// 3. **Row hints** — [`QpWorkspace::set_warm_start`] records inequality
///    rows (typically a previous solution's active set) that enter first
///    whenever they are violated. A hint changes the order in which rows
///    enter, never the answer; rows out of range are ignored. The hint
///    persists until replaced, so results stay independent of solve
///    order.
#[derive(Debug, Clone, Default)]
pub struct QpWorkspace {
    /// Cholesky factor `L` of the current solve's `H`.
    hessian_factor: CholeskyDecomposition,
    /// Hinted inequality rows, preferred while violated.
    hint: Vec<usize>,
    /// Inequality rows in the working set, in factor order after the
    /// equality rows.
    working: Vec<usize>,
    /// Equality rows in the factor (the first rows; a consistent
    /// dependent equality row is redundant and skipped).
    n_eq: usize,
    /// Rows currently in the factored working system
    /// (`== n_eq + working.len()`).
    m_rows: usize,
    /// Storage stride / capacity of the factor (`== n`).
    cap: usize,
    /// Column-major orthonormal basis `Q` of the whitened working rows
    /// (column `j` at `j·n..(j+1)·n`), sized to the rows pushed so far.
    qmat: Vec<f64>,
    /// Row-major upper-triangular `R` with row stride `cap`:
    /// `L⁻¹A_Wᵀ = Q·R`, sized like `qmat`.
    rmat: Vec<f64>,
    /// The working rows (row `j` at `j·n..(j+1)·n`) and their right-hand
    /// sides, in factor order.
    wrows: Vec<f64>,
    wrhs: Vec<f64>,
    /// Current iterate.
    x: Vector,
    /// Whitened column `v = L⁻¹a` of the row being added.
    vraw: Vector,
    /// Its residual `z` against `Q` (and refinement scratch).
    vcol: Vector,
    /// Primal step `L⁻ᵀz`.
    step: Vector,
    /// Refinement / objective scratch (`n`).
    resid: Vector,
    /// Multipliers `λ` of the working rows (`Hx + c = A_Wᵀλ`).
    lam: Vec<f64>,
    /// Dual direction `r = R⁻¹h` and refinement right-hand sides.
    dvec: Vec<f64>,
    /// Refinement multiplier correction.
    gvec: Vec<f64>,
    /// Gram–Schmidt coefficients `h = Qᵀv`.
    hcoef: Vec<f64>,
    /// `A·x` over all inequality rows.
    ax: Vector,
    /// `Σⱼ|aᵢⱼ|` of every inequality row: the scale of the violation test.
    row_abs: Vec<f64>,
    /// Interior-point rescue solver for solves that exhaust the iteration
    /// budget (see [`QpWorkspace::solve`]). Defaults to empty buffers, so
    /// callers that never hit the degenerate regime pay nothing.
    ipm: crate::ipm::IpmWorkspace,
}

impl QpWorkspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        QpWorkspace::default()
    }

    /// Records a row hint: the inequality rows in `active` enter the
    /// working set first whenever they are violated. The dual method
    /// starts at the unconstrained minimizer, so the point `x0` is not
    /// read; the signature keeps the `(point, active set)` shape of a
    /// previous solution.
    pub fn set_warm_start(&mut self, _x0: Vector, active: Vec<usize>) {
        self.hint = active;
    }

    /// Solves `problem`, reusing this workspace's buffers and row hint;
    /// `H` is factored afresh.
    ///
    /// # Errors
    ///
    /// * [`OptError::Infeasible`] when the equality rows are inconsistent,
    ///   or a violated row is implied by working rows whose multipliers
    ///   cannot make room for it.
    /// * [`OptError::NotConvex`] when `H` is not positive definite.
    /// * [`OptError::Cancelled`] when the problem's token fires.
    /// * [`OptError::IterationLimit`] if the dual loop exhausts its budget
    ///   (or its factor degenerates) **and** the interior-point rescue
    ///   solve also fails: such a problem is retried on the
    ///   algorithmically independent [`crate::IpmWorkspace`] backend
    ///   before erroring.
    pub fn solve(&mut self, problem: &QpProblem<'_>) -> Result<QpSolution> {
        let n = problem.dim();
        self.hessian_factor
            .refactor(problem.h)
            .map_err(|_| OptError::NotConvex("hessian is not positive definite".into()))?;
        self.ensure(n, problem.ineq.map_or(0, |(a_mat, _)| a_mat.rows()));

        // The unconstrained minimizer x = −H⁻¹c, optimal for the empty
        // working set; the equality rows enter with full steps.
        for (x, &ci) in self.x.as_mut_slice().iter_mut().zip(problem.c.iter()) {
            *x = -ci;
        }
        self.hessian_factor.solve_in_place(&mut self.x)?;
        if let Some((e_mat, e_rhs)) = problem.eq {
            for r in 0..e_mat.rows() {
                self.add_equality(problem, e_mat.row(r), e_rhs[r])?;
            }
        }
        let Some((a_mat, b_rhs)) = problem.ineq else {
            return self.finish(problem, 0);
        };
        for (s, r) in self.row_abs.iter_mut().zip(0..a_mat.rows()) {
            *s = a_mat.row(r).iter().map(|v| v.abs()).sum();
        }

        // The row being added and its multiplier so far: a partial step
        // drops a working row and retries the same one.
        let mut adding: Option<(usize, f64)> = None;
        for iteration in 0..problem.iteration_budget() {
            problem.check_cancel()?;
            let (p, lam_p) = match adding {
                Some(entry) => entry,
                None => {
                    a_mat.matvec_into(&self.x, &mut self.ax)?;
                    let Some(p) = self.most_violated(problem, b_rhs) else {
                        return self.finish(problem, iteration);
                    };
                    self.whiten(a_mat.row(p))?;
                    (p, 0.0)
                }
            };
            let row = a_mat.row(p);
            let slack = dot(row, self.x.as_slice()) - b_rhs[p];
            let rho = self.orthogonalize();
            // t₁: the first working inequality multiplier to reach zero.
            let mut blocking: Option<(usize, f64)> = None;
            for k in 0..self.working.len() {
                let (l, r) = (self.lam[self.n_eq + k], self.dvec[self.n_eq + k]);
                if r > 0.0 && blocking.is_none_or(|(_, t1)| l / r < t1) {
                    blocking = Some((k, l / r));
                }
            }
            // t₂: the full step that makes the row active.
            let full = rho.map(|rho| -slack / (rho * rho));
            let (t, leaving) = match (full, blocking) {
                (Some(t2), Some((k, t1))) if t1 < t2 => (t1, Some(k)),
                (Some(t2), _) => (t2, None),
                (None, Some((k, t1))) => (t1, Some(k)),
                (None, None) => {
                    return Err(OptError::Infeasible(
                        "a violated inequality row is implied by working rows that cannot \
                         make room for it"
                            .into(),
                    ))
                }
            };
            self.step_by(t, full.is_some())?;
            match leaving {
                None => {
                    self.append(row, b_rhs[p], lam_p + t);
                    self.working.push(p);
                    adding = None;
                }
                Some(k) => {
                    self.remove_row(self.n_eq + k, n);
                    self.working.remove(k);
                    if !self.factor_is_sound() {
                        break;
                    }
                    adding = Some((p, lam_p + t));
                }
            }
        }
        // Budget exhausted (or, never observed, a degenerated downdate).
        // Hand the problem to the algorithmically independent
        // interior-point backend, which follows the central path instead
        // of walking working sets; the differential corpus suite pins the
        // two backends to 1e-8 agreement on problems both solve, so the
        // rescue preserves answers. The IPM ignores row hints and caches
        // nothing, so the workspace's cross-solve state is untouched; a
        // problem the IPM also rejects surfaces its structured error.
        self.ipm.solve(problem)
    }

    /// Sizes the per-solve buffers (allocating only on a dimension
    /// change) and resets the working system.
    fn ensure(&mut self, n: usize, n_ineq: usize) {
        if self.cap != n {
            self.cap = n;
            self.x = Vector::zeros(n);
            self.vraw = Vector::zeros(n);
            self.vcol = Vector::zeros(n);
            self.step = Vector::zeros(n);
            self.resid = Vector::zeros(n);
            // Q, R and the working rows grow a row at a time in `append`:
            // the working set rarely holds more than a few rows, and an
            // n×n reservation would make every large-basis solve resident
            // in n² memory.
            self.qmat.clear();
            self.rmat.clear();
            self.lam = vec![0.0; n];
            self.dvec = vec![0.0; n];
            self.gvec = vec![0.0; n];
            self.hcoef = vec![0.0; n];
        }
        if self.ax.len() != n_ineq {
            self.ax = Vector::zeros(n_ineq);
            self.row_abs = vec![0.0; n_ineq];
        }
        self.m_rows = 0;
        self.n_eq = 0;
        self.working.clear();
        self.wrows.clear();
        self.wrhs.clear();
    }

    /// Adds equality row `row·x = rhs` with a full step. A dependent row
    /// is skipped when the current point (which satisfies the rows
    /// already in) satisfies it too, and proves the system inconsistent
    /// otherwise.
    fn add_equality(&mut self, problem: &QpProblem<'_>, row: &[f64], rhs: f64) -> Result<()> {
        self.whiten(row)?;
        let slack = dot(row, self.x.as_slice()) - rhs;
        let Some(rho) = self.orthogonalize() else {
            let row_abs = row.iter().map(|v| v.abs()).sum();
            if problem.violates(-slack.abs(), rhs, row_abs, self.x.norm_inf()) {
                return Err(OptError::Infeasible(
                    "equality rows are dependent and inconsistent".into(),
                ));
            }
            return Ok(());
        };
        let t = -slack / (rho * rho);
        self.step_by(t, true)?;
        self.append(row, rhs, t);
        self.n_eq += 1;
        Ok(())
    }

    /// The inequality row to add next: the most violated hinted row when
    /// one is violated, else the most violated row; `None` when no row
    /// outside the working set is violated (reads `A·x` from `self.ax`).
    fn most_violated(&self, problem: &QpProblem<'_>, b_rhs: &Vector) -> Option<usize> {
        let x_inf = self.x.norm_inf();
        // (row, slack) of the most violated row, and of the most violated
        // hinted row.
        let mut any: Option<(usize, f64)> = None;
        let mut hinted: Option<(usize, f64)> = None;
        for (i, (&ax, &b)) in self.ax.iter().zip(b_rhs.iter()).enumerate() {
            let slack = ax - b;
            if !problem.violates(slack, b, self.row_abs[i], x_inf) || self.working.contains(&i) {
                continue;
            }
            if any.is_none_or(|(_, s)| slack < s) {
                any = Some((i, slack));
            }
            if self.hint.contains(&i) && hinted.is_none_or(|(_, s)| slack < s) {
                hinted = Some((i, slack));
            }
        }
        hinted.or(any).map(|(i, _)| i)
    }

    /// The whitened column `v = L⁻¹a` of `row` into `self.vraw`.
    fn whiten(&mut self, row: &[f64]) -> Result<()> {
        self.vraw.as_mut_slice().copy_from_slice(row);
        self.hessian_factor.forward_solve_in_place(&mut self.vraw)?;
        Ok(())
    }

    /// Orthogonalizes `v` (`self.vraw`) against `Q`: the residual `z`
    /// into `self.vcol`, the coefficients `h = Qᵀv` into `self.hcoef`
    /// and the dual direction `r = R⁻¹h` into `self.dvec`. Returns
    /// `‖z‖`, or `None` when the row is numerically dependent on the
    /// working rows.
    fn orthogonalize(&mut self) -> Option<f64> {
        let n = self.cap;
        let m = self.m_rows;
        self.vcol
            .as_mut_slice()
            .copy_from_slice(self.vraw.as_slice());
        let vnorm = self.vcol.norm2();
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
        self.dvec[..m].copy_from_slice(&self.hcoef[..m]);
        back_substitute(&self.rmat, n, &mut self.dvec[..m]);
        let rho = self.vcol.norm2();
        (m < n && vnorm.is_finite() && rho > DEPENDENCE_TOL * vnorm).then_some(rho)
    }

    /// Takes a step of length `t` along the directions
    /// [`QpWorkspace::orthogonalize`] left: the working multipliers fall
    /// by `t·r`, and, unless the step is purely dual (`primal == false`,
    /// a dependent row), the iterate moves by `t·L⁻ᵀz`.
    fn step_by(&mut self, t: f64, primal: bool) -> Result<()> {
        for (l, &r) in self.lam[..self.m_rows].iter_mut().zip(&self.dvec) {
            *l -= t * r;
        }
        if primal {
            self.step
                .as_mut_slice()
                .copy_from_slice(self.vcol.as_slice());
            self.hessian_factor
                .backward_solve_in_place(&mut self.step)?;
            for (x, &s) in self.x.as_mut_slice().iter_mut().zip(self.step.iter()) {
                *x += t * s;
            }
        }
        Ok(())
    }

    /// Appends the row just orthogonalized (`z`, `h` from
    /// [`QpWorkspace::orthogonalize`]) to the factor, bordering `R` by one
    /// column, with multiplier `lam`.
    fn append(&mut self, row: &[f64], rhs: f64, lam: f64) {
        let n = self.cap;
        let m = self.m_rows;
        let rho = self.vcol.norm2();
        let inv = 1.0 / rho;
        if self.qmat.len() < (m + 1) * n {
            self.qmat.resize((m + 1) * n, 0.0);
            self.rmat.resize((m + 1) * n, 0.0);
        }
        for (q, &v) in self.qmat[m * n..(m + 1) * n]
            .iter_mut()
            .zip(self.vcol.iter())
        {
            *q = v * inv;
        }
        for j in 0..m {
            self.rmat[j * n + m] = self.hcoef[j];
        }
        self.rmat[m * n + m] = rho;
        self.wrows.extend_from_slice(row);
        self.wrhs.push(rhs);
        self.lam[m] = lam;
        self.m_rows = m + 1;
    }

    /// Deletes working row `j` from the factor, its multiplier and its
    /// stored row: column `j` of `R` leaves, and a sweep of Givens
    /// rotations — applied to `R`'s rows and the matching `Q` columns —
    /// restores triangularity in `O(m·(m + n))`.
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
        self.lam.copy_within(j + 1..m, j);
        self.wrows.drain(j * n..(j + 1) * n);
        self.wrhs.remove(j);
        self.m_rows = m - 1;
    }

    /// Whether the maintained factor's pivots are all finite and
    /// positive; a downdate that breaks this hands the solve to the
    /// interior-point rescue.
    fn factor_is_sound(&self) -> bool {
        (0..self.m_rows).all(|i| {
            let d = self.rmat[i * self.cap + i];
            d.is_finite() && d > 0.0
        })
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
        for (row, &lj) in self.wrows.chunks_exact(n).zip(&self.lam[..m_w]) {
            if lj != 0.0 {
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
            for (r, row) in self.wrows.chunks_exact(n).enumerate() {
                self.gvec[r] =
                    self.wrhs[r] - dot(row, self.x.as_slice()) - dot(row, self.vcol.as_slice());
            }
            forward_substitute_transposed(&self.rmat, n, &mut self.gvec[..m_w]);
            back_substitute(&self.rmat, n, &mut self.gvec[..m_w]);
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

/// Forward-substitutes `Rᵀ·y = y` in place, `R` upper triangular with row
/// stride `cap`, over the leading `y.len()` rows.
fn forward_substitute_transposed(rmat: &[f64], cap: usize, y: &mut [f64]) {
    for i in 0..y.len() {
        let mut sum = y[i];
        for j in 0..i {
            sum -= rmat[j * cap + i] * y[j];
        }
        y[i] = sum / rmat[i * cap + i];
    }
}

/// Back-substitutes `R·y = y` in place, `R` upper triangular with row
/// stride `cap`, over the leading `y.len()` rows.
fn back_substitute(rmat: &[f64], cap: usize, y: &mut [f64]) {
    let m = y.len();
    for i in (0..m).rev() {
        let mut sum = y[i];
        for j in (i + 1)..m {
            sum -= rmat[i * cap + j] * y[j];
        }
        y[i] = sum / rmat[i * cap + i];
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
        // minimum-norm equality solution (1,1,1) is feasible, and the
        // dual method needs neither.
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_equalities(&e, &e_rhs)
            .unwrap()
            .with_inequalities(&a, &b)
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
    fn conflicting_inequalities_are_infeasible() {
        // x ≥ 5 and x ≤ 4: the second row is implied by the first with a
        // multiplier that cannot make room for it.
        let h = Matrix::identity(1);
        let c = Vector::zeros(1);
        let a = Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap();
        let b = Vector::from_slice(&[5.0, -4.0]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_inequalities(&a, &b)
            .unwrap();
        assert!(matches!(
            QpWorkspace::new().solve(&problem).unwrap_err(),
            OptError::Infeasible(_)
        ));
    }

    #[test]
    fn inhomogeneous_bound_binds() {
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
                    .unwrap(),
            )
            .unwrap();
        // Constrained minimum at the bound x = 5, multiplier 2.
        assert!((sol.x[0] - 5.0).abs() < 1e-12);
        assert_eq!(sol.active_set, vec![0]);
        assert_eq!(sol.iterations, 1);
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
        assert!(!cold.active_set.is_empty());

        // The cold active set as the hint: its rows enter first, each
        // with one full step, and nothing is dropped.
        let mut warm_ws = QpWorkspace::new();
        warm_ws.set_warm_start(cold.x.clone(), cold.active_set.clone());
        let warm = warm_ws.solve(&problem).unwrap();
        assert!(
            (&warm.x - &cold.x).norm_inf() <= 1e-12 * (1.0 + cold.x.norm_inf()),
            "warm {} vs cold {}",
            warm.x,
            cold.x
        );
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        assert_eq!(warm.iterations, cold.active_set.len());
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
        // to solver tolerance.
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
