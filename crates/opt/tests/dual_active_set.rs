//! The dual active-set method of `QpWorkspace` (Goldfarb & Idnani):
//! infeasibility detection, dependent rows, row hints and pinned
//! iteration counts, on small hand-made problems and on
//! deconvolution-shaped ones — positivity collocation rows of the
//! natural cubic B-spline basis with a zero right-hand side, optionally
//! with homogeneous equality rows.
//!
//! The random family mirrors the engine's regime (16 measurements,
//! smooth design, λ where GCV lands). Its optima touch zero over whole
//! phase intervals, so several adjacent, nearly parallel collocation
//! rows are active at once. On a few percent of draws the
//! interior-point backend then stops ~10⁻⁷ away from the active-set
//! optimum in objective (a few 10⁻⁶ in coefficients), so the family
//! checks the dual solve against a KKT certificate to 1e-8 and against
//! the IPM to 1e-6 in objective. The `perf` kernel instance pins both
//! to 1e-8 in coefficients.

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::{IpmWorkspace, OptError, QpInstance, QpProblem, QpWorkspace};
use cellsync_spline::SplineBasis;
use proptest::prelude::*;

/// One positivity-collocation QP `min ½xᵀHx + cᵀx` s.t. `E x = 0`,
/// `P x ≥ 0`, with `H = 2(AᵀA + λΩ + εI)` for a Gaussian-bump design
/// `A` and data from a profile that dips below zero.
struct Colloc {
    h: Matrix,
    c: Vector,
    e: Option<Matrix>,
    e_rhs: Vector,
    p: Matrix,
    p_rhs: Vector,
}

impl Colloc {
    fn problem(&self) -> QpProblem<'_> {
        let mut problem = QpProblem::new(&self.h, &self.c)
            .expect("valid qp")
            .with_inequalities(&self.p, &self.p_rhs)
            .expect("shapes agree");
        if let Some(e) = &self.e {
            problem = problem
                .with_equalities(e, &self.e_rhs)
                .expect("shapes agree");
        }
        problem
    }

    /// Largest scaled violation of the KKT conditions at `x` with the
    /// inequality rows `active`: primal feasibility of every row,
    /// stationarity `Hx + c = P_Wᵀμ + Eᵀν` (multipliers by least
    /// squares) and dual feasibility `μ ≥ 0`. A solve handed to the
    /// interior-point rescue reports every near-tight row as active —
    /// possibly more rows than unknowns — and is then checked for primal
    /// feasibility only.
    fn kkt_violation(&self, x: &Vector, active: &[usize]) -> f64 {
        let scale_x = 1.0 + x.norm_inf();
        let px = self.p.matvec(x).expect("shapes");
        let mut worst = px.iter().fold(0.0_f64, |w, &v| w.max(-v / scale_x));
        let mut rows: Vec<&[f64]> = active.iter().map(|&i| self.p.row(i)).collect();
        if let Some(e) = &self.e {
            let ex = e.matvec(x).expect("shapes");
            worst = worst.max(ex.norm_inf() / scale_x);
            rows.extend((0..e.rows()).map(|r| e.row(r)));
        }
        let grad = &self.h.matvec(x).expect("shapes") + &self.c;
        let scale_g = 1.0 + self.c.norm_inf();
        if rows.is_empty() {
            return worst.max(grad.norm_inf() / scale_g);
        }
        if rows.len() > x.len() {
            return worst;
        }
        let w = Matrix::from_rows(&rows).expect("equal-length rows");
        let mult = w
            .transpose()
            .qr()
            .expect("shapes")
            .solve_least_squares(&grad)
            .expect("full column rank");
        let resid = &w.tr_matvec(&mult).expect("shapes") - &grad;
        worst = worst.max(resid.norm_inf() / scale_g);
        mult.as_slice()[..active.len()]
            .iter()
            .fold(worst, |w, &mu| w.max(-mu / scale_g))
    }
}

#[allow(clippy::too_many_arguments)]
fn colloc_instance(
    n: usize,
    m: usize,
    width: f64,
    log10_lambda: f64,
    shift: f64,
    offset: f64,
    eq_rows: &[Vec<f64>],
) -> Colloc {
    let basis = SplineBasis::uniform(n, 0.0, 1.0).expect("n ≥ 4");
    let grid: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
    let p = basis.collocation_matrix(&grid).expect("finite grid");
    let a = Matrix::from_fn(m, n, |r, j| {
        let t = r as f64 / (m - 1) as f64;
        let phi = j as f64 / (n - 1) as f64;
        (-((phi - t).powi(2)) / width).exp() + 0.05
    });
    let truth = Vector::from_fn(n, |i| {
        let phi = i as f64 / (n - 1) as f64;
        (2.0 * std::f64::consts::PI * (phi + shift)).sin() + offset
    });
    let data = a.matvec(&truth).expect("shapes agree");
    let omega = basis.penalty_matrix();
    let lambda = 10f64.powf(log10_lambda);
    let mut h = a.gram();
    for i in 0..n {
        for j in 0..n {
            h[(i, j)] = 2.0 * (h[(i, j)] + lambda * omega[(i, j)]);
        }
        h[(i, i)] += 2e-9;
    }
    h.symmetrize().expect("square");
    let c = -&a.tr_matvec(&data).expect("shapes agree").scaled(2.0);
    let e = (!eq_rows.is_empty()).then(|| {
        let rows: Vec<&[f64]> = eq_rows.iter().map(Vec::as_slice).collect();
        Matrix::from_rows(&rows).expect("equal-length rows")
    });
    Colloc {
        h,
        c,
        e_rhs: Vector::zeros(eq_rows.len()),
        e,
        p,
        p_rhs: Vector::zeros(101),
    }
}

/// `max |a − b| / (1 + max |b|)`.
fn rel_diff(a: &Vector, b: &Vector) -> f64 {
    (a - b).norm_inf() / (1.0 + b.norm_inf())
}

/// Equality rows shaped like the engine's: mean-free random weights
/// (conservation annihilates constants) plus a small constant tilt
/// (rate continuity does not).
fn equality_rows(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    (
        0..3usize,
        prop::collection::vec(-1.0..1.0f64, 2 * n),
        -0.2..0.2f64,
    )
        .prop_map(move |(k, raw, tilt)| {
            (0..k)
                .map(|r| {
                    let u = &raw[r * n..(r + 1) * n];
                    let mean = u.iter().sum::<f64>() / n as f64;
                    u.iter()
                        .map(|v| v - mean + if r == 1 { tilt } else { 0.0 })
                        .collect()
                })
                .collect()
        })
}

fn colloc_case() -> impl Strategy<Value = Colloc> {
    (8..20usize).prop_flat_map(|n| {
        (
            16..17usize,
            0.03..0.05f64,
            -5.0..-1.0f64,
            0.0..1.0f64,
            -1.0..0.5f64,
            equality_rows(n),
        )
            .prop_map(move |(m, width, log_l, shift, offset, eq)| {
                colloc_instance(n, m, width, log_l, shift, offset, &eq)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dual_solve_satisfies_kkt_and_agrees_with_ipm(case in colloc_case()) {
        let dual = QpWorkspace::new().solve(&case.problem()).expect("dual solves");
        let ipm = IpmWorkspace::new().solve(&case.problem()).expect("ipm solves");
        let kkt = case.kkt_violation(&dual.x, &dual.active_set);
        prop_assert!(kkt <= 1e-8, "KKT violation {:e}", kkt);
        let gap = (dual.objective - ipm.objective).abs() / (1.0 + ipm.objective.abs());
        prop_assert!(gap <= 1e-6, "IPM objective gap {:e}", gap);
    }

    #[test]
    fn hinted_rows_give_the_cold_solution(case in colloc_case(), stale in 0..101usize) {
        let cold = QpWorkspace::new().solve(&case.problem()).expect("cold solves");
        // The cold active set, plus a row that is not in it (and may or
        // may not be violated on the way).
        let mut hint = cold.active_set.clone();
        hint.push(stale);
        let mut ws = QpWorkspace::new();
        ws.set_warm_start(Vector::zeros(1), hint);
        let hinted = ws.solve(&case.problem()).expect("hinted solves");
        prop_assert!(
            rel_diff(&hinted.x, &cold.x) <= 1e-8,
            "hinted vs cold: {:e}",
            rel_diff(&hinted.x, &cold.x)
        );
        let kkt = case.kkt_violation(&hinted.x, &hinted.active_set);
        prop_assert!(kkt <= 1e-8, "KKT violation {:e}", kkt);
    }
}

/// The cold collocation QP of the `perf` harness's
/// `qp_cold_colloc_18x101x6` kernel: 18 natural B-spline basis
/// functions, 16 measurements, λ = 10⁻⁴, the engine's 101-row
/// positivity grid.
fn perf_kernel_instance() -> Colloc {
    let basis = SplineBasis::uniform(18, 0.0, 1.0).expect("n ≥ 4");
    let grid: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
    let p = basis.collocation_matrix(&grid).expect("finite grid");
    let design = Matrix::from_fn(16, 18, |r, c| {
        let t = r as f64 / 15.0;
        let phi = c as f64 / 17.0;
        (-((phi - t).powi(2)) / 0.03).exp() + 0.05
    });
    let truth = Vector::from_fn(18, |i| {
        let phi = i as f64 / 17.0;
        (2.0 * std::f64::consts::PI * phi).sin() * 1.5 - 0.3
    });
    let data = design.matvec(&truth).expect("shapes agree");
    let omega = basis.penalty_matrix();
    let mut h = design.gram();
    for i in 0..18 {
        for j in 0..18 {
            h[(i, j)] = 2.0 * (h[(i, j)] + 1e-4 * omega[(i, j)]);
        }
        h[(i, i)] += 2e-9;
    }
    h.symmetrize().expect("square");
    let c = -&design.tr_matvec(&data).expect("shapes agree").scaled(2.0);
    Colloc {
        h,
        c,
        e: None,
        e_rhs: Vector::zeros(0),
        p,
        p_rhs: Vector::zeros(101),
    }
}

#[test]
fn perf_kernel_instance_iterations_are_pinned() {
    let case = perf_kernel_instance();
    let dual = QpWorkspace::new().solve(&case.problem()).expect("solves");
    let ipm = IpmWorkspace::new().solve(&case.problem()).expect("solves");
    assert!(rel_diff(&dual.x, &ipm.x) <= 1e-8);
    assert!(case.kkt_violation(&dual.x, &dual.active_set) <= 1e-8);
    assert_eq!(dual.active_set.len(), 14);
    assert_eq!(dual.iterations, 48);

    // Hinted with its own active set, every hinted row enters with one
    // full step and the solve lands on the cold solution.
    let mut ws = QpWorkspace::new();
    ws.set_warm_start(dual.x.clone(), dual.active_set.clone());
    let hinted = ws.solve(&case.problem()).expect("solves");
    assert!(rel_diff(&hinted.x, &dual.x) <= 1e-12);
    assert_eq!(hinted.iterations, dual.active_set.len());
}

#[test]
fn harvested_entry_iterations_are_pinned() {
    let instance = QpInstance::parse(include_str!(
        "../../../tests/fixtures/qp_corpus/harvest-banded-weighted-160.qp"
    ))
    .expect("committed corpus entry parses");
    let problem = instance.problem().expect("valid problem");
    let dual = QpWorkspace::new().solve(&problem).expect("solves");
    let ipm = IpmWorkspace::new().solve(&problem).expect("solves");
    assert!(rel_diff(&dual.x, &ipm.x) <= 1e-8);
    assert_eq!(dual.active_set.len(), 18);
    assert_eq!(dual.iterations, 26);
}

#[test]
fn inconsistent_dependent_equalities_are_infeasible() {
    // Row 3 = row 1 + row 2: consistent with e₃ = e₁ + e₂ (and then
    // skipped), infeasible otherwise.
    let h = Matrix::identity(3);
    let c = Vector::from_slice(&[-1.0, 0.5, 2.0]);
    let e = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0], &[1.0, 1.0, 2.0]]).unwrap();
    let consistent = Vector::from_slice(&[1.0, 2.0, 3.0]);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_equalities(&e, &consistent)
        .unwrap();
    let dual = QpWorkspace::new()
        .solve(&problem)
        .expect("consistent rows solve");
    let ipm = IpmWorkspace::new()
        .solve(&problem)
        .expect("consistent rows solve");
    assert!(rel_diff(&dual.x, &ipm.x) <= 1e-10);
    let residual = &e.matvec(&dual.x).unwrap() - &consistent;
    assert!(residual.norm_inf() <= 1e-12, "E·x − e = {residual}");

    let inconsistent = Vector::from_slice(&[1.0, 2.0, 3.5]);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_equalities(&e, &inconsistent)
        .unwrap();
    let err = QpWorkspace::new().solve(&problem).unwrap_err();
    assert!(matches!(err, OptError::Infeasible(_)), "{err}");
}

#[test]
fn equality_inequality_conflicts_are_infeasible_never_an_iteration_limit() {
    let h = Matrix::identity(2);
    let c = Vector::zeros(2);
    let ineq = Matrix::identity(2);
    let zero = Vector::zeros(2);
    // x₀ = −1 against x₀ ≥ 0: the violated row is the equality row
    // itself. x₀ + x₁ = −1 against x ≥ 0: the second violated row is
    // implied by the equality and the first, whose multiplier would
    // have to fall.
    for (row, rhs) in [([1.0, 0.0], -1.0), ([1.0, 1.0], -1.0)] {
        let e = Matrix::from_rows(&[&row]).unwrap();
        let e_rhs = Vector::from_slice(&[rhs]);
        let problem = QpProblem::new(&h, &c)
            .unwrap()
            .with_equalities(&e, &e_rhs)
            .unwrap()
            .with_inequalities(&ineq, &zero)
            .unwrap();
        let err = QpWorkspace::new().solve(&problem).unwrap_err();
        assert!(matches!(err, OptError::Infeasible(_)), "{row:?}: {err}");
    }
}

#[test]
fn dependent_row_takes_a_pure_dual_step() {
    // min ½‖x − (−1, −1)‖² s.t. x₀ ≥ 0, x₁ ≥ 0, x₀ + 2x₁ ≥ 1. Hinted,
    // rows 0 and 1 enter first and fill the working set at the origin;
    // row 2 is then dependent on them: a pure dual step drops row 1,
    // and row 2 enters with a full step. The optimum is (0, 0.5) with
    // multipliers 0.25 (row 0) and 0.75 (row 2).
    let h = Matrix::identity(2);
    let c = Vector::from_slice(&[1.0, 1.0]);
    let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 2.0]]).unwrap();
    let b = Vector::from_slice(&[0.0, 0.0, 1.0]);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_inequalities(&a, &b)
        .unwrap();
    let mut ws = QpWorkspace::new();
    ws.set_warm_start(Vector::zeros(2), vec![0, 1]);
    let hinted = ws.solve(&problem).unwrap();
    assert!((hinted.x[0]).abs() < 1e-15 && (hinted.x[1] - 0.5).abs() < 1e-15);
    assert_eq!(hinted.active_set, vec![0, 2]);
    // Rows 0 and 1 (one step each), row 2's dual step and its full step.
    assert_eq!(hinted.iterations, 4);

    let cold = QpWorkspace::new().solve(&problem).unwrap();
    assert!(rel_diff(&cold.x, &hinted.x) <= 1e-15);
    let mut active = cold.active_set.clone();
    active.sort_unstable();
    assert_eq!(active, vec![0, 2]);
}

#[test]
fn duplicated_and_dependent_inequality_rows_agree_with_the_ipm() {
    // Duplicated rows, a row that is the sum of two others and an
    // all-zero row with a zero right-hand side: legal input. The
    // optimum has both coordinate rows active, so every other row is
    // dependent on the working set once they are in.
    let h = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap();
    let c = Vector::from_slice(&[3.0, 1.0]);
    let a = Matrix::from_rows(&[
        &[1.0, 0.0],
        &[1.0, 0.0],
        &[0.0, 1.0],
        &[1.0, 1.0],
        &[0.0, 0.0],
        &[0.0, 1.0],
    ])
    .unwrap();
    let b = Vector::zeros(6);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_inequalities(&a, &b)
        .unwrap();
    let dual = QpWorkspace::new().solve(&problem).unwrap();
    let ipm = IpmWorkspace::new().solve(&problem).unwrap();
    assert!(rel_diff(&dual.x, &ipm.x) <= 1e-8, "{} vs {}", dual.x, ipm.x);
    assert!(dual.x.norm_inf() <= 1e-15, "x = {}", dual.x);
    assert_eq!(dual.active_set.len(), 2);

    // A zero row with a positive right-hand side cannot hold.
    let b = Vector::from_slice(&[0.0, 0.0, 0.0, 0.0, 1e-3, 0.0]);
    let problem = QpProblem::new(&h, &c)
        .unwrap()
        .with_inequalities(&a, &b)
        .unwrap();
    let err = QpWorkspace::new().solve(&problem).unwrap_err();
    assert!(matches!(err, OptError::Infeasible(_)), "{err}");
}
