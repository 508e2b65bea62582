//! The interior-direction start rule of the active-set QP on
//! deconvolution-shaped problems: positivity collocation rows of the
//! natural cubic B-spline basis with a zero right-hand side (every
//! row tight at the origin), optionally with homogeneous equality rows.
//!
//! The start may change the path of the active-set walk, never its
//! answer: solutions must agree with the origin start and satisfy the
//! KKT conditions, the interior-point backend must agree on the
//! objective, and a direction the solver cannot use must leave the
//! solve bit-identical to one that never had it.
//!
//! The random family mirrors the engine's regime (16 measurements,
//! smooth design, λ where GCV lands). Its optima touch zero over whole
//! phase intervals, so several adjacent, nearly parallel collocation
//! rows are active at once. On a few percent of draws the
//! interior-point backend then stops ~10⁻⁷ away from the active-set
//! optimum in objective (a few 10⁻⁶ in coefficients), with either
//! active-set start; so this family checks the interior start against
//! the origin start to 1e-8 and against a KKT certificate to 1e-8, and
//! the IPM to 1e-6 in objective. The perf kernel instance pins all
//! three to 1e-8 in coefficients.

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::{IpmWorkspace, QpProblem, QpWorkspace};
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
    /// squares) and dual feasibility `μ ≥ 0`. A solve the active-set walk
    /// handed to its interior-point rescue reports every near-tight row
    /// as active — more rows than unknowns — and is checked for primal
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

    /// The constant profile's coefficients projected onto `null(E)`,
    /// `1 − Eᵀ(EEᵀ)⁻¹E·1` — the direction the deconvolution engine
    /// hands the solver.
    fn direction(&self) -> Vector {
        let n = self.c.len();
        let ones = Vector::from_fn(n, |_| 1.0);
        match &self.e {
            None => ones,
            Some(e) => {
                let eet = e.matmul(&e.transpose()).expect("shapes");
                let w = eet
                    .cholesky()
                    .expect("independent rows")
                    .solve(&e.matvec(&ones).expect("shapes"))
                    .expect("shapes");
                &ones - &e.tr_matvec(&w).expect("shapes")
            }
        }
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
    fn interior_start_matches_origin_start_and_ipm(case in colloc_case()) {
        let d = case.direction();
        let pd = case.p.matvec(&d).expect("shapes");
        prop_assume!(pd.iter().all(|&v| v > 0.0));
        let origin = QpWorkspace::new().solve(&case.problem()).expect("origin start solves");
        let interior = QpWorkspace::new()
            .solve(&case.problem().with_interior_direction(&d))
            .expect("interior start solves");
        let ipm = IpmWorkspace::new().solve(&case.problem()).expect("ipm solves");
        prop_assert!(
            rel_diff(&interior.x, &origin.x) <= 1e-8,
            "interior vs origin: {:e}",
            rel_diff(&interior.x, &origin.x)
        );
        let kkt = case.kkt_violation(&interior.x, &interior.active_set);
        prop_assert!(kkt <= 1e-8, "KKT violation {:e}", kkt);
        let gap = |other: f64| (interior.objective - other).abs() / (1.0 + other.abs());
        prop_assert!(gap(origin.objective) <= 1e-8, "objective gap {:e}", gap(origin.objective));
        prop_assert!(gap(ipm.objective) <= 1e-6, "IPM objective gap {:e}", gap(ipm.objective));
    }

    #[test]
    fn unusable_directions_leave_the_solve_bit_identical(
        case in colloc_case(),
        flip in 0..101usize,
    ) {
        let origin = QpWorkspace::new().solve(&case.problem()).expect("origin start solves");
        // A direction that decreases one collocation row.
        let mut bad = case.direction();
        let row = case.p.row(flip);
        let along: f64 = row.iter().zip(bad.iter()).map(|(a, v)| a * v).sum();
        let norm2: f64 = row.iter().map(|a| a * a).sum();
        for (v, &a) in bad.as_mut_slice().iter_mut().zip(row) {
            *v -= 2.0 * (along / norm2) * a;
        }
        let short = Vector::from_fn(case.c.len() - 1, |_| 1.0);
        for d in [&bad, &short] {
            let sol = QpWorkspace::new()
                .solve(&case.problem().with_interior_direction(d))
                .expect("solves");
            prop_assert_eq!(&sol, &origin);
        }
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
fn perf_kernel_instance_needs_no_more_iterations_than_the_origin_start() {
    let case = perf_kernel_instance();
    let d = case.direction();
    let origin = QpWorkspace::new().solve(&case.problem()).expect("solves");
    let interior = QpWorkspace::new()
        .solve(&case.problem().with_interior_direction(&d))
        .expect("solves");
    let ipm = IpmWorkspace::new().solve(&case.problem()).expect("solves");
    assert!(rel_diff(&interior.x, &origin.x) <= 1e-8);
    assert!(rel_diff(&interior.x, &ipm.x) <= 1e-8);
    assert!(
        interior.iterations <= origin.iterations,
        "interior {} vs origin {} iterations",
        interior.iterations,
        origin.iterations
    );
}

#[test]
fn direction_violating_the_equalities_is_ignored() {
    // E·1 ≠ 0: the all-ones direction lifts every collocation row but
    // moves off the equality manifold, so it must be ignored.
    let n = 18;
    let row: Vec<f64> = (0..n).map(|j| 1.0 + j as f64 / n as f64).collect();
    let case = colloc_instance(n, 16, 0.03, -4.0, 0.0, -0.3, &[row]);
    let ones = Vector::from_fn(n, |_| 1.0);
    let origin = QpWorkspace::new().solve(&case.problem()).expect("solves");
    let ignored = QpWorkspace::new()
        .solve(&case.problem().with_interior_direction(&ones))
        .expect("solves");
    assert_eq!(ignored, origin);
}

#[test]
fn feasible_warm_hint_takes_precedence_over_the_direction() {
    let case = perf_kernel_instance();
    let d = case.direction();
    let reference = QpWorkspace::new().solve(&case.problem()).expect("solves");
    let mut plain = QpWorkspace::new();
    plain.set_warm_start(reference.x.clone(), reference.active_set.clone());
    let plain = plain.solve(&case.problem()).expect("solves");
    let mut directed = QpWorkspace::new();
    directed.set_warm_start(reference.x.clone(), reference.active_set.clone());
    let directed = directed
        .solve(&case.problem().with_interior_direction(&d))
        .expect("solves");
    assert_eq!(directed, plain);
}

#[test]
fn infeasible_warm_hint_is_moved_inside_along_the_direction() {
    // The unconstrained minimizer violates positivity; as a base point
    // it is pushed inside, and the solve still reaches the optimum.
    let case = perf_kernel_instance();
    let d = case.direction();
    let unconstrained = case
        .h
        .cholesky()
        .expect("spd")
        .solve(&(-&case.c))
        .expect("shapes");
    let origin = QpWorkspace::new().solve(&case.problem()).expect("solves");
    let mut ws = QpWorkspace::new();
    ws.set_warm_start(unconstrained, Vec::new());
    let hinted = ws
        .solve(&case.problem().with_interior_direction(&d))
        .expect("solves");
    assert!(rel_diff(&hinted.x, &origin.x) <= 1e-8);
    assert!(hinted.iterations < origin.iterations);
}
