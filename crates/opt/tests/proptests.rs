//! Property-based tests of the optimizers: KKT conditions on random
//! convex problems and cross-solver agreement.

use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::{
    golden_section, IpmWorkspace, NelderMead, QpBackend, QpInstance, QpProblem, QpWorkspace,
};
use proptest::prelude::*;

/// Random SPD Hessian: AᵀA + n·I from bounded entries.
fn spd_hessian(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-2.0..2.0f64, n * n).prop_map(move |data| {
        let a = Matrix::from_vec(n, n, data).expect("sized data");
        let mut g = a.gram();
        for i in 0..n {
            g[(i, i)] += n as f64;
        }
        g.symmetrize().expect("square");
        g
    })
}

fn linear_term(n: usize) -> impl Strategy<Value = Vector> {
    prop::collection::vec(-5.0..5.0f64, n).prop_map(Vector::from)
}

/// Constraint geometry for the cross-backend differential property.
/// Every variant is feasible by construction and supplies a start when
/// the origin is not one (the active-set method has no inequality
/// phase-1).
#[derive(Debug, Clone)]
enum Geometry {
    /// `x ≥ 0`; the origin is feasible.
    Positivity,
    /// `x ≥ 0` with a conservation-style row `Σx = n·t`, `t > 0`;
    /// `t·1` is feasible.
    SumEquality(f64),
    /// `x ≥ 0` plus the half-space `Σx ≥ −1`; the origin is feasible.
    Halfspace,
}

fn geometry() -> impl Strategy<Value = Geometry> {
    (0..3usize, 0.5..1.5f64).prop_map(|(kind, t)| match kind {
        0 => Geometry::Positivity,
        1 => Geometry::SumEquality(t),
        _ => Geometry::Halfspace,
    })
}

/// Builds the serializable instance for one random draw. Returning a
/// [`QpInstance`] (rather than a bare problem) is the point: a shrunk
/// counterexample prints in the corpus text format, ready to pin under
/// `tests/fixtures/qp_corpus/regressions/`.
fn differential_instance(n: usize, h: Matrix, c: Vector, geom: &Geometry) -> QpInstance {
    let inst = QpInstance::new("regress-shrunk", h, c).expect("valid name and shapes");
    match *geom {
        Geometry::Positivity => inst
            .with_inequalities(Matrix::identity(n), Vector::zeros(n))
            .expect("shapes"),
        Geometry::SumEquality(t) => inst
            .with_equalities(
                Matrix::from_fn(1, n, |_, _| 1.0),
                Vector::from_slice(&[n as f64 * t]),
            )
            .expect("shapes")
            .with_inequalities(Matrix::identity(n), Vector::zeros(n))
            .expect("shapes")
            .with_start(Vector::from_fn(n, |_| t))
            .expect("shapes"),
        Geometry::Halfspace => inst
            .with_inequalities(
                Matrix::from_fn(n + 1, n, |i, j| {
                    if i < n {
                        if i == j {
                            1.0
                        } else {
                            0.0
                        }
                    } else {
                        1.0
                    }
                }),
                Vector::from_fn(n + 1, |i| if i < n { 0.0 } else { -1.0 }),
            )
            .expect("shapes"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn qp_satisfies_kkt_on_positivity_problems(
        h in spd_hessian(6),
        c in linear_term(6),
    ) {
        let (ineq, zeros) = (Matrix::identity(6), Vector::zeros(6));
        let problem = QpProblem::new(&h, &c)
            .expect("valid qp")
            .with_inequalities(&ineq, &zeros)
            .expect("shapes agree");
        let sol = QpWorkspace::new()
            .solve(&problem)
            .expect("solvable");
        let grad = &h.matvec(&sol.x).expect("shapes") + &c;
        for i in 0..6 {
            prop_assert!(sol.x[i] >= -1e-8, "primal feasibility at {i}");
            if sol.x[i] > 1e-6 {
                prop_assert!(grad[i].abs() < 1e-6, "stationarity at {i}: {}", grad[i]);
            } else {
                prop_assert!(grad[i] > -1e-6, "dual feasibility at {i}: {}", grad[i]);
            }
        }
    }

    #[test]
    fn active_set_and_ipm_agree_on_random_qps(
        h in spd_hessian(5),
        c in linear_term(5),
        geom in geometry(),
    ) {
        let inst = differential_instance(5, h, c, &geom);
        let problem = inst.problem().expect("feasible by construction");
        let ipm = IpmWorkspace::new().solve_qp(&problem);
        let active = QpWorkspace::new().solve_qp(&problem);
        let (ipm, active) = match (ipm, active) {
            (Ok(i), Ok(a)) => (i, a),
            (i, a) => {
                return Err(TestCaseError::fail(format!(
                    "backend error (ipm: {:?}, active-set: {:?}); pin this instance under \
                     tests/fixtures/qp_corpus/regressions/ (see its README):\n{}",
                    i.err(), a.err(), inst.to_text(),
                )));
            }
        };
        let scale = 1.0 + active.x.norm_inf();
        let dx = (&ipm.x - &active.x).norm_inf();
        let dobj = (ipm.objective - active.objective).abs();
        prop_assert!(
            dx <= 1e-7 * scale && dobj <= 1e-7 * (1.0 + active.objective.abs()),
            "backends disagree (|Δx|∞ = {dx:e}, |Δobj| = {dobj:e}); pin this instance \
             under tests/fixtures/qp_corpus/regressions/ (see its README):\n{}",
            inst.to_text(),
        );
    }

    #[test]
    fn qp_objective_not_above_projected_gradient(
        h in spd_hessian(5),
        c in linear_term(5),
    ) {
        // Random box QPs: the active-set optimum's objective is never
        // above the independent interior-point backend's.
        let (ineq, zeros) = (Matrix::identity(5), Vector::zeros(5));
        let problem = QpProblem::new(&h, &c)
            .expect("valid qp")
            .with_inequalities(&ineq, &zeros)
            .expect("shapes agree");
        let qp = QpWorkspace::new()
            .solve(&problem)
            .expect("solvable");
        let ipm = IpmWorkspace::new().solve_qp(&problem).expect("converges");
        let obj = |x: &Vector| {
            0.5 * x.dot(&h.matvec(x).expect("shapes")).expect("shapes")
                + c.dot(x).expect("shapes")
        };
        prop_assert!(obj(&qp.x) <= obj(&ipm.x) + 1e-7, "{} vs {}", obj(&qp.x), obj(&ipm.x));
    }

    #[test]
    fn nelder_mead_descends(start in prop::collection::vec(-3.0..3.0f64, 2)) {
        let f = |p: &[f64]| (p[0] - 1.0).powi(2) + 3.0 * (p[1] + 0.5).powi(2);
        let initial = f(&start);
        let r = NelderMead::new(3000, 1e-10)
            .expect("valid settings")
            .minimize(f, &start)
            .expect("converges on a bowl");
        prop_assert!(r.fx <= initial + 1e-12);
        prop_assert!((r.x[0] - 1.0).abs() < 1e-3);
        prop_assert!((r.x[1] + 0.5).abs() < 1e-3);
    }

    #[test]
    fn golden_section_brackets_parabola_minimum(center in -5.0..5.0f64) {
        let (x, _) = golden_section(
            |x| (x - center) * (x - center),
            center - 3.0,
            center + 4.0,
            1e-9,
            200,
        )
        .expect("unimodal");
        prop_assert!((x - center).abs() < 1e-4, "found {x}, center {center}");
    }
}
