//! Property-based tests for the natural-spline substrate.

use cellsync_spline::SplineBasis;
use proptest::prelude::*;

/// Strategy: 5–12 strictly increasing knots in [0, 1] with endpoints pinned.
fn knot_grid() -> impl Strategy<Value = Vec<f64>> {
    (3usize..=10).prop_flat_map(|interior| {
        prop::collection::vec(0.02..0.98f64, interior).prop_map(|mut v| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v.dedup_by(|a, b| (*a - *b).abs() < 1e-3);
            let mut knots = vec![0.0];
            knots.extend(v);
            knots.push(1.0);
            knots
        })
    })
}

/// Strategy: coefficients matched to a knot grid.
fn knots_and_values() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    knot_grid().prop_flat_map(|knots| {
        let n = knots.len();
        (Just(knots), prop::collection::vec(-5.0..5.0f64, n))
    })
}

/// `f''(x)` of the combination `Σ values[i]·Nᵢ`.
fn curvature(b: &SplineBasis, values: &[f64], x: f64) -> f64 {
    (0..b.len()).map(|i| values[i] * b.deriv2(i, x)).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn natural_bc_zero_end_curvature((knots, values) in knots_and_values()) {
        prop_assume!(knots.len() >= 4);
        let b = SplineBasis::new(knots).expect("valid knots");
        // Scale of a curvature on this grid: |α|·6/h² for the finest panel.
        let h = b.knots().windows(2).map(|w| w[1] - w[0]).fold(f64::INFINITY, f64::min);
        let scale = 5.0 * 6.0 / (h * h) * b.len() as f64;
        prop_assert!(curvature(&b, &values, 0.0).abs() < 1e-12 * scale);
        prop_assert!(curvature(&b, &values, 1.0).abs() < 1e-12 * scale);
    }

    #[test]
    fn derivative_consistent_with_finite_difference((knots, values) in knots_and_values()) {
        prop_assume!(knots.len() >= 4);
        let b = SplineBasis::new(knots).expect("valid knots");
        let f = |x: f64| b.eval_combination(&values, x).expect("lengths match");
        let h = 1e-7;
        for frac in [0.13, 0.51, 0.87] {
            let x = 0.01 + frac * 0.98;
            let d = b.deriv_combination(&values, x).expect("lengths match");
            let fd = (f(x + h) - f(x - h)) / (2.0 * h);
            prop_assert!((d - fd).abs() / (1.0 + d.abs()) < 1e-4);
        }
    }

    #[test]
    fn basis_partition_of_unity(knots in knot_grid()) {
        prop_assume!(knots.len() >= 4);
        let b = SplineBasis::new(knots).expect("valid knots");
        for frac in [0.0, 0.21, 0.5, 0.78, 1.0] {
            let s: f64 = (0..b.len()).map(|i| b.eval(i, frac)).sum();
            prop_assert!((s - 1.0).abs() < 1e-9, "sum {s} at {frac}");
        }
    }

    #[test]
    fn basis_reproduces_linear(knots in knot_grid()) {
        prop_assume!(knots.len() >= 4);
        let b = SplineBasis::new(knots).expect("valid knots");
        let coeffs: Vec<f64> = b.greville().iter().map(|xi| 2.0 * xi - 0.3).collect();
        for frac in [0.1, 0.4, 0.9] {
            let v = b.eval_combination(&coeffs, frac).expect("lengths match");
            prop_assert!((v - (2.0 * frac - 0.3)).abs() < 1e-9);
        }
    }

    #[test]
    fn penalty_psd_on_random_coefficients((knots, values) in knots_and_values()) {
        prop_assume!(knots.len() >= 4);
        let b = SplineBasis::new(knots).expect("valid knots");
        let omega = b.penalty_matrix();
        let alpha = cellsync_linalg::Vector::from_slice(&values[..b.len()]);
        let quad = alpha.dot(&omega.matvec(&alpha).expect("shape")).expect("shape");
        prop_assert!(quad > -1e-9, "quadratic form {quad}");
    }

    #[test]
    fn interpolant_minimizes_roughness_among_perturbations((knots, values) in knots_and_values()) {
        // The roughness quadratic form is homogeneous of degree two:
        // doubling the coefficients quadruples αᵀΩα.
        prop_assume!(knots.len() >= 4);
        let b = SplineBasis::new(knots).expect("valid knots");
        let omega = b.penalty_matrix();
        let a1 = cellsync_linalg::Vector::from_slice(&values[..b.len()]);
        let a2 = a1.scaled(2.0);
        let q1 = a1.dot(&omega.matvec(&a1).expect("shape")).expect("shape");
        let q2 = a2.dot(&omega.matvec(&a2).expect("shape")).expect("shape");
        prop_assert!((q2 - 4.0 * q1).abs() <= 1e-6 * (1.0 + q1.abs()));
    }
}
