//! Property-based tests of the Gauss–Legendre rule.

use cellsync_numerics::quadrature::GaussLegendre;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quadrature_linear_in_integrand(a in -2.0..2.0f64, b in -2.0..2.0f64, s in 0.5..3.0f64) {
        // ∫(s·f) = s·∫f.
        let rule = GaussLegendre::new(16).expect("n > 0");
        let f = move |x: f64| a * (3.0 * x).sin() + b * x + 1.0;
        let sf = move |x: f64| s * f(x);
        let t1 = rule.integrate_panels(f, 0.0, 1.0, 4).expect("valid interval");
        let t2 = rule.integrate_panels(sf, 0.0, 1.0, 4).expect("valid interval");
        prop_assert!((t2 - s * t1).abs() < 1e-12 * (1.0 + t1.abs()));
    }

    #[test]
    fn interval_additivity(split in 0.1..0.9f64) {
        let rule = GaussLegendre::new(16).expect("n > 0");
        let f = |x: f64| (3.0 * x).sin() + 2.0;
        let whole = rule.integrate_panels(f, 0.0, 1.0, 4).expect("valid");
        let left = rule.integrate_panels(f, 0.0, split, 4).expect("valid");
        let right = rule.integrate_panels(f, split, 1.0, 4).expect("valid");
        prop_assert!((whole - left - right).abs() < 1e-12);
    }

    #[test]
    fn gauss_legendre_exact_to_design_degree(n in 2usize..10) {
        // An n-point rule integrates x^(2n−1) exactly.
        let rule = GaussLegendre::new(n).expect("n > 0");
        let degree = (2 * n - 1) as i32;
        let v = rule.integrate(|x| x.powi(degree) + x.powi(degree - 1), -1.0, 1.0)
            .expect("valid interval");
        // Odd power integrates to 0; even power 2/(degree).
        let exact = 2.0 / degree as f64;
        prop_assert!((v - exact).abs() < 1e-10, "n={n}: {v} vs {exact}");
    }
}
