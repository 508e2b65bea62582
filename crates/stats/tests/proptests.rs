//! Property-based tests of the statistics substrate.

use cellsync_stats::dist::{
    standard_normal_cdf, standard_normal_quantile, ContinuousDistribution, Normal, TruncatedNormal,
    Uniform,
};
use cellsync_stats::metrics::{pearson, rmse};
use cellsync_stats::noise::NoiseModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn normal_cdf_monotone(a in -4.0..4.0f64, b in -4.0..4.0f64) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(standard_normal_cdf(lo) <= standard_normal_cdf(hi) + 1e-15);
    }

    #[test]
    fn quantile_inverts_cdf(p in 0.001..0.999f64) {
        let x = standard_normal_quantile(p).expect("p in (0,1)");
        prop_assert!((standard_normal_cdf(x) - p).abs() < 1e-6);
    }

    #[test]
    fn normal_symmetry(mu in -5.0..5.0f64, sigma in 0.1..3.0f64, d in 0.0..3.0f64) {
        let n = Normal::new(mu, sigma).expect("sigma > 0");
        prop_assert!((n.pdf(mu + d) - n.pdf(mu - d)).abs() < 1e-12);
        prop_assert!((n.cdf(mu + d) + n.cdf(mu - d) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn truncated_normal_tightens_variance(
        mu in -1.0..1.0f64,
        sigma in 0.2..2.0f64,
        half_width in 0.5..3.0f64,
    ) {
        let base = Normal::new(mu, sigma).expect("sigma > 0");
        let t = TruncatedNormal::new(base, mu - half_width * sigma, mu + half_width * sigma)
            .expect("positive mass");
        prop_assert!(t.variance() <= base.variance() + 1e-12);
        // Symmetric truncation preserves the mean.
        prop_assert!((t.mean() - mu).abs() < 1e-9);
    }

    #[test]
    fn uniform_moments(lo in -3.0..0.0f64, width in 0.5..5.0f64) {
        let u = Uniform::new(lo, lo + width).expect("lo < hi");
        prop_assert!((u.mean() - (lo + width / 2.0)).abs() < 1e-12);
        prop_assert!((u.variance() - width * width / 12.0).abs() < 1e-12);
    }

    #[test]
    fn rmse_dominates_mae(
        a in prop::collection::vec(-5.0..5.0f64, 2..20),
        shift in 0.1..2.0f64,
    ) {
        let b: Vec<f64> = a.iter().map(|x| x + shift).collect();
        let r = rmse(&a, &b).expect("paired");
        let m = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f64>() / a.len() as f64;
        prop_assert!(r >= m - 1e-12, "rmse {r} < mae {m}");
    }

    #[test]
    fn pearson_bounded_and_scale_invariant(
        xs in prop::collection::vec(-5.0..5.0f64, 3..20),
        scale in 0.1..3.0f64,
    ) {
        let ys: Vec<f64> = xs.iter().map(|x| scale * x + 1.0).collect();
        // Constant inputs are rejected; otherwise r = 1 for affine maps.
        if let Ok(r) = pearson(&xs, &ys) {
            prop_assert!((r - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_none_identity_any_series(xs in prop::collection::vec(-10.0..10.0f64, 1..30)) {
        let mut rng = StdRng::seed_from_u64(0);
        let out = NoiseModel::None.apply(&xs, &mut rng).expect("valid model");
        prop_assert_eq!(out, xs);
    }

    #[test]
    fn relative_noise_zero_at_zero_signal(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let out = NoiseModel::RelativeGaussian { fraction: 0.5 }
            .apply(&[0.0, 0.0, 0.0], &mut rng)
            .expect("valid model");
        prop_assert_eq!(out, vec![0.0, 0.0, 0.0]);
    }

    // Generator contracts the scenario matrix leans on: every noise model
    // preserves series length and finiteness, and every implied σ respects
    // the positive floor (weights in paper eq. 5 must stay finite).
    #[test]
    fn noise_models_preserve_length_and_finiteness(
        xs in prop::collection::vec(-50.0..50.0f64, 1..40),
        seed in 0u64..200,
        sigma in 0.0..2.0f64,
        fraction in 0.0..0.5f64,
        outlier_prob in 0.0..1.0f64,
        outlier_scale in 1.0..20.0f64,
    ) {
        let models = [
            NoiseModel::None,
            NoiseModel::AdditiveGaussian { sigma },
            NoiseModel::RelativeGaussian { fraction },
            NoiseModel::Multiplicative { sigma },
            NoiseModel::Contaminated { fraction, outlier_prob, outlier_scale },
        ];
        for model in models {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = model.apply(&xs, &mut rng).expect("valid model");
            prop_assert_eq!(out.len(), xs.len());
            prop_assert!(out.iter().all(|v| v.is_finite()), "{model:?} produced non-finite noise");
        }
    }

    #[test]
    fn noise_sigmas_respect_positive_floor(
        xs in prop::collection::vec(-50.0..50.0f64, 1..40),
        sigma in 0.0..2.0f64,
        fraction in 0.0..0.5f64,
        outlier_prob in 0.0..1.0f64,
        outlier_scale in 1.0..20.0f64,
    ) {
        let scale = xs.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        let floor = 1e-9 + 1e-3 * scale;
        let models = [
            NoiseModel::AdditiveGaussian { sigma },
            NoiseModel::RelativeGaussian { fraction },
            NoiseModel::Multiplicative { sigma },
            NoiseModel::Contaminated { fraction, outlier_prob, outlier_scale },
        ];
        for model in models {
            let sigmas = model.sigmas(&xs).expect("valid model");
            prop_assert_eq!(sigmas.len(), xs.len());
            for s in &sigmas {
                prop_assert!(s.is_finite() && *s >= floor - 1e-15,
                    "{model:?} sigma {s} below floor {floor}");
            }
        }
    }

    #[test]
    fn contaminated_nominal_sigma_matches_relative(
        xs in prop::collection::vec(-50.0..50.0f64, 1..40),
        fraction in 0.0..0.5f64,
        outlier_prob in 0.0..1.0f64,
        outlier_scale in 1.0..20.0f64,
    ) {
        // The analyst-visible weights are identical to the uncontaminated
        // relative-Gaussian model: contamination only changes the draws.
        let nominal = NoiseModel::RelativeGaussian { fraction }.sigmas(&xs).expect("valid");
        let contaminated = NoiseModel::Contaminated { fraction, outlier_prob, outlier_scale }
            .sigmas(&xs)
            .expect("valid");
        prop_assert_eq!(nominal, contaminated);
    }
}
