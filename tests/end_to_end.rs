//! Integration tests exercising the full pipeline across crates:
//! population simulation → kernel estimation → forward transform →
//! constrained deconvolution → feature recovery.

use cellsync::synthetic::{ftsz_profile, project_onto_constraints, SyntheticExperiment};
use cellsync::{DeconvolutionConfig, Deconvolver, ForwardModel, LambdaSelection, PhaseProfile};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use cellsync_stats::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn kernel(seed: u64, horizon: f64, n_times: usize, cells: usize) -> PhaseKernel {
    let params = CellCycleParams::caulobacter().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::synchronized(cells, &params, InitialCondition::UniformSwarmer, &mut rng)
        .unwrap()
        .simulate_until(horizon)
        .unwrap();
    let times: Vec<f64> = (0..n_times)
        .map(|i| horizon * i as f64 / (n_times - 1) as f64)
        .collect();
    KernelEstimator::new(64)
        .unwrap()
        .estimate(&pop, &times)
        .unwrap()
}

#[test]
fn oscillator_roundtrip_under_noise() {
    // A smooth oscillating truth survives forward + noise + deconvolution.
    let truth =
        PhaseProfile::from_fn(300, |phi| 2.0 + (2.0 * std::f64::consts::PI * phi).sin()).unwrap();
    let k = kernel(10, 150.0, 16, 4000);
    let mut rng = StdRng::seed_from_u64(99);
    let experiment = SyntheticExperiment::generate(
        k.clone(),
        &truth,
        NoiseModel::RelativeGaussian { fraction: 0.10 },
        &mut rng,
    )
    .unwrap();
    let config = DeconvolutionConfig::builder()
        .basis_size(16)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -7.0,
            log10_max: 0.0,
            points: 8,
        })
        .build()
        .unwrap();
    let result = Deconvolver::new(k, config)
        .unwrap()
        .fit(experiment.noisy(), Some(experiment.sigmas()))
        .unwrap();
    let recovered = result.profile(300).unwrap();
    assert!(truth.nrmse(&recovered).unwrap() < 0.25);
    assert!(truth.correlation(&recovered).unwrap() > 0.85);
}

#[test]
fn deconvolution_beats_naive_population_readout() {
    // The deconvolved estimate must be closer to the truth than reading
    // the population series as if it were single-cell data — the method's
    // raison d'être.
    let truth = PhaseProfile::from_fn(300, |phi| {
        3.0 + 2.0 * (2.0 * std::f64::consts::PI * phi + 0.7).sin()
    })
    .unwrap();
    let k = kernel(11, 150.0, 16, 4000);
    let forward = ForwardModel::new(k.clone());
    let g = forward.predict(&truth).unwrap();
    let config = DeconvolutionConfig::builder()
        .basis_size(16)
        .lambda(1e-5)
        .build()
        .unwrap();
    let recovered = Deconvolver::new(k, config)
        .unwrap()
        .fit(&g, None)
        .unwrap()
        .profile(300)
        .unwrap();
    let naive = PhaseProfile::from_samples(g).unwrap();
    let err_deconv = truth.nrmse(&recovered).unwrap();
    let err_naive = truth.nrmse(&naive).unwrap();
    assert!(
        err_deconv < 0.5 * err_naive,
        "deconvolution {err_deconv} should beat naive readout {err_naive}"
    );
}

#[test]
fn ftsz_features_recovered_with_full_constraints() {
    let params = CellCycleParams::caulobacter().unwrap();
    let truth =
        project_onto_constraints(&ftsz_profile(300, 0.15, 0.40).unwrap(), 20, &params).unwrap();
    let k = kernel(12, 160.0, 17, 4000);
    let mut rng = StdRng::seed_from_u64(55);
    let experiment = SyntheticExperiment::generate(
        k.clone(),
        &truth,
        NoiseModel::RelativeGaussian { fraction: 0.08 },
        &mut rng,
    )
    .unwrap();
    let config = DeconvolutionConfig::builder()
        .basis_size(20)
        .positivity(true)
        .conservation(true)
        .rate_continuity(true)
        .lambda(1e-4)
        .build()
        .unwrap();
    let result = Deconvolver::new(k, config)
        .unwrap()
        .fit(experiment.noisy(), Some(experiment.sigmas()))
        .unwrap();
    let recovered = result.profile(300).unwrap();

    let t_feat = truth.features().unwrap();
    let d_feat = recovered.features().unwrap();
    // Transcription delay resolved.
    assert!(
        (d_feat.onset_phase - t_feat.onset_phase).abs() < 0.1,
        "onset {} vs {}",
        d_feat.onset_phase,
        t_feat.onset_phase
    );
    // Peak location near the truth.
    assert!(
        (d_feat.peak_phase - t_feat.peak_phase).abs() < 0.1,
        "peak {} vs {}",
        d_feat.peak_phase,
        t_feat.peak_phase
    );
    // The population series hides the delay: its onset (read as phase)
    // differs from the truth's.
    let naive = PhaseProfile::from_samples(experiment.noisy().to_vec()).unwrap();
    let n_feat = naive.features().unwrap();
    assert!(n_feat.onset_phase < t_feat.onset_phase - 0.02);
}

#[test]
fn kernel_seeds_agree_statistically() {
    // Two independent Monte-Carlo kernels give consistent deconvolutions:
    // generate data with kernel A, deconvolve with kernel B.
    let truth = PhaseProfile::from_fn(200, |phi| 1.0 + phi * (1.0 - phi) * 4.0).unwrap();
    let ka = kernel(20, 120.0, 12, 6000);
    let kb = kernel(21, 120.0, 12, 6000);
    let g = ForwardModel::new(ka).predict(&truth).unwrap();
    let config = DeconvolutionConfig::builder()
        .basis_size(12)
        .lambda(1e-4)
        .build()
        .unwrap();
    let recovered = Deconvolver::new(kb, config)
        .unwrap()
        .fit(&g, None)
        .unwrap()
        .profile(200)
        .unwrap();
    assert!(
        truth.nrmse(&recovered).unwrap() < 0.12,
        "cross-kernel nrmse {}",
        truth.nrmse(&recovered).unwrap()
    );
}

#[test]
fn reproducibility_from_seeds() {
    // The same seeds produce bit-identical results end to end.
    let run = || {
        let truth = PhaseProfile::from_fn(100, |phi| 1.0 + phi).unwrap();
        let k = kernel(30, 100.0, 10, 2000);
        let mut rng = StdRng::seed_from_u64(77);
        let e = SyntheticExperiment::generate(
            k.clone(),
            &truth,
            NoiseModel::RelativeGaussian { fraction: 0.1 },
            &mut rng,
        )
        .unwrap();
        let config = DeconvolutionConfig::builder()
            .basis_size(10)
            .lambda(1e-4)
            .build()
            .unwrap();
        Deconvolver::new(k, config)
            .unwrap()
            .fit(e.noisy(), Some(e.sigmas()))
            .unwrap()
            .alpha()
            .to_vec()
    };
    assert_eq!(run(), run());
}

#[test]
fn fitted_profiles_have_natural_end_conditions_at_every_basis_size() {
    // The paper's profile is a natural cubic spline (eq. 4): zero
    // curvature at both ends, at every basis size (127/128 straddle the
    // size where the engine once switched solve paths).
    let k = kernel(5, 150.0, 12, 2000);
    let forward = ForwardModel::new(k.clone());
    let truths = [
        PhaseProfile::from_fn(200, |phi| 2.0 + (2.0 * std::f64::consts::PI * phi).sin()).unwrap(),
        PhaseProfile::from_fn(200, |phi| 0.5 + 3.0 * phi * phi).unwrap(),
        PhaseProfile::from_fn(200, |phi| (-((phi - 0.4) / 0.1).powi(2)).exp() + 0.2).unwrap(),
    ];
    for basis_size in [18, 127, 128, 256] {
        let config = DeconvolutionConfig::builder()
            .basis_size(basis_size)
            .build()
            .unwrap();
        let engine = Deconvolver::new(k.clone(), config).unwrap();
        let basis = engine.basis();
        for (t, truth) in truths.iter().enumerate() {
            let g = forward.predict(truth).unwrap();
            let alpha = engine.fit(&g, None).unwrap().alpha().to_vec();
            for end in [0.0, 1.0] {
                let terms: Vec<f64> = (0..basis.len())
                    .map(|i| alpha[i] * basis.deriv2(i, end))
                    .collect();
                let curvature: f64 = terms.iter().sum();
                let scale: f64 = terms.iter().map(|v| v.abs()).sum();
                assert!(
                    curvature.abs() <= 1e-12 * scale,
                    "basis {basis_size}, profile {t}: f''({end}) = {curvature:e} (terms {scale:e})"
                );
            }
        }
    }
}
