//! Property and edge-case suite for K-component mixture fits.
//!
//! Properties: over random mixing fractions, a clean two- or three-way
//! mixture of known components must hand the dominant component the
//! largest estimated fraction and land every estimate near its
//! generating value. The joint stacked QP's solution must be a fixed
//! point of per-component refits on the residual of the others, and
//! fits at K = 4 and K = 6 must split mass into valid fractions that
//! explain the bulk. Degenerate requests — K = 1, duplicate kernels,
//! invalid component specs, a wrong-length series — must return
//! structured errors (or exact single-fit fallbacks), never panic.

use std::sync::OnceLock;

use cellsync::mixture::{MixtureComponent, MixtureDeconvolver, MixtureFitRequest};
use cellsync::{
    DeconvolutionConfig, Deconvolver, FitRequest, ForwardModel, LambdaSelection, PhaseProfile,
};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, MixtureComponentSpec, MixtureSpec,
    PhaseKernel, PopsimError, Population,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared measurement protocol for every kernel in the suite. Dense
/// enough that a K = 3 stack (3 × basis-14 coefficients) stays
/// overdetermined — with fewer rows than unknowns the mass split rides
/// entirely on the penalty and the fraction properties test the prior,
/// not the fit — and long enough (200 min) that even the slowest
/// catalog cycle (190 min) completes: a component whose late phases
/// the protocol never observes carries unconstrained tail mass, and
/// its fraction estimate is penalty extrapolation, not recovery.
fn protocol_times() -> Vec<f64> {
    (0..37).map(|i| i as f64 * 200.0 / 36.0).collect()
}

/// Simulates one reference kernel over the shared protocol —
/// volume-scaled, like every mixture consumer: the per-row-normalized
/// kernel view erases the growth-rate handle that identifies the mass
/// split between components (see `PhaseKernel::volume_scaled`).
fn build_kernel(params: &CellCycleParams, seed: u64) -> PhaseKernel {
    let times = protocol_times();
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::synchronized(1_200, params, InitialCondition::UniformSwarmer, &mut rng)
        .expect("non-empty")
        .simulate_until(200.0)
        .expect("finite horizon");
    KernelEstimator::new(40)
        .expect("bins")
        .with_threads(1)
        .estimate(&pop, &times)
        .expect("valid protocol")
        .volume_scaled()
        .expect("positive initial volume")
}

/// Component names, in the order of [`kernels`] and [`truths`].
const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Six distinct reference kernels (different cycle-time statistics)
/// over the shared protocol, simulated once per process.
fn kernels() -> &'static [PhaseKernel; 6] {
    static KERNELS: OnceLock<[PhaseKernel; 6]> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let params = [
            CellCycleParams::caulobacter().expect("valid defaults"),
            CellCycleParams::new(0.25, 0.13, 115.0, 0.12).expect("valid variant"),
            CellCycleParams::new(0.10, 0.20, 190.0, 0.18).expect("valid variant"),
            CellCycleParams::new(0.18, 0.16, 140.0, 0.15).expect("valid variant"),
            CellCycleParams::new(0.22, 0.10, 165.0, 0.14).expect("valid variant"),
            CellCycleParams::new(0.14, 0.18, 100.0, 0.10).expect("valid variant"),
        ];
        std::array::from_fn(|i| build_kernel(&params[i], 21 + i as u64))
    })
}

/// Unit-mean component truths — distinct shapes so the mixture is well
/// identified; unit mean so generating fractions equal mass shares,
/// which is what the fit's mass-based fraction estimates recover.
fn truths() -> [PhaseProfile; 6] {
    let normalize = |p: PhaseProfile| {
        let mean = p.values().iter().sum::<f64>() / p.values().len() as f64;
        PhaseProfile::from_samples(p.values().iter().map(|v| v / mean).collect())
            .expect("valid profile")
    };
    [
        normalize(
            PhaseProfile::from_fn(200, |phi| {
                1.0 + 0.8 * (2.0 * std::f64::consts::PI * phi).sin()
            })
            .expect("valid profile"),
        ),
        normalize(
            PhaseProfile::from_fn(200, |phi| 0.4 + 2.0 * (-((phi - 0.7) / 0.12).powi(2)).exp())
                .expect("valid profile"),
        ),
        normalize(PhaseProfile::from_fn(200, |phi| 0.6 + 1.2 * phi).expect("valid profile")),
        normalize(
            PhaseProfile::from_fn(200, |phi| {
                1.0 + 0.7 * (4.0 * std::f64::consts::PI * phi).cos()
            })
            .expect("valid profile"),
        ),
        normalize(
            PhaseProfile::from_fn(200, |phi| 0.3 + 1.5 * (-((phi - 0.3) / 0.1).powi(2)).exp())
                .expect("valid profile"),
        ),
        normalize(PhaseProfile::from_fn(200, |phi| 1.8 - 1.2 * phi).expect("valid profile")),
    ]
}

/// Fixed-λ config: the property sweep is about mass attribution, not λ
/// selection, and fixed λ keeps each case to one stacked QP solve.
fn fixed_lambda_config() -> DeconvolutionConfig {
    DeconvolutionConfig::builder()
        .basis_size(14)
        .positivity(true)
        .lambda(1e-3)
        .build()
        .expect("valid config")
}

/// GCV config for the degenerate-input tests that exercise λ selection.
fn gcv_config() -> DeconvolutionConfig {
    DeconvolutionConfig::builder()
        .basis_size(14)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 5,
        })
        .build()
        .expect("valid config")
}

/// Mixes the first `k` components at `fractions` into a clean bulk
/// series.
fn mix_bulk(fractions: &[f64]) -> Vec<f64> {
    let qs = kernels();
    let fs = truths();
    let mut bulk = vec![0.0; protocol_times().len()];
    for (i, &pi) in fractions.iter().enumerate() {
        let g = ForwardModel::new(qs[i].clone())
            .predict(&fs[i])
            .expect("predicts");
        for (acc, v) in bulk.iter_mut().zip(&g) {
            *acc += pi * v;
        }
    }
    bulk
}

fn engine_for(k: usize) -> MixtureDeconvolver {
    let qs = kernels();
    let components: Vec<MixtureComponent> = (0..k)
        .map(|i| MixtureComponent::new(NAMES[i], qs[i].clone()).expect("named"))
        .collect();
    MixtureDeconvolver::new(components, fixed_lambda_config()).expect("valid engine")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random K ∈ {2, 3} mixtures with fractions summing to one: the fit
    /// attributes the most mass to the dominant component and lands
    /// every fraction near its generating value.
    #[test]
    fn random_mixtures_recover_the_dominant_component(
        k in 2usize..=3,
        raw in prop::collection::vec(0.2f64..1.0, 3),
        dominant in 0usize..3,
    ) {
        let dominant = dominant % k;
        // Normalize to Σπ = 1 and tilt toward the chosen dominant
        // component so dominance is unambiguous (≥ 1.5× any other).
        let mut fractions: Vec<f64> = raw[..k].to_vec();
        fractions[dominant] = raw[..k].iter().cloned().fold(0.0, f64::max) * 1.8;
        let total: f64 = fractions.iter().sum();
        for f in &mut fractions {
            *f /= total;
        }

        let engine = engine_for(k);
        let fit = engine
            .fit(&MixtureFitRequest::new(mix_bulk(&fractions)))
            .expect("clean mixture fits");

        let estimates: Vec<f64> = (0..k)
            .map(|i| fit.component(NAMES[i]).expect("component present").fraction())
            .collect();
        let est_sum: f64 = estimates.iter().sum();
        prop_assert!((est_sum - 1.0).abs() < 1e-9, "fractions sum to {est_sum}");
        let argmax = (0..k)
            .max_by(|&i, &j| estimates[i].total_cmp(&estimates[j]))
            .expect("non-empty");
        prop_assert_eq!(
            argmax, dominant,
            "dominant component misattributed: est {:?} vs true {:?}",
            estimates, fractions
        );
        for i in 0..k {
            prop_assert!(
                (estimates[i] - fractions[i]).abs() < 0.15,
                "component {} fraction {:.3} strayed from generating {:.3}",
                NAMES[i], estimates[i], fractions[i]
            );
        }
    }
}

#[test]
fn joint_solution_is_a_fixed_point_of_per_component_refits() {
    // At the joint optimum every block already minimizes the shared
    // objective given the others: refitting one component alone, at its
    // joint λ, on the bulk minus the other components' joint
    // predictions must reproduce its joint coefficients.
    for fractions in [
        &[0.6, 0.4][..],
        &[0.5, 0.3, 0.2][..],
        &[0.4, 0.25, 0.2, 0.15][..],
    ] {
        let k = fractions.len();
        let bulk = mix_bulk(fractions);
        let fit = engine_for(k)
            .fit(&MixtureFitRequest::new(bulk.clone()))
            .expect("clean mixture fits");
        for (i, name) in NAMES[..k].iter().enumerate() {
            let joint = fit.component(name).expect("component present").result();
            let mut residual = bulk.clone();
            for other in NAMES[..k].iter().filter(|n| *n != name) {
                let pred = fit.component(other).expect("present").result().predicted();
                for (r, p) in residual.iter_mut().zip(pred) {
                    *r -= p;
                }
            }
            let refit = Deconvolver::new(kernels()[i].clone(), fixed_lambda_config())
                .expect("valid engine")
                .fit_request(&FitRequest::new(residual).with_lambda(joint.lambda()))
                .expect("refit succeeds")
                .into_result();
            for (j, (a, b)) in refit.alpha().iter().zip(joint.alpha()).enumerate() {
                assert!(
                    (a - b).abs() <= 1e-6,
                    "K = {k}, component {name}: refit alpha[{j}] {a:.9} vs joint {b:.9}"
                );
            }
        }
    }
}

#[test]
fn four_and_six_component_joint_fits_split_mass_and_explain_the_bulk() {
    // Beyond three components the fit is still the one stacked QP. It
    // must split mass into valid fractions whose summed forward
    // predictions reproduce the observations. Attribution accuracy is
    // not asserted: at K = 6 the stack has more unknowns than
    // measurements, so the split rides partly on the penalty.
    for fractions in [
        &[0.46, 0.22, 0.2, 0.12][..],
        &[0.3, 0.2, 0.15, 0.15, 0.1, 0.1][..],
    ] {
        let k = fractions.len();
        let fit = engine_for(k)
            .fit(&MixtureFitRequest::new(mix_bulk(fractions)))
            .expect("joint fit succeeds");
        assert_eq!(fit.sweeps(), 1);
        let estimates: Vec<f64> = NAMES[..k]
            .iter()
            .map(|n| fit.component(n).expect("component present").fraction())
            .collect();
        let sum: f64 = estimates.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "K = {k}: fractions sum to {sum}");
        for (name, est) in NAMES.iter().zip(&estimates) {
            assert!(
                (0.0..=1.0).contains(est),
                "K = {k}: component {name} fraction {est} outside [0, 1]"
            );
        }
        assert!(
            fit.residual_rel() < 5e-2,
            "K = {k}: joint fit left residual {:.3e}",
            fit.residual_rel()
        );
    }
}

#[test]
fn single_component_mixture_is_bit_identical_to_plain_fit() {
    // K = 1 must not pay (or perturb) anything: the mixture fit
    // delegates to the component engine and reproduces the plain
    // single-population fit bit for bit, with fraction 1.
    let q = kernels()[0].clone();
    let bulk = mix_bulk(&[1.0]);
    let sigmas = vec![0.05; bulk.len()];

    let plain = Deconvolver::new(q.clone(), gcv_config())
        .expect("valid engine")
        .fit_request(&FitRequest::new(bulk.clone()).with_sigmas(sigmas.clone()))
        .expect("fits")
        .into_result();

    let engine = MixtureDeconvolver::new(
        vec![MixtureComponent::new("only", q).expect("named")],
        gcv_config(),
    )
    .expect("valid engine");
    let fit = engine
        .fit(&MixtureFitRequest::new(bulk).with_sigmas(sigmas))
        .expect("fits");

    assert_eq!(fit.components().len(), 1);
    assert_eq!(fit.sweeps(), 1);
    let only = fit.component("only").expect("component present");
    assert_eq!(only.fraction(), 1.0);
    assert_eq!(only.result().alpha(), plain.alpha());
    assert_eq!(only.result().lambda(), plain.lambda());
    assert_eq!(only.result().predicted(), plain.predicted());
}

#[test]
fn duplicate_kernels_are_rejected_as_unidentifiable() {
    // Two bit-identical kernels leave the mass split between them
    // unidentifiable; construction must refuse.
    let q = kernels()[0].clone();
    let err = MixtureDeconvolver::new(
        vec![
            MixtureComponent::new("a", q.clone()).expect("named"),
            MixtureComponent::new("b", q).expect("named"),
        ],
        fixed_lambda_config(),
    )
    .expect_err("duplicate kernels must be rejected");
    assert_eq!(err.code(), "invalid_config");
}

#[test]
fn empty_component_list_is_rejected() {
    let err = MixtureDeconvolver::new(Vec::new(), fixed_lambda_config())
        .expect_err("empty mixtures must be rejected");
    assert_eq!(err.code(), "invalid_config");
}

#[test]
fn zero_and_unnormalized_fractions_are_structured_popsim_errors() {
    let params = CellCycleParams::caulobacter().expect("valid defaults");
    // A zero fraction is rejected at the component-spec level.
    let err =
        MixtureComponentSpec::new("dead", params, 0.0).expect_err("zero fraction must be rejected");
    assert!(matches!(
        err,
        PopsimError::InvalidParameter {
            name: "fraction",
            ..
        }
    ));
    // Fractions that do not sum to one are rejected at the mixture-spec
    // level.
    let lone = MixtureComponentSpec::new("half", params, 0.5).expect("valid component");
    let err = MixtureSpec::new(vec![lone]).expect_err("sum must be one");
    assert!(matches!(
        err,
        PopsimError::InvalidParameter {
            name: "fraction_sum",
            ..
        }
    ));
}

#[test]
fn mismatched_series_length_is_rejected() {
    let engine = engine_for(2);
    let err = engine
        .fit(&MixtureFitRequest::new(vec![1.0; 4]))
        .expect_err("length mismatch must be rejected");
    assert_eq!(err.code(), "length_mismatch");
}

#[test]
fn kfold_mixture_scans_the_stacked_system() {
    // A k-fold engine selects λ by k-fold cross-validation on the
    // stacked system: one held-out score per grid point, a λ on the
    // grid, and a fit that does not depend on anything but its inputs.
    let points = 5;
    let selection = LambdaSelection::KFold {
        folds: 4,
        log10_min: -6.0,
        log10_max: 0.0,
        points,
        seed: 7,
    };
    let grid = selection.lambda_grid();
    let config = DeconvolutionConfig::builder()
        .basis_size(14)
        .positivity(true)
        .lambda_selection(selection)
        .build()
        .expect("valid config");
    let qs = kernels();
    let engine = MixtureDeconvolver::new(
        (0..2)
            .map(|i| MixtureComponent::new(NAMES[i], qs[i].clone()).expect("named"))
            .collect(),
        config,
    )
    .expect("valid engine");
    let request = MixtureFitRequest::new(mix_bulk(&[0.6, 0.4]));
    let first = engine.fit(&request).expect("k-fold mixture fits");
    let second = engine.fit(&request).expect("k-fold mixture fits");
    for name in &NAMES[..2] {
        let fit = first.component(name).expect("component present").result();
        assert_eq!(
            fit.selection_scores().len(),
            points,
            "{name}: one score per λ"
        );
        assert!(
            grid.contains(&fit.lambda()),
            "{name}: λ {} off the grid",
            fit.lambda()
        );
        let again = second.component(name).expect("component present").result();
        assert_eq!(fit.lambda().to_bits(), again.lambda().to_bits());
        assert_eq!(fit.alpha(), again.alpha(), "{name}: refit drifted");
        assert_eq!(fit.selection_scores(), again.selection_scores());
    }
}
