//! Thread-count determinism suite: every parallel entry point must
//! produce **bit-identical** output for `threads ∈ {1, 2, 4}`.
//!
//! This is the contract that makes the worker pool safe to default on:
//! parallelism trades wall time only, never results. The pool guarantees
//! it structurally (workers steal indices, outputs land in index-ordered
//! slots, and all randomness is drawn from per-index RNG streams), and
//! this suite pins the guarantee at the API surface.

use cellsync::mixture::{MixtureComponent, MixtureDeconvolver, MixtureFitRequest};
use cellsync::scenario::ScenarioRunConfig;
use cellsync::{DeconvolutionConfig, Deconvolver, ForwardModel, LambdaSelection, PhaseProfile};
use cellsync_bench::experiments::synthetic_genome;
use cellsync_bench::scenarios::{
    mixture_quick_matrix, quick_matrix, run_matrix, run_mixture_matrix,
};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn population(cells: usize, seed: u64) -> Population {
    let params = CellCycleParams::caulobacter().expect("valid defaults");
    let mut rng = StdRng::seed_from_u64(seed);
    Population::synchronized(cells, &params, InitialCondition::UniformSwarmer, &mut rng)
        .expect("non-empty")
        .simulate_until(150.0)
        .expect("finite horizon")
}

fn test_kernel(seed: u64) -> PhaseKernel {
    let pop = population(2_000, seed);
    let times: Vec<f64> = (0..14).map(|i| i as f64 * 150.0 / 13.0).collect();
    KernelEstimator::new(64)
        .expect("bins")
        .estimate(&pop, &times)
        .expect("valid protocol")
}

/// Fits `input` at every thread count and requires α, λ and the
/// predictions to match the single-threaded run bit for bit.
fn assert_fit_many_bit_identical(engine: &Deconvolver, input: &[(&[f64], Option<&[f64]>)]) {
    let reference = engine
        .clone()
        .with_threads(1)
        .fit_many(input)
        .expect("fits");
    for threads in THREAD_COUNTS {
        let results = engine
            .clone()
            .with_threads(threads)
            .fit_many(input)
            .expect("fits");
        assert_eq!(results.len(), reference.len());
        for (i, (got, want)) in results.iter().zip(&reference).enumerate() {
            assert_eq!(got.alpha(), want.alpha(), "gene {i}, threads {threads}");
            assert_eq!(got.lambda(), want.lambda(), "gene {i}, threads {threads}");
            assert_eq!(
                got.predicted(),
                want.predicted(),
                "gene {i}, threads {threads}"
            );
        }
    }
}

#[test]
fn kernel_estimation_bit_identical_across_thread_counts() {
    let pop = population(2_000, 3);
    let times: Vec<f64> = (0..12).map(|i| i as f64 * 12.5).collect();
    let reference = KernelEstimator::new(48)
        .expect("bins")
        .with_threads(1)
        .estimate(&pop, &times)
        .expect("valid protocol");
    for threads in THREAD_COUNTS {
        let estimate = KernelEstimator::new(48)
            .expect("bins")
            .with_threads(threads)
            .estimate(&pop, &times)
            .expect("valid protocol");
        // PhaseKernel's PartialEq compares every matrix entry exactly.
        assert_eq!(estimate, reference, "threads = {threads}");
    }
}

#[test]
fn fit_many_bit_identical_across_thread_counts() {
    let kernel = test_kernel(5);
    let forward = ForwardModel::new(kernel.clone());
    // A small gene panel through the shared protocol, fit with GCV so the
    // full λ-selection path (scan + golden refinement) is exercised.
    let truths: Vec<PhaseProfile> = (0..6)
        .map(|g| {
            let peak = 0.2 + 0.1 * g as f64;
            PhaseProfile::from_fn(200, move |phi| {
                let d = (phi - peak).abs().min(1.0 - (phi - peak).abs());
                3.0 * (-(d * d) / 0.03).exp() + 0.5
            })
            .expect("valid profile")
        })
        .collect();
    let series: Vec<Vec<f64>> = truths
        .iter()
        .map(|t| forward.predict(t).expect("predicts"))
        .collect();
    let input: Vec<(&[f64], Option<&[f64]>)> =
        series.iter().map(|g| (g.as_slice(), None)).collect();
    let config = DeconvolutionConfig::builder()
        .basis_size(14)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 9,
        })
        .build()
        .expect("valid config");
    let engine = Deconvolver::new(kernel, config).expect("valid engine");

    assert_fit_many_bit_identical(&engine, &input);
}

#[test]
fn weighted_genome_fit_many_bit_identical_across_thread_counts() {
    // The genome workload's shape: σ-weighted genes at basis 18 with an
    // 11-point GCV scan. A σ-weighted gene cannot reuse the engine's
    // cached unit-weight decomposition, so every fit rebuilds its own
    // weighted spectral path in the worker's scratch.
    let kernel = test_kernel(5);
    let batch = synthetic_genome(&kernel, 24, 0.08, 4242).expect("valid batch");
    let config = DeconvolutionConfig::builder()
        .basis_size(18)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 11,
        })
        .build()
        .expect("valid config");
    let engine = Deconvolver::new(kernel, config).expect("valid engine");
    assert_fit_many_bit_identical(&engine, &batch.fit_input());
}

#[test]
fn banded_fit_many_bit_identical_across_thread_counts() {
    // Basis 128 (measurement-space GCV scan): unit and σ-weighted genes,
    // one of them diving to zero so its equality-only minimizer goes
    // negative and the fit falls back to the dense active-set QP.
    let kernel = test_kernel(5);
    let forward = ForwardModel::new(kernel.clone());
    let mut truths: Vec<PhaseProfile> = (0..5)
        .map(|g| {
            let peak = 0.2 + 0.15 * g as f64;
            PhaseProfile::from_fn(200, move |phi| {
                let d = (phi - peak).abs().min(1.0 - (phi - peak).abs());
                3.0 * (-(d * d) / 0.03).exp() + 0.5
            })
            .expect("valid profile")
        })
        .collect();
    truths.push(
        PhaseProfile::from_fn(200, |phi| {
            let d = (phi - 0.5).abs();
            if d < 0.18 {
                0.0
            } else {
                3.0 * (d - 0.18) / 0.32
            }
        })
        .expect("valid profile"),
    );
    let series: Vec<Vec<f64>> = truths
        .iter()
        .map(|t| forward.predict(t).expect("predicts"))
        .collect();
    let sigmas: Vec<Vec<f64>> = series
        .iter()
        .map(|g| g.iter().map(|v| 0.05 * v.abs() + 0.01).collect())
        .collect();
    let input: Vec<(&[f64], Option<&[f64]>)> = series
        .iter()
        .zip(&sigmas)
        .enumerate()
        .map(|(i, (g, s))| (g.as_slice(), (i % 2 == 1).then_some(s.as_slice())))
        .collect();
    let config = DeconvolutionConfig::builder()
        .basis_size(128)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 9,
        })
        .build()
        .expect("valid config");
    let engine = Deconvolver::new(kernel, config).expect("valid engine");

    let reference = engine
        .clone()
        .with_threads(1)
        .fit_many(&input)
        .expect("fits");
    // The diving gene's fit sits on the positivity boundary: only the
    // fallback QP puts it there.
    let dive = reference.last().expect("six genes");
    let grid_min = (0..101)
        .map(|i| dive.eval(i as f64 / 100.0).expect("in domain"))
        .fold(f64::INFINITY, f64::min);
    assert!(
        grid_min.abs() <= 1e-9,
        "no positivity fallback: grid minimum {grid_min:e}"
    );
    assert_fit_many_bit_identical(&engine, &input);
}

#[test]
fn scenario_matrix_bit_identical_across_thread_counts_and_order() {
    // The full quick matrix (the one `accuracy --quick` gates) at a
    // debug-friendly workload size: every outcome — metrics AND the raw
    // alpha vectors — must be bit-identical at any pool width and under
    // any permutation of the cell order. Per-cell RNG streams derive from
    // the scenario *name* (not its index), which is what makes the
    // permutation half hold.
    let config = ScenarioRunConfig {
        cells: 400,
        kernel_bins: 32,
        horizon: 160.0,
        basis_size: 12,
        gcv_points: 5,
        n_boot: 3,
        boot_grid: 20,
        profile_grid: 100,
    };
    let specs = quick_matrix();
    // The threads = 1 run doubles as the reference for the wider widths,
    // covering the full {1, 2, 4} sweep without re-running width 1.
    let reference = run_matrix(&specs, &config, 1).expect("matrix runs");
    assert_eq!(reference.len(), specs.len());
    for threads in [2, 4] {
        let outcomes = run_matrix(&specs, &config, threads).expect("matrix runs");
        // ScenarioOutcome's PartialEq compares every float exactly,
        // including the alpha vectors.
        assert_eq!(outcomes, reference, "threads = {threads}");
    }
    // Order permutation: reversed spec list, re-aligned by position.
    let reversed: Vec<_> = specs.iter().rev().copied().collect();
    let rev_outcomes = run_matrix(&reversed, &config, 2).expect("matrix runs");
    for (i, outcome) in rev_outcomes.iter().enumerate() {
        assert_eq!(
            *outcome,
            reference[specs.len() - 1 - i],
            "permuted cell {i} diverged"
        );
    }
}

#[test]
fn mixture_fit_bit_identical_under_component_permutation() {
    // The stacked QP's block order is canonical (sorted by component
    // name), so the *order of the component list* must not change a
    // single bit of any per-component result. Distinct kernels over a
    // shared protocol, fit at K = 2 as [a, b] and [b, a], and at K = 4
    // as [a, b, c, d] and [c, a, d, b].
    let times: Vec<f64> = (0..12).map(|i| i as f64 * 150.0 / 11.0).collect();
    let kernel = |params: &CellCycleParams, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop =
            Population::synchronized(1_000, params, InitialCondition::UniformSwarmer, &mut rng)
                .expect("non-empty")
                .simulate_until(150.0)
                .expect("finite horizon");
        KernelEstimator::new(32)
            .expect("bins")
            .with_threads(1)
            .estimate(&pop, &times)
            .expect("valid protocol")
    };
    let params = [
        CellCycleParams::caulobacter().expect("valid defaults"),
        CellCycleParams::new(0.25, 0.13, 110.0, 0.12).expect("valid variant"),
        CellCycleParams::new(0.10, 0.20, 140.0, 0.18).expect("valid variant"),
        CellCycleParams::new(0.18, 0.16, 125.0, 0.15).expect("valid variant"),
    ];
    let kernels: Vec<PhaseKernel> = params
        .iter()
        .zip(11..)
        .map(|(p, seed)| kernel(p, seed))
        .collect();

    // Bulk series with signal for every component.
    let truths = [
        PhaseProfile::from_fn(200, |phi| 1.0 + (2.0 * std::f64::consts::PI * phi).sin()),
        PhaseProfile::from_fn(200, |phi| 0.5 + 2.0 * (-((phi - 0.7) / 0.15).powi(2)).exp()),
        PhaseProfile::from_fn(200, |phi| 0.6 + 1.2 * phi),
        PhaseProfile::from_fn(200, |phi| {
            1.0 + 0.7 * (4.0 * std::f64::consts::PI * phi).cos()
        }),
    ];
    let bulk = |fractions: &[f64]| -> Vec<f64> {
        let mut bulk = vec![0.0; times.len()];
        for ((q, truth), pi) in kernels.iter().zip(&truths).zip(fractions) {
            let truth = truth.as_ref().expect("valid profile");
            let g = ForwardModel::new(q.clone())
                .predict(truth)
                .expect("predicts");
            for (acc, v) in bulk.iter_mut().zip(&g) {
                *acc += pi * v;
            }
        }
        bulk
    };

    let config = DeconvolutionConfig::builder()
        .basis_size(12)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 7,
        })
        .build()
        .expect("valid config");
    let names = ["a", "b", "c", "d"];
    let engine = |order: &[usize]| {
        let components = order
            .iter()
            .map(|&i| MixtureComponent::new(names[i], kernels[i].clone()).expect("named"))
            .collect();
        MixtureDeconvolver::new(components, config.clone()).expect("valid engine")
    };

    for (fractions, fwd_order, rev_order) in [
        (&[0.6, 0.4][..], &[0, 1][..], &[1, 0][..]),
        (
            &[0.4, 0.25, 0.2, 0.15][..],
            &[0, 1, 2, 3][..],
            &[2, 0, 3, 1][..],
        ),
    ] {
        let request = MixtureFitRequest::new(bulk(fractions));
        let fwd = engine(fwd_order).fit(&request).expect("fits");
        let rev = engine(rev_order).fit(&request).expect("fits");

        let k = fractions.len();
        assert_eq!(fwd.residual_rel(), rev.residual_rel(), "K = {k}");
        for name in &names[..k] {
            let f = fwd.component(name).expect("component present");
            let r = rev.component(name).expect("component present");
            // Bit-identical per-component results, keyed by name.
            assert_eq!(f.fraction(), r.fraction(), "K = {k}, component {name}");
            assert_eq!(
                f.result().alpha(),
                r.result().alpha(),
                "K = {k}, component {name}"
            );
            assert_eq!(
                f.result().lambda(),
                r.result().lambda(),
                "K = {k}, component {name}"
            );
            assert_eq!(
                f.result().predicted(),
                r.result().predicted(),
                "K = {k}, component {name}"
            );
        }
    }
}

#[test]
fn mixture_matrix_bit_identical_across_thread_counts_and_order() {
    // The full quick mixture matrix (the one `accuracy --matrix
    // mixtures` gates) at a debug-friendly workload size, under the same
    // contract as the single-population matrix above: bit-identical at
    // any pool width and under any permutation of the cell order.
    let config = ScenarioRunConfig {
        cells: 400,
        kernel_bins: 32,
        horizon: 160.0,
        basis_size: 12,
        gcv_points: 5,
        n_boot: 3,
        boot_grid: 20,
        profile_grid: 100,
    };
    let specs = mixture_quick_matrix();
    let reference = run_mixture_matrix(&specs, &config, 1).expect("matrix runs");
    assert_eq!(reference.len(), specs.len());
    for threads in [2, 4] {
        let outcomes = run_mixture_matrix(&specs, &config, threads).expect("matrix runs");
        // MixtureOutcome's PartialEq compares every float exactly,
        // including each component's alpha vector.
        assert_eq!(outcomes, reference, "threads = {threads}");
    }
    let reversed: Vec<_> = specs.iter().rev().copied().collect();
    let rev_outcomes = run_mixture_matrix(&reversed, &config, 2).expect("matrix runs");
    for (i, outcome) in rev_outcomes.iter().enumerate() {
        assert_eq!(
            *outcome,
            reference[specs.len() - 1 - i],
            "permuted mixture cell {i} diverged"
        );
    }
}

#[test]
fn fit_bootstrap_bit_identical_across_thread_counts() {
    let kernel = test_kernel(8);
    let truth = PhaseProfile::from_fn(200, |phi| 2.0 + (2.0 * std::f64::consts::PI * phi).sin())
        .expect("valid profile");
    let g = ForwardModel::new(kernel.clone())
        .predict(&truth)
        .expect("predicts");
    let sigmas = vec![0.1; g.len()];
    let config = DeconvolutionConfig::builder()
        .basis_size(12)
        .lambda(1e-4)
        .build()
        .expect("valid config");
    let engine = Deconvolver::new(kernel, config).expect("valid engine");

    let reference = engine
        .clone()
        .with_threads(1)
        .fit_bootstrap(&g, &sigmas, 24, 40, 91)
        .expect("bootstraps");
    assert!(reference.std.iter().sum::<f64>() > 0.0, "band has spread");
    for threads in THREAD_COUNTS {
        let band = engine
            .clone()
            .with_threads(threads)
            .fit_bootstrap(&g, &sigmas, 24, 40, 91)
            .expect("bootstraps");
        // Bit-identical: same replicate RNG streams, same index-ordered
        // accumulation, regardless of which worker ran which replicate.
        assert_eq!(band.mean, reference.mean, "threads = {threads}");
        assert_eq!(band.std, reference.std, "threads = {threads}");
        assert_eq!(band.point.alpha(), reference.point.alpha());
        assert_eq!(band.replicates, reference.replicates);
    }
}
