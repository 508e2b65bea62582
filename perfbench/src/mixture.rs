//! The `mixture` workload: `MixtureDeconvolver::fit` with default
//! options over bulk series of K = 2, 3 and 5 cell types.

use std::time::Instant;

use cellsync::mixture::{
    MixtureComponent, MixtureDeconvolver, MixtureFitRequest, MixtureFitResponse,
};
use cellsync::{DeconvolutionConfig, ForwardModel, LambdaSelection, PhaseProfile};
use cellsync_popsim::{CellCycleParams, PhaseKernel};
use cellsync_stats::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::probes::{self, BoxError, SetupTimes};
use crate::report::{mean, median, percentile, sorted, Report, Window};
use crate::trace::Tracer;

/// `(μ_sst, cv_sst, mean cycle minutes, cv_cycle)` of a cell type.
type CycleParams = (f64, f64, f64, f64);

/// The cell types: distinct cycle parameters, and the phase at which
/// each type's true profile peaks.
const TYPES: [(&str, CycleParams, f64); 5] = [
    ("a", (0.15, 0.13, 150.0, 0.12), 0.30),
    ("b", (0.25, 0.13, 110.0, 0.12), 0.50),
    ("c", (0.10, 0.13, 200.0, 0.12), 0.70),
    ("d", (0.20, 0.10, 130.0, 0.08), 0.40),
    ("e", (0.30, 0.16, 170.0, 0.15), 0.60),
];

/// Mixture sizes in the timed window, with fits of each per round set
/// so each K takes a comparable share of a round's time at the seed
/// state (a K = 2 fit takes about 1.4 ms, K = 3 about 5.4 ms).
const TIMED: [(usize, usize); 2] = [(2, 80), (3, 20)];
/// K = 5, the cold-start alternating sweeps, runs in the traced run's
/// probe only: its cost swings several-fold with the noise draw (500 to
/// 6000 sweeps on the same kernels), which would make the timed window's
/// throughput differ from seed to seed by more than any useful bound.
const PROBE_K: usize = 5;
const PROBE_SERIES: usize = 3;
/// Rounds that always run; every series is first fitted, and scored
/// (NRMSE, sweep counts), in them, so the scored sample is the same at
/// every program speed. Later rounds refit the same series.
const SCORED_ROUNDS: usize = 4;
/// Reference cultures (as large as the genome's, so kernels differ
/// little from seed to seed), phase bins, and the 49-point protocol
/// over 180 minutes.
const CELLS: usize = 20_000;
const BINS: usize = 48;
const TIMES: usize = 49;
const HORIZON: f64 = 180.0;
const BASIS: usize = 12;
const NOISE: f64 = 0.05;
const SETUP_REPS: usize = 9;

/// One bulk series with its per-component truth.
struct Bulk {
    series: Vec<f64>,
    sigmas: Vec<f64>,
    /// True contributions `πₖ·fₖ` in component order.
    contributions: Vec<PhaseProfile>,
}

fn times() -> Vec<f64> {
    (0..TIMES)
        .map(|i| HORIZON * i as f64 / (TIMES - 1) as f64)
        .collect()
}

/// One set-up: a reference culture and volume-scaled kernel per cell
/// type, then one mixture engine per K.
fn setup(
    tracer: &mut Tracer,
    seed: u64,
) -> Result<(Vec<PhaseKernel>, Vec<MixtureDeconvolver>, SetupTimes), BoxError> {
    let times = times();
    let mut total = SetupTimes::default();
    let mut kernels = Vec::new();
    for (i, (_, (mu, cv, cycle, cv_cycle), _)) in TYPES.iter().enumerate() {
        let params = CellCycleParams::new(*mu, *cv, *cycle, *cv_cycle)?;
        let (kernel, t) = probes::simulate_kernel(
            tracer,
            &params,
            CELLS,
            BINS,
            &times,
            seed.wrapping_add(1 + i as u64),
        )?;
        total.add(t);
        kernels.push(kernel.volume_scaled()?);
    }
    let config = DeconvolutionConfig::builder()
        .basis_size(BASIS)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 7,
        })
        .build()?;
    let t = Instant::now();
    let engines = tracer.span("core.engine_build", |_| {
        [TIMED[0].0, TIMED[1].0, PROBE_K]
            .iter()
            .map(|&k| {
                let components = TYPES[..k]
                    .iter()
                    .zip(&kernels)
                    .map(|((name, _, _), kernel)| MixtureComponent::new(*name, kernel.clone()))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(MixtureDeconvolver::new(components, config.clone())?)
            })
            .collect::<Result<Vec<_>, BoxError>>()
    })?;
    total.engine_build_s = t.elapsed().as_secs_f64();
    Ok((kernels, engines, total))
}

/// The bulk series of one K: random fractions and jittered peak phases
/// per series, mixed through the volume-scaled kernels, 5 % noise.
fn bulks(
    kernels: &[PhaseKernel],
    k: usize,
    count: usize,
    seed: u64,
) -> Result<Vec<Bulk>, BoxError> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0x6d69_7800 + k as u64));
    let noise = NoiseModel::RelativeGaussian { fraction: NOISE };
    (0..count)
        .map(|_| {
            let weights: Vec<f64> = (0..k).map(|_| rng.gen_range(0.5..1.5)).collect();
            let sum: f64 = weights.iter().sum();
            let mut clean = vec![0.0; TIMES];
            let mut contributions = Vec::new();
            for (c, w) in weights.iter().enumerate() {
                let peak = TYPES[c].2 + rng.gen_range(-0.05..0.05);
                let raw = PhaseProfile::from_fn(400, |phi| {
                    let z = (phi - peak) / 0.12;
                    0.6 + 1.8 * (-z * z).exp()
                })?;
                let unit_mean = raw.values().iter().sum::<f64>() / raw.len() as f64;
                let fraction = w / sum;
                let truth = PhaseProfile::from_samples(
                    raw.values().iter().map(|v| v / unit_mean).collect(),
                )?;
                let predicted = ForwardModel::new(kernels[c].clone()).predict(&truth)?;
                for (acc, v) in clean.iter_mut().zip(&predicted) {
                    *acc += fraction * v;
                }
                contributions.push(PhaseProfile::from_samples(
                    truth.values().iter().map(|v| fraction * v).collect(),
                )?);
            }
            Ok(Bulk {
                series: noise.apply(&clean, &mut rng)?,
                sigmas: noise.sigmas(&clean)?,
                contributions,
            })
        })
        .collect()
}

fn request(bulk: &Bulk) -> MixtureFitRequest {
    MixtureFitRequest::new(bulk.series.clone()).with_sigmas(bulk.sigmas.clone())
}

/// Checks one fit's fractions (finite, summing to 1) and returns them.
fn fractions(fit: &MixtureFitResponse) -> Result<Vec<f64>, String> {
    let fractions: Vec<f64> = fit.components().iter().map(|c| c.fraction()).collect();
    let sum: f64 = fractions.iter().sum();
    if fractions.iter().all(|f| f.is_finite()) && (sum - 1.0).abs() <= 1e-9 {
        Ok(fractions)
    } else {
        Err(format!(
            "fractions {fractions:?} are not finite or do not sum to 1"
        ))
    }
}

/// Runs `mixture`.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), BoxError> {
    let traced = tracer.enabled();
    let (mut totals, mut setups) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (kernels, engines, times) = tracer.span("bench.setup", |t| setup(t, seed))?;
        totals.push(t.elapsed().as_secs_f64());
        setups.push(times);
        built = Some((kernels, engines));
    }
    let (kernels, engines) = built.expect("at least one set-up");
    report.e2e.insert("setup_s", median(&totals));
    probes::report_setup_layers(report, &setups);
    let inputs: Vec<Vec<Bulk>> = TIMED
        .iter()
        .map(|&(k, per_round)| bulks(&kernels, k, per_round * SCORED_ROUNDS, seed))
        .collect::<Result<_, _>>()?;
    let requests: Vec<Vec<MixtureFitRequest>> = inputs
        .iter()
        .map(|b| b.iter().map(request).collect())
        .collect();
    eprintln!(
        "perfbench: set-up {:.2}s (median of {SETUP_REPS})",
        report.e2e["setup_s"]
    );

    // The first fit's fractions of every series, to check that each
    // later refit of it is bit-identical.
    let mut first: Vec<Vec<Option<Vec<u64>>>> =
        inputs.iter().map(|b| vec![None; b.len()]).collect();
    let mut fit_ms: Vec<Vec<f64>> = vec![Vec::new(); TIMED.len()];
    let mut sweeps: Vec<Vec<f64>> = vec![Vec::new(); TIMED.len()];
    let mut all_us = Vec::new();
    let mut rates = [Vec::new(), Vec::new()];
    let mut nrmse = Vec::new();
    let window = Window::open(seconds);
    let mut round = 0;
    while round < SCORED_ROUNDS || !window.done() {
        let traced_round = traced && round % 2 == 1;
        let round_span = tracer.enter(if traced_round {
            "bench.round"
        } else {
            "untraced.round"
        });
        tracer.set_enabled(traced_round);
        let (mut busy, mut fitted) = (0.0, 0usize);
        for (m, &(k, per_round)) in TIMED.iter().enumerate() {
            for i in 0..per_round {
                let j = (round * per_round + i) % requests[m].len();
                let t = Instant::now();
                let outcome = tracer.span("mixture.fit", |_| engines[m].fit(&requests[m][j]));
                let dt = t.elapsed().as_secs_f64();
                busy += dt;
                fitted += 1;
                all_us.push(dt * 1e6);
                fit_ms[m].push(dt * 1e3);
                report.attempted += 1;
                let checked = outcome.map_err(|e| e.to_string()).and_then(|fit| {
                    let bits: Vec<u64> = fractions(&fit)?.iter().map(|f| f.to_bits()).collect();
                    Ok((fit, bits))
                });
                let (fit, bits) = match checked {
                    Ok(checked) => checked,
                    Err(e) => {
                        report.fail(|| format!("K={k} series {j}: {e}"));
                        continue;
                    }
                };
                match &first[m][j] {
                    Some(expected) if *expected != bits => {
                        report.fail(|| format!("K={k} series {j}: refit is not bit-identical"));
                    }
                    Some(_) => {}
                    None => {
                        sweeps[m].push(fit.sweeps() as f64);
                        for (c, truth) in fit.components().iter().zip(&inputs[m][j].contributions) {
                            nrmse.push(truth.nrmse(&c.result().profile(truth.len())?)?);
                        }
                        first[m][j] = Some(bits);
                    }
                }
            }
        }
        tracer.set_enabled(traced);
        tracer.exit(round_span);
        rates[usize::from(traced_round)].push(fitted as f64 / busy);
        round += 1;
    }
    eprintln!("perfbench: {round} rounds in {:.2}s", window.elapsed_s());
    let nrmse = sorted(nrmse);
    report.e2e.insert("series_per_s", median(&rates[0]));
    report.e2e.insert("latency_p50_us", median(&all_us));
    report.e2e.insert("nrmse_p50", percentile(&nrmse, 0.5));
    report.e2e.insert("nrmse_p90", percentile(&nrmse, 0.9));
    report.set_layer("mixture.fit_ms_p50.k2", median(&fit_ms[0]));
    report.set_layer("mixture.fit_ms_p50.k3", median(&fit_ms[1]));
    report.set_layer("mixture.sweeps.k2", mean(&sweeps[0]));
    report.set_layer("mixture.sweeps.k3", mean(&sweeps[1]));
    if traced {
        report.set_layer(
            "trace.overhead_frac",
            1.0 - median(&rates[1]) / median(&rates[0]),
        );
        let (ms, sweeps) = tracer.span("mixture.k5_probe", |_| -> Result<_, BoxError> {
            let (mut ms, mut sweeps) = (Vec::new(), Vec::new());
            for (j, bulk) in bulks(&kernels, PROBE_K, PROBE_SERIES, seed)?
                .iter()
                .enumerate()
            {
                let t = Instant::now();
                match engines[2].fit(&request(bulk)) {
                    Ok(fit) => {
                        ms.push(t.elapsed().as_secs_f64() * 1e3);
                        sweeps.push(fit.sweeps() as f64);
                    }
                    Err(e) => eprintln!("perfbench: K={PROBE_K} probe series {j}: {e}"),
                }
            }
            Ok((ms, sweeps))
        })?;
        report.set_layer("mixture.fit_ms_p50.k5", median(&ms));
        report.set_layer("mixture.sweeps.k5", mean(&sweeps));
    }
    Ok(())
}
