//! The `genome` and `genome_fine` workloads: `Deconvolver::fit_many`
//! over a synthetic genome on one engine, and the known-failure probe.

use std::time::Instant;

use cellsync::{DeconvolutionConfig, Deconvolver, LambdaSelection, PhaseProfile};
use cellsync_bench::experiments::{synthetic_genome, GenomeBatch};
use cellsync_popsim::{CellCycleParams, PhaseKernel};

use crate::probes::{self, BoxError, Series, SetupTimes};
use crate::report::{median, percentile, sorted, Report, Window};
use crate::trace::Tracer;

/// One genome workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct GenomeSpec {
    basis: usize,
    log10_min: f64,
    log10_max: f64,
    points: usize,
    /// Genes per `fit_many` call: the unit whose latency is reported.
    call: usize,
    /// Calls per round: the unit whose throughput is reported.
    calls_per_round: usize,
    /// Rounds that always run; their genes are scored for NRMSE, so the
    /// scored sample does not depend on how fast the program is.
    scored_rounds: usize,
}

/// Basis 18 natural splines, 11-point GCV over [1e-8, 10]: the paper's
/// genome-wide use on the dense spectral path.
pub const GENOME: GenomeSpec = GenomeSpec {
    basis: 18,
    log10_min: -8.0,
    log10_max: 1.0,
    points: 11,
    call: 16,
    calls_per_round: 32,
    scored_rounds: 8,
};

/// Basis 128, where `SolveStrategy::Auto` picks B-splines and the banded
/// Woodbury path; 7-point GCV over [1e-6, 1], the range the banded
/// differential tests validate.
pub const GENOME_FINE: GenomeSpec = GenomeSpec {
    basis: 128,
    log10_min: -6.0,
    log10_max: 0.0,
    points: 7,
    call: 1,
    calls_per_round: 64,
    scored_rounds: 12,
};

/// The population behind the kernel: the paper-protocol culture
/// (`cellsync_bench::KERNEL_CELLS` cells, 100 phase bins) sampled at 16
/// uniform times over one 150-minute cycle.
const CELLS: usize = cellsync_bench::KERNEL_CELLS;
const BINS: usize = cellsync_bench::KERNEL_BINS;
const TIMES: usize = 16;
/// Genes in the synthetic genome (paper scale), rounded down to whole
/// rounds.
const GENES: usize = 20_000;
/// Relative measurement noise of the synthetic genome.
const NOISE: f64 = 0.08;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 25;
/// Probe sample sizes (traced run).
const FIT_PROBE: usize = 128;
const QP_PROBE: usize = 12;
/// Genes per setup of the known-failure probe.
const KNOWN_FAILURE_GENES: usize = 24;

fn config(basis: usize, selection: LambdaSelection) -> Result<DeconvolutionConfig, BoxError> {
    Ok(DeconvolutionConfig::builder()
        .basis_size(basis)
        .positivity(true)
        .lambda_selection(selection)
        .build()?)
}

fn gcv(spec: &GenomeSpec) -> LambdaSelection {
    LambdaSelection::Gcv {
        log10_min: spec.log10_min,
        log10_max: spec.log10_max,
        points: spec.points,
    }
}

/// One set-up: culture → kernel → engine.
fn setup(
    tracer: &mut Tracer,
    spec: &GenomeSpec,
    seed: u64,
) -> Result<(PhaseKernel, Deconvolver, SetupTimes), BoxError> {
    let times: Vec<f64> = (0..TIMES)
        .map(|i| 150.0 * i as f64 / (TIMES - 1) as f64)
        .collect();
    let params = CellCycleParams::caulobacter()?;
    let (kernel, mut setup) = probes::simulate_kernel(tracer, &params, CELLS, BINS, &times, seed)?;
    let t = Instant::now();
    let engine = tracer.span("core.engine_build", |_| {
        Deconvolver::new(kernel.clone(), config(spec.basis, gcv(spec))?)
            .map(|e| e.with_threads(1))
            .map_err(BoxError::from)
    })?;
    setup.engine_build_s = t.elapsed().as_secs_f64();
    Ok((kernel, engine, setup))
}

/// The synthetic genome, generated in chunks of one round's genes, each
/// chunk a full sweep of peak phases from its own seed. Only series and
/// σ are kept: a chunk's truth profiles (300 points per gene, ten times
/// its series and σ) are regenerated when its round is scored, so the
/// benchmark's scoring data never dominates `peak_rss_mb`.
struct Genome<'k> {
    kernel: &'k PhaseKernel,
    seed: u64,
    chunks: Vec<GenomeBatch>,
}

impl<'k> Genome<'k> {
    fn new(kernel: &'k PhaseKernel, round_genes: usize, seed: u64) -> Result<Self, BoxError> {
        let mut genome = Genome {
            kernel,
            seed,
            chunks: Vec::new(),
        };
        for c in 0..GENES / round_genes {
            let mut chunk = genome.generate(c, round_genes)?;
            chunk.truths = Vec::new();
            genome.chunks.push(chunk);
        }
        Ok(genome)
    }

    fn generate(&self, chunk: usize, genes: usize) -> Result<GenomeBatch, BoxError> {
        let seed = self
            .seed
            .wrapping_add(57)
            .wrapping_add((chunk as u64) << 32);
        Ok(synthetic_genome(self.kernel, genes, NOISE, seed)?)
    }

    fn chunk_len(&self) -> usize {
        self.chunks[0].len()
    }

    /// The `k`-th gene of the workload order; σ on every other gene.
    fn series(&self, k: usize) -> Series<'_> {
        let chunk = &self.chunks[(k / self.chunk_len()) % self.chunks.len()];
        let gene = k % self.chunk_len();
        let sigmas = k.is_multiple_of(2).then(|| chunk.sigmas[gene].as_slice());
        (chunk.series[gene].as_slice(), sigmas)
    }

    /// The truth profiles of round `round`'s genes, in workload order.
    fn truths(&self, round: usize) -> Result<Vec<PhaseProfile>, BoxError> {
        Ok(self
            .generate(round % self.chunks.len(), self.chunk_len())?
            .truths)
    }
}

/// Runs `genome` or `genome_fine`.
pub fn run(
    spec: &GenomeSpec,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), BoxError> {
    let traced = tracer.enabled();
    let start = Instant::now();
    let (mut totals, mut setups) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (kernel, engine, times) = tracer.span("bench.setup", |t| setup(t, spec, seed))?;
        totals.push(t.elapsed().as_secs_f64());
        setups.push(times);
        built = Some((kernel, engine));
    }
    let (kernel, engine) = built.expect("at least one set-up");
    report.e2e.insert("setup_s", median(&totals));
    probes::report_setup_layers(report, &setups);
    let round_genes = spec.call * spec.calls_per_round;
    let genome = Genome::new(&kernel, round_genes, seed)?;
    eprintln!(
        "perfbench: set-up {:.2}s (median of {SETUP_REPS}), inputs ready at {:.2}s",
        report.e2e["setup_s"],
        start.elapsed().as_secs_f64()
    );

    let mut call_us = Vec::new();
    let mut rates = [Vec::new(), Vec::new()];
    let mut nrmse = Vec::new();
    let window = Window::open(seconds);
    let mut round = 0;
    while round < spec.scored_rounds || !window.done() {
        // Traced runs alternate untraced and traced rounds, so the
        // tracing overhead is measured on the same program and inputs.
        let traced_round = traced && round % 2 == 1;
        let round_span = tracer.enter(if traced_round {
            "bench.round"
        } else {
            "untraced.round"
        });
        tracer.set_enabled(traced_round);
        let truths = if round < spec.scored_rounds {
            genome.truths(round)?
        } else {
            Vec::new()
        };
        let mut busy = 0.0;
        for c in 0..spec.calls_per_round {
            let first = round * round_genes + c * spec.call;
            let input: Vec<Series<'_>> = (first..first + spec.call)
                .map(|k| genome.series(k))
                .collect();
            let t = Instant::now();
            let fitted = tracer.span("core.fit_many", |_| engine.fit_many(&input));
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            call_us.push(dt * 1e6);
            report.attempted += spec.call as u64;
            let results = match fitted {
                Ok(results) => results,
                Err(e) => {
                    for _ in 0..spec.call {
                        report.fail(|| format!("fit_many at gene {first}: {e}"));
                    }
                    continue;
                }
            };
            for (i, result) in results.iter().enumerate() {
                let finite =
                    result.lambda().is_finite() && result.alpha().iter().all(|a| a.is_finite());
                if !finite {
                    report.fail(|| format!("gene {}: non-finite alpha or lambda", first + i));
                } else if let Some(truth) = truths.get((first + i) % round_genes) {
                    nrmse.push(truth.nrmse(&result.profile(truth.len())?)?);
                }
            }
        }
        tracer.set_enabled(traced);
        tracer.exit(round_span);
        rates[usize::from(traced_round)].push(round_genes as f64 / busy);
        round += 1;
    }
    let nrmse = sorted(nrmse);
    eprintln!(
        "perfbench: {round} rounds of {round_genes} genes in {:.2}s",
        window.elapsed_s()
    );
    // Untraced runs have only untraced rounds; traced runs report the
    // throughput of their untraced half, so both read the same rounds.
    report.e2e.insert("series_per_s", median(&rates[0]));
    report.e2e.insert("latency_p50_us", median(&call_us));
    report.e2e.insert("nrmse_p50", percentile(&nrmse, 0.5));
    report.e2e.insert("nrmse_p90", percentile(&nrmse, 0.9));

    if spec.basis == GENOME_FINE.basis {
        let failures = known_failure_probe(tracer, &kernel, &genome)?;
        report.set_layer("probe.known_failures", failures as f64);
    }
    if traced {
        report.set_layer(
            "trace.overhead_frac",
            1.0 - median(&rates[1]) / median(&rates[0]),
        );
        probes::design_probe(tracer, &engine, report);
        let sample: Vec<Series<'_>> = (0..FIT_PROBE).map(|k| genome.series(k)).collect();
        probes::fit_probe(tracer, &engine, &sample, report)?;
        probes::qp_probe(tracer, &engine, &sample[..QP_PROBE], report)?;
        if engine.basis().is_local() {
            probes::banded_chol_probe(tracer, &engine, report);
        } else {
            let sigmas = genome.series(0).1.expect("even genes carry sigma");
            probes::gram_probe(tracer, &engine, sigmas, report);
        }
    }
    Ok(())
}

/// Fits a few genes in each set-up known to fail on the banded path
/// (`NotPositiveDefinite` for every gene at the time the benchmark was
/// written) and reports the failure count on stderr. These set-ups stay
/// out of the timed workloads: an instant error is cheaper than a fit,
/// so fixing the bug would read as a throughput regression there.
fn known_failure_probe(
    tracer: &mut Tracer,
    kernel: &PhaseKernel,
    genome: &Genome,
) -> Result<usize, BoxError> {
    let gcv = |log10_min, log10_max, points| LambdaSelection::Gcv {
        log10_min,
        log10_max,
        points,
    };
    let setups = [
        ("banded_gcv_b256_1e-6_1", 256, gcv(-6.0, 0.0, 7)),
        ("banded_gcv_b128_1e-8_10", 128, gcv(-8.0, 1.0, 11)),
        ("banded_fixed1_b256", 256, LambdaSelection::Fixed(1.0)),
    ];
    let mut total = 0;
    tracer.span("core.known_failure_probe", |_| -> Result<(), BoxError> {
        for (name, basis, selection) in setups {
            let (failed, first) = match Deconvolver::new(kernel.clone(), config(basis, selection)?) {
                Err(e) => (KNOWN_FAILURE_GENES, Some(format!("engine build: {e}"))),
                Ok(engine) => {
                    let errors: Vec<String> = (0..KNOWN_FAILURE_GENES)
                        .filter_map(|k| {
                            let (g, s) = genome.series(k);
                            engine.fit(g, s).err().map(|e| e.to_string())
                        })
                        .collect();
                    (errors.len(), errors.into_iter().next())
                }
            };
            eprintln!(
                "perfbench: known-failure probe {name}: {failed}/{KNOWN_FAILURE_GENES} genes failed{}",
                first.map(|e| format!(" ({e})")).unwrap_or_default()
            );
            total += failed;
        }
        Ok(())
    })?;
    Ok(total)
}
