//! Scenario specifications for the accuracy harness.
//!
//! The paper validates the deconvolution on essentially one synthetic
//! setup: an ftsZ-like/Lotka–Volterra truth, Gaussian noise, a uniform
//! sampling grid, and a kernel that exactly matches the population that
//! generated the data. The deconvolution-survey literature shows method
//! behaviour flips under noise model, missingness, and reference mismatch,
//! so this module defines a four-axis scenario space —
//!
//! * **noise** ([`NoiseSpec`]): clean, additive Gaussian, heteroscedastic
//!   (signal-proportional), heavy-tailed outlier contamination;
//! * **desynchronization** ([`cellsync_popsim::DesyncLevel`]): how fast
//!   the simulated culture loses synchrony;
//! * **sampling** ([`cellsync_popsim::SamplingSchedule`]): uniform,
//!   sparse, jittered, missing-timepoint dropout;
//! * **kernel treatment** ([`KernelTreatment`]): deconvolve with the
//!   generating kernel or with one estimated from a mis-parameterized
//!   population —
//!
//! and runs one cell of that space end to end ([`ScenarioSpec::run`]):
//! simulate → estimate kernel → forward-convolve a known truth → corrupt →
//! deconvolve → score. The outcome ([`ScenarioOutcome`]) carries the three
//! quality metrics the CI accuracy gate tracks: NRMSE against the truth,
//! circular peak-phase error, and bootstrap-band coverage.
//!
//! The compositional axis lives alongside it: [`MixtureScenarioSpec`]
//! cells mix several catalog cell types (balanced, three-way, rare
//! 1 %/5 % fractions, and an unmodeled contaminant) into one bulk signal
//! and score the K-component fit ([`crate::mixture`]) on per-component
//! recovery NRMSE, fraction-estimation error, and rare-component
//! detection.
//!
//! Everything is deterministic in `(spec, config, base_seed)`: the
//! per-scenario RNG stream is derived by hashing the scenario *name*
//! (FNV-1a of the name XOR the base seed — never the cell's matrix
//! position), so a matrix of scenarios produces bit-identical outcomes
//! regardless of the order — or the thread count — it is run with.
//! Distinctness of the streams is a property of the names; the bench
//! crate's matrix tests assert all cell names (single-population and
//! mixture) hash to distinct streams.

use cellsync_ode::models::LotkaVolterra;
use cellsync_popsim::{
    CellCycleParams, DesyncLevel, InitialCondition, KernelEstimator, MixtureComponentSpec,
    MixtureSpec, PhaseKernel, Population, SamplingSchedule,
};
use cellsync_stats::noise::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::mixture::{MixtureComponent, MixtureDeconvolver, MixtureFitRequest};
use crate::synthetic::{ftsz_profile, lotka_volterra_truth};
use crate::{
    DeconvolutionConfig, Deconvolver, ForwardModel, LambdaSelection, PhaseProfile, Result,
};

/// The measurement-noise axis of the scenario space, mapped onto
/// [`cellsync_stats::noise::NoiseModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum NoiseSpec {
    /// No measurement noise — the paper's Fig. 2 anchor setting.
    Clean,
    /// Additive Gaussian noise with fixed σ (in data units).
    Additive {
        /// Standard deviation in data units.
        sigma: f64,
    },
    /// Signal-proportional (heteroscedastic) Gaussian noise — the paper's
    /// Fig. 3 "10 % of the data magnitude" model at `fraction = 0.10`.
    Heteroscedastic {
        /// Per-point σ as a fraction of the point's magnitude.
        fraction: f64,
    },
    /// Heavy-tailed contamination: heteroscedastic noise whose σ is
    /// inflated `outlier_scale`-fold with probability `outlier_prob`,
    /// while the fit still receives the nominal (uninflated) weights.
    Outliers {
        /// Nominal per-point σ fraction.
        fraction: f64,
        /// Per-point contamination probability.
        outlier_prob: f64,
        /// σ multiplier for contaminated points.
        outlier_scale: f64,
    },
}

impl NoiseSpec {
    /// The underlying statistical noise model.
    pub fn model(&self) -> NoiseModel {
        match *self {
            NoiseSpec::Clean => NoiseModel::None,
            NoiseSpec::Additive { sigma } => NoiseModel::AdditiveGaussian { sigma },
            NoiseSpec::Heteroscedastic { fraction } => NoiseModel::RelativeGaussian { fraction },
            NoiseSpec::Outliers {
                fraction,
                outlier_prob,
                outlier_scale,
            } => NoiseModel::Contaminated {
                fraction,
                outlier_prob,
                outlier_scale,
            },
        }
    }

    /// Stable lowercase label used in scenario names and `ACCURACY.json`.
    pub fn label(&self) -> &'static str {
        match self {
            NoiseSpec::Clean => "clean",
            NoiseSpec::Additive { .. } => "additive",
            NoiseSpec::Heteroscedastic { .. } => "heteroscedastic",
            NoiseSpec::Outliers { .. } => "outliers",
        }
    }
}

/// Which kernel the deconvolver is handed — the reference-mismatch axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum KernelTreatment {
    /// Deconvolve with the exact kernel that generated the data (the
    /// paper's setting: the population model is assumed known).
    #[default]
    Matched,
    /// Deconvolve with a kernel estimated from a *mis-parameterized*
    /// population: the 2009 legacy transition phase (`μ_sst = 0.25` vs the
    /// generating 0.15) and a 5 % longer mean cycle time. This is the
    /// reference-mismatch stress the survey literature identifies as the
    /// axis where deconvolution methods diverge most.
    Perturbed,
}

impl KernelTreatment {
    /// Stable lowercase label used in scenario names and `ACCURACY.json`.
    pub fn label(self) -> &'static str {
        match self {
            KernelTreatment::Matched => "matched",
            KernelTreatment::Perturbed => "perturbed",
        }
    }
}

/// The ground-truth profile a scenario tries to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum TruthSpec {
    /// The paper's Fig. 2 Lotka–Volterra x₁ component (150-minute period,
    /// orbit through `(2.4, 5.0)`) — the anchor for the fig2 NRMSE claim.
    #[default]
    LotkaVolterraX1,
    /// The ftsZ-like delayed-onset profile of Fig. 5 (unprojected; the
    /// scenario fits run without the division-identity constraints).
    Ftsz,
}

impl TruthSpec {
    /// Builds the truth profile on a 400-point phase grid.
    ///
    /// # Errors
    ///
    /// Propagates ODE/profile construction errors.
    pub fn profile(self) -> Result<PhaseProfile> {
        match self {
            TruthSpec::LotkaVolterraX1 => {
                let shape = LotkaVolterra::new(1.0, 0.2, 1.0, 1.0)?;
                let (x1, _, _) = lotka_volterra_truth(&shape, [2.4, 5.0], 150.0, 400)?;
                Ok(x1)
            }
            TruthSpec::Ftsz => ftsz_profile(400, 0.15, 0.40),
        }
    }

    /// Stable lowercase label used in scenario names and `ACCURACY.json`.
    pub fn label(self) -> &'static str {
        match self {
            TruthSpec::LotkaVolterraX1 => "lv",
            TruthSpec::Ftsz => "ftsz",
        }
    }
}

/// One cell of the scenario matrix: a complete specification of a
/// simulated deconvolution experiment.
///
/// # Example
///
/// ```no_run
/// use cellsync::scenario::{ScenarioRunConfig, ScenarioSpec};
///
/// # fn main() -> Result<(), cellsync::DeconvError> {
/// let spec = ScenarioSpec::paper();
/// let outcome = spec.run(&ScenarioRunConfig::quick(), 42)?;
/// // The paper scenario reproduces the Fig. 2-level reconstruction error.
/// assert!(outcome.nrmse <= 0.02, "nrmse {}", outcome.nrmse);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Ground truth to recover.
    pub truth: TruthSpec,
    /// Measurement-noise model.
    pub noise: NoiseSpec,
    /// Population-desynchronization preset.
    pub desync: DesyncLevel,
    /// Measurement schedule.
    pub sampling: SamplingSchedule,
    /// Kernel matched to, or perturbed away from, the generating model.
    pub kernel: KernelTreatment,
}

/// Workload sizes for [`ScenarioSpec::run`] — how big the simulated
/// experiment behind every scenario cell is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioRunConfig {
    /// Cells in the simulated inoculum behind the kernel estimate.
    pub cells: usize,
    /// Phase bins of the kernel histogram.
    pub kernel_bins: usize,
    /// Simulated horizon in minutes (the schedule spans `[0, horizon]`).
    pub horizon: f64,
    /// Spline-basis size of the deconvolution.
    pub basis_size: usize,
    /// Grid points of the GCV λ scan.
    pub gcv_points: usize,
    /// Bootstrap replicates behind the coverage metric.
    pub n_boot: usize,
    /// Phase-grid resolution of the bootstrap band.
    pub boot_grid: usize,
    /// Phase-grid resolution of the recovered profile (NRMSE metric).
    pub profile_grid: usize,
}

impl ScenarioRunConfig {
    /// CI-sized workload: seconds per scenario, accurate enough for the
    /// paper-anchor gate (fig2-level NRMSE on the paper scenario).
    pub fn quick() -> Self {
        ScenarioRunConfig {
            cells: 12_000,
            kernel_bins: 100,
            horizon: 180.0,
            basis_size: 24,
            gcv_points: 13,
            n_boot: 16,
            boot_grid: 50,
            profile_grid: 300,
        }
    }

    /// Paper-sized workload (20k-cell population, fig2's λ-scan density)
    /// for real accuracy-trajectory points.
    pub fn full() -> Self {
        ScenarioRunConfig {
            cells: 20_000,
            kernel_bins: 100,
            horizon: 180.0,
            basis_size: 24,
            gcv_points: 19,
            n_boot: 32,
            boot_grid: 50,
            profile_grid: 300,
        }
    }
}

/// The scored result of running one scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// The scenario's stable name (`truth-noise-desync-sampling-kernel`).
    pub name: String,
    /// Truth axis label.
    pub truth: &'static str,
    /// Noise axis label.
    pub noise: &'static str,
    /// Desynchronization axis label.
    pub desync: &'static str,
    /// Sampling axis label.
    pub sampling: &'static str,
    /// Kernel-treatment axis label.
    pub kernel: &'static str,
    /// Measurement times the schedule actually produced (post-dropout).
    pub n_times: usize,
    /// NRMSE of the recovered profile against the truth (range-normalized;
    /// the paper's fig2 anchor is 0.012/0.006).
    pub nrmse: f64,
    /// Circular distance between the true and recovered peak phases.
    pub phase_error: f64,
    /// Fraction of phases where the truth lies inside the ±2σ bootstrap
    /// band.
    pub coverage: f64,
    /// The GCV-selected smoothing parameter of the point fit.
    pub lambda: f64,
    /// The point fit's spline coefficients `α` — the raw
    /// [`crate::DeconvolutionResult::alpha`] vector, exposed so golden
    /// tests can pin the fit itself, not only the derived metrics. (Not
    /// serialized into `ACCURACY.json`.)
    pub alpha: Vec<f64>,
}

/// FNV-1a over the scenario name: a stable, dependency-free 64-bit hash
/// used to derive per-scenario RNG streams that do not depend on matrix
/// position.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ScenarioSpec {
    /// The canonical paper scenario: LV truth, no noise, paper
    /// desynchronization, uniform 19-point sampling, matched kernel —
    /// the Fig. 2 anchor cell the accuracy gate pins to NRMSE ≤ 0.02.
    pub fn paper() -> Self {
        ScenarioSpec {
            truth: TruthSpec::LotkaVolterraX1,
            noise: NoiseSpec::Clean,
            desync: DesyncLevel::Paper,
            sampling: SamplingSchedule::Uniform { n: 19 },
            kernel: KernelTreatment::Matched,
        }
    }

    /// The canonical heteroscedastic scenario: the paper cell under
    /// Fig. 3's 10 %-of-magnitude noise.
    pub fn heteroscedastic() -> Self {
        ScenarioSpec {
            noise: NoiseSpec::Heteroscedastic { fraction: 0.10 },
            ..ScenarioSpec::paper()
        }
    }

    /// The canonical sparse-sampling scenario: the paper cell measured at
    /// only 7 time points.
    pub fn sparse_sampling() -> Self {
        ScenarioSpec {
            sampling: SamplingSchedule::Sparse { n: 7 },
            ..ScenarioSpec::paper()
        }
    }

    /// The scenario's stable name: the five axis labels joined with `-`.
    /// Names are unique per *label combination* — two specs differing only
    /// in numeric parameters (e.g. two `Additive` sigmas) share a name and
    /// should not coexist in one matrix.
    pub fn name(&self) -> String {
        format!(
            "{}-{}-{}-{}-{}",
            self.truth.label(),
            self.noise.label(),
            self.desync.label(),
            self.sampling.label(),
            self.kernel.label()
        )
    }

    /// The scenario's RNG seed for a given base seed — a pure function of
    /// the scenario *name*, so outcomes are independent of matrix order.
    pub fn seed(&self, base_seed: u64) -> u64 {
        base_seed ^ fnv1a(self.name().as_bytes())
    }

    /// Runs the scenario end to end and scores the recovery.
    ///
    /// The pipeline: simulate a synchronized population under the desync
    /// preset → estimate the kernel on the schedule's times → forward-
    /// convolve the truth → apply the noise model → deconvolve (with the
    /// matched or perturbed kernel) via GCV plus a parametric bootstrap →
    /// compute NRMSE, peak-phase error, and band coverage.
    ///
    /// All inner engines run single-threaded: scenario cells are the unit
    /// of parallelism (the harness fans the matrix out over a
    /// [`cellsync_runtime::Pool`]), and outcomes must not depend on how
    /// they are scheduled.
    ///
    /// # Errors
    ///
    /// Propagates simulation, kernel-estimation, and deconvolution errors.
    pub fn run(&self, config: &ScenarioRunConfig, base_seed: u64) -> Result<ScenarioOutcome> {
        let seed = self.seed(base_seed);
        let times = self.sampling.times(config.horizon, seed.wrapping_add(1))?;
        let truth = self.truth.profile()?;

        // The generating population and kernel.
        let params = self.desync.params()?;
        let gen_kernel = estimate_kernel(config, &params, seed.wrapping_add(2), &times)?;

        // Forward-convolve the truth and corrupt the measurements.
        let forward = ForwardModel::new(gen_kernel.clone());
        let clean = forward.predict(&truth)?;
        let noise = self.noise.model();
        let mut noise_rng = StdRng::seed_from_u64(seed.wrapping_add(3));
        let noisy = noise.apply(&clean, &mut noise_rng)?;
        let sigmas = match self.noise {
            // A clean scenario still needs a noise scale for the
            // parametric-bootstrap band. NoiseModel::None reports unit
            // sigmas (unit *weights* for the fit), but resampling with
            // σ = 1 would dwarf the signal itself and make coverage
            // trivially perfect; use 1 % of the signal scale instead —
            // a measurement-repeatability floor.
            NoiseSpec::Clean => {
                let scale = clean.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
                vec![0.01 * scale.max(1e-6); clean.len()]
            }
            _ => noise.sigmas(&clean)?,
        };

        // The deconvolution kernel: matched, or re-estimated from a
        // mis-parameterized population (legacy μ_sst, 5 % longer cycle).
        let fit_kernel = match self.kernel {
            KernelTreatment::Matched => gen_kernel,
            KernelTreatment::Perturbed => {
                let perturbed = params
                    .with_mu_sst(cellsync_popsim::CellCycleParams::MU_SST_LEGACY)?
                    .with_mean_cycle(params.mean_cycle() * 1.05)?;
                estimate_kernel(config, &perturbed, seed.wrapping_add(4), &times)?
            }
        };

        let deconv_config = DeconvolutionConfig::builder()
            .basis_size(config.basis_size)
            .positivity(true)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -8.0,
                log10_max: 1.0,
                points: config.gcv_points,
            })
            .build()?;
        let engine = Deconvolver::new(fit_kernel, deconv_config)?.with_threads(1);
        // fit_bootstrap's internal point fit doubles as the scenario's
        // point estimate, so one call yields both the profile metrics and
        // the coverage band.
        let band = engine.fit_bootstrap(
            &noisy,
            &sigmas,
            config.n_boot,
            config.boot_grid,
            seed.wrapping_add(5),
        )?;

        let recovered = band.point.profile(config.profile_grid)?;
        let nrmse = truth.nrmse(&recovered)?;
        let phase_error = {
            let t = truth.features()?.peak_phase;
            let r = recovered.features()?.peak_phase;
            let d = (t - r).abs();
            d.min(1.0 - d)
        };
        let coverage = {
            let (lo, hi) = band.band(2.0);
            let n = lo.len();
            let covered = (0..n)
                .filter(|&i| {
                    let t = truth.eval(i as f64 / (n - 1) as f64);
                    t >= lo[i] && t <= hi[i]
                })
                .count();
            covered as f64 / n as f64
        };

        Ok(ScenarioOutcome {
            name: self.name(),
            truth: self.truth.label(),
            noise: self.noise.label(),
            desync: self.desync.label(),
            sampling: self.sampling.label(),
            kernel: self.kernel.label(),
            n_times: times.len(),
            nrmse,
            phase_error,
            coverage,
            lambda: band.point.lambda(),
            alpha: band.point.alpha().to_vec(),
        })
    }
}

/// The fixed cell-type catalog behind the mixture scenarios. Each entry
/// is a named cell type: its cycle-parameter distribution (the kernel
/// side) and its ground-truth synchronous profile (the signal side).
///
/// * `"lv"` — the paper's Caulobacter parameters with the LV x₁ truth:
///   the anchor type every composition contains.
/// * `"ftsz"` — the 2009 legacy transition phase (`μ_sst = 0.25`) with a
///   faster 110-minute cycle and the ftsZ-like delayed-onset truth.
/// * `"bump"` — a slow 200-minute cycle with an early transition
///   (`μ_sst = 0.10`) and a late-phase Gaussian-bump truth.
/// * `"contam"` — the unmodeled contaminant: a broad, fast-cycling type
///   (doubled CVs, 90-minute cycle) with a linear-ramp truth. Only the
///   unknown-component composition injects it, and the fit side never
///   receives its kernel.
fn mixture_catalog_params(name: &str) -> Result<CellCycleParams> {
    Ok(match name {
        "lv" => CellCycleParams::caulobacter()?,
        "ftsz" => CellCycleParams::new(CellCycleParams::MU_SST_LEGACY, 0.13, 110.0, 0.12)?,
        "bump" => CellCycleParams::new(0.10, 0.13, 200.0, 0.12)?,
        "contam" => CellCycleParams::new(0.30, 0.26, 90.0, 0.24)?,
        _ => {
            return Err(crate::DeconvError::InvalidConfig(
                "unknown mixture cell type",
            ))
        }
    })
}

/// The catalog entry's ground-truth profile, normalized to unit mean so
/// mixing fractions are *signal-mass* shares — the convention under
/// which the fit's mass-based fraction estimates
/// ([`crate::mixture::ComponentFit::fraction`]) recover the generating
/// πₖ directly.
fn mixture_catalog_truth(name: &str) -> Result<PhaseProfile> {
    let raw = match name {
        "lv" => TruthSpec::LotkaVolterraX1.profile()?,
        "ftsz" => TruthSpec::Ftsz.profile()?,
        "bump" => PhaseProfile::from_fn(400, |phi| {
            let z = (phi - 0.7) / 0.12;
            0.6 + 1.8 * (-z * z).exp()
        })?,
        "contam" => PhaseProfile::from_fn(400, |phi| 0.9 + 1.1 * phi)?,
        _ => {
            return Err(crate::DeconvError::InvalidConfig(
                "unknown mixture cell type",
            ))
        }
    };
    let mean = raw.values().iter().sum::<f64>() / raw.values().len() as f64;
    PhaseProfile::from_samples(raw.values().iter().map(|v| v / mean).collect())
}

/// The compositional axis of the mixture scenarios: which cell types are
/// mixed and at what fractions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MixtureComposition {
    /// Two types at 50/50 — the baseline compositional cell.
    Balanced2,
    /// Three types at 50/30/20.
    Three,
    /// A 5 % rare component — at the fraction the related work treats as
    /// the rare-population detection floor.
    Rare5,
    /// A 1 % rare component — below the floor; detection here is
    /// recorded, not gated.
    Rare1,
    /// A 15 % unmodeled contaminant alongside two modeled types: the fit
    /// receives no reference kernel for it and must degrade gracefully
    /// (elevated residual, not failure).
    Unknown,
}

impl MixtureComposition {
    /// Every composition, in matrix order.
    pub const ALL: [MixtureComposition; 5] = [
        MixtureComposition::Balanced2,
        MixtureComposition::Three,
        MixtureComposition::Rare5,
        MixtureComposition::Rare1,
        MixtureComposition::Unknown,
    ];

    /// Stable lowercase label used in scenario names and `ACCURACY.json`.
    pub fn label(self) -> &'static str {
        match self {
            MixtureComposition::Balanced2 => "balanced2",
            MixtureComposition::Three => "three",
            MixtureComposition::Rare5 => "rare5",
            MixtureComposition::Rare1 => "rare1",
            MixtureComposition::Unknown => "unknown",
        }
    }

    /// The composition's generating [`MixtureSpec`]: catalog types with
    /// this composition's fractions.
    ///
    /// # Errors
    ///
    /// Propagates parameter-construction errors (none in practice).
    pub fn spec(self) -> Result<MixtureSpec> {
        let comp = |name: &str, fraction: f64| -> Result<MixtureComponentSpec> {
            Ok(MixtureComponentSpec::new(
                name,
                mixture_catalog_params(name)?,
                fraction,
            )?)
        };
        let components = match self {
            MixtureComposition::Balanced2 => vec![comp("lv", 0.5)?, comp("ftsz", 0.5)?],
            MixtureComposition::Three => {
                vec![comp("lv", 0.5)?, comp("ftsz", 0.3)?, comp("bump", 0.2)?]
            }
            MixtureComposition::Rare5 => vec![comp("lv", 0.95)?, comp("ftsz", 0.05)?],
            MixtureComposition::Rare1 => vec![comp("lv", 0.99)?, comp("ftsz", 0.01)?],
            MixtureComposition::Unknown => vec![
                comp("lv", 0.45)?,
                comp("ftsz", 0.40)?,
                comp("contam", 0.15)?.contaminant(),
            ],
        };
        Ok(MixtureSpec::new(components)?)
    }

    /// The modeled fraction below which a component counts as *rare*
    /// (the related work's detection-floor convention).
    pub const RARE_THRESHOLD: f64 = 0.05;
}

/// One cell of the mixture scenario matrix: a composition and a noise
/// model.
///
/// Sampling is fixed to the paper's uniform 19-point schedule and the
/// kernel side is always matched (each modeled component is fit with
/// the kernel estimated from its own generating parameters) — the
/// compositional axes are the point; the noise/sampling/kernel stress
/// axes already have their own matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixtureScenarioSpec {
    /// Which cell types are mixed, at what fractions.
    pub composition: MixtureComposition,
    /// Measurement-noise model.
    pub noise: NoiseSpec,
}

/// One modeled component's scores within a [`MixtureOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureComponentScore {
    /// Component name (catalog type).
    pub name: String,
    /// Generating fraction, renormalized over the *modeled* components
    /// (identical to the raw fraction except in unknown-component
    /// cells, where the contaminant's share is excluded — fraction
    /// estimates can only ever split the modeled mass).
    pub fraction_true: f64,
    /// The fit's estimated fraction.
    pub fraction_est: f64,
    /// NRMSE of the recovered contribution `ĥ_k` against the true
    /// contribution `πₖ·f_k` (range-normalized, like the single-
    /// population NRMSE metric).
    pub nrmse: f64,
    /// The component's smoothing parameter.
    pub lambda: f64,
    /// The component's spline coefficients (for golden tests; not
    /// serialized into `ACCURACY.json`).
    pub alpha: Vec<f64>,
}

/// The scored result of running one mixture scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureOutcome {
    /// The cell's stable name (`mix-composition-noise`).
    pub name: String,
    /// Composition axis label.
    pub composition: &'static str,
    /// Noise axis label.
    pub noise: &'static str,
    /// Measurement count.
    pub n_times: usize,
    /// Per-component scores, in the composition's modeled order.
    pub components: Vec<MixtureComponentScore>,
    /// Worst per-component recovery NRMSE — the gated headline metric.
    pub max_component_nrmse: f64,
    /// Mean per-component recovery NRMSE.
    pub mean_component_nrmse: f64,
    /// Worst absolute fraction-estimation error.
    pub max_fraction_error: f64,
    /// Whether the rare component (modeled fraction ≤ 5 %) was detected
    /// — its estimated fraction reaching at least half its true value.
    /// `None` when the composition has no rare component.
    pub rare_detected: Option<bool>,
    /// Relative weighted residual of the combined model — elevated in
    /// unknown-component cells, where part of the signal has no kernel.
    pub residual_rel: f64,
}

impl MixtureScenarioSpec {
    /// The cell's stable name: `mix-` plus the two axis labels.
    pub fn name(&self) -> String {
        format!("mix-{}-{}", self.composition.label(), self.noise.label())
    }

    /// The cell's RNG seed for a given base seed — name-hashed exactly
    /// like [`ScenarioSpec::seed`], sharing the single-population
    /// matrix's namespace (the `mix-` prefix keeps the names disjoint).
    pub fn seed(&self, base_seed: u64) -> u64 {
        base_seed ^ fnv1a(self.name().as_bytes())
    }

    /// Runs the mixture cell end to end and scores component recovery.
    ///
    /// Pipeline: simulate one pure reference culture per component and
    /// estimate its kernel → forward-convolve each component's unit-mean
    /// truth and mix at the composition's fractions → corrupt → fit the
    /// modeled components ([`MixtureDeconvolver`]) → score per-component
    /// contribution NRMSE, fraction error, rare-component detection, and
    /// the combined residual. Single-threaded throughout, like
    /// [`ScenarioSpec::run`]: matrix cells are the unit of parallelism.
    ///
    /// # Errors
    ///
    /// Propagates simulation, kernel-estimation, and mixture-fit errors.
    pub fn run(&self, config: &ScenarioRunConfig, base_seed: u64) -> Result<MixtureOutcome> {
        let seed = self.seed(base_seed);
        // Denser sampling than the single-population protocol: K
        // components multiply the unknowns against one bulk series, and
        // the mass split between similar kernels rides on a handful of
        // low-information directions, so the mixture cells buy
        // conditioning with time points instead of cells.
        let sampling = SamplingSchedule::Uniform { n: 49 };
        let times = sampling.times(config.horizon, seed.wrapping_add(1))?;
        let spec = self.composition.spec()?;
        let kernels: Vec<(String, cellsync_popsim::PhaseKernel)> = spec
            .simulate_kernels(
                config.cells,
                config.kernel_bins,
                config.horizon,
                &times,
                seed.wrapping_add(2),
            )?
            .into_iter()
            // Volume-scale every kernel: a mixture's bulk signal weights
            // each type by that type's own volume growth, and the
            // per-row-normalized Q erases exactly the growth handle that
            // identifies the mixing-fraction split (see
            // [`cellsync_popsim::PhaseKernel::volume_scaled`]). Both the
            // synthetic bulk below and the fit-side reference kernels use
            // the scaled view, matching how a real mixed culture is
            // measured.
            .map(|(name, kernel)| Ok((name, kernel.volume_scaled()?)))
            .collect::<Result<_>>()?;

        // Mix: Σₖ πₖ · predict(Q_k, f̃_k), over every component including
        // any contaminant.
        let mut clean = vec![0.0; times.len()];
        for (c, (name, kernel)) in spec.components().iter().zip(&kernels) {
            debug_assert_eq!(c.name(), name);
            let truth = mixture_catalog_truth(name)?;
            let contribution = ForwardModel::new(kernel.clone()).predict(&truth)?;
            for (acc, v) in clean.iter_mut().zip(&contribution) {
                *acc += c.fraction() * v;
            }
        }

        let noise = self.noise.model();
        let mut noise_rng = StdRng::seed_from_u64(seed.wrapping_add(3));
        let noisy = noise.apply(&clean, &mut noise_rng)?;
        let sigmas = match self.noise {
            // Same repeatability floor as ScenarioSpec::run.
            NoiseSpec::Clean => {
                let scale = clean.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
                vec![0.01 * scale.max(1e-6); clean.len()]
            }
            _ => noise.sigmas(&clean)?,
        };

        let deconv_config = DeconvolutionConfig::builder()
            .basis_size(config.basis_size)
            .positivity(true)
            .lambda_selection(LambdaSelection::Gcv {
                log10_min: -8.0,
                log10_max: 1.0,
                points: config.gcv_points,
            })
            .build()?;
        let components: Vec<MixtureComponent> = spec
            .modeled()
            .map(|c| {
                let kernel = kernels
                    .iter()
                    .find(|(name, _)| name == c.name())
                    .expect("kernel simulated for every component")
                    .1
                    .clone();
                MixtureComponent::new(c.name(), kernel)
            })
            .collect::<Result<_>>()?;
        let engine = MixtureDeconvolver::new(components, deconv_config)?;
        let fit = engine.fit(&MixtureFitRequest::new(noisy).with_sigmas(sigmas))?;

        // Score: each modeled component against its true contribution,
        // with fractions renormalized over the modeled share.
        let modeled_total: f64 = spec.modeled().map(|c| c.fraction()).sum();
        let mut scores = Vec::new();
        let mut rare_detected = None;
        for c in spec.modeled() {
            let fit_c = fit
                .component(c.name())
                .expect("fit returns every modeled component");
            let truth = mixture_catalog_truth(c.name())?;
            let contribution = PhaseProfile::from_samples(
                truth.values().iter().map(|v| c.fraction() * v).collect(),
            )?;
            let recovered = fit_c.result().profile(config.profile_grid)?;
            let nrmse = contribution.nrmse(&recovered)?;
            let fraction_true = c.fraction() / modeled_total;
            let fraction_est = fit_c.fraction();
            if c.fraction() <= MixtureComposition::RARE_THRESHOLD {
                rare_detected = Some(fraction_est >= 0.5 * fraction_true);
            }
            scores.push(MixtureComponentScore {
                name: c.name().to_string(),
                fraction_true,
                fraction_est,
                nrmse,
                lambda: fit_c.result().lambda(),
                alpha: fit_c.result().alpha().to_vec(),
            });
        }
        let max_component_nrmse = scores.iter().fold(0.0_f64, |m, s| m.max(s.nrmse));
        let mean_component_nrmse =
            scores.iter().map(|s| s.nrmse).sum::<f64>() / scores.len() as f64;
        let max_fraction_error = scores.iter().fold(0.0_f64, |m, s| {
            m.max((s.fraction_est - s.fraction_true).abs())
        });

        Ok(MixtureOutcome {
            name: self.name(),
            composition: self.composition.label(),
            noise: self.noise.label(),
            n_times: times.len(),
            components: scores,
            max_component_nrmse,
            mean_component_nrmse,
            max_fraction_error,
            rare_detected,
            residual_rel: fit.residual_rel(),
        })
    }
}

/// Simulates a population under `params` and estimates its kernel at
/// `times` — single-threaded (see [`ScenarioSpec::run`] on parallelism).
fn estimate_kernel(
    config: &ScenarioRunConfig,
    params: &cellsync_popsim::CellCycleParams,
    seed: u64,
    times: &[f64],
) -> Result<PhaseKernel> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::synchronized(
        config.cells,
        params,
        InitialCondition::UniformSwarmer,
        &mut rng,
    )?
    .simulate_until(config.horizon)?;
    Ok(KernelEstimator::new(config.kernel_bins)?
        .with_threads(1)
        .estimate(&pop, times)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny workload for debug-mode tests: accuracy is irrelevant here,
    /// only the pipeline contracts are.
    fn tiny() -> ScenarioRunConfig {
        ScenarioRunConfig {
            cells: 400,
            kernel_bins: 40,
            horizon: 160.0,
            basis_size: 12,
            gcv_points: 5,
            n_boot: 4,
            boot_grid: 25,
            profile_grid: 120,
        }
    }

    #[test]
    fn names_are_stable_and_axis_ordered() {
        assert_eq!(
            ScenarioSpec::paper().name(),
            "lv-clean-paper-uniform-matched"
        );
        assert_eq!(
            ScenarioSpec::heteroscedastic().name(),
            "lv-heteroscedastic-paper-uniform-matched"
        );
        assert_eq!(
            ScenarioSpec::sparse_sampling().name(),
            "lv-clean-paper-sparse-matched"
        );
        let ftsz = ScenarioSpec {
            truth: TruthSpec::Ftsz,
            kernel: KernelTreatment::Perturbed,
            ..ScenarioSpec::paper()
        };
        assert_eq!(ftsz.name(), "ftsz-clean-paper-uniform-perturbed");
    }

    #[test]
    fn seeds_depend_on_name_not_position() {
        let a = ScenarioSpec::paper();
        let b = ScenarioSpec::heteroscedastic();
        assert_ne!(
            a.seed(42),
            b.seed(42),
            "distinct scenarios, distinct streams"
        );
        assert_eq!(a.seed(42), ScenarioSpec::paper().seed(42));
        assert_ne!(a.seed(42), a.seed(43), "base seed still matters");
    }

    #[test]
    fn run_produces_finite_metrics_and_reruns_identically() {
        let spec = ScenarioSpec {
            sampling: SamplingSchedule::Uniform { n: 10 },
            ..ScenarioSpec::paper()
        };
        let out = spec.run(&tiny(), 7).unwrap();
        assert_eq!(out.name, spec.name());
        assert_eq!(out.n_times, 10);
        assert!(out.nrmse.is_finite() && out.nrmse >= 0.0);
        assert!((0.0..=0.5).contains(&out.phase_error));
        assert!((0.0..=1.0).contains(&out.coverage));
        assert!(out.lambda > 0.0);
        // Bit-identical rerun.
        let again = spec.run(&tiny(), 7).unwrap();
        assert_eq!(out, again);
        // A different base seed moves the numbers.
        let moved = spec.run(&tiny(), 8).unwrap();
        assert_ne!(out.nrmse, moved.nrmse);
    }

    #[test]
    fn dropout_scenario_reports_surviving_times() {
        let spec = ScenarioSpec {
            sampling: SamplingSchedule::Dropout {
                n: 14,
                drop_prob: 0.5,
                min_keep: 6,
            },
            ..ScenarioSpec::paper()
        };
        let out = spec.run(&tiny(), 11).unwrap();
        assert!(
            out.n_times >= 6 && out.n_times <= 14,
            "n_times {}",
            out.n_times
        );
        assert_eq!(out.sampling, "dropout");
    }

    #[test]
    fn mixture_names_and_seeds_are_stable() {
        let spec = MixtureScenarioSpec {
            composition: MixtureComposition::Balanced2,
            noise: NoiseSpec::Clean,
        };
        assert_eq!(spec.name(), "mix-balanced2-clean");
        let rare = MixtureScenarioSpec {
            composition: MixtureComposition::Rare5,
            ..spec
        };
        assert_eq!(rare.name(), "mix-rare5-clean");
        assert_ne!(spec.seed(42), rare.seed(42));
        assert_eq!(spec.seed(42), spec.seed(42));
        // The mix- prefix keeps mixture cells out of the single-
        // population namespace.
        assert_ne!(spec.seed(42), ScenarioSpec::paper().seed(42));
    }

    #[test]
    fn compositions_validate_and_label() {
        for comp in MixtureComposition::ALL {
            let spec = comp.spec().unwrap();
            let sum: f64 = spec.components().iter().map(|c| c.fraction()).sum();
            assert!((sum - 1.0).abs() < 1e-12, "{}: sum {sum}", comp.label());
            assert!(spec.modeled().count() >= 1);
        }
        assert_eq!(
            MixtureComposition::Unknown
                .spec()
                .unwrap()
                .contaminants()
                .count(),
            1
        );
        assert_eq!(
            MixtureComposition::Balanced2
                .spec()
                .unwrap()
                .contaminants()
                .count(),
            0
        );
    }

    #[test]
    fn mixture_run_scores_and_reruns_identically() {
        let spec = MixtureScenarioSpec {
            composition: MixtureComposition::Balanced2,
            noise: NoiseSpec::Clean,
        };
        let out = spec.run(&tiny(), 7).unwrap();
        assert_eq!(out.name, "mix-balanced2-clean");
        assert_eq!(out.components.len(), 2);
        assert!(out.max_component_nrmse.is_finite());
        assert!(out.max_fraction_error.is_finite());
        assert!(out.rare_detected.is_none());
        let est_sum: f64 = out.components.iter().map(|c| c.fraction_est).sum();
        assert!((est_sum - 1.0).abs() < 1e-9, "fractions sum to {est_sum}");
        let again = spec.run(&tiny(), 7).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn unknown_component_cell_reports_rare_and_contaminant_correctly() {
        let spec = MixtureScenarioSpec {
            composition: MixtureComposition::Rare5,
            noise: NoiseSpec::Clean,
        };
        let out = spec.run(&tiny(), 3).unwrap();
        assert!(out.rare_detected.is_some());
        // The contaminant never appears among the scored components.
        let unknown = MixtureScenarioSpec {
            composition: MixtureComposition::Unknown,
            ..spec
        };
        let u = unknown.run(&tiny(), 3).unwrap();
        assert!(u.components.iter().all(|c| c.name != "contam"));
        assert_eq!(u.components.len(), 2);
    }

    #[test]
    fn perturbed_kernel_degrades_recovery() {
        let cfg = ScenarioRunConfig {
            cells: 1_500,
            gcv_points: 7,
            ..tiny()
        };
        let matched = ScenarioSpec {
            sampling: SamplingSchedule::Uniform { n: 12 },
            ..ScenarioSpec::paper()
        };
        let perturbed = ScenarioSpec {
            kernel: KernelTreatment::Perturbed,
            ..matched
        };
        let m = matched.run(&cfg, 5).unwrap();
        let p = perturbed.run(&cfg, 5).unwrap();
        // Reference mismatch cannot help; at this size it visibly hurts.
        assert!(
            p.nrmse > m.nrmse,
            "perturbed {} vs matched {}",
            p.nrmse,
            m.nrmse
        );
    }
}
