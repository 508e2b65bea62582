//! The scenario-matrix accuracy runner behind the `accuracy` binary.
//!
//! [`cellsync::scenario`] defines single cells; this module assembles them
//! into the combinatorial matrices the harness sweeps (`quick` for CI,
//! `full` for real trajectory points), fans the cells out over a
//! [`cellsync_runtime::Pool`], and turns the outcomes into the
//! schema-stable `ACCURACY.json` document plus the regression gate CI
//! enforces against `crates/bench/accuracy_baseline.json`.
//!
//! Determinism contract: a matrix's outcomes are bit-identical at any
//! thread count *and* under any permutation of the cell order, because
//! each cell derives its RNG stream from its own name
//! ([`ScenarioSpec::seed`], [`MixtureScenarioSpec::seed`]) and the pool
//! collects results in index order.
//!
//! Alongside the single-population matrix lives the mixture matrix
//! ([`mixture_quick_matrix`]): K-component compositions (balanced,
//! three-type, rare-fraction, unknown-component) scored on
//! component-recovery NRMSE and fraction error, serialized into the
//! same document under a `mixtures` array and gated by
//! [`gate_mixtures_against_baseline`] plus the absolute anchors of
//! [`check_mixture_anchors`].

use cellsync::scenario::{
    KernelTreatment, MixtureComposition, MixtureOutcome, MixtureScenarioSpec, NoiseSpec,
    ScenarioOutcome, ScenarioRunConfig, ScenarioSpec, TruthSpec,
};
use cellsync::DeconvError;
use cellsync_popsim::{DesyncLevel, SamplingSchedule};
use cellsync_runtime::Pool;

use cellsync_wire::Json;

/// The base seed every accuracy run uses: outcomes are comparable across
/// commits only when the underlying draws are too.
pub const BASE_SEED: u64 = 2011;

/// The NRMSE ceiling the paper-anchor scenario must stay under — "fig2
/// level" (the paper reports 0.012/0.006 for the two LV components).
pub const PAPER_SCENARIO_MAX_NRMSE: f64 = 0.02;

/// The component-recovery NRMSE ceiling for the balanced two-type
/// mixture anchor cell (`mix-balanced2-clean`): both components
/// must be recovered to within 5 % range-normalized error.
pub const MIXTURE_BALANCED_MAX_NRMSE: f64 = 0.05;

/// The fraction-estimation ceiling for the rare-component anchor cell
/// (`mix-rare5-clean`): the worst absolute mixing-fraction error
/// must stay within two percentage points.
pub const MIXTURE_RARE_MAX_FRACTION_ERROR: f64 = 0.02;

/// The noise cells the matrices sweep (labels: clean, additive,
/// heteroscedastic, outliers).
pub fn noise_axis() -> [NoiseSpec; 4] {
    [
        NoiseSpec::Clean,
        // ≈ 6 % of the LV x₁ range — comparable severity to the 10 %
        // relative model but homoscedastic.
        NoiseSpec::Additive { sigma: 0.15 },
        // Fig. 3's "10 % of the data magnitude".
        NoiseSpec::Heteroscedastic { fraction: 0.10 },
        // One in ten points drawn at 8× the nominal σ.
        NoiseSpec::Outliers {
            fraction: 0.10,
            outlier_prob: 0.10,
            outlier_scale: 8.0,
        },
    ]
}

/// The sampling cells the matrices sweep (labels: uniform, sparse,
/// jittered, dropout).
pub fn sampling_axis() -> [SamplingSchedule; 4] {
    [
        SamplingSchedule::Uniform { n: 19 },
        SamplingSchedule::Sparse { n: 7 },
        SamplingSchedule::Jittered { n: 19, jitter: 0.6 },
        SamplingSchedule::Dropout {
            n: 19,
            drop_prob: 0.25,
            min_keep: 8,
        },
    ]
}

/// The CI matrix: the paper anchor plus one-factor-at-a-time stress along
/// every axis and two combined-stress cells — 14 scenarios, each named by
/// its axis labels.
pub fn quick_matrix() -> Vec<ScenarioSpec> {
    let paper = ScenarioSpec::paper();
    let [_, additive, heteroscedastic, outliers] = noise_axis();
    let [_, sparse, jittered, dropout] = sampling_axis();
    vec![
        // The anchor cell (gated at PAPER_SCENARIO_MAX_NRMSE).
        paper,
        // Noise axis.
        ScenarioSpec {
            noise: additive,
            ..paper
        },
        ScenarioSpec {
            noise: heteroscedastic,
            ..paper
        },
        ScenarioSpec {
            noise: outliers,
            ..paper
        },
        // Desynchronization axis.
        ScenarioSpec {
            desync: DesyncLevel::Tight,
            ..paper
        },
        ScenarioSpec {
            desync: DesyncLevel::Broad,
            ..paper
        },
        // Sampling axis.
        ScenarioSpec {
            sampling: sparse,
            ..paper
        },
        ScenarioSpec {
            sampling: jittered,
            ..paper
        },
        ScenarioSpec {
            sampling: dropout,
            ..paper
        },
        // Kernel-mismatch axis.
        ScenarioSpec {
            kernel: KernelTreatment::Perturbed,
            ..paper
        },
        // Combined stress: noisy + fast-desynchronizing, noisy + missing
        // timepoints — the cells where method rankings flip in the survey
        // literature.
        ScenarioSpec {
            noise: heteroscedastic,
            desync: DesyncLevel::Broad,
            ..paper
        },
        ScenarioSpec {
            noise: heteroscedastic,
            sampling: dropout,
            ..paper
        },
        // Truth axis: the delayed-onset ftsZ shape, clean and noisy.
        ScenarioSpec {
            truth: TruthSpec::Ftsz,
            ..paper
        },
        ScenarioSpec {
            truth: TruthSpec::Ftsz,
            noise: heteroscedastic,
            ..paper
        },
    ]
}

/// The full matrix: the complete 4 × 3 × 4 × 2 cross product over the LV
/// truth (96 cells) plus the two ftsZ truth cells — 98 scenarios.
pub fn full_matrix() -> Vec<ScenarioSpec> {
    let mut specs = Vec::with_capacity(98);
    for noise in noise_axis() {
        for desync in DesyncLevel::ALL {
            for sampling in sampling_axis() {
                for kernel in [KernelTreatment::Matched, KernelTreatment::Perturbed] {
                    specs.push(ScenarioSpec {
                        truth: TruthSpec::LotkaVolterraX1,
                        noise,
                        desync,
                        sampling,
                        kernel,
                    });
                }
            }
        }
    }
    let paper = ScenarioSpec::paper();
    specs.push(ScenarioSpec {
        truth: TruthSpec::Ftsz,
        ..paper
    });
    specs.push(ScenarioSpec {
        truth: TruthSpec::Ftsz,
        noise: NoiseSpec::Heteroscedastic { fraction: 0.10 },
        ..paper
    });
    specs
}

/// Runs a scenario matrix over a worker pool, returning outcomes in spec
/// order. Bit-identical at any `threads` (each cell seeds from its own
/// name; the pool orders results by index).
///
/// # Errors
///
/// Returns [`DeconvError::Series`] naming the lowest-indexed failing cell.
pub fn run_matrix(
    specs: &[ScenarioSpec],
    config: &ScenarioRunConfig,
    threads: usize,
) -> Result<Vec<ScenarioOutcome>, DeconvError> {
    Pool::new(threads)
        .try_par_map_indexed(specs.len(), |i| specs[i].run(config, BASE_SEED))
        .map_err(|(index, source)| DeconvError::Series {
            index,
            source: Box::new(source),
        })
}

/// The CI mixture matrix: every composition once under clean noise (the
/// anchor cells), plus a noisy cell on the balanced composition — 6
/// cells named `mix-composition-noise`.
pub fn mixture_quick_matrix() -> Vec<MixtureScenarioSpec> {
    let clean = |composition| MixtureScenarioSpec {
        composition,
        noise: NoiseSpec::Clean,
    };
    vec![
        // The anchor cell (gated at MIXTURE_BALANCED_MAX_NRMSE).
        clean(MixtureComposition::Balanced2),
        // Compositional axis: three-type, rare-fraction, and
        // unknown-component cells.
        clean(MixtureComposition::Three),
        clean(MixtureComposition::Rare5),
        clean(MixtureComposition::Rare1),
        clean(MixtureComposition::Unknown),
        // Noise axis: fig3-level heteroscedastic noise on the anchor.
        MixtureScenarioSpec {
            noise: NoiseSpec::Heteroscedastic { fraction: 0.10 },
            ..clean(MixtureComposition::Balanced2)
        },
    ]
}

/// Runs a mixture matrix over a worker pool, returning outcomes in spec
/// order — the mixture counterpart of [`run_matrix`], with the same
/// determinism contract (name-hashed seeds, index-ordered collection).
///
/// # Errors
///
/// Returns [`DeconvError::Series`] naming the lowest-indexed failing
/// cell.
pub fn run_mixture_matrix(
    specs: &[MixtureScenarioSpec],
    config: &ScenarioRunConfig,
    threads: usize,
) -> Result<Vec<MixtureOutcome>, DeconvError> {
    Pool::new(threads)
        .try_par_map_indexed(specs.len(), |i| specs[i].run(config, BASE_SEED))
        .map_err(|(index, source)| DeconvError::Series {
            index,
            source: Box::new(source),
        })
}

/// Assembles the schema-stable `ACCURACY.json` document
/// ([`crate::stamp::ACCURACY_SCHEMA`]): run metadata — including the
/// git commit of the measured tree — one entry per scenario, one per
/// mixture cell (empty array when the mixture matrix did not run), and
/// the aggregate summary the trajectory plots track.
pub fn accuracy_document(
    outcomes: &[ScenarioOutcome],
    mixtures: &[MixtureOutcome],
    mode: &str,
    config: &ScenarioRunConfig,
    unix_secs: f64,
    threads: usize,
) -> Json {
    let scenarios: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("name".into(), Json::Str(o.name.clone())),
                ("truth".into(), Json::Str(o.truth.into())),
                ("noise".into(), Json::Str(o.noise.into())),
                ("desync".into(), Json::Str(o.desync.into())),
                ("sampling".into(), Json::Str(o.sampling.into())),
                ("kernel".into(), Json::Str(o.kernel.into())),
                ("n_times".into(), Json::Num(o.n_times as f64)),
                ("nrmse".into(), Json::Num(o.nrmse)),
                ("phase_error".into(), Json::Num(o.phase_error)),
                ("coverage".into(), Json::Num(o.coverage)),
                ("lambda".into(), Json::Num(o.lambda)),
            ])
        })
        .collect();
    let mixture_entries: Vec<Json> = mixtures
        .iter()
        .map(|m| {
            let components: Vec<Json> = m
                .components
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(c.name.clone())),
                        ("fraction_true".into(), Json::Num(c.fraction_true)),
                        ("fraction_est".into(), Json::Num(c.fraction_est)),
                        ("nrmse".into(), Json::Num(c.nrmse)),
                        ("lambda".into(), Json::Num(c.lambda)),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(m.name.clone())),
                ("composition".into(), Json::Str(m.composition.into())),
                ("noise".into(), Json::Str(m.noise.into())),
                ("n_times".into(), Json::Num(m.n_times as f64)),
                (
                    "max_component_nrmse".into(),
                    Json::Num(m.max_component_nrmse),
                ),
                (
                    "mean_component_nrmse".into(),
                    Json::Num(m.mean_component_nrmse),
                ),
                ("max_fraction_error".into(), Json::Num(m.max_fraction_error)),
                (
                    "rare_detected".into(),
                    m.rare_detected.map_or(Json::Null, Json::Bool),
                ),
                ("residual_rel".into(), Json::Num(m.residual_rel)),
                ("components".into(), Json::Arr(components)),
            ])
        })
        .collect();
    let mean = |f: fn(&ScenarioOutcome) -> f64| {
        outcomes.iter().map(f).sum::<f64>() / outcomes.len().max(1) as f64
    };
    let max_nrmse = outcomes.iter().map(|o| o.nrmse).fold(0.0, f64::max);
    let min_coverage = outcomes
        .iter()
        .map(|o| o.coverage)
        .fold(f64::INFINITY, f64::min);
    Json::Obj(vec![
        (
            "schema".into(),
            Json::Str(crate::stamp::ACCURACY_SCHEMA.into()),
        ),
        ("mode".into(), Json::Str(mode.into())),
        ("git_commit".into(), Json::Str(crate::stamp::git_commit())),
        ("unix_time_secs".into(), Json::Num(unix_secs)),
        ("threads_available".into(), Json::Num(threads as f64)),
        ("base_seed".into(), Json::Num(BASE_SEED as f64)),
        ("cells".into(), Json::Num(config.cells as f64)),
        ("n_boot".into(), Json::Num(config.n_boot as f64)),
        ("scenarios".into(), Json::Arr(scenarios)),
        ("mixtures".into(), Json::Arr(mixture_entries)),
        (
            "summary".into(),
            Json::Obj(vec![
                ("mean_nrmse".into(), Json::Num(mean(|o| o.nrmse))),
                ("max_nrmse".into(), Json::Num(max_nrmse)),
                (
                    "mean_phase_error".into(),
                    Json::Num(mean(|o| o.phase_error)),
                ),
                (
                    "min_coverage".into(),
                    Json::Num(if min_coverage.is_finite() {
                        min_coverage
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
    ])
}

/// Checks the paper-anchor claim on an `ACCURACY.json` document: the
/// `lv-clean-paper-uniform-matched` scenario must reproduce fig2-level
/// NRMSE ([`PAPER_SCENARIO_MAX_NRMSE`]).
///
/// # Errors
///
/// Returns a description of the violation (or of a malformed document).
pub fn check_paper_anchor(doc: &Json) -> Result<(), String> {
    let scenarios = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("document has no scenarios array")?;
    let paper_name = ScenarioSpec::paper().name();
    let anchor = scenarios
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some(paper_name.as_str()))
        .ok_or_else(|| format!("paper anchor scenario '{paper_name}' missing from the run"))?;
    let nrmse = anchor
        .get("nrmse")
        .and_then(Json::as_f64)
        .ok_or("paper anchor entry has no nrmse")?;
    // Negated form so a NaN NRMSE (every comparison false) fails the
    // anchor instead of slipping through a `>` check.
    if !(nrmse <= PAPER_SCENARIO_MAX_NRMSE) {
        return Err(format!(
            "paper anchor NRMSE {nrmse:.4} exceeds the fig2-level ceiling \
             {PAPER_SCENARIO_MAX_NRMSE}"
        ));
    }
    Ok(())
}

/// Compares per-scenario NRMSE against a baseline `ACCURACY.json` and
/// returns the names of scenarios that regressed more than `gate_pct`
/// percent (plus baseline scenarios missing from the current run —
/// silently dropping a gated cell must fail the gate too).
///
/// A small absolute slack (1 % of the paper ceiling) keeps near-zero
/// baselines from gating on floating-point dust.
///
/// # Errors
///
/// Returns a description of a malformed/mismatched baseline.
pub fn gate_against_baseline(
    current: &Json,
    baseline_text: &str,
    gate_pct: f64,
) -> Result<Vec<String>, String> {
    let baseline = parse_matched_baseline(current, baseline_text)?;
    let base_scenarios = baseline
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("baseline has no scenarios array")?;
    let cur_scenarios = current
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or("current run has no scenarios array")?;
    let abs_slack = 0.01 * PAPER_SCENARIO_MAX_NRMSE;
    let mut regressed = Vec::new();
    for cur in cur_scenarios {
        let name = cur
            .get("name")
            .and_then(Json::as_str)
            .ok_or("scenario entry without name")?;
        let cur_nrmse = cur
            .get("nrmse")
            .and_then(Json::as_f64)
            .ok_or("scenario entry without nrmse")?;
        let base = base_scenarios
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name));
        let Some(base_nrmse) = base.and_then(|s| s.get("nrmse")).and_then(Json::as_f64) else {
            println!("gate: {name}: no baseline entry, skipped");
            continue;
        };
        let limit = base_nrmse * (1.0 + gate_pct / 100.0) + abs_slack;
        let delta_pct = (cur_nrmse / base_nrmse.max(1e-12) - 1.0) * 100.0;
        // Negated form: a NaN NRMSE must gate as regressed, not pass.
        if !(cur_nrmse <= limit) {
            println!(
                "gate: {name}: REGRESSED nrmse {cur_nrmse:.4} vs baseline {base_nrmse:.4} \
                 ({delta_pct:+.1} %)"
            );
            regressed.push(name.to_string());
        } else {
            println!(
                "gate: {name}: ok nrmse {cur_nrmse:.4} vs baseline {base_nrmse:.4} \
                 ({delta_pct:+.1} %)"
            );
        }
    }
    for base in base_scenarios {
        let name = base
            .get("name")
            .and_then(Json::as_str)
            .ok_or("baseline scenario entry without name")?;
        let still_present = cur_scenarios
            .iter()
            .any(|s| s.get("name").and_then(Json::as_str) == Some(name));
        if !still_present {
            println!(
                "gate: {name}: MISSING from current run (renamed/removed scenario — refresh \
                 the baseline)"
            );
            regressed.push(format!("{name} (missing)"));
        }
    }
    Ok(regressed)
}

/// Parses a baseline document and rejects a run-mode mismatch — shared
/// by the scenario and mixture gates so both refuse a quick-vs-full
/// comparison the same way.
fn parse_matched_baseline(current: &Json, baseline_text: &str) -> Result<Json, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("unreadable baseline: {e}"))?;
    let base_mode = baseline.get("mode").and_then(Json::as_str).unwrap_or("?");
    let cur_mode = current.get("mode").and_then(Json::as_str).unwrap_or("?");
    if base_mode != cur_mode {
        return Err(format!(
            "baseline mode '{base_mode}' does not match current mode '{cur_mode}' — \
             regenerate the baseline in the same mode"
        ));
    }
    Ok(baseline)
}

/// Checks the absolute mixture anchors on an `ACCURACY.json` document:
///
/// * `mix-balanced2-clean` recovers both components within
///   [`MIXTURE_BALANCED_MAX_NRMSE`];
/// * `mix-rare5-clean` detects its rare component and keeps the
///   worst fraction error within [`MIXTURE_RARE_MAX_FRACTION_ERROR`];
/// * `mix-unknown-clean` degrades gracefully — the fit completed
///   (the cell is present with finite metrics) while its combined
///   residual is elevated above the fully-modeled balanced cell's,
///   which is how an unmodeled contaminant should read.
///
/// # Errors
///
/// Returns a description of the violation (or of a malformed document).
pub fn check_mixture_anchors(doc: &Json) -> Result<(), String> {
    let mixtures = doc
        .get("mixtures")
        .and_then(Json::as_array)
        .ok_or("document has no mixtures array")?;
    let cell = |name: &str| -> Result<&Json, String> {
        mixtures
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
            .ok_or_else(|| format!("mixture anchor cell '{name}' missing from the run"))
    };
    let num = |entry: &Json, field: &str| -> Result<f64, String> {
        entry
            .get(field)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("mixture entry has no {field}"))
    };

    let balanced = cell("mix-balanced2-clean")?;
    let balanced_nrmse = num(balanced, "max_component_nrmse")?;
    // Negated forms throughout so NaN metrics fail the anchor.
    if !(balanced_nrmse <= MIXTURE_BALANCED_MAX_NRMSE) {
        return Err(format!(
            "balanced mixture anchor component NRMSE {balanced_nrmse:.4} exceeds the ceiling \
             {MIXTURE_BALANCED_MAX_NRMSE}"
        ));
    }

    let rare = cell("mix-rare5-clean")?;
    if rare.get("rare_detected").and_then(Json::as_bool) != Some(true) {
        return Err("rare mixture anchor failed to detect its 5 % component".into());
    }
    let rare_fraction_error = num(rare, "max_fraction_error")?;
    if !(rare_fraction_error <= MIXTURE_RARE_MAX_FRACTION_ERROR) {
        return Err(format!(
            "rare mixture anchor fraction error {rare_fraction_error:.4} exceeds the ceiling \
             {MIXTURE_RARE_MAX_FRACTION_ERROR}"
        ));
    }

    let unknown = cell("mix-unknown-clean")?;
    let unknown_nrmse = num(unknown, "max_component_nrmse")?;
    if !unknown_nrmse.is_finite() {
        return Err(format!(
            "unknown-component anchor produced a non-finite component NRMSE {unknown_nrmse}"
        ));
    }
    let unknown_residual = num(unknown, "residual_rel")?;
    let balanced_residual = num(balanced, "residual_rel")?;
    if !(unknown_residual > balanced_residual) {
        return Err(format!(
            "unknown-component anchor residual {unknown_residual:.3e} is not elevated above the \
             fully-modeled balanced cell's {balanced_residual:.3e} — the contaminant should \
             leave unexplained signal"
        ));
    }
    Ok(())
}

/// Compares per-cell mixture metrics against a baseline `ACCURACY.json`
/// — the mixture counterpart of [`gate_against_baseline`]. A cell
/// regresses when its worst component NRMSE or worst fraction error
/// grows more than `gate_pct` percent past baseline (plus a small
/// absolute slack so near-zero baselines don't gate on floating-point
/// dust), or when a rare component the baseline detected goes
/// undetected. Baseline cells missing from the current run regress too.
///
/// # Errors
///
/// Returns a description of a malformed/mismatched baseline.
pub fn gate_mixtures_against_baseline(
    current: &Json,
    baseline_text: &str,
    gate_pct: f64,
) -> Result<Vec<String>, String> {
    let baseline = parse_matched_baseline(current, baseline_text)?;
    let base_cells = baseline
        .get("mixtures")
        .and_then(Json::as_array)
        .ok_or("baseline has no mixtures array (regenerate it with the mixture matrix)")?;
    let cur_cells = current
        .get("mixtures")
        .and_then(Json::as_array)
        .ok_or("current run has no mixtures array")?;
    let nrmse_slack = 0.01 * MIXTURE_BALANCED_MAX_NRMSE;
    let fraction_slack = 0.01 * MIXTURE_RARE_MAX_FRACTION_ERROR;
    let mut regressed = Vec::new();
    for cur in cur_cells {
        let name = cur
            .get("name")
            .and_then(Json::as_str)
            .ok_or("mixture entry without name")?;
        let Some(base) = base_cells
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))
        else {
            println!("gate: {name}: no baseline entry, skipped");
            continue;
        };
        let metric = |entry: &Json, field: &str| -> Result<f64, String> {
            entry
                .get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("mixture entry '{name}' without {field}"))
        };
        let mut cell_regressed = false;
        for (field, slack) in [
            ("max_component_nrmse", nrmse_slack),
            ("max_fraction_error", fraction_slack),
        ] {
            let cur_v = metric(cur, field)?;
            let base_v = metric(base, field)?;
            let limit = base_v * (1.0 + gate_pct / 100.0) + slack;
            let delta_pct = (cur_v / base_v.max(1e-12) - 1.0) * 100.0;
            // Negated form: a NaN metric must gate as regressed.
            if !(cur_v <= limit) {
                println!(
                    "gate: {name}: REGRESSED {field} {cur_v:.4} vs baseline {base_v:.4} \
                     ({delta_pct:+.1} %)"
                );
                cell_regressed = true;
            } else {
                println!(
                    "gate: {name}: ok {field} {cur_v:.4} vs baseline {base_v:.4} \
                     ({delta_pct:+.1} %)"
                );
            }
        }
        if base.get("rare_detected").and_then(Json::as_bool) == Some(true)
            && cur.get("rare_detected").and_then(Json::as_bool) != Some(true)
        {
            println!("gate: {name}: REGRESSED rare component no longer detected");
            cell_regressed = true;
        }
        if cell_regressed {
            regressed.push(name.to_string());
        }
    }
    for base in base_cells {
        let name = base
            .get("name")
            .and_then(Json::as_str)
            .ok_or("baseline mixture entry without name")?;
        let still_present = cur_cells
            .iter()
            .any(|m| m.get("name").and_then(Json::as_str) == Some(name));
        if !still_present {
            println!(
                "gate: {name}: MISSING from current run (renamed/removed mixture cell — \
                 refresh the baseline)"
            );
            regressed.push(format!("{name} (missing)"));
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_matrix_has_at_least_twelve_unique_cells() {
        let specs = quick_matrix();
        assert!(specs.len() >= 12, "only {} cells", specs.len());
        let mut names: Vec<String> = specs.iter().map(ScenarioSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
        // The anchor cell is present.
        assert!(specs.iter().any(|s| *s == ScenarioSpec::paper()));
    }

    #[test]
    fn full_matrix_is_the_complete_cross_product() {
        let specs = full_matrix();
        assert_eq!(specs.len(), 4 * 3 * 4 * 2 + 2);
        let mut names: Vec<String> = specs.iter().map(ScenarioSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate scenario names");
        // Every quick cell except numeric re-parameterizations appears in
        // the full matrix by name, so the two baselines stay comparable.
        for quick in quick_matrix() {
            assert!(
                names.binary_search(&quick.name()).is_ok(),
                "quick cell {} missing from full matrix",
                quick.name()
            );
        }
    }

    #[test]
    fn document_schema_and_gate_round_trip() {
        let outcomes = vec![
            ScenarioOutcome {
                name: "lv-clean-paper-uniform-matched".into(),
                truth: "lv",
                noise: "clean",
                desync: "paper",
                sampling: "uniform",
                kernel: "matched",
                n_times: 19,
                nrmse: 0.012,
                phase_error: 0.004,
                coverage: 0.96,
                lambda: 1e-5,
                alpha: vec![0.5, 1.0, 0.5],
            },
            ScenarioOutcome {
                name: "lv-heteroscedastic-paper-uniform-matched".into(),
                truth: "lv",
                noise: "heteroscedastic",
                desync: "paper",
                sampling: "uniform",
                kernel: "matched",
                n_times: 19,
                nrmse: 0.08,
                phase_error: 0.01,
                coverage: 0.9,
                lambda: 1e-4,
                alpha: vec![0.4, 0.9, 0.4],
            },
        ];
        let config = ScenarioRunConfig::quick();
        let doc = accuracy_document(&outcomes, &[], "quick", &config, 0.0, 1);
        let text = doc.render();
        assert!(text.starts_with("{\"schema\":\"cellsync-accuracy/4\""));
        assert!(
            doc.get("git_commit").and_then(Json::as_str).is_some(),
            "document must carry the measured commit"
        );
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert!(check_paper_anchor(&doc).is_ok());

        // Identical run gates clean.
        assert_eq!(
            gate_against_baseline(&doc, &text, 25.0).unwrap(),
            Vec::<String>::new()
        );

        // A 50 % NRMSE regression on one scenario trips the gate.
        let mut worse = outcomes.clone();
        worse[1].nrmse *= 1.5;
        let worse_doc = accuracy_document(&worse, &[], "quick", &config, 0.0, 1);
        let tripped = gate_against_baseline(&worse_doc, &text, 25.0).unwrap();
        assert_eq!(
            tripped,
            vec!["lv-heteroscedastic-paper-uniform-matched".to_string()]
        );

        // Dropping a baseline scenario also trips the gate.
        let partial_doc = accuracy_document(&outcomes[..1], &[], "quick", &config, 0.0, 1);
        let missing = gate_against_baseline(&partial_doc, &text, 25.0).unwrap();
        assert_eq!(
            missing,
            vec!["lv-heteroscedastic-paper-uniform-matched (missing)".to_string()]
        );

        // Mode mismatch is a hard error, not a pass.
        let full_doc = accuracy_document(&outcomes, &[], "full", &config, 0.0, 1);
        assert!(gate_against_baseline(&full_doc, &text, 25.0).is_err());
    }

    #[test]
    fn nan_nrmse_fails_both_gates() {
        // A broken solver producing NaN must read as a regression, not a
        // pass (NaN makes every `>` comparison false).
        let mut outcomes = vec![ScenarioOutcome {
            name: "lv-clean-paper-uniform-matched".into(),
            truth: "lv",
            noise: "clean",
            desync: "paper",
            sampling: "uniform",
            kernel: "matched",
            n_times: 19,
            nrmse: 0.012,
            phase_error: 0.0,
            coverage: 1.0,
            lambda: 1e-5,
            alpha: vec![0.5, 1.0, 0.5],
        }];
        let config = ScenarioRunConfig::quick();
        let baseline_text = accuracy_document(&outcomes, &[], "quick", &config, 0.0, 1).render();
        outcomes[0].nrmse = f64::NAN;
        let nan_doc = accuracy_document(&outcomes, &[], "quick", &config, 0.0, 1);
        assert!(
            check_paper_anchor(&nan_doc).is_err(),
            "NaN passed the anchor"
        );
        let tripped = gate_against_baseline(&nan_doc, &baseline_text, 25.0).unwrap();
        assert_eq!(tripped, vec!["lv-clean-paper-uniform-matched".to_string()]);
    }

    #[test]
    fn paper_anchor_check_rejects_violations() {
        let bad = vec![ScenarioOutcome {
            name: "lv-clean-paper-uniform-matched".into(),
            truth: "lv",
            noise: "clean",
            desync: "paper",
            sampling: "uniform",
            kernel: "matched",
            n_times: 19,
            nrmse: 0.05,
            phase_error: 0.004,
            coverage: 0.96,
            lambda: 1e-5,
            alpha: vec![0.5, 1.0, 0.5],
        }];
        let doc = accuracy_document(&bad, &[], "quick", &ScenarioRunConfig::quick(), 0.0, 1);
        assert!(check_paper_anchor(&doc).is_err());
        // Missing anchor is also a failure.
        let empty = accuracy_document(&[], &[], "quick", &ScenarioRunConfig::quick(), 0.0, 1);
        assert!(check_paper_anchor(&empty).is_err());
    }

    #[test]
    fn run_matrix_is_order_insensitive_on_a_small_slice() {
        // Debug-mode sized: two cells, tiny population. The full-matrix
        // permutation/thread sweep lives in tests/determinism.rs.
        let config = ScenarioRunConfig {
            cells: 300,
            kernel_bins: 30,
            horizon: 150.0,
            basis_size: 10,
            gcv_points: 5,
            n_boot: 3,
            boot_grid: 20,
            profile_grid: 100,
        };
        let a = ScenarioSpec::paper();
        let b = ScenarioSpec::sparse_sampling();
        let fwd = run_matrix(&[a, b], &config, 2).unwrap();
        let rev = run_matrix(&[b, a], &config, 2).unwrap();
        assert_eq!(fwd[0], rev[1]);
        assert_eq!(fwd[1], rev[0]);
    }

    #[test]
    fn mixture_quick_matrix_covers_every_composition_uniquely() {
        let specs = mixture_quick_matrix();
        assert_eq!(specs.len(), 6);
        let mut names: Vec<String> = specs.iter().map(MixtureScenarioSpec::name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), specs.len(), "duplicate mixture cell names");
        for comp in MixtureComposition::ALL {
            assert!(
                specs.iter().any(|s| s.composition == comp),
                "composition {} missing from the quick matrix",
                comp.label()
            );
        }
        // The three anchor cells are present by name.
        for anchor in [
            "mix-balanced2-clean",
            "mix-rare5-clean",
            "mix-unknown-clean",
        ] {
            assert!(names.iter().any(|n| n == anchor), "{anchor} missing");
        }
    }

    #[test]
    fn all_matrix_cell_names_hash_to_distinct_seeds() {
        // The determinism contract keys every cell's RNG stream off a
        // hash of its name; a collision would silently correlate two
        // cells' draws. Sweep every name the harness can run — quick,
        // full, and mixture — against the shared base seed.
        let mut names: Vec<String> = Vec::new();
        let mut seeds = std::collections::BTreeSet::new();
        for spec in quick_matrix().iter().chain(full_matrix().iter()) {
            names.push(spec.name());
            seeds.insert(spec.seed(BASE_SEED));
        }
        for spec in &mixture_quick_matrix() {
            names.push(spec.name());
            seeds.insert(spec.seed(BASE_SEED));
        }
        names.sort();
        names.dedup();
        assert_eq!(
            seeds.len(),
            names.len(),
            "two matrix cell names hash to the same RNG seed"
        );
    }

    /// A hand-built mixture outcome for document/gate tests (metrics
    /// chosen to satisfy every anchor unless a test perturbs them).
    fn mix_outcome(
        name: &str,
        composition: &'static str,
        rare_detected: Option<bool>,
        residual_rel: f64,
    ) -> MixtureOutcome {
        MixtureOutcome {
            name: name.into(),
            composition,
            noise: "clean",
            n_times: 19,
            components: vec![cellsync::scenario::MixtureComponentScore {
                name: "lv".into(),
                fraction_true: 0.5,
                fraction_est: 0.505,
                nrmse: 0.02,
                lambda: 1e-5,
                alpha: vec![0.5, 1.0, 0.5],
            }],
            max_component_nrmse: 0.02,
            mean_component_nrmse: 0.015,
            max_fraction_error: 0.005,
            rare_detected,
            residual_rel,
        }
    }

    #[test]
    fn mixture_document_anchors_and_gate_round_trip() {
        let mixtures = vec![
            mix_outcome("mix-balanced2-clean", "balanced2", None, 0.01),
            mix_outcome("mix-rare5-clean", "rare5", Some(true), 0.012),
            mix_outcome("mix-unknown-clean", "unknown", Some(true), 0.25),
        ];
        let config = ScenarioRunConfig::quick();
        let doc = accuracy_document(&[], &mixtures, "quick", &config, 0.0, 1);
        let text = doc.render();
        // The document round-trips, including the Bool/Null
        // rare_detected field.
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert!(check_mixture_anchors(&doc).is_ok());

        // Identical run gates clean.
        assert_eq!(
            gate_mixtures_against_baseline(&doc, &text, 25.0).unwrap(),
            Vec::<String>::new()
        );

        // A 50 % component-NRMSE regression trips the gate.
        let mut worse = mixtures.clone();
        worse[0].max_component_nrmse *= 1.5;
        let worse_doc = accuracy_document(&[], &worse, "quick", &config, 0.0, 1);
        assert_eq!(
            gate_mixtures_against_baseline(&worse_doc, &text, 25.0).unwrap(),
            vec!["mix-balanced2-clean".to_string()]
        );

        // Losing rare-component detection trips the gate even with flat
        // metrics.
        let mut undetected = mixtures.clone();
        undetected[1].rare_detected = Some(false);
        let undet_doc = accuracy_document(&[], &undetected, "quick", &config, 0.0, 1);
        assert_eq!(
            gate_mixtures_against_baseline(&undet_doc, &text, 25.0).unwrap(),
            vec!["mix-rare5-clean".to_string()]
        );

        // A NaN metric gates as regressed, never as a pass.
        let mut nan = mixtures.clone();
        nan[2].max_fraction_error = f64::NAN;
        let nan_doc = accuracy_document(&[], &nan, "quick", &config, 0.0, 1);
        assert_eq!(
            gate_mixtures_against_baseline(&nan_doc, &text, 25.0).unwrap(),
            vec!["mix-unknown-clean".to_string()]
        );

        // Dropping a baseline cell trips the gate.
        let partial_doc = accuracy_document(&[], &mixtures[..2], "quick", &config, 0.0, 1);
        assert_eq!(
            gate_mixtures_against_baseline(&partial_doc, &text, 25.0).unwrap(),
            vec!["mix-unknown-clean (missing)".to_string()]
        );

        // Mode mismatch is a hard error, not a pass.
        let full_doc = accuracy_document(&[], &mixtures, "full", &config, 0.0, 1);
        assert!(gate_mixtures_against_baseline(&full_doc, &text, 25.0).is_err());
    }

    #[test]
    fn mixture_anchor_check_rejects_violations() {
        let good = vec![
            mix_outcome("mix-balanced2-clean", "balanced2", None, 0.01),
            mix_outcome("mix-rare5-clean", "rare5", Some(true), 0.012),
            mix_outcome("mix-unknown-clean", "unknown", Some(true), 0.25),
        ];
        let config = ScenarioRunConfig::quick();

        // Balanced recovery past the ceiling fails.
        let mut bad = good.clone();
        bad[0].max_component_nrmse = 2.0 * MIXTURE_BALANCED_MAX_NRMSE;
        let doc = accuracy_document(&[], &bad, "quick", &config, 0.0, 1);
        assert!(check_mixture_anchors(&doc).is_err());

        // An undetected rare component fails.
        let mut bad = good.clone();
        bad[1].rare_detected = Some(false);
        let doc = accuracy_document(&[], &bad, "quick", &config, 0.0, 1);
        assert!(check_mixture_anchors(&doc).is_err());

        // Rare fraction error past the ceiling fails.
        let mut bad = good.clone();
        bad[1].max_fraction_error = 2.0 * MIXTURE_RARE_MAX_FRACTION_ERROR;
        let doc = accuracy_document(&[], &bad, "quick", &config, 0.0, 1);
        assert!(check_mixture_anchors(&doc).is_err());

        // An unknown-component residual *below* the fully-modeled cell's
        // means the contaminant check lost its teeth — that fails too.
        let mut bad = good.clone();
        bad[2].residual_rel = 0.001;
        let doc = accuracy_document(&[], &bad, "quick", &config, 0.0, 1);
        assert!(check_mixture_anchors(&doc).is_err());

        // NaN metrics fail rather than pass.
        let mut bad = good.clone();
        bad[0].max_component_nrmse = f64::NAN;
        let doc = accuracy_document(&[], &bad, "quick", &config, 0.0, 1);
        assert!(check_mixture_anchors(&doc).is_err());

        // A missing anchor cell fails.
        let doc = accuracy_document(&[], &good[..2], "quick", &config, 0.0, 1);
        assert!(check_mixture_anchors(&doc).is_err());
    }

    #[test]
    fn run_mixture_matrix_is_order_insensitive_on_a_small_slice() {
        // Debug-mode sized, like the single-population slice above; the
        // full mixture-matrix permutation/thread sweep lives in
        // tests/determinism.rs.
        let config = ScenarioRunConfig {
            cells: 300,
            kernel_bins: 30,
            horizon: 150.0,
            basis_size: 10,
            gcv_points: 5,
            n_boot: 3,
            boot_grid: 20,
            profile_grid: 100,
        };
        let a = MixtureScenarioSpec {
            composition: MixtureComposition::Balanced2,
            noise: NoiseSpec::Clean,
        };
        let b = MixtureScenarioSpec {
            composition: MixtureComposition::Rare5,
            ..a
        };
        let fwd = run_mixture_matrix(&[a, b], &config, 2).unwrap();
        let rev = run_mixture_matrix(&[b, a], &config, 2).unwrap();
        assert_eq!(fwd[0], rev[1]);
        assert_eq!(fwd[1], rev[0]);
    }
}
