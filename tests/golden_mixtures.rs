//! Golden-file regression tests for K-component mixture fits: canonical
//! mixture cells pinned to committed fixtures.
//!
//! The CI `accuracy --matrix mixtures` job gates component-recovery
//! NRMSE at release-mode workload sizes; this suite catches numerical
//! drift at plain `cargo test` time by pinning the *entire mixture fit*
//! — every component's profile at the basis knots `f(tₖ)` (the
//! fixtures' `alpha` arrays), its selected λ, its
//! estimated mixing fraction, plus the joint residual — for canonical
//! cells of the mixture matrix (balanced two-type, rare-fraction) at a
//! debug-friendly workload size.
//!
//! Tolerances are explicit and deliberately tight: the pipeline is
//! deterministic, so on one platform any drift beyond them is a real
//! behaviour change. To refresh the fixtures after an *intentional*
//! change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_mixtures
//! ```
//!
//! and commit the updated `tests/fixtures/*.json` in the same PR.
//! Regeneration keeps every committed value the fresh run reproduces
//! within its tolerance and rewrites only the rest, so the diff shows
//! exactly what moved.

mod common;

use std::path::PathBuf;

use cellsync::scenario::{
    MixtureComposition, MixtureOutcome, MixtureScenarioSpec, NoiseSpec, ScenarioRunConfig,
};
use cellsync_bench::scenarios::BASE_SEED;
use cellsync_spline::SplineBasis;
use cellsync_wire::Json;

/// Absolute tolerance on each pinned knot value (profile units are O(1)).
const ALPHA_TOL: f64 = 1e-6;
/// Absolute tolerance on NRMSE / fraction / residual metrics.
const METRIC_TOL: f64 = 1e-6;
/// Relative tolerance on each selected λ (spans decades).
const LAMBDA_REL_TOL: f64 = 1e-6;

/// Debug-friendly workload: smaller than the golden single-population
/// config because each mixture cell simulates one reference culture per
/// component. The pinned values are tied to this config.
fn golden_config() -> ScenarioRunConfig {
    ScenarioRunConfig {
        cells: 1_200,
        kernel_bins: 48,
        horizon: 180.0,
        basis_size: 14,
        gcv_points: 7,
        n_boot: 4,
        boot_grid: 25,
        profile_grid: 150,
    }
}

fn fixture_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{stem}.json"))
}

fn outcome_to_json(outcome: &MixtureOutcome) -> Json {
    let components: Vec<Json> = outcome
        .components
        .iter()
        .map(|c| {
            Json::Obj(vec![
                ("name".into(), Json::Str(c.name.clone())),
                ("fraction_true".into(), Json::Num(c.fraction_true)),
                ("fraction_est".into(), Json::Num(c.fraction_est)),
                ("nrmse".into(), Json::Num(c.nrmse)),
                ("lambda".into(), Json::Num(c.lambda)),
                (
                    "alpha".into(),
                    Json::Arr(knot_values(&c.alpha).into_iter().map(Json::Num).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("cell".into(), Json::Str(outcome.name.clone())),
        ("base_seed".into(), Json::Num(BASE_SEED as f64)),
        ("n_times".into(), Json::Num(outcome.n_times as f64)),
        ("residual_rel".into(), Json::Num(outcome.residual_rel)),
        (
            "max_fraction_error".into(),
            Json::Num(outcome.max_fraction_error),
        ),
        ("components".into(), Json::Arr(components)),
    ])
}

/// The fitted profile at the basis's knots, `f(tₖ)`: the quantity the
/// fixtures' `alpha` arrays pin. It does not depend on how the spline
/// space is parameterized (they were written as the coordinates of a
/// cardinal basis, which are exactly these values).
fn knot_values(alpha: &[f64]) -> Vec<f64> {
    let basis = SplineBasis::uniform(alpha.len(), 0.0, 1.0).expect("basis size ≥ 4");
    basis
        .knots()
        .iter()
        .map(|&t| basis.eval_combination(alpha, t).expect("lengths match"))
        .collect()
}

fn require_f64(doc: &Json, key: &str, stem: &str) -> f64 {
    doc.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("fixture {stem} missing numeric field '{key}'"))
}

/// Runs `spec` under the golden config and compares against (or, with
/// `GOLDEN_REGEN=1`, rewrites) its fixture.
fn check_golden(spec: MixtureScenarioSpec, stem: &str) {
    let outcome = spec
        .run(&golden_config(), BASE_SEED)
        .expect("golden mixture cell runs");
    let path = fixture_path(stem);

    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let tol = common::Tolerances {
            alpha: ALPHA_TOL,
            metric: METRIC_TOL,
            lambda_rel: LAMBDA_REL_TOL,
        };
        let moved = common::regenerate(&path, outcome_to_json(&outcome), &tol);
        eprintln!("regenerated {}: {moved} value(s) moved", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read fixture {}: {e}\nrun `GOLDEN_REGEN=1 cargo test --test \
             golden_mixtures` to create it",
            path.display()
        )
    });
    let fixture = Json::parse(&text).expect("fixture parses");

    assert_eq!(
        fixture.get("cell").and_then(Json::as_str),
        Some(outcome.name.as_str()),
        "fixture {stem} pins a different mixture cell"
    );
    assert_eq!(
        require_f64(&fixture, "n_times", stem) as usize,
        outcome.n_times,
        "{stem}: schedule length drifted"
    );
    for (key, got) in [
        ("residual_rel", outcome.residual_rel),
        ("max_fraction_error", outcome.max_fraction_error),
    ] {
        let want = require_f64(&fixture, key, stem);
        assert!(
            (got - want).abs() <= METRIC_TOL,
            "{stem}: {key} drifted: got {got:.12}, pinned {want:.12} (tol {METRIC_TOL:e}); \
             if intentional, regenerate with GOLDEN_REGEN=1"
        );
    }

    let comp_fixtures = fixture
        .get("components")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("fixture {stem} missing components array"));
    assert_eq!(
        comp_fixtures.len(),
        outcome.components.len(),
        "{stem}: component count drifted"
    );
    for (pinned, got) in comp_fixtures.iter().zip(&outcome.components) {
        let cname = pinned
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("fixture {stem} component without name"));
        assert_eq!(cname, got.name, "{stem}: component order drifted");
        for (key, got_v) in [
            ("fraction_true", got.fraction_true),
            ("fraction_est", got.fraction_est),
            ("nrmse", got.nrmse),
        ] {
            let want = require_f64(pinned, key, stem);
            assert!(
                (got_v - want).abs() <= METRIC_TOL,
                "{stem}/{cname}: {key} drifted: got {got_v:.12}, pinned {want:.12} \
                 (tol {METRIC_TOL:e})"
            );
        }
        let want_lambda = require_f64(pinned, "lambda", stem);
        assert!(
            (got.lambda - want_lambda).abs() <= LAMBDA_REL_TOL * want_lambda.abs(),
            "{stem}/{cname}: lambda drifted: got {:.6e}, pinned {want_lambda:.6e}",
            got.lambda
        );
        let alpha_fixture = pinned
            .get("alpha")
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("fixture {stem}/{cname} missing alpha array"));
        assert_eq!(
            alpha_fixture.len(),
            got.alpha.len(),
            "{stem}/{cname}: basis size drifted"
        );
        for (i, (got_a, want_a)) in knot_values(&got.alpha)
            .into_iter()
            .zip(
                alpha_fixture
                    .iter()
                    .map(|v| v.as_f64().expect("numeric alpha")),
            )
            .enumerate()
        {
            assert!(
                (got_a - want_a).abs() <= ALPHA_TOL,
                "{stem}/{cname}: f(t[{i}]) drifted: got {got_a:.12}, pinned {want_a:.12} \
                 (tol {ALPHA_TOL:e})"
            );
        }
    }
}

#[test]
fn golden_balanced_mixture() {
    check_golden(
        MixtureScenarioSpec {
            composition: MixtureComposition::Balanced2,
            noise: NoiseSpec::Clean,
        },
        "golden_mixture_balanced",
    );
}

#[test]
fn golden_rare_fraction_mixture() {
    check_golden(
        MixtureScenarioSpec {
            composition: MixtureComposition::Rare5,
            noise: NoiseSpec::Clean,
        },
        "golden_mixture_rare5",
    );
}
