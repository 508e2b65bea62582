//! Golden-file regression tests: three canonical scenarios pinned to
//! committed fixtures.
//!
//! The CI `accuracy` job gates NRMSE at release-mode workload sizes; this
//! suite catches numerical drift at plain `cargo test` time by pinning the
//! *entire fit* — the fitted profile at the basis knots `f(tₖ)` (the
//! fixtures' `alpha` arrays), the GCV-selected λ, and the derived
//! metrics — for the three canonical scenarios (paper-noise anchor,
//! heteroscedastic, sparse-sampling) at a debug-friendly workload size.
//!
//! Tolerances are explicit and deliberately tight: the pipeline is
//! deterministic, so on one platform any drift beyond them is a real
//! behaviour change. To refresh the fixtures after an *intentional*
//! change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_scenarios
//! ```
//!
//! and commit the updated `tests/fixtures/*.json` in the same PR.
//! Regeneration keeps every committed value the fresh run reproduces
//! within its tolerance and rewrites only the rest, so the diff shows
//! exactly what moved.

mod common;

use std::path::PathBuf;

use cellsync::scenario::{ScenarioOutcome, ScenarioRunConfig, ScenarioSpec};
use cellsync_bench::scenarios::BASE_SEED;
use cellsync_spline::SplineBasis;
use cellsync_wire::Json;

/// Absolute tolerance on each pinned knot value (profile units are O(1)).
const ALPHA_TOL: f64 = 1e-6;
/// Absolute tolerance on NRMSE / phase error / coverage. Loose enough to
/// absorb a few ulps of cross-platform libm drift (the pipeline draws
/// normals through the system `ln`/`sqrt`), tight enough that any real
/// numerical change trips it.
const METRIC_TOL: f64 = 1e-6;
/// Relative tolerance on the selected λ (spans decades).
const LAMBDA_REL_TOL: f64 = 1e-6;

/// Debug-friendly workload: small enough for `cargo test`, deterministic
/// like every other size. The pinned values are tied to this config.
fn golden_config() -> ScenarioRunConfig {
    ScenarioRunConfig {
        cells: 2_000,
        kernel_bins: 64,
        horizon: 180.0,
        basis_size: 18,
        gcv_points: 9,
        n_boot: 6,
        boot_grid: 30,
        profile_grid: 200,
    }
}

fn fixture_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{stem}.json"))
}

fn outcome_to_json(outcome: &ScenarioOutcome) -> Json {
    Json::Obj(vec![
        ("scenario".into(), Json::Str(outcome.name.clone())),
        ("base_seed".into(), Json::Num(BASE_SEED as f64)),
        ("n_times".into(), Json::Num(outcome.n_times as f64)),
        ("nrmse".into(), Json::Num(outcome.nrmse)),
        ("phase_error".into(), Json::Num(outcome.phase_error)),
        ("coverage".into(), Json::Num(outcome.coverage)),
        ("lambda".into(), Json::Num(outcome.lambda)),
        (
            "alpha".into(),
            Json::Arr(
                knot_values(&outcome.alpha)
                    .into_iter()
                    .map(Json::Num)
                    .collect(),
            ),
        ),
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
fn check_golden(spec: ScenarioSpec, stem: &str) {
    let outcome = spec
        .run(&golden_config(), BASE_SEED)
        .expect("golden scenario runs");
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
             golden_scenarios` to create it",
            path.display()
        )
    });
    let fixture = Json::parse(&text).expect("fixture parses");

    assert_eq!(
        fixture.get("scenario").and_then(Json::as_str),
        Some(outcome.name.as_str()),
        "fixture {stem} pins a different scenario"
    );
    assert_eq!(
        require_f64(&fixture, "n_times", stem) as usize,
        outcome.n_times,
        "{stem}: schedule length drifted"
    );
    for (key, got) in [
        ("nrmse", outcome.nrmse),
        ("phase_error", outcome.phase_error),
        ("coverage", outcome.coverage),
    ] {
        let want = require_f64(&fixture, key, stem);
        assert!(
            (got - want).abs() <= METRIC_TOL,
            "{stem}: {key} drifted: got {got:.12}, pinned {want:.12} (tol {METRIC_TOL:e}); \
             if intentional, regenerate with GOLDEN_REGEN=1"
        );
    }
    let want_lambda = require_f64(&fixture, "lambda", stem);
    assert!(
        (outcome.lambda - want_lambda).abs() <= LAMBDA_REL_TOL * want_lambda.abs(),
        "{stem}: lambda drifted: got {:.6e}, pinned {want_lambda:.6e}",
        outcome.lambda
    );
    let alpha_fixture = fixture
        .get("alpha")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("fixture {stem} missing alpha array"));
    assert_eq!(
        alpha_fixture.len(),
        outcome.alpha.len(),
        "{stem}: basis size drifted"
    );
    for (i, (got, want)) in knot_values(&outcome.alpha)
        .into_iter()
        .zip(
            alpha_fixture
                .iter()
                .map(|v| v.as_f64().expect("numeric alpha")),
        )
        .enumerate()
    {
        assert!(
            (got - want).abs() <= ALPHA_TOL,
            "{stem}: f(t[{i}]) drifted: got {got:.12}, pinned {want:.12} (tol {ALPHA_TOL:e})"
        );
    }
}

#[test]
fn golden_paper_noise_scenario() {
    check_golden(ScenarioSpec::paper(), "golden_paper");
}

#[test]
fn golden_heteroscedastic_scenario() {
    check_golden(ScenarioSpec::heteroscedastic(), "golden_heteroscedastic");
}

#[test]
fn golden_sparse_sampling_scenario() {
    check_golden(ScenarioSpec::sparse_sampling(), "golden_sparse_sampling");
}
