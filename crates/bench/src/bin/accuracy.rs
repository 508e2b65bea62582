//! `accuracy` — the machine-readable scenario-matrix accuracy harness.
//!
//! Runs the deconvolution pipeline end to end across a combinatorial
//! scenario matrix — noise model × population desynchronization ×
//! sampling schedule × kernel mismatch (see [`cellsync::scenario`] and
//! [`cellsync_bench::scenarios`]) — and writes per-scenario NRMSE,
//! peak-phase error, and bootstrap-band coverage as a schema-stable
//! `ACCURACY.json`: the repo's quality trajectory format, the accuracy
//! counterpart of `perf`'s `BENCH.json`.
//!
//! ```text
//! accuracy [--quick|--full] [--matrix scenarios|mixtures|all]
//!          [--threads N] [--out PATH] [--baseline PATH] [--gate-pct PCT]
//! ```
//!
//! * `--quick` (default): the 14-cell CI matrix (paper anchor +
//!   one-factor stress per axis + combined-stress cells), CI-sized
//!   populations.
//! * `--full`: the complete 98-cell cross product at paper-sized
//!   populations — real trajectory points.
//! * `--matrix`: which matrices to run — the single-population
//!   `scenarios` matrix, the K-component `mixtures` matrix (always the
//!   7-cell quick set; mode only scales the population), or `all`
//!   (default). Anchors and baseline gates apply only to the sections
//!   that ran.
//! * `--threads N`: worker-pool width for the matrix fan-out (default:
//!   all cores). Outcomes are bit-identical at any width.
//! * `--baseline PATH`: compare per-scenario NRMSE (and per-mixture-cell
//!   component NRMSE / fraction error) against a previous
//!   `ACCURACY.json` and exit non-zero if any cell regressed by more
//!   than `--gate-pct` percent (default 25) — the CI quality gate.
//!
//! Independent of the baseline gate, the run always enforces the
//! absolute anchors for the sections it ran: the
//! `lv-clean-paper-uniform-matched` scenario must reproduce fig2-level
//! NRMSE (≤ 0.02, vs the paper's reported 0.012/0.006), and the mixture
//! anchors of [`cellsync_bench::scenarios::check_mixture_anchors`] must
//! hold.

use std::time::Instant;

use cellsync::scenario::ScenarioRunConfig;
use cellsync_bench::scenarios::{
    accuracy_document, check_mixture_anchors, check_paper_anchor, full_matrix,
    gate_against_baseline, gate_mixtures_against_baseline, mixture_quick_matrix, quick_matrix,
    run_matrix, run_mixture_matrix,
};
use cellsync_runtime::Pool;

#[derive(Debug, Clone)]
struct Config {
    mode: &'static str,
    matrix: &'static str,
    threads: usize,
    out: String,
    baseline: Option<String>,
    gate_pct: f64,
}

fn usage() -> ! {
    eprintln!(
        "usage: accuracy [--quick|--full] [--matrix scenarios|mixtures|all] [--threads N] \
         [--out PATH] [--baseline PATH] [--gate-pct PCT]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut config = Config {
        mode: "quick",
        matrix: "all",
        threads: Pool::available_parallelism(),
        out: "ACCURACY.json".to_string(),
        baseline: None,
        gate_pct: 25.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => config.mode = "quick",
            "--full" => config.mode = "full",
            "--matrix" => {
                config.matrix = match args.next().unwrap_or_else(|| usage()).as_str() {
                    "scenarios" => "scenarios",
                    "mixtures" => "mixtures",
                    "all" => "all",
                    _ => usage(),
                }
            }
            "--threads" => {
                let raw = args.next().unwrap_or_else(|| usage());
                match raw.parse::<usize>() {
                    Ok(v) if v > 0 => config.threads = v,
                    _ => usage(),
                }
            }
            "--out" => config.out = args.next().unwrap_or_else(|| usage()),
            "--baseline" => config.baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--gate-pct" => {
                let raw = args.next().unwrap_or_else(|| usage());
                match raw.parse::<f64>() {
                    Ok(v) if v > 0.0 && v.is_finite() => config.gate_pct = v,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    config
}

fn main() {
    let config = parse_args();
    let run_scenarios = config.matrix != "mixtures";
    let run_mixtures = config.matrix != "scenarios";
    let (specs, run_config) = match config.mode {
        "full" => (full_matrix(), ScenarioRunConfig::full()),
        _ => (quick_matrix(), ScenarioRunConfig::quick()),
    };
    let mixture_specs = if run_mixtures {
        mixture_quick_matrix()
    } else {
        Vec::new()
    };
    eprintln!(
        "accuracy: mode={} matrix={} scenarios={} mixtures={} cells={} threads={}",
        config.mode,
        config.matrix,
        if run_scenarios { specs.len() } else { 0 },
        mixture_specs.len(),
        run_config.cells,
        config.threads
    );

    let start = Instant::now();
    let outcomes = if run_scenarios {
        match run_matrix(&specs, &run_config, config.threads) {
            Ok(outcomes) => outcomes,
            Err(e) => {
                eprintln!("accuracy: scenario run failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        Vec::new()
    };
    let mixtures = match run_mixture_matrix(&mixture_specs, &run_config, config.threads) {
        Ok(mixtures) => mixtures,
        Err(e) => {
            eprintln!("accuracy: mixture run failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "accuracy: ran {} scenarios + {} mixture cells in {:.1} s",
        outcomes.len(),
        mixtures.len(),
        start.elapsed().as_secs_f64()
    );
    for o in &outcomes {
        eprintln!(
            "accuracy: {:<44} nrmse {:.4}  phase_err {:.3}  coverage {:.2}  ({} times)",
            o.name, o.nrmse, o.phase_error, o.coverage, o.n_times
        );
    }
    for m in &mixtures {
        eprintln!(
            "accuracy: {:<44} comp_nrmse {:.4}  frac_err {:.4}  residual {:.4}{}",
            m.name,
            m.max_component_nrmse,
            m.max_fraction_error,
            m.residual_rel,
            match m.rare_detected {
                Some(true) => "  (rare detected)",
                Some(false) => "  (rare MISSED)",
                None => "",
            }
        );
    }

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as f64)
        .unwrap_or(0.0);
    let doc = accuracy_document(
        &outcomes,
        &mixtures,
        config.mode,
        &run_config,
        unix_secs,
        Pool::available_parallelism(),
    );
    std::fs::write(&config.out, doc.render() + "\n").expect("writable output path");
    println!("wrote {}", config.out);

    // The absolute anchors are enforced unconditionally for every
    // section that ran: regressing the fig2 reproduction (or losing
    // mixture component recovery) is a failure even without a baseline
    // to diff against.
    if run_scenarios {
        if let Err(msg) = check_paper_anchor(&doc) {
            eprintln!("accuracy: {msg}");
            std::process::exit(1);
        }
        println!("paper anchor: fig2-level NRMSE holds");
    }
    if run_mixtures {
        if let Err(msg) = check_mixture_anchors(&doc) {
            eprintln!("accuracy: {msg}");
            std::process::exit(1);
        }
        println!(
            "mixture anchors: component recovery, rare detection, and contaminant residual hold"
        );
    }

    if let Some(baseline_path) = &config.baseline {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("accuracy: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        let mut regressed = Vec::new();
        if run_scenarios {
            match gate_against_baseline(&doc, &text, config.gate_pct) {
                Ok(r) => regressed.extend(r),
                Err(msg) => {
                    eprintln!("accuracy: {msg}");
                    std::process::exit(1);
                }
            }
        }
        if run_mixtures {
            match gate_mixtures_against_baseline(&doc, &text, config.gate_pct) {
                Ok(r) => regressed.extend(r),
                Err(msg) => {
                    eprintln!("accuracy: {msg}");
                    std::process::exit(1);
                }
            }
        }
        if regressed.is_empty() {
            println!(
                "gate: all cells within {:.0} % of baseline",
                config.gate_pct
            );
        } else {
            eprintln!(
                "accuracy: {} cell(s) regressed more than {:.0} %: {}",
                regressed.len(),
                config.gate_pct,
                regressed.join(", ")
            );
            std::process::exit(1);
        }
    }
}
