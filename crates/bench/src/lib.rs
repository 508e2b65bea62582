//! Shared harness for the figure-regeneration binaries and the `perf`,
//! `accuracy` and `loadgen` harnesses.
//!
//! Every figure in the paper's evaluation (Figs. 2–5) has a binary in
//! `src/bin/` that regenerates its data series and prints them as CSV, plus
//! a summary of the paper-vs-measured comparison. This module holds the
//! protocol pieces the binaries share: the standard experiment kernel, the
//! CSV writer, and the Fig. 2/3 Lotka–Volterra setup.

#![deny(missing_docs)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use cellsync::synthetic::lotka_volterra_truth;
use cellsync::{DeconvError, PhaseProfile};
use cellsync_ode::models::LotkaVolterra;
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The average Caulobacter cycle time used throughout the evaluation
/// (paper §4.1: "a 150 minute period oscillation (similar to the average
/// cell cycle time for Caulobacter)").
pub const CYCLE_MINUTES: f64 = 150.0;

/// Cells in the simulated inoculum for kernel estimation.
pub const KERNEL_CELLS: usize = 20_000;

/// Phase bins of the kernel histogram.
pub const KERNEL_BINS: usize = 100;

/// Builds the standard experiment kernel: a synchronized swarmer culture
/// of [`KERNEL_CELLS`] cells observed at `n_times` uniform times over
/// `[0, horizon]` minutes.
///
/// # Errors
///
/// Propagates population-simulation errors.
pub fn standard_kernel(
    horizon: f64,
    n_times: usize,
    seed: u64,
) -> Result<PhaseKernel, DeconvError> {
    let params = CellCycleParams::caulobacter()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let pop = Population::synchronized(
        KERNEL_CELLS,
        &params,
        InitialCondition::UniformSwarmer,
        &mut rng,
    )?
    .simulate_until(horizon)?;
    let times: Vec<f64> = (0..n_times)
        .map(|i| horizon * i as f64 / (n_times - 1) as f64)
        .collect();
    Ok(KernelEstimator::new(KERNEL_BINS)?
        .with_threads(4)
        .estimate(&pop, &times)?)
}

/// The Fig. 2/3 ground truth: a Lotka–Volterra orbit rescaled to the
/// 150-minute period, with amplitudes comparable to the paper's panels
/// (x₁ peaks near 2.8, x₂ near 10).
///
/// # Errors
///
/// Propagates ODE errors.
pub fn figure2_truth() -> Result<(PhaseProfile, PhaseProfile, LotkaVolterra), DeconvError> {
    // Shape system: equilibrium (1, 5); orbit through (2.4, 5.0) swings
    // x₁ over ≈ 0.3–2.8 and x₂ over ≈ 1.5–10, matching the figure axes.
    let shape = LotkaVolterra::new(1.0, 0.2, 1.0, 1.0)?;
    lotka_volterra_truth(&shape, [2.4, 5.0], CYCLE_MINUTES, 400)
}

/// Where figure CSVs are written (`target/figures`).
pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Writes a CSV with a header row and one row per record, and echoes the
/// path to stdout.
///
/// # Errors
///
/// Returns [`std::io::Error`] on filesystem failures.
pub fn write_csv(
    name: &str,
    header: &str,
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> std::io::Result<PathBuf> {
    let path = figures_dir().join(name);
    let mut file = fs::File::create(&path)?;
    writeln!(file, "{header}")?;
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v:.6}")).collect();
        writeln!(file, "{}", line.join(","))?;
    }
    println!("wrote {}", path.display());
    Ok(path)
}

/// Formats a paper-vs-measured comparison line for the experiment logs.
pub fn report(metric: &str, paper: &str, measured: &str, hold: bool) -> String {
    format!(
        "  {:<44} paper: {:<26} measured: {:<26} [{}]",
        metric,
        paper,
        measured,
        if hold { "HOLDS" } else { "DEVIATES" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_kernel_is_normalized() {
        let k = standard_kernel(60.0, 4, 1).unwrap();
        for ti in 0..4 {
            assert!((k.integral(ti).unwrap() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn figure2_truth_amplitudes() {
        let (x1, x2, _) = figure2_truth().unwrap();
        assert!(x1.max() > 2.0 && x1.max() < 3.5, "x1 max {}", x1.max());
        assert!(x2.max() > 7.0 && x2.max() < 13.0, "x2 max {}", x2.max());
        assert!(x1.min() > 0.0 && x2.min() > 0.0);
    }

    #[test]
    fn report_formatting() {
        let line = report("peak phase", "0.4", "0.41", true);
        assert!(line.contains("HOLDS"));
        assert!(report("x", "a", "b", false).contains("DEVIATES"));
    }
}
pub mod experiments;
pub mod scenarios;
pub mod stamp;
