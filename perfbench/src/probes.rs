//! Set-up steps timed per layer, and the per-layer probes of the traced
//! run. Probes call one layer's public API on the workload's own data
//! (its engine, series and QPs) outside the timed window.

use std::time::Instant;

use cellsync::{Deconvolver, FitRequest, FitWorkspace, ForwardModel};
use cellsync_linalg::{Matrix, Vector};
use cellsync_opt::{QpProblem, QpWorkspace};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{mean, median, per_call_us, percentile, sorted, time_us, Report};
use crate::trace::Tracer;

/// Boxed error for the benchmark's own plumbing.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Seconds spent in each timed set-up step of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub simulate_s: f64,
    pub estimate_s: f64,
    pub engine_build_s: f64,
}

impl SetupTimes {
    /// Adds another step's times (set-ups that simulate several cultures).
    pub fn add(&mut self, other: SetupTimes) {
        self.simulate_s += other.simulate_s;
        self.estimate_s += other.estimate_s;
        self.engine_build_s += other.engine_build_s;
    }
}

/// Simulates a synchronized culture of `cells` and estimates its phase
/// kernel at `times` on one thread, timing both steps.
pub fn simulate_kernel(
    tracer: &mut Tracer,
    params: &CellCycleParams,
    cells: usize,
    bins: usize,
    times: &[f64],
    seed: u64,
) -> Result<(PhaseKernel, SetupTimes), BoxError> {
    let horizon = times.iter().copied().fold(0.0, f64::max);
    let t = Instant::now();
    let population = tracer.span("popsim.simulate", |_| {
        let mut rng = StdRng::seed_from_u64(seed);
        Population::synchronized(cells, params, InitialCondition::UniformSwarmer, &mut rng)?
            .simulate_until(horizon)
    })?;
    let simulate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let kernel = tracer.span("popsim.kernel_estimate", |_| {
        KernelEstimator::new(bins)?
            .with_threads(1)
            .estimate(&population, times)
    })?;
    let estimate_s = t.elapsed().as_secs_f64();
    Ok((
        kernel,
        SetupTimes {
            simulate_s,
            estimate_s,
            engine_build_s: 0.0,
        },
    ))
}

/// Records the per-layer set-up medians over repeated set-ups.
pub fn report_setup_layers(report: &mut Report, setups: &[SetupTimes]) {
    let pick = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.set_layer("popsim.simulate_s", pick(|t| t.simulate_s));
    report.set_layer("popsim.kernel_estimate_s", pick(|t| t.estimate_s));
    report.set_layer("core.engine_build_ms", 1e3 * pick(|t| t.engine_build_s));
}

/// One series of a probe sample: measurements and optional σ.
pub type Series<'a> = (&'a [f64], Option<&'a [f64]>);

fn request(series: Series<'_>) -> FitRequest {
    let mut request = FitRequest::new(series.0.to_vec());
    if let Some(s) = series.1 {
        request = request.with_sigmas(s.to_vec());
    }
    request
}

/// `spline.design_ms`: the basis-dependent assembly an engine build
/// does — design matrix, roughness penalty and positivity collocation
/// (plus their banded/sparse forms for a local basis).
pub fn design_probe(tracer: &mut Tracer, engine: &Deconvolver, report: &mut Report) {
    let basis = engine.basis();
    let forward = ForwardModel::new(engine.forward().kernel().clone());
    let grid: Vec<f64> = (0..engine.config().positivity_grid())
        .map(|i| i as f64 / (engine.config().positivity_grid() - 1) as f64)
        .collect();
    let us = tracer.span("spline.design", |_| {
        time_us(5, || {
            std::hint::black_box(forward.design_matrix(basis).expect("design assembles"));
            std::hint::black_box(basis.penalty_matrix());
            std::hint::black_box(basis.collocation_matrix(&grid).expect("grid in domain"));
            if let Some(b) = basis.as_bspline() {
                std::hint::black_box(b.penalty_banded());
                std::hint::black_box(b.collocation_sparse(&grid).expect("grid in domain"));
            }
        })
    });
    report.set_layer("spline.design_ms", us / 1e3);
}

/// The per-series fit probe: `fit_request_with` with one workspace over
/// the sample, then a refit at the selected λ (`with_lambda`) to split
/// λ selection from the constrained solve.
pub fn fit_probe(
    tracer: &mut Tracer,
    engine: &Deconvolver,
    sample: &[Series<'_>],
    report: &mut Report,
) -> Result<(), BoxError> {
    let grid_n = engine.config().positivity_grid();
    let mut workspace = FitWorkspace::new();
    let (mut all, mut unit, mut weighted) = (Vec::new(), Vec::new(), Vec::new());
    let (mut full_s, mut refit_s) = (0.0, 0.0);
    let (mut points, mut active) = (Vec::new(), 0usize);
    tracer.span("core.fit_probe", |tracer| -> Result<(), BoxError> {
        for &series in sample {
            let req = request(series);
            let t = Instant::now();
            let fit = tracer.span("core.fit", |_| {
                engine.fit_request_with(&mut workspace, &req)
            })?;
            let dt = t.elapsed().as_secs_f64();
            let refit_req = req.with_lambda(fit.result().lambda());
            let t = Instant::now();
            tracer.span("core.refit", |_| {
                engine.fit_request_with(&mut workspace, &refit_req)
            })?;
            refit_s += t.elapsed().as_secs_f64();
            full_s += dt;
            all.push(dt * 1e6);
            if series.1.is_some() {
                weighted.push(dt * 1e6);
            } else {
                unit.push(dt * 1e6);
            }
            let result = fit.result();
            points.push(result.selection_scores().len() as f64);
            let scale = 1.0 + result.alpha().iter().fold(0.0f64, |m, a| m.max(a.abs()));
            let min = (0..grid_n)
                .map(|i| {
                    result
                        .eval(i as f64 / (grid_n - 1) as f64)
                        .unwrap_or(f64::NAN)
                })
                .fold(f64::INFINITY, f64::min);
            if min <= 1e-8 * scale {
                active += 1;
            }
        }
        Ok(())
    })?;
    let all = sorted(all);
    report.set_layer("core.fit_us_p50", percentile(&all, 0.5));
    report.set_layer("core.fit_us_p99", percentile(&all, 0.99));
    report.set_layer("core.fit_unit_us_p50", median(&unit));
    report.set_layer("core.fit_weighted_us_p50", median(&weighted));
    report.set_layer("core.select_frac", 1.0 - refit_s / full_s.max(1e-12));
    report.set_layer("core.select_points", mean(&points));
    report.set_layer(
        "core.positivity_active_frac",
        active as f64 / sample.len().max(1) as f64,
    );
    Ok(())
}

/// The QP probe: `QpWorkspace::solve` on QPs harvested from the
/// workload's own fits (`Deconvolver::harvest_qp`), cold (fresh
/// workspace, no start) and warm (the harvested start and active set).
pub fn qp_probe(
    tracer: &mut Tracer,
    engine: &Deconvolver,
    sample: &[Series<'_>],
    report: &mut Report,
) -> Result<(), BoxError> {
    let (mut cold_us, mut warm_us) = (Vec::new(), Vec::new());
    let (mut cold_it, mut warm_it, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    tracer.span("opt.qp_probe", |tracer| -> Result<(), BoxError> {
        for (i, &(g, s)) in sample.iter().enumerate() {
            let instance = engine.harvest_qp(g, s, &format!("probe-{i}"))?;
            let mut cold = QpProblem::new(instance.hessian(), instance.linear())?;
            if let Some((e, rhs)) = instance.equalities() {
                cold = cold.with_equalities(e, rhs)?;
            }
            if let Some((a, b)) = instance.inequalities() {
                cold = cold.with_inequalities(a, b)?;
            }
            let warm = instance.problem()?;
            let start = instance
                .start()
                .cloned()
                .ok_or("harvested QP carries no start")?;
            let active = instance.active().to_vec();

            let solution = QpWorkspace::new().solve(&cold)?;
            cold_it.push(solution.iterations as f64);
            rows.push(solution.active_set.len() as f64);
            let mut ws = QpWorkspace::new();
            ws.set_warm_start(start.clone(), active.clone());
            warm_it.push(ws.solve(&warm)?.iterations as f64);

            cold_us.push(tracer.span("opt.qp_cold", |_| {
                time_us(5, || {
                    std::hint::black_box(QpWorkspace::new().solve(&cold).expect("solved above"));
                })
            }));
            warm_us.push(tracer.span("opt.qp_warm", |_| {
                time_us(5, || {
                    let mut ws = QpWorkspace::new();
                    ws.set_warm_start(start.clone(), active.clone());
                    std::hint::black_box(ws.solve(&warm).expect("solved above"));
                })
            }));
        }
        Ok(())
    })?;
    report.set_layer("opt.qp_cold_us_p50", median(&cold_us));
    report.set_layer("opt.qp_warm_us_p50", median(&warm_us));
    report.set_layer("opt.qp_iterations_cold", mean(&cold_it));
    report.set_layer("opt.qp_iterations_warm", mean(&warm_it));
    report.set_layer("opt.active_rows", mean(&rows));
    Ok(())
}

/// `linalg.weighted_gram_us`: `Matrix::weighted_gram_into` on the
/// engine's design with one gene's weights. Flops and bytes are computed
/// from the sizes: `m·n·(n+1)` for the symmetric rank-m update plus `m·n`
/// for the weighting; the design, weights and output read or written once.
pub fn gram_probe(tracer: &mut Tracer, engine: &Deconvolver, sigmas: &[f64], report: &mut Report) {
    let design = engine
        .forward()
        .design_matrix(engine.basis())
        .expect("design assembles");
    let (m, n) = design.shape();
    let weights: Vec<f64> = sigmas.iter().map(|s| 1.0 / s).collect();
    let mut out = Matrix::zeros(n, n);
    let us = tracer.span("linalg.weighted_gram", |_| {
        per_call_us(200, || {
            design
                .weighted_gram_into(std::hint::black_box(&weights), &mut out)
                .expect("shapes agree");
        })
    });
    let (m, n) = (m as f64, n as f64);
    report.set_layer("linalg.weighted_gram_us", us);
    report.set_layer(
        "linalg.weighted_gram_flops_computed",
        m * n * (n + 1.0) + m * n,
    );
    report.set_layer(
        "linalg.weighted_gram_bytes_computed",
        8.0 * (m * n + m + n * n),
    );
}

/// `linalg.banded_chol_us`: `BandedMatrix::cholesky` plus one solve on
/// the engine's banded roughness penalty (shifted to be well
/// conditioned). Flops are computed as `n·b·(b+1)` for the factor and
/// `4·n·(b+1)` for the two triangular solves; bytes as the band read and
/// the factor written (`2·8·n·(b+1)`) plus the right-hand side in and out.
pub fn banded_chol_probe(tracer: &mut Tracer, engine: &Deconvolver, report: &mut Report) {
    let Some(mut band) = engine.basis().penalty_banded() else {
        return;
    };
    band.add_diagonal(1.0);
    let n = band.dim();
    let b = band.bandwidth();
    let rhs = Vector::from_fn(n, |i| (i as f64 * 0.17).cos());
    let us = tracer.span("linalg.banded_chol", |_| {
        per_call_us(200, || {
            let chol = band.cholesky().expect("shifted penalty is SPD");
            std::hint::black_box(chol.solve(&rhs).expect("sizes agree"));
        })
    });
    let (n, b) = (n as f64, b as f64);
    report.set_layer("linalg.banded_chol_us", us);
    report.set_layer(
        "linalg.banded_chol_flops_computed",
        n * b * (b + 1.0) + 4.0 * n * (b + 1.0),
    );
    report.set_layer(
        "linalg.banded_chol_bytes_computed",
        2.0 * 8.0 * n * (b + 1.0) + 2.0 * 8.0 * n,
    );
}
