//! `perf` — the machine-readable performance harness.
//!
//! Times the workspace's fourteen hot computational kernels (dense Cholesky
//! solve, spline-basis assembly/evaluation, active-set QP, RK4 ODE
//! integration, Monte-Carlo kernel estimation, blocked weighted-Gram
//! assembly, the cold collocation-constrained QP on both the dual
//! active-set backend and the interior-point backend, banded Cholesky factor+solve and sparse
//! banded Gram assembly at genome-scale basis sizes, the λ-path GCV
//! fit unit-weighted and σ-weighted, the σ-weighted banded-path GCV fit
//! at basis 128, and the row-hinted shared-Hessian QP pattern), writes
//! the results as a schema-stable `BENCH.json` — the repo's kernel perf
//! trajectory format — and gates them against a committed baseline.
//! End-to-end and per-layer costs (genome-wide `fit_many` throughput,
//! thread scaling, serving latency) are perfbench's job, not this
//! harness's.
//!
//! ```text
//! perf [--quick|--full] [--out PATH] [--baseline PATH] [--gate-pct PCT]
//!      [--append-history PATH]
//! ```
//!
//! * `--quick` (default): CI-sized workloads, a few seconds end to end.
//! * `--full`: a paper-sized 20k-cell population behind the kernel
//!   estimate and more repetitions, for real trajectory points.
//! * `--baseline PATH`: compare every kernel's fastest repetition
//!   (`min_ms`) against a previous `BENCH.json` and exit non-zero if any
//!   kernel regressed by more than `--gate-pct` percent (default 25) —
//!   the CI regression gate.
//! * `--append-history PATH`: append this run's medians (stamped with
//!   the measured git commit) to the `cellsync-perf-history/1` log, so
//!   the perf trajectory across PRs stays machine-recoverable from one
//!   committed file (`crates/bench/PERF_HISTORY.json`).
//!
//! Every document carries the git commit of the measured tree
//! (`git_commit`, `-dirty`-suffixed for uncommitted changes; override
//! with `CELLSYNC_GIT_COMMIT` when measuring an exported tree).
//!
//! Timing method: every kernel repetition does enough inner iterations to
//! run well above timer resolution, repetitions are repeated `reps` times,
//! and the whole suite runs three times over; each kernel reports the
//! median and minimum of its fastest pass. The gate compares the
//! **minimum**: on a shared host, interference only ever adds time, so
//! the fastest repetition is the statistic least moved by a noisy
//! neighbour, while a real regression moves it as much as the median.

use std::time::Instant;

use cellsync::{DeconvolutionConfig, Deconvolver, LambdaSelection};
use cellsync_bench::stamp;
use cellsync_linalg::{BandedMatrix, Matrix, SparseRowMatrix, Vector};
use cellsync_ode::models::LotkaVolterra;
use cellsync_ode::period::rescale_lotka_volterra;
use cellsync_ode::solver::Rk4;
use cellsync_opt::{IpmWorkspace, QpProblem, QpWorkspace};
use cellsync_popsim::{
    CellCycleParams, InitialCondition, KernelEstimator, PhaseKernel, Population,
};
use cellsync_runtime::Pool;
use cellsync_spline::SplineBasis;
use cellsync_wire::Json;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[derive(Debug, Clone)]
struct Config {
    mode: &'static str,
    /// Timed repetitions per kernel and pass.
    reps: usize,
    /// Cells in the simulated population behind the kernel estimate.
    cells: usize,
    out: String,
    baseline: Option<String>,
    gate_pct: f64,
    append_history: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: perf [--quick|--full] [--out PATH] [--baseline PATH] [--gate-pct PCT] \
         [--append-history PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut config = Config {
        mode: "quick",
        reps: 5,
        cells: 3_000,
        out: "BENCH.json".to_string(),
        baseline: None,
        gate_pct: 25.0,
        append_history: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // Mode flags always reset all size knobs, so the last one on
            // the command line wins regardless of order.
            "--quick" => {
                config.mode = "quick";
                config.reps = 5;
                config.cells = 3_000;
            }
            "--full" => {
                config.mode = "full";
                config.reps = 9;
                config.cells = 20_000;
            }
            "--out" => config.out = args.next().unwrap_or_else(|| usage()),
            "--baseline" => config.baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--append-history" => {
                config.append_history = Some(args.next().unwrap_or_else(|| usage()));
            }
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

/// Whole passes over the kernel suite. Each kernel's samples are spread
/// over the run, so a stretch of interference on a shared host slows one
/// pass, not the kernel's entry (see [`fastest_pass`]).
const PASSES: usize = 3;

/// Per kernel, the entry of the pass with the smallest `min_ms`.
fn fastest_pass(passes: &[Vec<Json>]) -> Vec<Json> {
    let min_ms = |k: &Json| {
        k.get("min_ms")
            .and_then(Json::as_f64)
            .unwrap_or(f64::INFINITY)
    };
    (0..passes[0].len())
        .map(|i| {
            passes
                .iter()
                .map(|pass| &pass[i])
                .min_by(|a, b| min_ms(a).total_cmp(&min_ms(b)))
                .expect("at least one pass")
                .clone()
        })
        .collect()
}

/// Times `reps` repetitions of `f` and returns `(median_ms, min_ms)`.
fn time_reps(reps: usize, mut f: impl FnMut()) -> (f64, f64) {
    // One untimed warmup to populate caches/allocator pools.
    f();
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (samples[samples.len() / 2], samples[0])
}

fn kernel_entry(name: &str, reps: usize, median_ms: f64, min_ms: f64) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(name.into())),
        ("reps".into(), Json::Num(reps as f64)),
        ("median_ms".into(), Json::Num(median_ms)),
        ("min_ms".into(), Json::Num(min_ms)),
    ])
}

/// SPD test matrix of the linalg bench shape.
fn spd(n: usize) -> Matrix {
    let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) as f64 * 0.7).sin());
    let mut g = a.gram();
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g.symmetrize().expect("square");
    g
}

/// The positivity-constrained QP instance of the qp_solver bench.
fn qp_instance(n: usize, m: usize) -> (Matrix, Vector) {
    let a = Matrix::from_fn(m, n, |r, c| {
        let t = r as f64 / (m - 1) as f64;
        let phi = c as f64 / (n - 1) as f64;
        (-((phi - t).powi(2)) / 0.02).exp() + 0.05
    });
    let truth = Vector::from_fn(n, |i| {
        let phi = i as f64 / (n - 1) as f64;
        (2.0 * std::f64::consts::PI * phi).sin().max(0.0) * 2.0
    });
    let b = a.matvec(&truth).expect("shapes agree");
    let mut h = a.gram();
    for i in 0..n {
        h[(i, i)] += 1e-2 + 1e-9;
    }
    let mut h = h.scaled(2.0);
    h.symmetrize().expect("square");
    let c = -&a.tr_matvec(&b).expect("shapes agree").scaled(2.0);
    (h, c)
}

fn simulate_population(cells: usize, seed: u64) -> Population {
    let params = CellCycleParams::caulobacter().expect("valid defaults");
    let mut rng = StdRng::seed_from_u64(seed);
    Population::synchronized(cells, &params, InitialCondition::UniformSwarmer, &mut rng)
        .expect("non-empty population")
        .simulate_until(150.0)
        .expect("finite horizon")
}

fn measure_kernels(config: &Config, population: &Population, times: &[f64]) -> Vec<Json> {
    let mut kernels = Vec::new();
    let reps = config.reps;

    // 1. Dense Cholesky factor+solve at GCV problem size.
    let m96 = spd(96);
    let rhs = Vector::from_fn(96, |i| (i as f64).cos());
    let (median, min) = time_reps(reps, || {
        for _ in 0..20 {
            std::hint::black_box(
                m96.cholesky()
                    .expect("spd")
                    .solve(&rhs)
                    .expect("matching dims"),
            );
        }
    });
    kernels.push(kernel_entry(
        "linalg_cholesky_solve_96x20",
        reps,
        median,
        min,
    ));

    // 2. Spline basis: construction + penalty assembly + profile evaluation.
    let coeffs: Vec<f64> = (0..24).map(|i| (i as f64 * 0.3).sin() + 1.5).collect();
    let (median, min) = time_reps(reps, || {
        for _ in 0..10 {
            let basis = SplineBasis::uniform(24, 0.0, 1.0).expect("n >= 4");
            std::hint::black_box(basis.penalty_matrix());
            for i in 0..400 {
                std::hint::black_box(
                    basis
                        .eval_combination(&coeffs, i as f64 / 399.0)
                        .expect("lengths match"),
                );
            }
        }
    });
    kernels.push(kernel_entry("spline_basis_24x10", reps, median, min));

    // 3. Active-set QP with positivity constraints at deconvolution size.
    let (h, c) = qp_instance(24, 19);
    let (median, min) = time_reps(reps, || {
        for _ in 0..5 {
            std::hint::black_box(
                QpWorkspace::new()
                    .solve(
                        &QpProblem::new(&h, &c)
                            .expect("valid qp")
                            .with_inequalities(&Matrix::identity(24), &Vector::zeros(24))
                            .expect("shapes agree"),
                    )
                    .expect("solvable"),
            );
        }
    });
    kernels.push(kernel_entry("qp_active_set_24x19x5", reps, median, min));

    // 4. RK4 over one 150-minute Lotka–Volterra period.
    let shape = LotkaVolterra::new(1.0, 0.2, 1.0, 1.0).expect("positive rates");
    let (lv, _) = rescale_lotka_volterra(&shape, [2.4, 5.0], 150.0).expect("rescales");
    let solver = Rk4::new(0.25).expect("dt > 0");
    let (median, min) = time_reps(reps, || {
        for _ in 0..25 {
            std::hint::black_box(
                solver
                    .integrate(&lv, &[2.4, 5.0], 0.0, 150.0)
                    .expect("integrates"),
            );
        }
    });
    kernels.push(kernel_entry("ode_rk4_lv150x25", reps, median, min));

    // 5. Monte-Carlo kernel estimation (single-threaded, so kernel
    // timings stay comparable across machines of different widths).
    let estimator = KernelEstimator::new(100).expect("bins").with_threads(1);
    let (median, min) = time_reps(reps, || {
        for _ in 0..5 {
            std::hint::black_box(
                estimator
                    .estimate(population, times)
                    .expect("valid protocol"),
            );
        }
    });
    kernels.push(kernel_entry(
        "kernel_estimate_100bins_16tx5",
        reps,
        median,
        min,
    ));

    // 6. Weighted Gram assembly `AᵀW²A` at the dense-design shape (96
    // measurements × 24 basis functions) — the syrk-style kernel behind
    // every Hessian assembly in the fit path.
    let design = Matrix::from_fn(96, 24, |r, c| {
        let t = r as f64 / 95.0;
        let phi = c as f64 / 23.0;
        (-((phi - t).powi(2)) / 0.02).exp() + 0.05
    });
    let weights: Vec<f64> = (0..96)
        .map(|i| 1.0 + 0.5 * (i as f64 * 0.3).sin())
        .collect();
    let mut gram = Matrix::zeros(24, 24);
    let (median, min) = time_reps(reps, || {
        for _ in 0..50 {
            design
                .weighted_gram_into(&weights, &mut gram)
                .expect("matching shapes");
            std::hint::black_box(&gram);
        }
    });
    kernels.push(kernel_entry("gram_weighted_96x24x50", reps, median, min));

    // 7. Cold constrained QP at the per-gene `fit_many` shape: 18 basis
    // functions, the engine's 101-row positivity collocation matrix — the
    // QP a `fit_many` gene pays when positivity binds.
    let basis = SplineBasis::uniform(18, 0.0, 1.0).expect("n >= 4");
    let grid: Vec<f64> = (0..101).map(|i| i as f64 / 100.0).collect();
    let colloc = basis.collocation_matrix(&grid).expect("finite grid");
    let design_qp = Matrix::from_fn(16, 18, |r, c| {
        let t = r as f64 / 15.0;
        let phi = c as f64 / 17.0;
        (-((phi - t).powi(2)) / 0.03).exp() + 0.05
    });
    let truth = Vector::from_fn(18, |i| {
        let phi = i as f64 / 17.0;
        (2.0 * std::f64::consts::PI * phi).sin() * 1.5 - 0.3
    });
    let data = design_qp.matvec(&truth).expect("shapes agree");
    let omega = basis.penalty_matrix();
    let mut h = design_qp.gram();
    for i in 0..18 {
        for j in 0..18 {
            h[(i, j)] = 2.0 * (h[(i, j)] + 1e-4 * omega[(i, j)]);
        }
        h[(i, i)] += 2e-9;
    }
    h.symmetrize().expect("square");
    let c = -&design_qp
        .tr_matvec(&data)
        .expect("shapes agree")
        .scaled(2.0);
    let zeros101 = Vector::zeros(101);
    let (median, min) = time_reps(reps, || {
        for _ in 0..6 {
            let mut workspace = QpWorkspace::new();
            let problem = QpProblem::new(&h, &c)
                .expect("valid qp")
                .with_inequalities(&colloc, &zeros101)
                .expect("shapes agree");
            std::hint::black_box(workspace.solve(&problem).expect("solvable"));
        }
    });
    kernels.push(kernel_entry("qp_cold_colloc_18x101x6", reps, median, min));

    // 8. The same cold collocation-constrained QP through the Mehrotra
    // interior-point backend — the second opinion a differential
    // cross-check (or an ill-conditioned fit) pays per instance. Same
    // H/c/collocation as kernel 7 so the two medians are directly
    // comparable backend-to-backend.
    let (median, min) = time_reps(reps, || {
        for _ in 0..6 {
            let mut workspace = IpmWorkspace::new();
            let problem = QpProblem::new(&h, &c)
                .expect("valid qp")
                .with_inequalities(&colloc, &zeros101)
                .expect("shapes agree");
            std::hint::black_box(workspace.solve(&problem).expect("solvable"));
        }
    });
    kernels.push(kernel_entry("qp_ipm_cold_18x101x6", reps, median, min));

    // 9. Banded Cholesky factor+solve at the genome-scale basis size an
    // engine pays once at build: n = 512, bandwidth 4. The
    // gate baseline is this banded kernel's own median; the O(n³) →
    // O(n·b²) win over a dense 512×512 Cholesky is a documented ratio
    // (docs/SOLVER.md §9), not a baseline.
    let mut sb = BandedMatrix::zeros(512, 4).expect("bandwidth < dim");
    for i in 0..512 {
        sb.set(i, i, 8.0 + (i as f64 * 0.29).sin().abs())
            .expect("in band");
        for off in 1..=4usize.min(511 - i) {
            sb.set(i, i + off, 0.8 / off as f64).expect("in band");
        }
    }
    let rhs512 = Vector::from_fn(512, |i| (i as f64 * 0.17).cos());
    let (median, min) = time_reps(reps, || {
        for _ in 0..8 {
            let chol = sb.cholesky().expect("spd band");
            let mut x = rhs512.as_slice().to_vec();
            chol.solve_slice_in_place(&mut x);
            std::hint::black_box(x);
        }
    });
    kernels.push(kernel_entry("banded_chol_512x4", reps, median, min));

    // 10. Sparse banded Gram assembly at the genome-scale collocation
    // shape: 10 000 rows × 512 B-spline columns, 4 nonzeros per row
    // (cubic local support). As for kernel 9, the speed-up over a dense
    // 10 000×512 `weighted_gram_into` is a documented ratio, not the
    // gate baseline.
    let nnz_rows: Vec<(usize, [f64; 4])> = (0..10_000)
        .map(|r| {
            let start = (r * 509) / 10_000;
            let t = r as f64 / 9_999.0;
            (
                start,
                [
                    0.2 + 0.1 * (t * 3.0).sin(),
                    0.6 + 0.2 * (t * 5.0).cos(),
                    0.6 - 0.2 * (t * 5.0).cos(),
                    0.2 - 0.1 * (t * 3.0).sin(),
                ],
            )
        })
        .collect();
    let triplets: Vec<(usize, usize, f64)> = nnz_rows
        .iter()
        .enumerate()
        .flat_map(|(r, (start, vals))| {
            vals.iter()
                .enumerate()
                .map(move |(k, &v)| (r, start + k, v))
        })
        .collect();
    let colloc_sparse =
        SparseRowMatrix::from_triplets(10_000, 512, &triplets).expect("valid triplets");
    let weights10k: Vec<f64> = (0..10_000)
        .map(|i| 1.0 + 0.5 * (i as f64 * 0.013).sin())
        .collect();
    let mut gram_band = BandedMatrix::zeros(512, 3).expect("bandwidth < dim");
    let (median, min) = time_reps(reps, || {
        for _ in 0..2 {
            colloc_sparse
                .weighted_gram_banded_into(Some(weights10k.as_slice()), &mut gram_band)
                .expect("support fits band");
            std::hint::black_box(&gram_band);
        }
    });
    kernels.push(kernel_entry("gram_banded_10k", reps, median, min));

    kernels
}

/// Times the λ-selection hot path (GCV grid scan + golden refinement +
/// constrained solve) and the shared-Hessian repeated-QP pattern that
/// bootstrap replicates exercise. Split out from [`measure_kernels`]
/// because both need the estimated phase kernel.
fn measure_solver_kernels(config: &Config, kernel: &PhaseKernel) -> Vec<Json> {
    let mut kernels = Vec::new();
    let reps = config.reps;

    // 6. λ-path: one full GCV-selected deconvolution fit (11-point grid
    // plus golden-section refinement, positivity constraints on). This is
    // the per-gene cost of `fit_many` and the per-cell cost of the
    // accuracy matrix.
    let deconv_config = DeconvolutionConfig::builder()
        .basis_size(18)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -8.0,
            log10_max: 1.0,
            points: 11,
        })
        .build()
        .expect("valid config");
    let engine = Deconvolver::new(kernel.clone(), deconv_config).expect("valid engine");
    let truth = cellsync::PhaseProfile::from_fn(200, |phi| {
        2.0 + (2.0 * std::f64::consts::PI * phi).sin() + 0.5 * phi
    })
    .expect("valid profile");
    let clean = engine.forward().predict(&truth).expect("predicts");
    // Deterministic measurement noise pushes the GCV minimum into the
    // grid interior so the golden-section refinement (the expensive half
    // of real λ selection) is part of the timed path.
    let g: Vec<f64> = clean
        .iter()
        .enumerate()
        .map(|(i, v)| v + 0.08 * (i as f64 * 1.7).sin())
        .collect();
    let (median, min) = time_reps(reps, || {
        for _ in 0..4 {
            std::hint::black_box(engine.fit(&g, None).expect("fits"));
        }
    });
    kernels.push(kernel_entry("lambda_path_gcv_18x11x4", reps, median, min));

    // The same fit with per-measurement σ: a σ-weighted series cannot use
    // the engine's cached unit-weight decomposition, so every fit pays
    // its own m×m measurement-space eigendecomposition and projection —
    // the per-gene cost of the σ-carrying half of a genome.
    let sigmas: Vec<f64> = (0..g.len())
        .map(|i| 0.05 * (1.0 + 0.5 * (i as f64 * 0.9).sin()))
        .collect();
    let (median, min) = time_reps(reps, || {
        for _ in 0..4 {
            std::hint::black_box(engine.fit(&g, Some(&sigmas)).expect("fits"));
        }
    });
    kernels.push(kernel_entry(
        "lambda_path_gcv_weighted_18x11x4",
        reps,
        median,
        min,
    ));

    // The `genome_fine` shape: 128 natural B-spline functions, 7-point
    // GCV over [1e-6, 1], σ-weighted. The series decomposes its m×m
    // measurement-space matrix once and each λ costs a shrinkage of its
    // m eigenvalues; the selected λ adds the coefficient solve and the
    // positivity check.
    let banded_config = DeconvolutionConfig::builder()
        .basis_size(128)
        .positivity(true)
        .lambda_selection(LambdaSelection::Gcv {
            log10_min: -6.0,
            log10_max: 0.0,
            points: 7,
        })
        .build()
        .expect("valid config");
    let banded = Deconvolver::new(kernel.clone(), banded_config).expect("valid engine");
    let (median, min) = time_reps(reps, || {
        std::hint::black_box(banded.fit(&g, Some(&sigmas)).expect("fits"));
    });
    kernels.push(kernel_entry(
        "lambda_path_gcv_banded_128x7",
        reps,
        median,
        min,
    ));

    // 7. Warm-started repeated QP: one Hessian, 32 right-hand sides
    // (λ fixed, noise on the linear term only). A persistent workspace
    // reuses its buffers, factors H afresh per solve, and adds the base
    // problem's active rows first whenever they are violated.
    let (h, c0) = qp_instance(24, 19);
    let rhs: Vec<Vector> = (0..32)
        .map(|r| {
            Vector::from_fn(24, |i| {
                c0[i] * (1.0 + 0.01 * ((r * 24 + i) as f64 * 0.7).sin())
            })
        })
        .collect();
    let ineq = Matrix::identity(24);
    let zeros = Vector::zeros(24);
    let base = QpWorkspace::new()
        .solve(
            &QpProblem::new(&h, &c0)
                .expect("valid qp")
                .with_inequalities(&ineq, &zeros)
                .expect("shapes agree"),
        )
        .expect("solvable");
    let (median, min) = time_reps(reps, || {
        let mut workspace = QpWorkspace::new();
        workspace.set_warm_start(base.x.clone(), base.active_set.clone());
        for c in &rhs {
            let problem = QpProblem::new(&h, c)
                .expect("valid qp")
                .with_inequalities(&ineq, &zeros)
                .expect("shapes agree");
            std::hint::black_box(workspace.solve(&problem).expect("solvable"));
        }
    });
    kernels.push(kernel_entry("qp_warmstart_24x32", reps, median, min));

    kernels
}

/// Compares each current kernel's `min_ms` against its baseline
/// `min_ms`. Returns the regressed kernel names.
fn gate_against_baseline(
    current: &Json,
    baseline_text: &str,
    gate_pct: f64,
) -> Result<Vec<String>, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("unreadable baseline: {e}"))?;
    // Quick and full modes run different workload sizes under the same
    // kernel names; comparing across modes would gate nothing real.
    let base_mode = baseline.get("mode").and_then(Json::as_str).unwrap_or("?");
    let cur_mode = current.get("mode").and_then(Json::as_str).unwrap_or("?");
    if base_mode != cur_mode {
        return Err(format!(
            "baseline mode '{base_mode}' does not match current mode '{cur_mode}' — \
             regenerate the baseline in the same mode"
        ));
    }
    let base_kernels = baseline
        .get("kernels")
        .and_then(Json::as_array)
        .ok_or("baseline has no kernels array")?;
    let cur_kernels = current
        .get("kernels")
        .and_then(Json::as_array)
        .ok_or("current run has no kernels array")?;
    let mut regressed = Vec::new();
    for cur in cur_kernels {
        let name = cur
            .get("name")
            .and_then(Json::as_str)
            .ok_or("kernel entry without name")?;
        let cur_ms = cur
            .get("min_ms")
            .and_then(Json::as_f64)
            .ok_or("kernel entry without min_ms")?;
        let base = base_kernels
            .iter()
            .find(|k| k.get("name").and_then(Json::as_str) == Some(name));
        let Some(base_ms) = base.and_then(|k| k.get("min_ms")).and_then(Json::as_f64) else {
            println!("gate: {name}: no baseline entry, skipped");
            continue;
        };
        let limit = base_ms * (1.0 + gate_pct / 100.0);
        let delta_pct = (cur_ms / base_ms - 1.0) * 100.0;
        if cur_ms > limit {
            println!(
                "gate: {name}: REGRESSED {cur_ms:.3} ms vs baseline {base_ms:.3} ms ({delta_pct:+.1} %)"
            );
            regressed.push(name.to_string());
        } else {
            println!(
                "gate: {name}: ok {cur_ms:.3} ms vs baseline {base_ms:.3} ms ({delta_pct:+.1} %)"
            );
        }
    }
    // A baseline kernel absent from the current run means a rename or
    // removal silently dropped its coverage — fail so the baseline gets
    // refreshed in the same PR.
    for base in base_kernels {
        let name = base
            .get("name")
            .and_then(Json::as_str)
            .ok_or("baseline kernel entry without name")?;
        let still_present = cur_kernels
            .iter()
            .any(|k| k.get("name").and_then(Json::as_str) == Some(name));
        if !still_present {
            println!(
                "gate: {name}: MISSING from current run (renamed/removed kernel — refresh the baseline)"
            );
            regressed.push(format!("{name} (missing)"));
        }
    }
    Ok(regressed)
}

fn main() {
    let config = parse_args();
    eprintln!(
        "perf: mode={} cells={} ({} available threads)",
        config.mode,
        config.cells,
        Pool::available_parallelism()
    );

    let sim_start = Instant::now();
    let population = simulate_population(config.cells, 7);
    let times: Vec<f64> = (0..16).map(|i| i as f64 * 10.0).collect();
    eprintln!(
        "perf: simulated {}-cell population in {:.2} s",
        config.cells,
        sim_start.elapsed().as_secs_f64()
    );

    let phase_kernel = KernelEstimator::new(100)
        .expect("bins")
        .estimate(&population, &times)
        .expect("valid protocol");
    let passes: Vec<Vec<Json>> = (0..PASSES)
        .map(|_| {
            let mut pass = measure_kernels(&config, &population, &times);
            pass.extend(measure_solver_kernels(&config, &phase_kernel));
            pass
        })
        .collect();
    let kernels = fastest_pass(&passes);
    for k in &kernels {
        eprintln!(
            "perf: {} median {:.3} ms",
            k.get("name").and_then(Json::as_str).unwrap_or("?"),
            k.get("median_ms")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        );
    }

    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs() as f64)
        .unwrap_or(0.0);
    let git_commit = stamp::git_commit();
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(stamp::PERF_SCHEMA.into())),
        ("mode".into(), Json::Str(config.mode.into())),
        ("git_commit".into(), Json::Str(git_commit.clone())),
        ("unix_time_secs".into(), Json::Num(unix_secs)),
        (
            "threads_available".into(),
            Json::Num(Pool::available_parallelism() as f64),
        ),
        ("kernels".into(), Json::Arr(kernels)),
    ]);
    std::fs::write(&config.out, doc.render() + "\n").expect("writable output path");
    println!("wrote {}", config.out);

    if let Some(history_path) = &config.append_history {
        let medians: Vec<Json> = doc
            .get("kernels")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|k| {
                Json::Obj(vec![
                    (
                        "name".into(),
                        Json::Str(k.get("name").and_then(Json::as_str).unwrap_or("?").into()),
                    ),
                    (
                        "median_ms".into(),
                        Json::Num(
                            k.get("median_ms")
                                .and_then(Json::as_f64)
                                .unwrap_or(f64::NAN),
                        ),
                    ),
                ])
            })
            .collect();
        let entry = Json::Obj(vec![
            ("git_commit".into(), Json::Str(git_commit)),
            ("unix_time_secs".into(), Json::Num(unix_secs)),
            ("mode".into(), Json::Str(config.mode.into())),
            // Per-entry thread count: history entries from different
            // machines (1-CPU CI container vs a wide dev box) are only
            // comparable within the same width, so every entry carries
            // its own.
            (
                "threads_available".into(),
                Json::Num(Pool::available_parallelism() as f64),
            ),
            ("kernels".into(), Json::Arr(medians)),
        ]);
        stamp::append_history(std::path::Path::new(history_path), entry)
            .expect("writable history path");
        println!("appended history entry to {history_path}");
    }

    if let Some(baseline_path) = &config.baseline {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perf: cannot read baseline {baseline_path}: {e}");
                std::process::exit(1);
            }
        };
        match gate_against_baseline(&doc, &text, config.gate_pct) {
            Ok(regressed) if regressed.is_empty() => {
                println!(
                    "gate: all kernels within {:.0} % of baseline",
                    config.gate_pct
                );
            }
            Ok(regressed) => {
                eprintln!(
                    "perf: {} kernel(s) regressed more than {:.0} %: {}",
                    regressed.len(),
                    config.gate_pct,
                    regressed.join(", ")
                );
                std::process::exit(1);
            }
            Err(msg) => {
                eprintln!("perf: {msg}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCH.json`-shaped document whose kernels have the given
    /// median and minimum.
    fn doc_with_median(mode: &str, kernels: &[(&str, f64, f64)]) -> Json {
        Json::Obj(vec![
            ("mode".into(), Json::Str(mode.into())),
            (
                "kernels".into(),
                Json::Arr(
                    kernels
                        .iter()
                        .map(|&(name, median, min)| kernel_entry(name, 5, median, min))
                        .collect(),
                ),
            ),
        ])
    }

    /// A `BENCH.json`-shaped document whose kernels have median = min.
    fn doc(mode: &str, kernels: &[(&str, f64)]) -> Json {
        let kernels: Vec<_> = kernels.iter().map(|&(n, ms)| (n, ms, ms)).collect();
        doc_with_median(mode, &kernels)
    }

    #[test]
    fn gate_flags_a_kernel_at_twice_its_baseline() {
        let baseline = doc("quick", &[("a", 1.0), ("b", 2.0)]).render();
        let current = doc("quick", &[("a", 2.0), ("b", 2.0)]);
        let regressed = gate_against_baseline(&current, &baseline, 25.0).unwrap();
        assert_eq!(regressed, vec!["a".to_string()]);
    }

    #[test]
    fn gate_passes_kernels_within_the_bound() {
        let baseline = doc("quick", &[("a", 1.0), ("b", 2.0)]).render();
        let current = doc("quick", &[("a", 1.24), ("b", 1.0)]);
        let regressed = gate_against_baseline(&current, &baseline, 25.0).unwrap();
        assert!(regressed.is_empty(), "{regressed:?}");
    }

    #[test]
    fn gate_compares_the_minimum_not_the_median() {
        // A median at 2× with the fastest repetition inside the bound is
        // interference, not a regression.
        let baseline = doc("quick", &[("a", 1.0)]).render();
        let current = doc_with_median("quick", &[("a", 2.0, 1.2)]);
        let regressed = gate_against_baseline(&current, &baseline, 25.0).unwrap();
        assert!(regressed.is_empty(), "{regressed:?}");
    }

    #[test]
    fn gate_reports_a_baseline_kernel_missing_from_the_run() {
        let baseline = doc("quick", &[("a", 1.0), ("gone", 1.0)]).render();
        let current = doc("quick", &[("a", 1.0)]);
        let regressed = gate_against_baseline(&current, &baseline, 25.0).unwrap();
        assert_eq!(regressed, vec!["gone (missing)".to_string()]);
    }

    #[test]
    fn gate_rejects_a_mode_mismatch() {
        let baseline = doc("full", &[("a", 1.0)]).render();
        let current = doc("quick", &[("a", 1.0)]);
        assert!(gate_against_baseline(&current, &baseline, 25.0).is_err());
    }
}
