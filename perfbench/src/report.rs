//! Metric names, the result line, and the small statistics helpers
//! every workload shares.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cellsync_wire::Json;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
/// Names and units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("series_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("nrmse_p50", "ratio"),
    ("nrmse_p90", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload does not exercise reports 0; `perfbench/README.md` says
/// which workload each metric is meant for.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("popsim.simulate_s", "s"),
    ("popsim.kernel_estimate_s", "s"),
    ("spline.design_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("core.fit_us_p50", "us"),
    ("core.fit_us_p99", "us"),
    ("core.fit_unit_us_p50", "us"),
    ("core.fit_weighted_us_p50", "us"),
    ("core.select_frac", "ratio"),
    ("core.select_points", "count"),
    ("core.positivity_active_frac", "ratio"),
    ("core.bootstrap_ms_p50", "ms"),
    ("opt.qp_cold_us_p50", "us"),
    ("opt.qp_warm_us_p50", "us"),
    ("opt.qp_iterations_cold", "count"),
    ("opt.qp_iterations_warm", "count"),
    ("opt.active_rows", "count"),
    ("linalg.weighted_gram_us", "us"),
    ("linalg.weighted_gram_flops_computed", "flop"),
    ("linalg.weighted_gram_bytes_computed", "B"),
    ("linalg.banded_chol_us", "us"),
    ("linalg.banded_chol_flops_computed", "flop"),
    ("linalg.banded_chol_bytes_computed", "B"),
    ("wire.req_encode_us", "us"),
    ("wire.req_decode_us", "us"),
    ("wire.resp_encode_us", "us"),
    ("wire.resp_decode_us", "us"),
    ("wire.req_bytes", "B"),
    ("wire.resp_bytes", "B"),
    ("serve.latency_p99_us", "us"),
    ("serve.fit_p50_us", "us"),
    ("serve.fit_p99_us", "us"),
    ("serve.client_gap_p50_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.max_batch", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.panics_caught", "count"),
    ("session.hit_rate", "ratio"),
    ("session.misses", "count"),
    ("session.evictions", "count"),
    ("mixture.fit_ms_p50.k2", "ms"),
    ("mixture.fit_ms_p50.k3", "ms"),
    ("mixture.fit_ms_p50.k5", "ms"),
    ("mixture.sweeps.k2", "count"),
    ("mixture.sweeps.k3", "count"),
    ("mixture.sweeps.k5", "count"),
    ("probe.known_failures", "count"),
    ("host.threads_available", "count"),
    ("host.effective_parallelism", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Series (or requests) attempted in the timed window.
    pub attempted: u64,
    /// Attempts that errored or failed a correctness check.
    pub failed: u64,
    first_failure: Option<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs only).
    pub layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one failed attempt, keeping the first reason for stderr.
    pub fn fail(&mut self, reason: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(reason());
        }
    }

    /// The first failure's reason, if any.
    pub fn first_failure(&self) -> Option<&str> {
        self.first_failure.as_deref()
    }

    /// Records a per-layer metric; the name must be in [`PER_LAYER`].
    pub fn set_layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.insert(name, value);
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every end-to-end metric (untraced)
    /// or every per-layer metric (traced). A metric a workload did not
    /// set reads 0.
    pub fn result_line(&self, traced: bool) -> String {
        let (names, values) = if traced {
            (PER_LAYER, &self.layer)
        } else {
            (END_TO_END, &self.e2e)
        };
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Nearest-rank percentile of an ascending sample (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (total order; NaN last).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of a sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Mean of a sample (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median wall time of `reps` calls of `f`, in microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Per-call wall time of a call too short to time alone, in
/// microseconds: the median over 5 batches of `calls` calls.
pub fn per_call_us(calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            time_us(1, || {
                for _ in 0..calls {
                    f();
                }
            }) / calls as f64
        })
        .collect();
    median(&batches)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// The host record: the thread count the OS offers, and the effective
/// parallelism two CPU-bound threads achieve (2 × one thread's time ÷
/// two concurrent threads' wall time; about 1 on a host that behaves
/// like one core, about 2 on two free cores).
pub fn host_record() -> (usize, f64) {
    fn spin() -> f64 {
        let mut x = 1.0f64;
        for i in 0..6_000_000u64 {
            x = std::hint::black_box(x * 1.000_000_1 + (i & 7) as f64 * 1e-9);
        }
        x
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let one = time_us(3, || {
        std::hint::black_box(spin());
    });
    let two = time_us(3, || {
        std::thread::scope(|s| {
            let a = s.spawn(spin);
            let b = s.spawn(spin);
            std::hint::black_box(a.join().expect("spin thread panicked"));
            std::hint::black_box(b.join().expect("spin thread panicked"));
        });
    });
    (threads, 2.0 * one / two.max(1e-9))
}

/// The timed window: rounds run until `seconds` have passed (at least
/// one round always runs, so every run has a sample).
#[derive(Debug, Clone, Copy)]
pub struct Window {
    start: Instant,
    length: Duration,
}

impl Window {
    /// Opens a window of `seconds`.
    pub fn open(seconds: f64) -> Self {
        Window {
            start: Instant::now(),
            length: Duration::from_secs_f64(seconds),
        }
    }

    /// Whether the window's time is up.
    pub fn done(&self) -> bool {
        self.start.elapsed() >= self.length
    }

    /// Seconds since the window opened.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
