//! The cellsync repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <genome|genome_fine|serve|mixture> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, measures the workload for
//! `--seconds`, checks every output, and prints one JSON result line
//! last on stdout: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`, which also writes its
//! spans to `$CARGO_TARGET_DIR/perfbench/`). Exits non-zero when any
//! check fails. `perfbench/README.md` explains the workloads and metrics.

mod genome;
mod mixture;
mod probes;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Report;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["genome", "genome_fine", "serve", "mixture"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Report, probes::BoxError> {
    let (threads, parallelism) = report::host_record();
    eprintln!("perfbench: host threads_available={threads} effective_parallelism={parallelism:.2}");
    let mut report = Report::default();
    report.set_layer("host.threads_available", threads as f64);
    report.set_layer("host.effective_parallelism", parallelism);
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let (seed, seconds) = (args.seed, args.seconds);
    let workload_span = tracer.enter("bench.workload");
    match args.workload.as_str() {
        "genome" => genome::run(&genome::GENOME, seed, seconds, &mut tracer, &mut report)?,
        "genome_fine" => genome::run(
            &genome::GENOME_FINE,
            seed,
            seconds,
            &mut tracer,
            &mut report,
        )?,
        "serve" => serve::run(seed, seconds, &mut tracer, &mut report)?,
        "mixture" => mixture::run(seed, seconds, &mut tracer, &mut report)?,
        other => unreachable!("parse_args accepted '{other}'"),
    }
    tracer.exit(workload_span);
    report.e2e.insert("peak_rss_mb", report::peak_rss_mb()?);
    if args.trace {
        let dir = PathBuf::from(
            std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "perfbench/target".into()),
        )
        .join("perfbench");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        std::fs::write(
            &path,
            tracer.to_json(&args.workload, args.seed).render() + "\n",
        )?;
        let layers: Vec<String> = tracer
            .self_ms_by_layer()
            .iter()
            .map(|(layer, ms)| format!("{layer}={ms:.1}"))
            .collect();
        eprintln!(
            "perfbench: self time (ms) {}; spans in {}",
            layers.join(" "),
            path.display()
        );
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            if let Some(reason) = report.first_failure() {
                eprintln!(
                    "perfbench: FAIL: {} of {} failed; first: {reason}",
                    report.failed, report.attempted
                );
            }
            println!("{}", report.result_line(args.trace));
            if report.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}
