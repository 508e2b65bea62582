//! `loadgen` — localhost load driver for the cellsync serving stack.
//!
//! Spawns an in-process [`cellsync_serve::Server`] (or targets a running
//! one via `--addr`), fires a mixed-family fit workload at configurable
//! concurrency over persistent keep-alive connections, and writes
//! throughput (genes/s), exact client-side latency percentiles, a
//! per-error-code breakdown, and the server's cache/batch/resilience
//! counters into a `cellsync-serve-bench/2` `BENCH.json` document.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--concurrency N]
//!         [--families a,b,c] [--out PATH] [--min-hit-rate F] [--verify]
//!         [--full] [--seed N] [--series-len N]
//!         [--linger-us N] [--max-batch N] [--cache-cap N]
//!         [--chaos] [--fault-rate PCT]
//! ```
//!
//! * Default mode builds the quick in-process registry (400 cells, 32
//!   bins, 10 times, 8 basis functions); `--full` switches to the
//!   paper-scale standard registry. `--addr` skips the in-process server
//!   and drives an external `served` instance instead.
//! * Every 10th request is σ-weighted and asks for a bootstrap band (50
//!   replicates on 100 phase points); the rest are plain fits.
//! * `--verify` re-runs every response's request through the library
//!   directly (after the timed window) and fails unless payloads, band
//!   included, are bit-identical — only available in-process, where the
//!   registry is known.
//! * `--min-hit-rate F` exits non-zero when the server's engine-cache
//!   hit rate `hits / (hits + misses)` falls below `F` — the CI gate for
//!   the repeated-key workload.
//! * `--chaos` turns the run into the deterministic chaos harness: a
//!   seeded [`cellsync_serve::FaultPlan`] injects faults (malformed
//!   payloads, slow writes, drop-after-send, fits against a poisoned
//!   panicking family) into `--fault-rate`% of requests. The run fails
//!   unless the server survives (post-run `/healthz` + graceful
//!   shutdown), every request resolves to success or a structured
//!   error envelope, and every *clean* response is bit-identical to a
//!   direct library fit (`--chaos` implies `--verify`, so it is
//!   in-process only).
//!
//! Exit status is non-zero on any unexpected request outcome, any
//! verification mismatch, or a missed hit-rate gate, so CI can treat
//! the binary as a smoke test.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cellsync::{BootstrapSpec, Deconvolver, FitRequest};
use cellsync_bench::stamp;
use cellsync_serve::{Client, FamilyRegistry, Fault, FaultPlan, Server, ServerConfig};
use cellsync_wire::{BootstrapWire, ErrorWire, FitRequestWire, FitResponseWire, Json, StatsWire};

/// Schema tag of the serving benchmark document.
const SCHEMA: &str = "cellsync-serve-bench/2";

/// The slow-write fault's mid-body pause. Longer than the server's
/// 250 ms socket-timeout poll (so the stall is observed) and far
/// shorter than its stall budget (so the request must still succeed).
const SLOW_WRITE_PAUSE: Duration = Duration::from_millis(400);

#[derive(Debug, Clone)]
struct Args {
    addr: Option<String>,
    requests: usize,
    concurrency: usize,
    families: Vec<String>,
    out: String,
    min_hit_rate: Option<f64>,
    verify: bool,
    full: bool,
    seed: u64,
    series_len: Option<usize>,
    linger_us: u64,
    max_batch: usize,
    cache_cap: usize,
    chaos: bool,
    fault_rate: u8,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            addr: None,
            requests: 1_000,
            concurrency: 4,
            families: vec!["fixed".into(), "gcv".into(), "smooth".into()],
            out: "BENCH.json".to_string(),
            min_hit_rate: None,
            verify: false,
            full: false,
            seed: 42,
            series_len: None,
            linger_us: 2_000,
            max_batch: 64,
            cache_cap: 8,
            chaos: false,
            fault_rate: 20,
        }
    }
}

fn usage() -> String {
    "usage: loadgen [--addr HOST:PORT] [--requests N] [--concurrency N] \
     [--families a,b,c] [--out PATH] [--min-hit-rate F] [--verify] [--full] \
     [--seed N] [--series-len N] [--linger-us N] [--max-batch N] [--cache-cap N] \
     [--chaos] [--fault-rate PCT]"
        .to_string()
}

fn parse<T: std::str::FromStr>(text: &str, name: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{name}: cannot parse '{text}'"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--requests" => args.requests = parse(&value("--requests")?, "--requests")?,
            "--concurrency" => {
                args.concurrency = parse(&value("--concurrency")?, "--concurrency")?;
            }
            "--families" => {
                args.families = value("--families")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            "--out" => args.out = value("--out")?,
            "--min-hit-rate" => {
                args.min_hit_rate = Some(parse(&value("--min-hit-rate")?, "--min-hit-rate")?);
            }
            "--verify" => args.verify = true,
            "--full" => args.full = true,
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--series-len" => {
                args.series_len = Some(parse(&value("--series-len")?, "--series-len")?);
            }
            "--linger-us" => args.linger_us = parse(&value("--linger-us")?, "--linger-us")?,
            "--max-batch" => args.max_batch = parse(&value("--max-batch")?, "--max-batch")?,
            "--cache-cap" => args.cache_cap = parse(&value("--cache-cap")?, "--cache-cap")?,
            "--chaos" => args.chaos = true,
            "--fault-rate" => args.fault_rate = parse(&value("--fault-rate")?, "--fault-rate")?,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown flag '{other}': {}", usage())),
        }
    }
    if args.requests == 0 || args.concurrency == 0 || args.families.is_empty() {
        return Err("--requests, --concurrency, and --families must be non-empty".to_string());
    }
    if args.chaos {
        if args.addr.is_some() {
            return Err(
                "--chaos needs the in-process poisoned family and registry; it cannot be \
                 combined with --addr"
                    .to_string(),
            );
        }
        // Clean-request bit-identity is part of the chaos contract.
        args.verify = true;
    }
    if args.verify && args.addr.is_some() {
        return Err(
            "--verify needs the in-process registry; it cannot be combined with --addr".to_string(),
        );
    }
    Ok(args)
}

/// The deterministic synthetic series for request `index`: a smooth
/// strictly-positive curve whose phase and harmonics vary per request,
/// so batches are never degenerate repeats of one series.
fn series_for(index: usize, len: usize, seed: u64) -> Vec<f64> {
    let phase = 0.37 * index as f64 + 1e-3 * seed as f64;
    (0..len)
        .map(|j| {
            let t = j as f64 / len as f64;
            2.0 + 0.6 * (std::f64::consts::TAU * t + phase).sin()
                + 0.25 * (2.0 * std::f64::consts::TAU * t + 0.5 * phase).cos()
        })
        .collect()
}

/// Every `HEAVY_EVERY`-th request (index 0 included) asks for a
/// bootstrap band, so the replicate fan-out runs under the workload's
/// concurrency.
const HEAVY_EVERY: usize = 10;

/// The library request behind request `index`: a plain fit, or on every
/// [`HEAVY_EVERY`]-th index a σ-weighted fit with the documented
/// bootstrap spec (50 replicates, 100 grid points) seeded by the index.
/// The wire request and `--verify`'s replay are both built from it.
fn library_request(index: usize, len: usize, seed: u64) -> FitRequest {
    let request = FitRequest::new(series_for(index, len, seed));
    if !index.is_multiple_of(HEAVY_EVERY) {
        return request;
    }
    request
        .with_sigmas(vec![0.05; len])
        .with_bootstrap(BootstrapSpec::new(50, 100, index as u64))
}

fn wire_request_for(family: &str, index: usize, len: usize, seed: u64) -> FitRequestWire {
    let request = library_request(index, len, seed);
    FitRequestWire {
        family: family.to_string(),
        series: request.series().to_vec(),
        sigmas: request.sigmas().map(<[f64]>::to_vec),
        lambda: None,
        bootstrap: request.bootstrap().map(|b| BootstrapWire {
            replicates: b.replicates(),
            grid: b.grid(),
            seed: b.seed(),
        }),
        deadline_ms: None,
    }
}

fn wire_request(index: usize, families: &[String], len: usize, seed: u64) -> FitRequestWire {
    wire_request_for(&families[index % families.len()], index, len, seed)
}

#[derive(Default)]
struct WorkerOut {
    latencies_us: Vec<u64>,
    /// Successful (200) fits, whether or not their bodies are kept.
    ok: u64,
    /// `(request index, response body)` pairs kept for `--verify`.
    responses: Vec<(usize, String)>,
    /// Structured error envelopes by wire code (every non-200 with a
    /// decodable envelope lands here, expected or not).
    codes: HashMap<String, u64>,
    /// Drop-after-send faults: the response was abandoned by design.
    dropped: u64,
    /// Outcomes the run did not owe: unexpected statuses/codes,
    /// transport failures, undecodable error bodies.
    unexpected: u64,
    first_unexpected: Option<String>,
}

impl WorkerOut {
    /// Books a 200: count it, and keep the body for verification when
    /// asked (`ok` must not depend on `--verify` — a plain run still
    /// has to account for every success).
    fn book_ok(&mut self, index: usize, response: String, verify: bool) {
        self.ok += 1;
        if verify {
            self.responses.push((index, response));
        }
    }

    fn note_code(&mut self, code: &str) {
        *self.codes.entry(code.to_string()).or_insert(0) += 1;
    }

    fn note_unexpected(&mut self, detail: String) {
        self.unexpected += 1;
        if self.first_unexpected.is_none() {
            self.first_unexpected = Some(detail);
        }
    }

    /// Books a non-200 response: tally its structured code, and flag it
    /// if it has none or was not owed.
    fn book_error(&mut self, index: usize, status: u16, body: &str, owed: &[&str]) {
        match ErrorWire::decode(body) {
            Ok(envelope) => {
                self.note_code(&envelope.code);
                if !owed.contains(&envelope.code.as_str()) {
                    self.note_unexpected(format!(
                        "request {index}: HTTP {status}: {} ({})",
                        envelope.message, envelope.code
                    ));
                }
            }
            Err(_) => {
                self.note_unexpected(format!(
                    "request {index}: HTTP {status} without a structured error envelope: {body}"
                ));
            }
        }
    }
}

fn run_worker(
    addr: &str,
    args: &Args,
    series_len: usize,
    plan: Option<&FaultPlan>,
    next: &AtomicUsize,
) -> Result<WorkerOut, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut out = WorkerOut::default();
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= args.requests {
            return Ok(out);
        }
        let fault = plan.and_then(|p| p.fault_for(index as u64));
        match fault {
            None => {
                let body = wire_request(index, &args.families, series_len, args.seed).encode();
                let start = Instant::now();
                let (status, response) = client
                    .post("/fit", &body)
                    .map_err(|e| format!("request {index}: {e}"))?;
                let elapsed = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                out.latencies_us.push(elapsed);
                if status == 200 {
                    out.book_ok(index, response, args.verify);
                } else {
                    out.book_error(index, status, &response, &[]);
                }
            }
            Some(Fault::SlowWrite) => {
                // Slow-but-honest request on this keep-alive
                // connection: the server must answer it exactly like a
                // fast one, so it joins the verification set.
                let body = wire_request(index, &args.families, series_len, args.seed).encode();
                match client.request_slowly("POST", "/fit", &body, SLOW_WRITE_PAUSE) {
                    Ok((200, response)) => out.book_ok(index, response, args.verify),
                    Ok((status, response)) => out.book_error(index, status, &response, &[]),
                    Err(e) => out.note_unexpected(format!("slow request {index}: {e}")),
                }
            }
            Some(Fault::MalformedBody) => {
                // Garbage on a throwaway connection; owed a structured
                // 400 parse_error (the server closes the connection
                // after it — framing is unrecoverable).
                match Client::connect(addr) {
                    Ok(mut throwaway) => match throwaway.raw_roundtrip(b"%%not-http%%\r\n\r\n") {
                        Ok((400, response)) => {
                            out.book_error(index, 400, &response, &["parse_error"]);
                        }
                        Ok((status, response)) => {
                            out.book_error(index, status, &response, &[]);
                        }
                        Err(e) => out.note_unexpected(format!("malformed request {index}: {e}")),
                    },
                    Err(e) => out.note_unexpected(format!("malformed connect {index}: {e}")),
                }
            }
            Some(Fault::DropAfterSend) => {
                // Fire a real fit and vanish: the server owes nothing
                // but survival (checked at the end of the run).
                let body = wire_request(index, &args.families, series_len, args.seed).encode();
                match Client::connect(addr) {
                    Ok(mut throwaway) => {
                        if let Err(e) = throwaway.send_only("POST", "/fit", &body) {
                            out.note_unexpected(format!("drop request {index}: {e}"));
                        } else {
                            out.dropped += 1;
                        }
                    }
                    Err(e) => out.note_unexpected(format!("drop connect {index}: {e}")),
                }
            }
            Some(Fault::PanicFamily) => {
                // A fit against the poisoned family; owed a structured
                // 500 internal_panic on a surviving connection.
                let body = wire_request_for("poisoned", index, series_len, args.seed).encode();
                match client.post("/fit", &body) {
                    Ok((500, response)) => {
                        out.book_error(index, 500, &response, &["internal_panic"]);
                    }
                    Ok((status, response)) => out.book_error(index, status, &response, &[]),
                    Err(e) => out.note_unexpected(format!("poisoned request {index}: {e}")),
                }
            }
        }
    }
}

/// Exact percentile of a sorted latency sample (nearest-rank method).
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = (p * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Replays every recorded response's request ([`library_request`])
/// through the library directly and counts bit-exact mismatches of the
/// fit and, for bootstrap requests, of the band. The workload sends no
/// λ overrides, so one engine per family covers every request.
fn verify_responses(
    registry: &FamilyRegistry,
    args: &Args,
    series_len: usize,
    responses: &[(usize, String)],
) -> Result<u64, String> {
    let mut engines: HashMap<&str, Deconvolver> = HashMap::new();
    for name in &args.families {
        let family = registry
            .get(name)
            .ok_or_else(|| format!("family '{name}' missing from registry"))?;
        let engine = family
            .build_engine()
            .map_err(|e| format!("build '{name}': {e}"))?;
        engines.insert(family.name(), engine);
    }
    let mut mismatches = 0;
    for (index, body) in responses {
        let wire = FitResponseWire::decode(body)
            .map_err(|e| format!("response {index} did not decode: {e}"))?;
        let family = &args.families[index % args.families.len()];
        let response = engines[family.as_str()]
            .fit_request(&library_request(*index, series_len, args.seed))
            .map_err(|e| format!("direct fit {index}: {e}"))?;
        let direct = response.result();
        let same_band = match (&wire.band, response.band()) {
            (None, None) => true,
            (Some(served), Some(lib)) => {
                served.replicates == lib.replicates
                    && same_bits(&served.mean, &lib.mean)
                    && same_bits(&served.std, &lib.std)
            }
            _ => false,
        };
        let same = wire.lambda.to_bits() == direct.lambda().to_bits()
            && wire.weighted_sse.to_bits() == direct.weighted_sse().to_bits()
            && same_bits(&wire.alpha, direct.alpha())
            && same_bits(&wire.predicted, direct.predicted())
            && same_band;
        if !same {
            mismatches += 1;
            if mismatches == 1 {
                eprintln!("loadgen: request {index} ({family}) is not bit-identical");
            }
        }
    }
    Ok(mismatches)
}

/// Whether `a` and `b` hold the same values bit for bit.
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn fetch_stats(addr: &str) -> Result<StatsWire, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("stats connect: {e}"))?;
    let (status, body) = client.get("/stats").map_err(|e| format!("stats: {e}"))?;
    if status != 200 {
        return Err(format!("stats: HTTP {status}: {body}"));
    }
    StatsWire::decode(&body).map_err(|e| format!("stats decode: {e}"))
}

/// Silences the panic hook for the chaos harness's own injected
/// panics (the poisoned family) so a chaos run's stderr stays
/// readable; genuine panics still print.
fn quiet_injected_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("poisoned family fit"));
        if !injected {
            default_hook(info);
        }
    }));
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let plan = args
        .chaos
        .then(|| FaultPlan::new(args.seed, args.fault_rate));
    if args.chaos {
        quiet_injected_panics();
    }

    // In-process by default: build the registry, start the server on an
    // ephemeral port. With --addr, drive the external server instead.
    let mut in_process = None;
    let mut registry = None;
    let addr = match &args.addr {
        Some(addr) => addr.clone(),
        None => {
            let (cells, bins, times, basis) = if args.full {
                (20_000, 100, 11, 16)
            } else {
                (400, 32, 10, 8)
            };
            eprintln!(
                "loadgen: starting in-process server ({cells} cells, {bins} bins, {times} times)"
            );
            let mut built = FamilyRegistry::standard(cells, bins, times, basis, args.seed)
                .map_err(|e| format!("registry: {e}"))?;
            if args.chaos && !built.insert_poisoned_clone("fixed", "poisoned") {
                return Err("registry has no 'fixed' family to poison".to_string());
            }
            let server = Server::start(
                built.clone(),
                ServerConfig {
                    addr: "127.0.0.1:0".to_string(),
                    linger: Duration::from_micros(args.linger_us),
                    max_batch: args.max_batch,
                    cache_capacity: args.cache_cap,
                    ..ServerConfig::default()
                },
            )
            .map_err(|e| format!("server start: {e}"))?;
            let addr = server.addr().to_string();
            registry = Some(built);
            in_process = Some(server);
            addr
        }
    };
    // Series length must match the server's kernel: the registry's
    // sample-time count in-process, `--series-len` (default: the
    // standard `served` daemon's 11 times) externally.
    let series_len = args.series_len.unwrap_or_else(|| {
        registry.as_ref().map_or(11, |r| {
            r.get(&args.families[0])
                .map_or(11, |f| f.kernel().times().len())
        })
    });

    eprintln!(
        "loadgen: {} requests x {} workers -> {addr} (families: {}{})",
        args.requests,
        args.concurrency,
        args.families.join(","),
        if let Some(plan) = &plan {
            format!(
                ", chaos: {} planned faults at {}%",
                plan.planned_faults(args.requests as u64),
                plan.rate_pct()
            )
        } else {
            String::new()
        }
    );
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut workers: Vec<Result<WorkerOut, String>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.concurrency)
            .map(|_| scope.spawn(|| run_worker(&addr, &args, series_len, plan.as_ref(), &next)))
            .collect();
        for handle in handles {
            workers.push(handle.join().expect("worker panicked"));
        }
    });
    let wall = started.elapsed();

    let mut latencies = Vec::with_capacity(args.requests);
    let mut ok_responses = 0u64;
    let mut responses = Vec::new();
    let mut codes: HashMap<String, u64> = HashMap::new();
    let mut dropped = 0u64;
    let mut unexpected = 0u64;
    let mut first_unexpected = None;
    for worker in workers {
        let out = worker?;
        latencies.extend(out.latencies_us);
        ok_responses += out.ok;
        responses.extend(out.responses);
        for (code, count) in out.codes {
            *codes.entry(code).or_insert(0) += count;
        }
        dropped += out.dropped;
        unexpected += out.unexpected;
        if first_unexpected.is_none() {
            first_unexpected = out.first_unexpected;
        }
    }
    latencies.sort_unstable();
    let structured_errors: u64 = codes.values().sum();
    let wall_s = wall.as_secs_f64();
    let genes_per_s = if wall_s > 0.0 {
        latencies.len() as f64 / wall_s
    } else {
        0.0
    };
    let p50 = percentile(&latencies, 0.50);
    let p90 = percentile(&latencies, 0.90);
    let p99 = percentile(&latencies, 0.99);
    let max = latencies.last().copied().unwrap_or(0);

    let mismatches = if args.verify {
        let registry = registry.as_ref().expect("--verify implies in-process");
        verify_responses(registry, &args, series_len, &responses)?
    } else {
        0
    };

    // Survival probe: after the whole run (including every injected
    // fault) the server must still answer.
    let stats = fetch_stats(&addr)?;
    let lookups = stats.cache_hits + stats.cache_misses;
    let hit_rate = if lookups > 0 {
        stats.cache_hits as f64 / lookups as f64
    } else {
        0.0
    };

    let mut shutdown_clean = true;
    if let Some(server) = in_process {
        server.shutdown();
        server.join();
        shutdown_clean = true;
    }

    let mut code_fields: Vec<(String, Json)> = codes
        .iter()
        .map(|(code, count)| (code.clone(), Json::Num(*count as f64)))
        .collect();
    code_fields.sort_by(|a, b| a.0.cmp(&b.0));

    let mut doc_fields = vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("git_commit".into(), Json::Str(stamp::git_commit())),
        (
            "mode".into(),
            Json::Str(if args.addr.is_some() {
                "external".into()
            } else if args.chaos {
                "in-process-chaos".into()
            } else if args.full {
                "in-process-full".into()
            } else {
                "in-process-quick".into()
            }),
        ),
        ("requests".into(), Json::Num(args.requests as f64)),
        ("ok".into(), Json::Num(ok_responses as f64)),
        (
            "structured_errors".into(),
            Json::Num(structured_errors as f64),
        ),
        ("errors_by_code".into(), Json::Obj(code_fields)),
        ("dropped_by_design".into(), Json::Num(dropped as f64)),
        ("unexpected".into(), Json::Num(unexpected as f64)),
        ("concurrency".into(), Json::Num(args.concurrency as f64)),
        (
            "families".into(),
            Json::Arr(args.families.iter().map(|f| Json::Str(f.clone())).collect()),
        ),
        ("series_len".into(), Json::Num(series_len as f64)),
        ("verified".into(), Json::Bool(args.verify)),
        ("verify_mismatches".into(), Json::Num(mismatches as f64)),
        ("wall_s".into(), Json::Num(wall_s)),
        ("genes_per_s".into(), Json::Num(genes_per_s)),
        (
            "latency_us".into(),
            Json::Obj(vec![
                ("p50".into(), Json::Num(p50 as f64)),
                ("p90".into(), Json::Num(p90 as f64)),
                ("p99".into(), Json::Num(p99 as f64)),
                ("max".into(), Json::Num(max as f64)),
            ]),
        ),
        (
            "server".into(),
            Json::Obj(vec![
                ("cache_hits".into(), Json::Num(stats.cache_hits as f64)),
                ("cache_misses".into(), Json::Num(stats.cache_misses as f64)),
                ("cache_hit_rate".into(), Json::Num(hit_rate)),
                (
                    "cache_entries".into(),
                    Json::Num(stats.cache_entries as f64),
                ),
                ("batches".into(), Json::Num(stats.batches as f64)),
                (
                    "batched_requests".into(),
                    Json::Num(stats.batched_requests as f64),
                ),
                ("max_batch".into(), Json::Num(stats.max_batch as f64)),
                ("shed".into(), Json::Num(stats.shed as f64)),
                (
                    "deadline_exceeded".into(),
                    Json::Num(stats.deadline_exceeded as f64),
                ),
                (
                    "expired_in_queue".into(),
                    Json::Num(stats.expired_in_queue as f64),
                ),
                (
                    "panics_caught".into(),
                    Json::Num(stats.panics_caught as f64),
                ),
            ]),
        ),
    ];
    if let Some(plan) = &plan {
        doc_fields.push((
            "chaos".into(),
            Json::Obj(vec![
                ("seed".into(), Json::Num(plan.seed() as f64)),
                ("fault_rate_pct".into(), Json::Num(plan.rate_pct() as f64)),
                (
                    "planned_faults".into(),
                    Json::Num(plan.planned_faults(args.requests as u64) as f64),
                ),
            ]),
        ));
    }
    let doc = Json::Obj(doc_fields);
    std::fs::write(&args.out, doc.render() + "\n").map_err(|e| format!("{}: {e}", args.out))?;

    println!(
        "loadgen: {ok_responses} ok / {structured_errors} structured errors / {dropped} dropped \
         / {unexpected} unexpected of {} in {wall_s:.2}s -> {genes_per_s:.0} genes/s \
         (p50 {p50}us, p99 {p99}us), cache hit rate {:.1}% over {lookups} lookups, \
         {} batches (max {}), {} panics caught",
        args.requests,
        100.0 * hit_rate,
        stats.batches,
        stats.max_batch,
        stats.panics_caught,
    );
    println!("wrote {}", args.out);

    let mut ok = true;
    if unexpected > 0 {
        eprintln!(
            "loadgen: FAIL: {unexpected} unexpected outcomes ({})",
            first_unexpected.as_deref().unwrap_or("no detail captured")
        );
        ok = false;
    }
    let resolved = ok_responses + structured_errors + dropped + unexpected;
    if resolved != args.requests as u64 {
        eprintln!(
            "loadgen: FAIL: only {resolved} of {} requests accounted for",
            args.requests
        );
        ok = false;
    }
    if mismatches > 0 {
        eprintln!("loadgen: FAIL: {mismatches} responses differ from direct library fits");
        ok = false;
    } else if args.verify {
        println!(
            "loadgen: verified {} responses bit-identical to direct library fits",
            responses.len()
        );
    }
    if let Some(gate) = args.min_hit_rate {
        if hit_rate < gate {
            eprintln!(
                "loadgen: FAIL: cache hit rate {:.3} below the --min-hit-rate {gate} gate",
                hit_rate
            );
            ok = false;
        }
    }
    if let Some(plan) = &plan {
        if !shutdown_clean {
            eprintln!("loadgen: FAIL: server did not shut down cleanly after chaos");
            ok = false;
        }
        let expected_panics = (0..args.requests as u64)
            .filter(|&i| plan.fault_for(i) == Some(Fault::PanicFamily))
            .count() as u64;
        if expected_panics > 0 && stats.panics_caught == 0 {
            eprintln!("loadgen: FAIL: {expected_panics} panics were injected but none were caught");
            ok = false;
        }
        if ok {
            println!(
                "loadgen: chaos run survived: {} faults injected, {} panics caught, \
                 server answered /stats and shut down cleanly",
                plan.planned_faults(args.requests as u64),
                stats.panics_caught,
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
