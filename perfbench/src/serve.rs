//! The `serve` workload: an in-process `Server` with the shipped
//! defaults, driven in a closed loop by two keep-alive clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cellsync::{
    BootstrapSpec, DeconvolutionConfig, Deconvolver, FitRequest, FitResponse, FitWorkspace,
};
use cellsync_bench::experiments::{synthetic_genome, GenomeBatch};
use cellsync_popsim::CellCycleParams;
use cellsync_serve::{Client, Family, FamilyRegistry, Server, ServerConfig};
use cellsync_wire::{BandWire, BootstrapWire, ErrorWire, FitRequestWire, FitResponseWire, Json};

use crate::probes::{self, BoxError, Series};
use crate::report::{mean, median, percentile, sorted, time_us, Report, Window};
use crate::trace::Tracer;

/// Closed-loop clients: analysis pipelines wait for each reply.
const CLIENTS: usize = 2;
/// The quick registry's families, requested most of the time.
const HOT: [&str; 3] = ["fixed", "gcv", "smooth"];
/// Rarely requested extra families (distinct fixed λ). With the hot
/// three they outnumber the default engine-cache capacity, so the cache
/// evicts and rebuilds engines on the request path.
const TAIL: usize = 12;
/// Percent of requests that are heavy (σ plus a bootstrap band): a few
/// percent, more than 1 % so that the p99 falls among them and the
/// light requests queued behind them.
const HEAVY_PCT: u64 = 3;
/// Percent of requests sent to a tail family.
const TAIL_PCT: u64 = 6;
/// The bootstrap request `docs/SERVING.md` documents.
const BOOT_REPLICATES: usize = 50;
const BOOT_GRID: usize = 100;
/// Synthetic genes the requests draw from.
const POOL: usize = 512;
const NOISE: f64 = 0.08;
const SETUP_REPS: usize = 25;
/// Plan indices scored for NRMSE (direct library fits, identical to the
/// served ones by the bit-identity check). Fixed, so the scored sample
/// does not depend on how many requests the window completed.
const SCORED: usize = 2048;
/// Request/response pairs the traced run's wire probe times.
const WIRE_PROBE: usize = 256;
/// Tracing alternates on and off in slices of this length.
const TRACE_SLICE_S: f64 = 0.5;
/// The quick registry's population, replicated to time its popsim steps.
const QUICK_CELLS: usize = 400;
const QUICK_BINS: usize = 32;
const QUICK_TIMES: usize = 10;

fn tail_name(k: usize) -> String {
    format!("tail{k:02}")
}

/// SplitMix64: the per-request hash the traffic mix is drawn from.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Request `index` of the traffic, and the gene whose truth it carries.
fn traffic(index: usize, seed: u64, genes: &GenomeBatch) -> (usize, FitRequestWire) {
    let h = mix(seed ^ mix(index as u64));
    let gene = ((h >> 20) % POOL as u64) as usize;
    let kind = h % 100;
    let heavy = kind < HEAVY_PCT;
    let family = if heavy {
        "gcv".to_string()
    } else if kind < HEAVY_PCT + TAIL_PCT {
        tail_name(((h >> 8) % TAIL as u64) as usize)
    } else {
        HOT[index % HOT.len()].to_string()
    };
    let sigma = heavy || (h >> 16) & 1 == 1;
    let wire = FitRequestWire {
        family,
        series: genes.series[gene].clone(),
        sigmas: sigma.then(|| genes.sigmas[gene].clone()),
        lambda: None,
        bootstrap: heavy.then_some(BootstrapWire {
            replicates: BOOT_REPLICATES,
            grid: BOOT_GRID,
            seed: h >> 32,
        }),
        deadline_ms: None,
    };
    (gene, wire)
}

/// The library request the server builds from a wire request.
fn library_request(w: &FitRequestWire) -> FitRequest {
    let mut request = FitRequest::new(w.series.clone());
    if let Some(s) = &w.sigmas {
        request = request.with_sigmas(s.clone());
    }
    if let Some(b) = &w.bootstrap {
        request = request.with_bootstrap(BootstrapSpec::new(b.replicates, b.grid, b.seed));
    }
    request
}

/// The quick registry plus the tail families on its kernel.
fn registry(seed: u64) -> Result<FamilyRegistry, BoxError> {
    let mut registry = FamilyRegistry::quick(seed)?;
    let base = registry
        .get("fixed")
        .ok_or("quick registry has no 'fixed' family")?;
    let (kernel, basis) = (base.kernel().clone(), base.config().basis_size());
    for k in 0..TAIL {
        let config = DeconvolutionConfig::builder()
            .basis_size(basis)
            .lambda(10f64.powf(-5.0 + 0.25 * k as f64))
            .build()?;
        registry.insert(Family::new(tail_name(k), kernel.clone(), config));
    }
    Ok(registry)
}

/// What a 200 carried, reduced to a digest of every value's bits (so a
/// window's replies need no memory for their bodies).
fn digest(w: &FitResponseWire) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for shift in (0..64).step_by(8) {
            h ^= (x >> shift) & 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let floats = |v: &[f64], eat: &mut dyn FnMut(u64)| {
        eat(v.len() as u64);
        v.iter().for_each(|x| eat(x.to_bits()));
    };
    floats(&w.alpha, &mut eat);
    floats(&w.predicted, &mut eat);
    floats(&[w.lambda, w.weighted_sse], &mut eat);
    if let Some(band) = &w.band {
        floats(&band.mean, &mut eat);
        floats(&band.std, &mut eat);
        eat(band.replicates as u64);
    }
    h
}

/// The wire response a direct library fit yields, built field by field
/// from the library's public result.
fn response_wire(direct: &FitResponse) -> FitResponseWire {
    let fit = direct.result();
    FitResponseWire {
        alpha: fit.alpha().to_vec(),
        lambda: fit.lambda(),
        predicted: fit.predicted().to_vec(),
        weighted_sse: fit.weighted_sse(),
        band: direct.band().map(|b| BandWire {
            mean: b.mean.clone(),
            std: b.std.clone(),
            replicates: b.replicates,
        }),
    }
}

/// One client request's outcome.
struct Outcome {
    index: usize,
    latency_us: f64,
    traced: bool,
    /// The digest of a decoded 200, or why the request failed.
    reply: Result<u64, String>,
}

/// One closed-loop client: sends the next request of the traffic as
/// soon as the previous reply has arrived and been decoded.
fn client_loop(
    addr: &str,
    window: Window,
    next: &AtomicUsize,
    body_for: &(dyn Fn(usize) -> String + Sync),
    tracer: &mut Tracer,
    tracing: bool,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.push(Outcome {
                index: next.fetch_add(1, Ordering::Relaxed),
                latency_us: 0.0,
                traced: false,
                reply: Err(format!("connect: {e}")),
            });
            return out;
        }
    };
    let _ = client.set_read_timeout(Some(Duration::from_secs(60)));
    while !window.done() {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let body = body_for(index);
        let traced = tracing && (window.elapsed_s() / TRACE_SLICE_S) as usize % 2 == 1;
        tracer.set_enabled(traced);
        let t = Instant::now();
        let reply = tracer.span("serve.request", |_| client.post("/fit", &body));
        let latency_us = t.elapsed().as_secs_f64() * 1e6;
        let broken = reply.is_err();
        let reply = match reply {
            Ok((200, text)) => FitResponseWire::decode(&text)
                .map(|w| digest(&w))
                .map_err(|e| format!("200 did not decode: {e}")),
            Ok((status, text)) => Err(match ErrorWire::decode(&text) {
                Ok(envelope) => format!("HTTP {status} {}: {}", envelope.code, envelope.message),
                Err(_) => format!("HTTP {status} without a structured error envelope: {text}"),
            }),
            Err(e) => Err(format!("transport error: {e}")),
        };
        out.push(Outcome {
            index,
            latency_us,
            traced,
            reply,
        });
        if broken {
            break;
        }
    }
    tracer.set_enabled(false);
    out
}

/// Reads `/stats` as a JSON object by field name.
fn fetch_stats(addr: &str) -> Result<Json, BoxError> {
    let mut client = Client::connect(addr)?;
    let (status, body) = client.get("/stats")?;
    if status != 200 {
        return Err(format!("/stats: HTTP {status}").into());
    }
    Ok(Json::parse(&body)?)
}

/// A `/stats` counter by path; an absent counter is "not reported".
fn stat(stats: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(stats, |node, key| node.get(key))
        .and_then(Json::as_f64)
}

/// Direct library fits against the registry's families, one engine and
/// workspace per family, built on first use.
struct Direct<'a> {
    families: &'a FamilyRegistry,
    engines: Vec<(String, Deconvolver, FitWorkspace)>,
}

impl Direct<'_> {
    fn fit(&mut self, w: &FitRequestWire) -> Result<FitResponse, BoxError> {
        let slot = match self
            .engines
            .iter()
            .position(|(name, _, _)| *name == w.family)
        {
            Some(slot) => slot,
            None => {
                let family = self.families.get(&w.family).ok_or("unknown family")?;
                let engine = family.build_engine()?.with_threads(1);
                self.engines
                    .push((w.family.clone(), engine, FitWorkspace::new()));
                self.engines.len() - 1
            }
        };
        let (_, engine, workspace) = &mut self.engines[slot];
        Ok(engine.fit_request_with(workspace, &library_request(w))?)
    }
}

/// Runs `serve`.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), BoxError> {
    let traced = tracer.enabled();
    let mut totals = Vec::new();
    let mut running: Option<(Server, FamilyRegistry)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, _)) = running.take() {
            server.shutdown();
            server.join();
        }
        let t = Instant::now();
        let families = tracer.span("serve.registry", |_| registry(seed))?;
        let server = tracer.span("serve.start", |_| {
            Server::start(families.clone(), ServerConfig::default())
        })?;
        totals.push(t.elapsed().as_secs_f64());
        running = Some((server, families));
    }
    let (server, families) = running.expect("at least one set-up");
    report.e2e.insert("setup_s", median(&totals));
    let addr = server.addr().to_string();
    let kernel = families
        .get("fixed")
        .expect("registered above")
        .kernel()
        .clone();
    let genes = synthetic_genome(&kernel, POOL, NOISE, seed.wrapping_add(57))?;
    let wire_for = |i: usize| traffic(i, seed, &genes).1;
    eprintln!(
        "perfbench: set-up {:.4}s (median of {SETUP_REPS}), server at {addr}",
        report.e2e["setup_s"]
    );

    let next = AtomicUsize::new(0);
    let window = Window::open(seconds);
    let window_span = tracer.enter("bench.window");
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut client_traces = Vec::new();
    let body_for = |i: usize| wire_for(i).encode();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (addr, next, body_for) = (&addr, &next, &body_for);
                let mut t = tracer.fork();
                scope.spawn(move || {
                    let out = client_loop(addr, window, next, body_for, &mut t, traced);
                    (out, t)
                })
            })
            .collect();
        for handle in handles {
            let (out, t) = handle.join().expect("client thread panicked");
            outcomes.extend(out);
            client_traces.push(t);
        }
    });
    let wall = window.elapsed_s();
    for t in client_traces {
        tracer.absorb(t, window_span);
    }
    tracer.exit(window_span);
    let stats = tracer.span("serve.stats", |_| fetch_stats(&addr));
    server.shutdown();
    server.join();
    let stats = stats?;

    // Correctness: every 200 is bit-identical to a direct library fit
    // of the same request. Anything else (a non-200, structured or not,
    // or a transport error) is a failure.
    let mut direct = Direct {
        families: &families,
        engines: Vec::new(),
    };
    let (mut direct_us, mut boot_ms) = (Vec::new(), Vec::new());
    let mut ok = [0usize; 2];
    let mut probe_pairs = Vec::new();
    outcomes.sort_by_key(|o| o.index);
    tracer.span("bench.verify", |_| -> Result<(), BoxError> {
        for o in &outcomes {
            report.attempted += 1;
            let served = match &o.reply {
                Ok(served) => *served,
                Err(e) => {
                    report.fail(|| format!("request {}: {e}", o.index));
                    continue;
                }
            };
            let w = wire_for(o.index);
            let t = Instant::now();
            let fit = direct.fit(&w)?;
            let dt = t.elapsed().as_secs_f64();
            direct_us.push(dt * 1e6);
            if w.bootstrap.is_some() {
                boot_ms.push(dt * 1e3);
            }
            let expected = response_wire(&fit);
            if digest(&expected) == served {
                ok[usize::from(o.traced)] += 1;
                if probe_pairs.len() < WIRE_PROBE {
                    probe_pairs.push((w, expected));
                }
            } else {
                report.fail(|| {
                    format!(
                        "request {} ({}): not bit-identical to the library fit",
                        o.index, w.family
                    )
                });
            }
        }
        Ok(())
    })?;
    let verified = ok[0] + ok[1];
    eprintln!(
        "perfbench: {} requests in {wall:.2}s, {verified} verified bit-identical",
        outcomes.len()
    );

    let nrmse = tracer.span("bench.score", |_| -> Result<Vec<f64>, BoxError> {
        let mut scores = Vec::new();
        for i in 0..SCORED {
            let (gene, wire) = traffic(i, seed, &genes);
            let fit = direct.fit(&wire)?;
            let truth = &genes.truths[gene];
            scores.push(truth.nrmse(&fit.result().profile(truth.len())?)?);
        }
        Ok(sorted(scores))
    })?;

    let latencies = sorted(outcomes.iter().map(|o| o.latency_us).collect());
    let client_p50_us = percentile(&latencies, 0.5);
    report.e2e.insert("latency_p50_us", client_p50_us);
    report.e2e.insert("nrmse_p50", percentile(&nrmse, 0.5));
    report.e2e.insert("nrmse_p90", percentile(&nrmse, 0.9));
    // Traced runs alternate tracing by slice, and report the throughput
    // of their untraced slices; untraced runs have only those.
    let halves = if traced {
        slice_time(wall)
    } else {
        [wall, 0.0]
    };
    let rate = |h: usize| ok[h] as f64 / halves[h].max(1e-9);
    report.e2e.insert("series_per_s", rate(0));

    if traced {
        report.set_layer("trace.overhead_frac", 1.0 - rate(1) / rate(0));
        report.set_layer("core.bootstrap_ms_p50", median(&boot_ms));
        report.set_layer("serve.latency_p99_us", percentile(&latencies, 0.99));
        // Client p50 minus the p50 of the same requests fitted directly
        // through the library: what HTTP, wire, admission and the batch
        // queue add. (`/stats` percentiles are log₂ bucket bounds, too
        // coarse to subtract from.)
        report.set_layer(
            "serve.client_gap_p50_us",
            client_p50_us - median(&direct_us),
        );
        serve_layers(report, &stats);
        wire_probe(tracer, &probe_pairs, report);
        setup_probe(tracer, &families, seed, report)?;
        let engine = families
            .get("gcv")
            .ok_or("no 'gcv' family")?
            .build_engine()?
            .with_threads(1);
        let sample: Vec<Series<'_>> = (0..128)
            .map(|k| {
                (
                    genes.series[k].as_slice(),
                    k.is_multiple_of(2).then(|| genes.sigmas[k].as_slice()),
                )
            })
            .collect();
        probes::design_probe(tracer, &engine, report);
        probes::fit_probe(tracer, &engine, &sample, report)?;
        probes::qp_probe(tracer, &engine, &sample[..12], report)?;
    }
    Ok(())
}

/// Seconds the untraced (even) and traced (odd) slices of a traced
/// run cover in a window of `wall` seconds.
fn slice_time(wall: f64) -> [f64; 2] {
    let mut halves = [0.0; 2];
    let mut start = 0.0;
    let mut k = 0;
    while start < wall {
        halves[k % 2] += TRACE_SLICE_S.min(wall - start);
        start += TRACE_SLICE_S;
        k += 1;
    }
    halves
}

/// Per-layer numbers the server reports in `/stats`.
fn serve_layers(report: &mut Report, stats: &Json) {
    let mut missing = Vec::new();
    let mut take = |name: &'static str, value: Option<f64>| match value {
        Some(v) => report.set_layer(name, v),
        None => missing.push(name),
    };
    let fit = stats
        .get("endpoints")
        .and_then(Json::as_array)
        .and_then(|eps| {
            eps.iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some("fit"))
        });
    let fit_stat = |key: &str| fit.and_then(|e| e.get(key)).and_then(Json::as_f64);
    take("serve.fit_p50_us", fit_stat("p50_us"));
    take("serve.fit_p99_us", fit_stat("p99_us"));
    let batches = stat(stats, &["batch", "batches"]);
    let batched = stat(stats, &["batch", "batched_requests"]);
    take(
        "serve.mean_batch",
        batches
            .zip(batched)
            .map(|(b, r)| if b > 0.0 { r / b } else { 0.0 }),
    );
    take("serve.max_batch", stat(stats, &["batch", "max_batch"]));
    take("serve.shed", stat(stats, &["resilience", "shed"]));
    take(
        "serve.deadline_exceeded",
        stat(stats, &["resilience", "deadline_exceeded"]),
    );
    take(
        "serve.panics_caught",
        stat(stats, &["resilience", "panics_caught"]),
    );
    let hits = stat(stats, &["cache", "hits"]);
    let misses = stat(stats, &["cache", "misses"]);
    take(
        "session.hit_rate",
        hits.zip(misses).map(|(h, m)| h / (h + m).max(1.0)),
    );
    take("session.misses", misses);
    take("session.evictions", stat(stats, &["cache", "evictions"]));
    if !missing.is_empty() {
        eprintln!("perfbench: /stats does not report {missing:?} (read as 0)");
    }
}

/// Wire codec costs on the workload's own payloads: requests it sent
/// and the (verified bit-identical) responses they got.
fn wire_probe(
    tracer: &mut Tracer,
    pairs: &[(FitRequestWire, FitResponseWire)],
    report: &mut Report,
) {
    let (mut req_enc, mut req_dec, mut resp_enc, mut resp_dec) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    tracer.span("wire.probe", |_| {
        for (request, response) in pairs {
            let (req_text, resp_text) = (request.encode(), response.encode());
            req_bytes.push(req_text.len() as f64);
            resp_bytes.push(resp_text.len() as f64);
            req_enc.push(time_us(9, || {
                std::hint::black_box(request.encode());
            }));
            req_dec.push(time_us(9, || {
                std::hint::black_box(FitRequestWire::decode(&req_text).expect("round-trips"));
            }));
            resp_enc.push(time_us(9, || {
                std::hint::black_box(response.encode());
            }));
            resp_dec.push(time_us(9, || {
                std::hint::black_box(FitResponseWire::decode(&resp_text).expect("round-trips"));
            }));
        }
    });
    report.set_layer("wire.req_encode_us", median(&req_enc));
    report.set_layer("wire.req_decode_us", median(&req_dec));
    report.set_layer("wire.resp_encode_us", median(&resp_enc));
    report.set_layer("wire.resp_decode_us", median(&resp_dec));
    report.set_layer("wire.req_bytes", mean(&req_bytes));
    report.set_layer("wire.resp_bytes", mean(&resp_bytes));
}

/// Set-up layers of the serving stack: the quick registry's population
/// steps (replicated, since `FamilyRegistry::quick` runs them inside
/// one call) and the per-family engine build a cache miss pays.
fn setup_probe(
    tracer: &mut Tracer,
    families: &FamilyRegistry,
    seed: u64,
    report: &mut Report,
) -> Result<(), BoxError> {
    let times: Vec<f64> = (0..QUICK_TIMES)
        .map(|i| 150.0 * i as f64 / (QUICK_TIMES - 1) as f64)
        .collect();
    let params = CellCycleParams::caulobacter()?;
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let (_, mut times) =
            probes::simulate_kernel(tracer, &params, QUICK_CELLS, QUICK_BINS, &times, seed)?;
        let builds: Vec<f64> = families
            .names()
            .iter()
            .map(|name| -> Result<f64, BoxError> {
                let family = families.get(name).expect("listed name");
                let t = Instant::now();
                tracer.span("core.engine_build", |_| family.build_engine())?;
                Ok(t.elapsed().as_secs_f64())
            })
            .collect::<Result<_, _>>()?;
        times.engine_build_s = median(&builds);
        setups.push(times);
    }
    probes::report_setup_layers(report, &setups);
    Ok(())
}
