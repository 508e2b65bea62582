//! End-to-end tests: a real server on an ephemeral port, a real TCP
//! client, and assertions that the wire responses are bit-identical to
//! direct library calls.

use std::time::Duration;

use cellsync::{Deconvolver, FitRequest, ForwardModel, PhaseProfile};
use cellsync_serve::{Client, FamilyRegistry, Server, ServerConfig};
use cellsync_wire::{ErrorWire, FitRequestWire, FitResponseWire, StatsWire};

fn quick_server(seed: u64) -> (Server, FamilyRegistry) {
    let registry = FamilyRegistry::quick(seed).expect("quick registry");
    let server = Server::start(
        registry.clone(),
        ServerConfig {
            linger: Duration::from_millis(1),
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    (server, registry)
}

fn test_series(registry: &FamilyRegistry) -> Vec<f64> {
    let kernel = registry.get("fixed").unwrap().kernel().clone();
    let truth =
        PhaseProfile::from_fn(100, |phi| 1.5 + (2.0 * std::f64::consts::PI * phi).sin()).unwrap();
    ForwardModel::new(kernel).predict(&truth).unwrap()
}

fn fit_body(family: &str, series: &[f64]) -> String {
    FitRequestWire {
        family: family.to_string(),
        series: series.to_vec(),
        sigmas: None,
        lambda: None,
        bootstrap: None,
        deadline_ms: None,
    }
    .encode()
}

#[test]
fn fit_response_is_bit_identical_to_direct_library_call() {
    let (server, registry) = quick_server(11);
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();

    for family in ["fixed", "gcv"] {
        let (status, body) = client.post("/fit", &fit_body(family, &series)).unwrap();
        assert_eq!(status, 200, "{family}: {body}");
        let wire = FitResponseWire::decode(&body).unwrap();

        let spec = registry.get(family).unwrap();
        let engine = Deconvolver::new(spec.kernel().clone(), spec.config().clone()).unwrap();
        let direct = engine
            .fit_request(&FitRequest::new(series.clone()))
            .unwrap();
        let direct = direct.result();

        assert_eq!(wire.alpha.len(), direct.alpha().len());
        for (served, lib) in wire.alpha.iter().zip(direct.alpha()) {
            assert_eq!(served.to_bits(), lib.to_bits(), "{family} alpha");
        }
        assert_eq!(wire.lambda.to_bits(), direct.lambda().to_bits());
        for (served, lib) in wire.predicted.iter().zip(direct.predicted()) {
            assert_eq!(served.to_bits(), lib.to_bits(), "{family} predicted");
        }
        assert_eq!(wire.weighted_sse.to_bits(), direct.weighted_sse().to_bits());
        assert!(wire.band.is_none());
    }
    server.shutdown();
    server.join();
}

#[test]
fn bootstrap_and_lambda_override_ride_the_wire() {
    let (server, registry) = quick_server(12);
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();

    let request = FitRequestWire {
        family: "gcv".to_string(),
        series: series.clone(),
        sigmas: Some(vec![0.05; series.len()]),
        lambda: Some(1e-3),
        bootstrap: Some(cellsync_wire::BootstrapWire {
            replicates: 4,
            grid: 20,
            seed: 9,
        }),
        deadline_ms: None,
    };
    let (status, body) = client.post("/fit", &request.encode()).unwrap();
    assert_eq!(status, 200, "{body}");
    let wire = FitResponseWire::decode(&body).unwrap();
    assert_eq!(wire.lambda, 1e-3, "λ override must pin the fit");
    let band = wire.band.expect("bootstrap band requested");
    assert_eq!(band.replicates, 4);
    assert_eq!(band.mean.len(), 20);

    // Bit-identical to the direct library bootstrap.
    let spec = registry.get("gcv").unwrap();
    let engine = Deconvolver::new(spec.kernel().clone(), spec.config().clone()).unwrap();
    let direct = engine
        .fit_request(
            &FitRequest::new(series.clone())
                .with_sigmas(vec![0.05; series.len()])
                .with_lambda(1e-3)
                .with_bootstrap(cellsync::BootstrapSpec::new(4, 20, 9)),
        )
        .unwrap();
    let direct_band = direct.band().unwrap();
    for (served, lib) in band.mean.iter().zip(&direct_band.mean) {
        assert_eq!(served.to_bits(), lib.to_bits());
    }
    for (served, lib) in band.std.iter().zip(&direct_band.std) {
        assert_eq!(served.to_bits(), lib.to_bits());
    }
}

#[test]
fn stats_count_requests_cache_hits_and_batches() {
    let (server, registry) = quick_server(13);
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();

    let n = 10;
    for _ in 0..n {
        let (status, _) = client.post("/fit", &fit_body("fixed", &series)).unwrap();
        assert_eq!(status, 200);
    }
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = StatsWire::decode(&body).unwrap();

    let fit = stats.endpoints.iter().find(|e| e.name == "fit").unwrap();
    assert_eq!(fit.requests, n);
    assert_eq!(fit.errors, 0);
    assert!(fit.p99_us >= fit.p50_us);
    // One cold build, then all hits.
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_hits, n - 1);
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.batched_requests, n);
    assert!(stats.batches >= 1 && stats.batches <= n);
    assert!(stats.max_batch >= 1);
}

#[test]
fn error_paths_use_stable_codes() {
    let (server, registry) = quick_server(14);
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();

    // Unknown family → 404 unknown_family.
    let (status, body) = client.post("/fit", &fit_body("nope", &series)).unwrap();
    assert_eq!(status, 404);
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "unknown_family");

    // Malformed JSON → 400 parse_error.
    let (status, body) = client.post("/fit", "{not json").unwrap();
    assert_eq!(status, 400);
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "parse_error");

    // Wrong-length series → 400 with the library's own code.
    let (status, body) = client
        .post("/fit", &fit_body("fixed", &[1.0, 2.0]))
        .unwrap();
    assert_eq!(status, 400);
    let err = ErrorWire::decode(&body).unwrap();
    assert_eq!(err.code, "length_mismatch");
    assert!(err.message.contains("length mismatch"), "{}", err.message);

    // Bootstrap without sigmas → 400 invalid_config (single validation
    // site: the same rule the library enforces).
    let mut wire = FitRequestWire {
        family: "fixed".to_string(),
        series: series.clone(),
        sigmas: None,
        lambda: None,
        bootstrap: Some(cellsync_wire::BootstrapWire {
            replicates: 2,
            grid: 10,
            seed: 0,
        }),
        deadline_ms: None,
    };
    let (status, body) = client.post("/fit", &wire.encode()).unwrap();
    assert_eq!(status, 400);
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "invalid_config");

    // Negative λ override → 400 invalid_config.
    wire.bootstrap = None;
    wire.lambda = Some(-1.0);
    let (status, body) = client.post("/fit", &wire.encode()).unwrap();
    assert_eq!(status, 400);
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "invalid_config");

    // Wrong method → 405; unknown path → 404.
    let (status, body) = client.get("/fit").unwrap();
    assert_eq!(status, 405);
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "method_not_allowed");
    let (status, body) = client.get("/nope").unwrap();
    assert_eq!(status, 404);
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "not_found");

    // The error traffic must not have disturbed fit serving.
    let (status, _) = client.post("/fit", &fit_body("fixed", &series)).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn oversized_bootstrap_is_rejected_and_the_server_keeps_serving() {
    // A grid of 2⁴⁰ points is valid JSON; without the engine's limit each
    // replicate would ask for a 8 TiB profile and the process would abort.
    let (server, registry) = quick_server(15);
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();
    let wire = FitRequestWire {
        family: "fixed".to_string(),
        series: series.clone(),
        sigmas: Some(vec![0.05; series.len()]),
        lambda: None,
        bootstrap: Some(cellsync_wire::BootstrapWire {
            replicates: 2,
            grid: 1 << 40,
            seed: 0,
        }),
        deadline_ms: None,
    };
    let (status, body) = client.post("/fit", &wire.encode()).unwrap();
    assert_eq!(status, 400, "{body}");
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "invalid_config");

    let (status, body) = client.post("/fit", &fit_body("fixed", &series)).unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
    server.join();
}

#[test]
fn healthz_and_graceful_shutdown() {
    let (server, _registry) = quick_server(15);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    let (status, body) = client.get("/healthz").unwrap();
    assert_eq!(status, 200);
    assert_eq!(body, r#"{"ok":true}"#);

    let (status, body) = client.post("/shutdown", "").unwrap();
    assert_eq!(status, 200, "{body}");
    // join returns once the acceptor, dispatcher, and connection
    // threads have all exited.
    server.join();
    // New connections are refused (or reset) after shutdown.
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.get("/healthz").is_err(),
    };
    assert!(refused, "server still serving after shutdown");
}

#[test]
fn concurrent_mixed_family_load_is_error_free() {
    let (server, registry) = quick_server(16);
    let series = test_series(&registry);
    let addr = server.addr();
    let families = ["fixed", "gcv", "smooth"];

    std::thread::scope(|scope| {
        for t in 0..4 {
            let series = &series;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..8 {
                    let family = families[(t + i) % families.len()];
                    let (status, body) = client.post("/fit", &fit_body(family, series)).unwrap();
                    assert_eq!(status, 200, "{family}: {body}");
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let (_, body) = client.get("/stats").unwrap();
    let stats = StatsWire::decode(&body).unwrap();
    let fit = stats.endpoints.iter().find(|e| e.name == "fit").unwrap();
    assert_eq!(fit.requests, 32);
    assert_eq!(fit.errors, 0);
    // 3 families → 3 cold builds (a racing pair may double-count a
    // miss, but the cache still holds exactly 3 engines); everything
    // else must hit.
    assert_eq!(stats.cache_entries, 3);
    assert!(stats.cache_misses >= 3, "{stats:?}");
    assert_eq!(stats.cache_hits + stats.cache_misses, 32);
    assert!(stats.cache_hits >= 26, "{stats:?}");
}
