//! End-to-end resilience tests: deadlines, load shedding, panic
//! isolation, and the retrying client — each against a real server on
//! an ephemeral port.
//!
//! The slow work driving these tests is a bootstrap fit whose replicate
//! count is calibrated at run time (debug and release builds differ by
//! orders of magnitude), so the tests assert behavior — a deadline cuts
//! a fit short, a full server sheds, a panic stays contained — rather
//! than wall-clock guesses. Its replicates run on a basis-128 family
//! whose profile dips below zero, so every replicate binds positivity
//! and runs the dense QP: each costs enough that a band within
//! `BootstrapSpec::MAX_REPLICATES` lasts seconds.

use std::sync::Once;
use std::time::{Duration, Instant};

use cellsync::{
    BootstrapSpec, DeconvolutionConfig, Deconvolver, FitRequest, ForwardModel, PhaseProfile,
};
use cellsync_serve::{
    Client, Family, FamilyRegistry, RetryPolicy, RetryingClient, Server, ServerConfig,
};
use cellsync_wire::{BootstrapWire, ErrorWire, FitRequestWire, FitResponseWire, StatsWire};

/// Keeps injected poisoned-family panics off the test log while
/// forwarding every genuine panic to the default hook.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
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
    });
}

fn start(config: ServerConfig, seed: u64, poisoned: bool) -> (Server, FamilyRegistry) {
    let mut registry = FamilyRegistry::quick(seed).expect("quick registry");
    let kernel = registry.get("fixed").unwrap().kernel().clone();
    let slow = DeconvolutionConfig::builder()
        .basis_size(128)
        .lambda(1e-4)
        .build()
        .expect("slow family config");
    registry.insert(Family::new("slow", kernel, slow));
    if poisoned {
        assert!(registry.insert_poisoned_clone("fixed", "poisoned"));
    }
    let server = Server::start(registry.clone(), config).expect("server start");
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

/// A series of the slow family whose profile dips below zero.
fn slow_series(registry: &FamilyRegistry) -> Vec<f64> {
    let kernel = registry.get("slow").unwrap().kernel().clone();
    let truth = PhaseProfile::from_fn(100, |phi| {
        1.5 * (2.0 * std::f64::consts::PI * phi).sin() - 0.3
    })
    .unwrap();
    ForwardModel::new(kernel).predict(&truth).unwrap()
}

fn bootstrap_body(series: &[f64], replicates: usize, deadline_ms: Option<u64>) -> String {
    FitRequestWire {
        family: "slow".to_string(),
        series: series.to_vec(),
        sigmas: Some(vec![0.05; series.len()]),
        lambda: None,
        bootstrap: Some(BootstrapWire {
            replicates,
            grid: 20,
            seed: 7,
        }),
        deadline_ms,
    }
    .encode()
}

/// Polls `/stats` (which is not admission-gated) until a fit is
/// inflight, so a slow occupant provably holds the admission slot
/// before the test sends competing traffic. Posting probe fits instead
/// would race the occupant for the slot — the probe can win it and the
/// occupant gets the 503, inverting the roles the test depends on.
fn wait_for_inflight(client: &mut Client) {
    for _ in 0..2000 {
        let (status, body) = client.get("/stats").expect("stats while waiting");
        assert_eq!(status, 200, "{body}");
        if StatsWire::decode(&body).unwrap().inflight >= 1 {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("occupant never reached the admission slot");
}

/// Measures a small bootstrap fit of the slow series and returns the
/// replicate count whose expected duration is roughly `target` (at
/// least the probe's 16, at most the engine's limit). Cancellation is
/// polled before every replicate and between QP iterations, so even the
/// floor leaves it poll points to hit.
fn replicates_for(client: &mut Client, series: &[f64], target: Duration) -> usize {
    let probe = 16;
    let started = Instant::now();
    let (status, body) = client
        .post("/fit", &bootstrap_body(series, probe, None))
        .expect("probe fit");
    assert_eq!(status, 200, "probe fit failed: {body}");
    let per_replicate = started.elapsed().div_f64(probe as f64);
    let scaled = target.div_duration_f64(per_replicate.max(Duration::from_nanos(50))) as usize;
    scaled.clamp(probe, BootstrapSpec::MAX_REPLICATES)
}

#[test]
fn deadline_cuts_a_long_fit_short() {
    let (server, registry) = start(
        ServerConfig {
            linger: Duration::from_millis(1),
            ..ServerConfig::default()
        },
        21,
        false,
    );
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();

    // Calibrate a fit that would take ~20× the deadline if left alone
    // (the probe also warms the engine cache, so the timed request
    // below pays no cold-build cost).
    let budget = Duration::from_millis(600);
    let heavy = slow_series(&registry);
    let replicates = replicates_for(&mut client, &heavy, budget * 20);

    let started = Instant::now();
    let (status, body) = client
        .post(
            "/fit",
            &bootstrap_body(&heavy, replicates, Some(budget.as_millis() as u64)),
        )
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{body}");
    assert_eq!(ErrorWire::decode(&body).unwrap().code, "deadline_exceeded");
    assert!(
        elapsed <= budget * 2,
        "deadline honored too loosely: {elapsed:?} for a {budget:?} budget"
    );

    // Partial work is accounted, and the connection still serves.
    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = StatsWire::decode(&body).unwrap();
    assert!(stats.deadline_exceeded >= 1, "{stats:?}");
    let (status, _) = client.post("/fit", &fit_body("fixed", &series)).unwrap();
    assert_eq!(status, 200);

    server.shutdown();
    server.join();
}

#[test]
fn overload_sheds_with_retry_after_and_bounded_queue() {
    let (server, registry) = start(
        ServerConfig {
            linger: Duration::from_millis(1),
            max_inflight: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        22,
        false,
    );
    let series = test_series(&registry);
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let heavy = slow_series(&registry);
    let slow = replicates_for(&mut client, &heavy, Duration::from_secs(3));

    std::thread::scope(|scope| {
        // One slow fit occupies the only admission slot...
        let occupant = scope.spawn({
            let heavy = heavy.clone();
            move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                c.post("/fit", &bootstrap_body(&heavy, slow, None)).unwrap()
            }
        });

        // ...so once it holds the slot, a concurrent fit must shed:
        // 503, stable code, and the Retry-After header the contract
        // promises.
        wait_for_inflight(&mut client);
        let shed = client
            .request_http("POST", "/fit", &fit_body("fixed", &series))
            .expect("request while overloaded");
        assert_eq!(shed.status, 503, "{}", shed.body);
        assert_eq!(ErrorWire::decode(&shed.body).unwrap().code, "overloaded");
        assert_eq!(
            shed.retry_after,
            Some(ServerConfig::default().retry_after_secs),
            "503 overloaded must carry Retry-After"
        );

        let (status, body) = client.get("/stats").unwrap();
        assert_eq!(status, 200);
        let stats = StatsWire::decode(&body).unwrap();
        assert!(stats.shed >= 1, "{stats:?}");
        assert!(stats.queue_depth <= stats.queue_capacity, "{stats:?}");
        assert_eq!(stats.queue_capacity, 1);

        // The occupant was never disturbed by the shedding around it.
        let (status, body) = occupant.join().expect("occupant thread");
        assert_eq!(status, 200, "{body}");
    });

    server.shutdown();
    server.join();
}

#[test]
fn panicking_family_is_isolated_from_the_connection() {
    quiet_injected_panics();
    let (server, registry) = start(
        ServerConfig {
            linger: Duration::from_millis(1),
            ..ServerConfig::default()
        },
        23,
        true,
    );
    let series = test_series(&registry);
    let mut client = Client::connect(server.addr()).unwrap();

    // The poisoned family panics inside the fit worker: the client sees
    // a structured 500, not a dropped connection.
    let (status, body) = client.post("/fit", &fit_body("poisoned", &series)).unwrap();
    assert_eq!(status, 500, "{body}");
    let err = ErrorWire::decode(&body).unwrap();
    assert_eq!(err.code, "internal_panic");
    assert!(err.message.contains("isolated"), "{}", err.message);

    // Same keep-alive connection, clean family: bit-identical to a
    // direct library fit — the worker and its caches survived.
    let (status, body) = client.post("/fit", &fit_body("fixed", &series)).unwrap();
    assert_eq!(status, 200, "{body}");
    let wire = FitResponseWire::decode(&body).unwrap();
    let spec = registry.get("fixed").unwrap();
    let engine = Deconvolver::new(spec.kernel().clone(), spec.config().clone()).unwrap();
    let direct = engine
        .fit_request(&FitRequest::new(series.clone()))
        .unwrap();
    let direct = direct.result();
    assert_eq!(wire.lambda.to_bits(), direct.lambda().to_bits());
    for (served, lib) in wire.alpha.iter().zip(direct.alpha()) {
        assert_eq!(served.to_bits(), lib.to_bits());
    }

    let (status, body) = client.get("/stats").unwrap();
    assert_eq!(status, 200);
    let stats = StatsWire::decode(&body).unwrap();
    assert!(stats.panics_caught >= 1, "{stats:?}");

    server.shutdown();
    server.join();
}

#[test]
fn retrying_client_rides_out_an_overload() {
    let (server, registry) = start(
        ServerConfig {
            linger: Duration::from_millis(1),
            max_inflight: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
        24,
        false,
    );
    let series = test_series(&registry);
    let addr = server.addr();
    let mut plain = Client::connect(addr).unwrap();
    plain
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let heavy = slow_series(&registry);
    let slow = replicates_for(&mut plain, &heavy, Duration::from_secs(3));

    std::thread::scope(|scope| {
        let occupant = scope.spawn({
            let heavy = heavy.clone();
            move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
                c.post("/fit", &bootstrap_body(&heavy, slow, None)).unwrap()
            }
        });
        // Wait until the occupant actually holds the slot.
        wait_for_inflight(&mut plain);

        // The retrying client backs off through the 503s and lands the
        // request once the slot frees up.
        let mut retrying = RetryingClient::new(
            addr,
            RetryPolicy {
                max_attempts: 200,
                base: Duration::from_millis(50),
                cap: Duration::from_millis(250),
                budget: Duration::from_secs(60),
                seed: 9,
            },
            Some(Duration::from_secs(120)),
        )
        .unwrap();
        let (status, body) = retrying.post("/fit", &fit_body("fixed", &series)).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            retrying.retries() >= 1,
            "the request should have been shed at least once before landing"
        );

        let (status, body) = occupant.join().expect("occupant thread");
        assert_eq!(status, 200, "{body}");
    });

    server.shutdown();
    server.join();
}
