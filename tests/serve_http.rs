//! End-to-end tests of the serving daemon over real TCP sockets.
//!
//! Each test binds port 0 (OS-assigned), runs the server on a
//! background thread, and talks to it with the crate's own minimal
//! HTTP client helpers. Covered here, per DESIGN.md §5:
//!
//! * model responses are byte-identical to offline evaluation;
//! * N identical concurrent sweep requests compute exactly once
//!   (single-flight), proven via the serve counters;
//! * a saturated request queue sheds load with `503` + `Retry-After`;
//! * shutdown drains the in-flight request before the listener dies.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use onion_dtn::prelude::*;
use onion_dtn::serve::http::{read_response, write_request, Response};
use onion_dtn::serve::{ServeConfig, Server, ServerHandle};

/// Binds port 0 and runs the server on a background thread.
fn start(cfg: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..cfg
    })
    .expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (handle, join)
}

/// One full request/response exchange on a fresh connection.
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_request(&mut stream, method, path, body).expect("write request");
    read_response(&mut stream).expect("read response")
}

/// `write_request`'s bytes for one request, split before its last three
/// body bytes: a client that sends the head alone holds a worker on the
/// request for as long as it chooses, at any machine speed.
fn held_request(method: &str, path: &str, body: &str) -> (Vec<u8>, Vec<u8>) {
    let mut request = Vec::new();
    write_request(&mut request, method, path, body).unwrap();
    let tail = request.split_off(request.len() - 3);
    (request, tail)
}

/// Polls `ready` every few milliseconds; fails after 10 s.
fn wait_until(what: &str, ready: impl Fn() -> bool) {
    let start = Instant::now();
    while !ready() {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "waited for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The canonical sweep request body used by the concurrency tests:
/// full structs serialized with the same serde the server parses with.
fn sweep_body(cfg: &ProtocolConfig, opts: &ExperimentOptions) -> String {
    format!(
        "{{\"config\":{},\"opts\":{}}}",
        serde_json::to_string(cfg).unwrap(),
        serde_json::to_string(opts).unwrap(),
    )
}

fn small_point() -> (ProtocolConfig, ExperimentOptions) {
    let cfg = ProtocolConfig {
        nodes: 40,
        group_size: 3,
        onions: 2,
        deadline: TimeDelta::new(360.0),
        compromised: 4,
        ..ProtocolConfig::table2_defaults()
    };
    let opts = ExperimentOptions::builder()
        .messages(6)
        .realizations(3)
        .seed(0xA5A5)
        .build();
    (cfg, opts)
}

#[test]
fn model_response_is_byte_identical_to_offline_evaluation() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();

    let body = "{\"lambda\":0.1,\"group_size\":4,\"onions\":2,\"copies\":2,\"deadline\":360.0}";
    let served = exchange(addr, "POST", "/v1/model/delivery", body);
    assert_eq!(served.status, 200, "{}", served.body);

    // The exact same evaluation, performed offline.
    let rates = analysis::uniform_onion_path_rates(0.1, 4, 2).unwrap();
    let expected = onion_dtn::serve::api::DeliveryModel {
        lambda: 0.1,
        group_size: 4,
        onions: 2,
        copies: 2,
        deadline: 360.0,
        delivery_rate: analysis::delivery_rate_multicopy(&rates, 2, 360.0).unwrap(),
        mean_delay: analysis::expected_delay(&rates).unwrap(),
        median_delay: analysis::median_delay(&rates).unwrap(),
        rates,
    };
    assert_eq!(served.body, serde_json::to_string(&expected).unwrap());

    // And the request is a pure function of its body: repeating it
    // yields the identical bytes again.
    let again = exchange(addr, "POST", "/v1/model/delivery", body);
    assert_eq!(again.body, served.body);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_identical_sweeps_compute_exactly_once() {
    const CLIENTS: usize = 6;
    let (handle, join) = start(ServeConfig {
        workers: CLIENTS + 2,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let (cfg, opts) = small_point();
    let body = sweep_body(&cfg, &opts);

    // Fire all clients through a barrier so they overlap the (multi-
    // second) Monte-Carlo run; one leads, the rest coalesce.
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let barrier = Arc::clone(&barrier);
            let body = body.clone();
            handles.push(scope.spawn(move || {
                barrier.wait();
                let r = exchange(addr, "POST", "/v1/sweep/point", &body);
                assert_eq!(r.status, 200, "{}", r.body);
                r.body
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = handle.stats();
    assert_eq!(stats.sweep_computes.load(Ordering::SeqCst), 1);
    assert_eq!(
        stats.sweep_coalesced.load(Ordering::SeqCst),
        (CLIENTS - 1) as u64
    );
    for b in &bodies[1..] {
        assert_eq!(b, &bodies[0]);
    }

    // Every coalesced (and cached) response is bit-identical to a
    // fresh offline run of the same configuration.
    let offline = serde_json::to_string(&run_random_graph_point(&cfg, &opts)).unwrap();
    assert_eq!(bodies[0], offline);

    // A later identical request is a cache hit — still one compute.
    let cached = exchange(addr, "POST", "/v1/sweep/point", &body);
    assert_eq!(cached.body, offline);
    assert_eq!(stats.sweep_computes.load(Ordering::SeqCst), 1);
    assert!(stats.cache_hits.load(Ordering::SeqCst) >= 1);

    handle.shutdown();
    join.join().unwrap();
}

/// Asserts the unified error envelope `{"error":{"code","message"}}`
/// and returns the `code` string.
fn assert_error_envelope(resp: &Response, want_status: u16) -> String {
    assert_eq!(resp.status, want_status, "{}", resp.body);
    let envelope: onion_dtn::serve::http::ErrorBody =
        serde_json::from_str(&resp.body).expect("error body matches the envelope shape");
    assert!(
        !envelope.error.message.is_empty(),
        "error.message must not be empty"
    );
    envelope.error.code
}

#[test]
fn every_failure_class_uses_the_error_envelope() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();

    let not_found = exchange(addr, "POST", "/v1/nope", "{}");
    assert_eq!(assert_error_envelope(&not_found, 404), "not_found");

    let wrong_method = exchange(addr, "PUT", "/healthz", "");
    assert_eq!(
        assert_error_envelope(&wrong_method, 405),
        "method_not_allowed"
    );

    let bad_json = exchange(addr, "POST", "/v1/sweep/point", "{not json");
    assert_eq!(assert_error_envelope(&bad_json, 400), "malformed_request");

    let bad_field = exchange(addr, "POST", "/v1/sweep/deadline", "{\"deadlines\":[-5.0]}");
    assert_eq!(assert_error_envelope(&bad_field, 400), "invalid_argument");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_model_parameters_get_400_naming_field_and_limit() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();
    // Each would hold a worker for minutes or try a multi-GB allocation
    // without the limits: an O(η²) loop over 10⁶ onions, a 4·10⁹-stage
    // rate vector, and so on.
    for (path, body, field, limit) in [
        (
            "/v1/model/traceable",
            "{\"onions\":1000000}",
            "onions",
            221u64,
        ),
        (
            "/v1/model/delivery",
            "{\"onions\":4000000000}",
            "onions",
            221,
        ),
        (
            "/v1/model/delivery",
            "{\"group_size\":1000000}",
            "group_size",
            100,
        ),
        (
            "/v1/model/delivery",
            "{\"copies\":4000000000}",
            "copies",
            100,
        ),
        ("/v1/model/cost", "{\"onions\":1000000}", "onions", 221),
        (
            "/v1/model/anonymity",
            "{\"copies\":3000000000}",
            "copies",
            100,
        ),
    ] {
        let resp = exchange(addr, "POST", path, body);
        assert_eq!(assert_error_envelope(&resp, 400), "invalid_argument");
        assert!(
            resp.body
                .contains(&format!("{field} must be at most {limit}")),
            "{path} {body}: {}",
            resp.body
        );
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn a_body_that_is_not_a_json_object_gets_400() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();
    let paths = [
        "/v1/model/delivery",
        "/v1/model/cost",
        "/v1/model/traceable",
        "/v1/model/anonymity",
        "/v1/sweep/point",
    ];
    for path in paths {
        for (body, kind) in [
            ("[1]", "an array"),
            ("5", "a number"),
            ("\"x\"", "a string"),
            ("null", "null"),
        ] {
            let resp = exchange(addr, "POST", path, body);
            assert_eq!(assert_error_envelope(&resp, 400), "malformed_request");
            assert!(resp.body.contains(kind), "{path} {body}: {}", resp.body);
        }
        // An empty body still reads as `{}`: every default.
        let empty = exchange(addr, "POST", path, "");
        assert_eq!(empty.status, 200, "{path}: {}", empty.body);
        assert_eq!(
            exchange(addr, "POST", path, "{}").body,
            empty.body,
            "{path}"
        );
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn slowest_admissible_delivery_request_is_fast_and_saturates() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();
    // The largest admissible chain, at deadlines whose Poisson windows lie
    // far past its constant tail: the cost no longer grows with Λt.
    for deadline in ["1e12", "1e300"] {
        let body = format!(
            "{{\"group_size\":{},\"onions\":{},\"copies\":{},\"deadline\":{deadline}}}",
            onion_dtn::serve::MAX_MODEL_GROUP_SIZE,
            onion_dtn::serve::MAX_MODEL_ONIONS,
            onion_dtn::serve::MAX_MODEL_COPIES,
        );
        let started = std::time::Instant::now();
        let resp = exchange(addr, "POST", "/v1/model/delivery", &body);
        let elapsed = started.elapsed();
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert!(
            resp.body.contains("\"delivery_rate\":1.0,"),
            "{}",
            resp.body
        );
        // Timing is a release-build property; debug builds only check
        // that the request completes.
        if !cfg!(debug_assertions) {
            assert!(
                elapsed < std::time::Duration::from_millis(100),
                "deadline {deadline}: {elapsed:?}"
            );
        }
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metricsz_serves_json_and_prometheus_with_correct_content_types() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();

    // Generate one observed request so a latency class exists.
    let health = exchange(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);

    let json = exchange(addr, "GET", "/metricsz", "");
    assert_eq!(json.status, 200);
    assert_eq!(
        json.content_type,
        onion_dtn::serve::http::CONTENT_TYPE_JSON,
        "JSON view keeps the application/json content type"
    );
    assert!(json.body.contains("\"endpoints\""));
    assert!(
        json.body.contains("\"endpoint_buckets\""),
        "JSON view exposes the per-class histogram buckets: {}",
        json.body
    );
    assert!(json.body.contains("\"health\""));

    let prom = exchange(addr, "GET", "/metricsz?format=prometheus", "");
    assert_eq!(prom.status, 200);
    assert_eq!(
        prom.content_type,
        onion_dtn::serve::http::CONTENT_TYPE_PROMETHEUS,
        "Prometheus view declares text/plain; version=0.0.4"
    );
    assert!(prom.body.contains("serve_requests_total"));
    assert!(prom
        .body
        .contains("serve_latency_seconds_bucket{class=\"health\",le=\"+Inf\"} 1"));
    assert!(prom
        .body
        .contains("serve_latency_seconds_count{class=\"health\"} 1"));

    let bad = exchange(addr, "GET", "/metricsz?format=xml", "");
    assert_eq!(assert_error_envelope(&bad, 400), "invalid_argument");

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn saturated_queue_sheds_load_with_503() {
    // One worker, a one-slot queue: the third concurrent connection
    // has nowhere to go and must be refused at the door.
    let (handle, join) = start(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let stats = handle.stats();

    // Occupy the worker with a request whose last body bytes arrive
    // only after the shedding...
    let (head, tail) = held_request("POST", "/v1/model/cost", "{\"onions\":3}");
    let mut busy = TcpStream::connect(addr).expect("connect busy");
    busy.write_all(&head).unwrap();
    wait_until("the worker", || stats.inflight.load(Ordering::SeqCst) == 1);

    // ...fill the single queue slot...
    let mut queued = TcpStream::connect(addr).expect("connect queued");
    write_request(&mut queued, "GET", "/healthz", "").unwrap();
    wait_until("the queue", || {
        stats.queue_depth.load(Ordering::SeqCst) == 1
    });

    // ...and watch the next connection get shed immediately.
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    let refusal = read_response(&mut shed).expect("read 503");
    assert_eq!(assert_error_envelope(&refusal, 503), "overloaded");
    assert_eq!(refusal.retry_after, Some(1));
    assert!(stats.rejected.load(Ordering::SeqCst) >= 1);

    // The accepted requests were unaffected by the shedding.
    busy.write_all(&tail).unwrap();
    assert_eq!(read_response(&mut busy).unwrap().status, 200);
    assert_eq!(read_response(&mut queued).unwrap().status, 200);

    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn shutdown_drains_the_in_flight_request() {
    let (handle, join) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let stats = handle.stats();
    let (cfg, opts) = small_point();

    // Get a sweep in flight, pull the plug, then send the rest of it.
    let (head, tail) = held_request("POST", "/v1/sweep/point", &sweep_body(&cfg, &opts));
    let mut inflight = TcpStream::connect(addr).expect("connect");
    inflight.write_all(&head).unwrap();
    wait_until("the worker", || stats.inflight.load(Ordering::SeqCst) == 1);
    handle.shutdown();
    inflight.write_all(&tail).unwrap();

    // The in-flight request is still read, computed and served to
    // completion, with the full (offline-identical) payload.
    let served = read_response(&mut inflight).expect("drained response");
    assert_eq!(served.status, 200);
    let offline = serde_json::to_string(&run_random_graph_point(&cfg, &opts)).unwrap();
    assert_eq!(served.body, offline);

    // Only then does the server exit; the port is closed afterwards.
    join.join().unwrap();
    assert!(TcpStream::connect(addr).is_err());
}

#[test]
fn sparse_sweep_point_matches_offline_and_validates_degree() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();

    let (cfg, opts) = small_point();
    let sparse = SparseScenario { avg_degree: 8.0 };
    let body = format!(
        "{{\"config\":{},\"opts\":{},\"sparse\":{}}}",
        serde_json::to_string(&cfg).unwrap(),
        serde_json::to_string(&opts).unwrap(),
        serde_json::to_string(&sparse).unwrap(),
    );
    let resp = exchange(addr, "POST", "/v1/sweep/point", &body);
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    let offline = serde_json::to_string(&run_sparse_point(&cfg, &sparse, &opts)).unwrap();
    assert_eq!(resp.body, offline, "sparse point must match offline run");

    // The dense request is a different cache identity and different
    // result bytes.
    let dense = exchange(addr, "POST", "/v1/sweep/point", &sweep_body(&cfg, &opts));
    assert_eq!(dense.status, 200);
    assert_ne!(dense.body, resp.body);

    // A nonsensical degree is rejected with the error envelope.
    let bad = format!(
        "{{\"config\":{},\"opts\":{},\"sparse\":{{\"avg_degree\":0.0}}}}",
        serde_json::to_string(&cfg).unwrap(),
        serde_json::to_string(&opts).unwrap(),
    );
    let rejected = exchange(addr, "POST", "/v1/sweep/point", &bad);
    assert_error_envelope(&rejected, 400);

    handle.shutdown();
    let _ = TcpStream::connect(addr);
    join.join().unwrap();
}

#[test]
fn sparse_sweeps_past_the_work_bound_get_400_and_the_daemon_stays_up() {
    // One worker: without the sparse work bound, the first body below
    // holds it for ~45 minutes per realization (T = 10⁹ minutes at
    // n = 100, degree 10), no 504 comes back because a point has no row
    // boundary, and /healthz starves.
    let (handle, join) = start(ServeConfig {
        workers: 1,
        request_deadline_secs: 3.0,
        ..ServeConfig::default()
    });
    let addr = handle.local_addr();
    let cfg = ProtocolConfig {
        nodes: 100,
        deadline: TimeDelta::new(1e9),
        ..ProtocolConfig::table2_defaults()
    };
    let sparse = "\"sparse\":{\"avg_degree\":10}";
    let config = serde_json::to_string(&cfg).unwrap();
    for (path, body) in [
        (
            "/v1/sweep/point",
            format!("{{\"config\":{config},{sparse}}}"),
        ),
        (
            "/v1/sweep/deadline",
            format!("{{\"deadlines\":[60,1e9],{sparse}}}"),
        ),
    ] {
        let started = std::time::Instant::now();
        let resp = exchange(addr, "POST", path, &body);
        let elapsed = started.elapsed();
        assert_eq!(assert_error_envelope(&resp, 400), "invalid_argument");
        assert!(
            resp.body
                .contains("sparse.avg_degree 10 and deadline 1000000000"),
            "{path}: {}",
            resp.body
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{path}: {elapsed:?}"
        );
    }
    assert_eq!(exchange(addr, "GET", "/healthz", "").status, 200);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn oversized_sweeps_get_400_at_once_and_the_daemon_stays_up() {
    let (handle, join) = start(ServeConfig::default());
    let addr = handle.local_addr();
    let body =
        |cfg: ProtocolConfig| format!("{{\"config\":{}}}", serde_json::to_string(&cfg).unwrap());
    // Without the sweep limits: a 4 TB λ allocation that aborts the
    // process, ~5·10¹¹ contact events, and a worker held for hours.
    for (path, body, field) in [
        (
            "/v1/sweep/point",
            body(ProtocolConfig {
                nodes: 1_000_000,
                ..ProtocolConfig::table2_defaults()
            }),
            "config.nodes 1000000",
        ),
        (
            "/v1/sweep/point",
            body(ProtocolConfig {
                deadline: TimeDelta::new(1e9),
                ..ProtocolConfig::table2_defaults()
            }),
            "deadline 1000000000",
        ),
        (
            "/v1/sweep/security",
            "{\"adversary_draws\":1000000000}".to_string(),
            "adversary_draws must be at most 100",
        ),
    ] {
        let started = std::time::Instant::now();
        let resp = exchange(addr, "POST", path, &body);
        let elapsed = started.elapsed();
        assert_eq!(assert_error_envelope(&resp, 400), "invalid_argument");
        assert!(resp.body.contains(field), "{path}: {}", resp.body);
        assert!(
            elapsed < std::time::Duration::from_millis(100),
            "{path}: {elapsed:?}"
        );
    }
    assert_eq!(exchange(addr, "GET", "/healthz", "").status, 200);
    handle.shutdown();
    join.join().unwrap();
}
