//! The `serve_mixed` workload: an in-process daemon (2 workers, the LRU,
//! and a durable `ResponseStore` in a scratch directory) driven in a
//! closed loop by 2 loopback clients, each of which waits for a reply
//! before sending its next request.
//!
//! Request `k` of a run is a pure function of the workload seed and `k`:
//! model-endpoint requests, `/healthz`, sweep hits (a small repeating
//! family of `/v1/sweep/point` configs, computed once during set-up) and
//! sweep misses (a fresh seed per request, so the daemon computes and
//! persists each one).

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use contact_graph::TimeDelta;
use onion_routing::{ExperimentOptions, PointSummary, ProtocolConfig};
use serve::api::{AnonymityModel, CostModel, DeliveryModel, TraceableModel};
use serve::http::{read_request, read_response, write_request, write_response};
use serve::{
    Api, ApiLimits, Request, ResponseStore, ServeConfig, ServeStats, Server, ServerHandle,
    TABLE2_MEAN_RATE,
};

use crate::stats::{self, Metrics};
use crate::{splitmix64, Outcome};

/// Request classes of the mix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Model,
    Health,
    Hit,
    Miss,
}

const CLASSES: [Class; 4] = [Class::Model, Class::Health, Class::Hit, Class::Miss];

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Model => "model",
            Class::Health => "health",
            Class::Hit => "hit",
            Class::Miss => "miss",
        }
    }
}

/// Mix shares in per mille: misses, hits, health; the rest are model
/// requests.
const MISS_PERMILLE: u64 = 30;
const HIT_PERMILLE: u64 = 200;
const HEALTH_PERMILLE: u64 = 150;
/// Size of the repeating sweep-hit family.
const HIT_FAMILY: usize = 8;
/// Model-request variants per endpoint.
const MODEL_VARIANTS: usize = 8;

const MODEL_PATHS: [&str; 4] = [
    "/v1/model/delivery",
    "/v1/model/cost",
    "/v1/model/traceable",
    "/v1/model/anonymity",
];

/// One model request and the body an offline evaluation of the same
/// closed forms gives for it.
struct ModelVariant {
    endpoint: usize,
    params: ModelParams,
    body: String,
    expected: String,
}

/// The seeded request mix.
struct Mix {
    seed: u64,
    models: Vec<ModelVariant>,
    hits: Vec<String>,
}

/// One request of the mix.
struct Req {
    class: Class,
    method: &'static str,
    path: &'static str,
    body: String,
    /// Index into the model variants or the hit family.
    variant: usize,
}

/// The small sweep point every hit and miss asks for.
fn sweep_config() -> ProtocolConfig {
    ProtocolConfig {
        nodes: 40,
        group_size: 4,
        onions: 2,
        compromised: 4,
        deadline: TimeDelta::new(360.0),
        ..ProtocolConfig::table2_defaults()
    }
}

fn sweep_body(seed: u64) -> String {
    let opts = ExperimentOptions::builder()
        .messages(5)
        .realizations(1)
        .seed(seed)
        .build();
    format!(
        "{{\"config\":{},\"opts\":{}}}",
        serde_json::to_string(&sweep_config()).expect("config serializes"),
        serde_json::to_string(&opts).expect("options serialize")
    )
}

/// Request parameters of a model variant: `(g, K, L, T, n, c)`.
type ModelParams = (usize, usize, u32, f64, usize, usize);

/// A model endpoint's response value.
enum ModelOut {
    Delivery(DeliveryModel),
    Cost(CostModel),
    Traceable(TraceableModel),
    Anonymity(AnonymityModel),
}

impl ModelOut {
    fn to_json(&self) -> String {
        match self {
            ModelOut::Delivery(v) => serde_json::to_string(v),
            ModelOut::Cost(v) => serde_json::to_string(v),
            ModelOut::Traceable(v) => serde_json::to_string(v),
            ModelOut::Anonymity(v) => serde_json::to_string(v),
        }
        .expect("model bodies serialize")
    }
}

/// The offline evaluation of the closed forms behind model endpoint
/// `endpoint` (an index into [`MODEL_PATHS`]).
fn evaluate_model(endpoint: usize, p: ModelParams) -> ModelOut {
    let (g, k, l, t, n, c) = p;
    let valid = "valid model parameters";
    match endpoint {
        0 => {
            let rates = analysis::uniform_onion_path_rates(TABLE2_MEAN_RATE, g, k).expect(valid);
            ModelOut::Delivery(DeliveryModel {
                lambda: TABLE2_MEAN_RATE,
                group_size: g,
                onions: k,
                copies: l,
                deadline: t,
                delivery_rate: analysis::delivery_rate_multicopy(&rates, l, t).expect(valid),
                mean_delay: analysis::expected_delay(&rates).expect(valid),
                median_delay: analysis::median_delay(&rates).expect(valid),
                rates,
            })
        }
        1 => ModelOut::Cost(CostModel {
            onions: k,
            copies: l,
            bound: if l == 1 {
                analysis::single_copy_cost(k)
            } else {
                analysis::multi_copy_bound(k, l).expect(valid)
            },
            non_anonymous: analysis::non_anonymous_bound(l),
            anonymity_cost_factor: analysis::anonymity_cost_factor(k),
        }),
        2 => {
            let p = c as f64 / n as f64;
            ModelOut::Traceable(TraceableModel {
                nodes: n,
                compromised: c,
                onions: k,
                eta: k + 1,
                compromise_probability: p,
                traceable_rate: analysis::expected_traceable_rate(k + 1, p).expect(valid),
            })
        }
        _ => ModelOut::Anonymity(AnonymityModel {
            nodes: n,
            group_size: g,
            onions: k,
            compromised: c,
            copies: l,
            anonymity: analysis::path_anonymity(n, g, k, c, l).expect(valid),
        }),
    }
}

impl Mix {
    fn new(seed: u64) -> Mix {
        let mut models = Vec::new();
        for endpoint in 0..MODEL_PATHS.len() {
            for v in 0..MODEL_VARIANTS {
                let h = splitmix64(seed ^ 0x3D0D_E100 ^ ((endpoint * 64 + v) as u64));
                let g = 2 + (h % 7) as usize;
                let k = 1 + ((h >> 8) % 5) as usize;
                let l = 1 + ((h >> 16) % 3) as u32;
                let t = [60.0, 180.0, 360.0, 720.0, 1080.0][((h >> 24) % 5) as usize];
                let n = 50 + ((h >> 32) % 151) as usize;
                let c = 1 + ((h >> 40) as usize % (n / 2));
                let body = format!(
                    "{{\"group_size\":{g},\"onions\":{k},\"copies\":{l},\"deadline\":{t:?},\
                     \"nodes\":{n},\"compromised\":{c}}}"
                );
                let params = (g, k, l, t, n, c);
                models.push(ModelVariant {
                    endpoint,
                    params,
                    body,
                    expected: evaluate_model(endpoint, params).to_json(),
                });
            }
        }
        let hits = (0..HIT_FAMILY as u64)
            .map(|j| sweep_body(splitmix64(seed ^ 0x4817_0000 ^ j)))
            .collect();
        Mix { seed, models, hits }
    }

    fn request(&self, k: u64) -> Req {
        let h = splitmix64(self.seed ^ 0x5EED_F00D ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let roll = h % 1000;
        let pick = (h >> 20) as usize;
        if roll < MISS_PERMILLE {
            Req {
                class: Class::Miss,
                method: "POST",
                path: "/v1/sweep/point",
                body: sweep_body(splitmix64(h ^ 0x0000_A155)),
                variant: 0,
            }
        } else if roll < MISS_PERMILLE + HIT_PERMILLE {
            let variant = pick % self.hits.len();
            Req {
                class: Class::Hit,
                method: "POST",
                path: "/v1/sweep/point",
                body: self.hits[variant].clone(),
                variant,
            }
        } else if roll < MISS_PERMILLE + HIT_PERMILLE + HEALTH_PERMILLE {
            Req {
                class: Class::Health,
                method: "GET",
                path: "/healthz",
                body: String::new(),
                variant: 0,
            }
        } else {
            let variant = pick % self.models.len();
            Req {
                class: Class::Model,
                method: "POST",
                path: MODEL_PATHS[self.models[variant].endpoint],
                body: self.models[variant].body.clone(),
                variant,
            }
        }
    }

    /// Checks a 200 response body against what request `req` must return;
    /// `hit_bodies` are the bodies the hit family's misses produced.
    fn check(&self, req: &Req, body: &str, hit_bodies: &[String]) -> Result<(), String> {
        let ok = match req.class {
            Class::Model => body == self.models[req.variant].expected,
            Class::Health => body == "{\"status\":\"ok\"}",
            Class::Hit => body == hit_bodies[req.variant],
            Class::Miss => return check_point(body),
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} response to {} differs from the expected body",
                req.class.name(),
                req.path
            ))
        }
    }
}

/// A sweep-point body must be a summary of 5 injected messages with no
/// more deliveries than injections.
fn check_point(body: &str) -> Result<(), String> {
    let p: PointSummary =
        serde_json::from_str(body).map_err(|e| format!("sweep body does not parse: {e}"))?;
    if p.injected != 5 || p.delivered > p.injected {
        return Err(format!(
            "sweep body reports {} delivered of {} injected",
            p.delivered, p.injected
        ));
    }
    Ok(())
}

/// A scratch directory under the build directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = PathBuf::from(root)
            .join("perfbench-scratch")
            .join(format!("{}-{tag}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running daemon plus the hit-family bodies its warm-up produced.
struct Daemon {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    addr: SocketAddr,
    hit_bodies: Vec<String>,
    _store: Scratch,
}

impl Daemon {
    /// Set-up: bind, open the store, start the workers, and warm the
    /// cache with the hit family.
    fn start(mix: &Mix) -> Result<Daemon, String> {
        let store = Scratch::new("store")?;
        let cfg = ServeConfig {
            workers: 2,
            store_dir: Some(store.0.display().to_string()),
            ..ServeConfig::default()
        };
        let server = Server::bind(&cfg).map_err(|e| e.to_string())?;
        let handle = server.handle();
        let addr = server.local_addr();
        let thread = std::thread::spawn(move || {
            if let Err(e) = server.run() {
                eprintln!("perfbench: server stopped: {e}");
            }
        });
        let mut daemon = Daemon {
            handle,
            thread,
            addr,
            hit_bodies: Vec::new(),
            _store: store,
        };
        for body in &mix.hits {
            let resp = send(addr, "POST", "/v1/sweep/point", body)?;
            if resp.status != 200 {
                return Err(format!("warm-up request answered {}", resp.status));
            }
            check_point(&resp.body)?;
            daemon.hit_bodies.push(resp.body);
        }
        Ok(daemon)
    }

    fn stop(self) -> Arc<ServeStats> {
        let stats = self.handle.stats();
        self.handle.shutdown();
        let _ = self.thread.join();
        stats
    }
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<serve::Response, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    write_request(&mut s, method, path, body).map_err(|e| format!("send: {e}"))?;
    read_response(&mut s).map_err(|e| format!("receive: {e}"))
}

/// One completed request of a run.
struct Sample {
    k: u64,
    class: Class,
    secs: f64,
}

/// What a closed-loop run of the mix produced.
struct MixRun {
    /// Completed requests, per client in completion order.
    per_client: Vec<Vec<Sample>>,
    wall_s: f64,
    failed: u64,
}

impl MixRun {
    fn latencies_ms(&self) -> Vec<f64> {
        self.per_client
            .iter()
            .flatten()
            .map(|s| s.secs * 1e3)
            .collect()
    }

    /// Every request of the run in mix order.
    fn into_sorted(self) -> Vec<Sample> {
        let mut all: Vec<Sample> = self.per_client.into_iter().flatten().collect();
        all.sort_by_key(|s| s.k);
        all
    }
}

const CLIENTS: usize = 2;

/// Drives the daemon with the mix for `seconds`, checking every body.
fn drive(mix: &Mix, daemon: &Daemon, seconds: f64) -> Result<MixRun, String> {
    let next = AtomicU64::new(0);
    let violation: Mutex<Option<String>> = Mutex::new(None);
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let results: Vec<(Vec<Sample>, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    // Reserved up front so the vector never reallocates
                    // mid-run and resident memory grows only with the
                    // requests actually made.
                    let mut samples = Vec::with_capacity(1 << 18);
                    let mut failed = 0u64;
                    while start.elapsed() < budget && violation.lock().expect("lock").is_none() {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let req = mix.request(k);
                        let t0 = Instant::now();
                        let resp = send(daemon.addr, req.method, req.path, &req.body);
                        let secs = t0.elapsed().as_secs_f64();
                        match resp {
                            Ok(r) if r.status == 200 => {
                                if let Err(e) = mix.check(&req, &r.body, &daemon.hit_bodies) {
                                    *violation.lock().expect("lock") = Some(e);
                                }
                            }
                            Ok(r) => {
                                eprintln!("perfbench: request {k} answered {}", r.status);
                                failed += 1;
                            }
                            Err(e) => {
                                eprintln!("perfbench: request {k}: {e}");
                                failed += 1;
                            }
                        }
                        samples.push(Sample {
                            k,
                            class: req.class,
                            secs,
                        });
                    }
                    (samples, failed)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    if let Some(e) = violation.into_inner().expect("lock") {
        return Err(e);
    }
    let failed = results.iter().map(|(_, f)| f).sum();
    let per_client: Vec<Vec<Sample>> = results.into_iter().map(|(s, _)| s).collect();
    let misses = per_client
        .iter()
        .flatten()
        .filter(|s| s.class == Class::Miss)
        .count();
    if misses < 100 {
        eprintln!("perfbench: only {misses} sweep misses in this run");
    }
    Ok(MixRun {
        per_client,
        wall_s,
        failed,
    })
}

const SETUP_REPS: usize = 5;

/// The untraced run: set up the daemon several times (keeping the last),
/// then drive the mix for `seconds`.
pub fn timed(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mix = Mix::new(seed);
    let mut setup_times = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let t0 = Instant::now();
        let d = Daemon::start(&mix)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let run = drive(&mix, &daemon, seconds);
    daemon.stop();
    let run = run?;
    let ms = run.latencies_ms();
    let mut m = Metrics::default();
    m.push("op_p90_ms", stats::quantile(&ms, 0.9), "ms");
    m.push("peak_rss_mb", crate::peak_rss_mib()?, "MiB");
    m.push("setup_s", stats::median(&setup_times), "s");
    eprintln!(
        "perfbench: {:.1} requests/s over {:.1} s",
        ms.len() as f64 / run.wall_s,
        run.wall_s
    );
    Ok(Outcome {
        metrics: m,
        attempted: ms.len() as u64,
        failed: run.failed,
    })
}

/// Serve-side per-layer metrics, reported as 0 on the sim workloads.
const SERVE_METRICS: [(&str, &str); 27] = [
    ("analysis.model_us.delivery", "us"),
    ("analysis.model_us.cost", "us"),
    ("analysis.model_us.traceable", "us"),
    ("analysis.model_us.anonymity", "us"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.handle_us.model", "us"),
    ("serve.handle_us.health", "us"),
    ("serve.handle_us.hit", "us"),
    ("serve.handle_us.miss", "us"),
    ("serve.transport_ms.model", "ms"),
    ("serve.transport_ms.health", "ms"),
    ("serve.transport_ms.hit", "ms"),
    ("serve.transport_ms.miss", "ms"),
    ("serve.store_put_us", "us"),
    ("serve.store_get_us", "us"),
    ("serve.hit_share", "share"),
    ("serve.sweep_computes", "count"),
    ("serve.coalesced", "count"),
    ("serve.store_writes", "count"),
    ("serve.rejected", "count"),
    ("serve.model_p50_ms", "ms"),
    ("serve.model_p99_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
];

pub fn zero_metrics(m: &mut Metrics) {
    for (name, unit) in SERVE_METRICS {
        m.push(name, 0.0, unit);
    }
}

/// Median per-call time in µs of `f` over `reps` calls.
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// The traced run: one closed-loop run of the mix over sockets, then the
/// same request sequence through `Api::handle` with no sockets, then the
/// parse, write and store layers over in-memory copies of the run's bytes.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mix = Mix::new(seed);
    let daemon = Daemon::start(&mix)?;
    let run = drive(&mix, &daemon, seconds);
    let hit_bodies = daemon.hit_bodies.clone();
    let snapshot = daemon.stop().snapshot();
    let run = run?;
    let failed = run.failed;
    let samples = run.into_sorted();

    // The same requests through the router alone.
    let store_dir = Scratch::new("replay")?;
    let store = ResponseStore::open(&store_dir.0, serve::server::DEFAULT_STORE_BUDGET_BYTES)
        .map_err(|e| e.to_string())?;
    let api = Api::new(
        512,
        8,
        Some(Arc::new(store)),
        Arc::new(ServeStats::new()),
        ApiLimits::default(),
    );
    for body in &mix.hits {
        api.handle(&Request {
            method: "POST".into(),
            path: "/v1/sweep/point".into(),
            body: body.clone(),
        });
    }
    let mut handle_us: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    let mut wire_requests = Vec::new();
    let mut responses = Vec::new();
    let mut miss_bodies = Vec::new();
    for s in &samples {
        let req = mix.request(s.k);
        let request = Request {
            method: req.method.into(),
            path: req.path.into(),
            body: req.body.clone(),
        };
        let t0 = Instant::now();
        let resp = api.handle(&request);
        handle_us[req.class as usize].push(t0.elapsed().as_secs_f64() * 1e6);
        if resp.status != 200 {
            return Err(format!("replayed request {} answered {}", s.k, resp.status));
        }
        mix.check(&req, &resp.body, &hit_bodies)?;
        if req.class == Class::Miss && miss_bodies.len() < 500 {
            miss_bodies.push(resp.body.clone());
        }
        if wire_requests.len() < 2_000 {
            let mut bytes = Vec::new();
            write_request(&mut bytes, req.method, req.path, &req.body)
                .map_err(|e| e.to_string())?;
            wire_requests.push(bytes);
            responses.push(resp);
        }
    }

    let parse: Vec<f64> = wire_requests
        .iter()
        .map(|bytes| {
            let t0 = Instant::now();
            let parsed = read_request(&mut bytes.as_slice());
            let us = t0.elapsed().as_secs_f64() * 1e6;
            parsed.map(|_| us).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut sink = Vec::with_capacity(1 << 16);
    let write: Vec<f64> = responses
        .iter()
        .map(|r| {
            sink.clear();
            let t0 = Instant::now();
            let written = write_response(&mut sink, r);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            written.map(|()| us).map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    let bench_dir = Scratch::new("store-bench")?;
    let bench_store = ResponseStore::open(&bench_dir.0, serve::server::DEFAULT_STORE_BUDGET_BYTES)
        .map_err(|e| e.to_string())?;
    let mut put = Vec::new();
    for (i, body) in miss_bodies.iter().enumerate() {
        let t0 = Instant::now();
        bench_store
            .put(&format!("perfbench-{i}"), body)
            .map_err(|e| e.to_string())?;
        put.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let mut get = Vec::new();
    for (i, body) in miss_bodies.iter().enumerate() {
        let t0 = Instant::now();
        let got = bench_store.get(&format!("perfbench-{i}"));
        get.push(t0.elapsed().as_secs_f64() * 1e6);
        if got.as_deref() != Some(body.as_str()) {
            return Err("the store returned a different body than was put".into());
        }
    }

    let mut m = Metrics::default();
    crate::sim::zero_trial_metrics(&mut m);
    for (endpoint, path) in MODEL_PATHS.iter().enumerate() {
        let variants: Vec<&ModelVariant> = mix
            .models
            .iter()
            .filter(|v| v.endpoint == endpoint)
            .collect();
        let mut i = 0;
        let us = median_us(4_000, || {
            let v = variants[i % variants.len()];
            i += 1;
            std::hint::black_box(evaluate_model(v.endpoint, v.params));
        });
        let name = path.rsplit('/').next().expect("model path has a name");
        m.push(format!("analysis.model_us.{name}"), us, "us");
    }
    m.push("serve.parse_us", stats::median(&parse), "us");
    m.push("serve.write_us", stats::median(&write), "us");
    for c in CLASSES {
        let v = &handle_us[c as usize];
        m.push(
            format!("serve.handle_us.{}", c.name()),
            if v.is_empty() { 0.0 } else { stats::median(v) },
            "us",
        );
    }
    for c in CLASSES {
        let client: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.secs * 1e3)
            .collect();
        let handle_ms = stats::mean(&handle_us[c as usize]) / 1e3;
        m.push(
            format!("serve.transport_ms.{}", c.name()),
            stats::mean(&client) - handle_ms,
            "ms",
        );
    }
    m.push("serve.store_put_us", stats::median(&put), "us");
    m.push("serve.store_get_us", stats::median(&get), "us");
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let lookups = counter("cache_hits") + counter("cache_misses");
    m.push(
        "serve.hit_share",
        if lookups > 0.0 {
            counter("cache_hits") / lookups
        } else {
            0.0
        },
        "share",
    );
    m.push("serve.sweep_computes", counter("sweep_computes"), "count");
    m.push("serve.coalesced", counter("sweep_coalesced"), "count");
    m.push("serve.store_writes", counter("store_writes"), "count");
    m.push("serve.rejected", counter("rejected"), "count");
    for (c, q, name) in [
        (Class::Model, 0.5, "serve.model_p50_ms"),
        (Class::Model, 0.99, "serve.model_p99_ms"),
        (Class::Hit, 0.5, "serve.hit_p50_ms"),
        (Class::Hit, 0.99, "serve.hit_p99_ms"),
        (Class::Miss, 0.5, "serve.miss_p50_ms"),
        (Class::Miss, 0.9, "serve.miss_p90_ms"),
    ] {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.secs * 1e3)
            .collect();
        m.push(
            name,
            if ms.is_empty() {
                0.0
            } else {
                stats::quantile(&ms, q)
            },
            "ms",
        );
    }
    Ok(Outcome {
        metrics: m,
        attempted: samples.len() as u64,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            body: body.into(),
        }
    }

    /// The offline model bodies are byte-equal to what the router serves,
    /// and a perturbed body is caught.
    #[test]
    fn model_bodies_match_the_router() {
        let mix = Mix::new(3);
        let api = Api::new(
            16,
            2,
            None,
            Arc::new(ServeStats::new()),
            ApiLimits::default(),
        );
        for v in &mix.models {
            let resp = api.handle(&post(MODEL_PATHS[v.endpoint], &v.body));
            assert_eq!(resp.status, 200, "{}", resp.body);
            assert_eq!(resp.body, v.expected);
        }
        let req = Req {
            class: Class::Model,
            method: "POST",
            path: MODEL_PATHS[0],
            body: String::new(),
            variant: 0,
        };
        let wrong = mix.models[0].expected.replacen('1', "2", 1);
        assert!(mix.check(&req, &wrong, &[]).is_err());
    }

    /// Requests are a pure function of the seed and index, and the mix
    /// holds every class.
    #[test]
    fn mix_is_seeded_and_covers_every_class() {
        let (a, b) = (Mix::new(9), Mix::new(9));
        let mut seen = [0usize; 4];
        for k in 0..2_000 {
            let (x, y) = (a.request(k), b.request(k));
            assert_eq!((x.class, x.path, &x.body), (y.class, y.path, &y.body));
            seen[x.class as usize] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        assert!(check_point("{}").is_err());
    }
}
