//! Request routing and endpoint implementations.
//!
//! Two endpoint families:
//!
//! * `/v1/model/*` — closed-form analytical models (`analysis` crate),
//!   never cached. Median evaluation cost over the `serve_mixed`
//!   benchmark's variants (release build, 2-vCPU Xeon): `cost`,
//!   `traceable` and `anonymity` 0.05–0.08 µs; `delivery` ≈ 40 µs, since
//!   its uniform rates tie the K ≥ 2 group stages and it runs the
//!   uniformization evaluator plus a ~45-probe median search. Size
//!   fields are bounded ([`MAX_MODEL_ONIONS`], [`MAX_MODEL_GROUP_SIZE`],
//!   [`MAX_MODEL_COPIES`]; `400 invalid_argument` past them), which caps
//!   the slowest admissible delivery request near 20 ms at any deadline.
//! * `/v1/sweep/*` — Monte-Carlo experiments (`onion_routing`
//!   experiment harness). A body parses into a `SweepSpec`, which must
//!   pass `SweepSpec::validate` and the sweep limits
//!   ([`MAX_SWEEP_REALIZATION_BYTES`], [`MAX_ADVERSARY_DRAWS`],
//!   [`MAX_SWEEP_GRID`], and a sparse realization's expected contact
//!   count); failures answer `400 invalid_argument`.
//!   Expensive, so responses flow through a sharded LRU cache keyed by
//!   the spec's identity (`SweepSpec::identity(&opts).key()`: the spec
//!   and its options with `threads` and `keep_going` zeroed, the key a
//!   `--resume` checkpoint of the same run carries), with single-flight
//!   coalescing for identical concurrent misses. A durable store is the
//!   run's row cache: every row is stored under the key of the same spec
//!   with its grid emptied (a point under its own key), so a stored row
//!   replays in any grid that contains it and a restarted daemon
//!   rebuilds a body from its rows. The daemon runs
//!   every sweep without `keep_going`: a `SweepRunError` answers `504
//!   deadline_exceeded` when cancelled and `500 trial_failed` when
//!   quarantined, and no result missing trials is cached or stored.
//!
//! Request bodies are JSON objects where every field is optional:
//! missing fields take the paper's Table II defaults. `config` and
//! `opts` accept the full [`ProtocolConfig`] / [`ExperimentOptions`]
//! shapes as serialized by this workspace (clients round-trip the real
//! types), while scalar knobs are extracted field-by-field. Sweep
//! bodies additionally accept `"sparse": {"avg_degree": d}` to run the
//! CSR + calendar-queue scale backend instead of the dense Table II
//! world. Every read records its field, and a top-level field that no
//! read asked for answers `400 invalid_argument` naming it: the model
//! endpoints share one query of seven fields, and a sweep body carries
//! `config`, `opts`, `sparse` and its kind's own axis fields.

use std::sync::Arc;
use std::time::Instant;

use contact_graph::SampledContacts;
use onion_routing::sweep::{default_fault_plan, default_security_grid, DEFAULT_FAULT_INTENSITIES};
use onion_routing::{
    ExperimentOptions, ProtocolConfig, RowCache, Scenario, SparseScenario, SweepAxis,
    SweepControls, SweepReport, SweepRunError, SweepSpec,
};
use serde::{Serialize, Value};

use crate::cache::ShardedLru;
use crate::flight::{Panicked, Role, SingleFlight};
use crate::http::{Request, Response};
use crate::stats::ServeStats;
use crate::store::ResponseStore;

/// Mean pairwise contact rate of the Table II random graph, the default
/// `lambda` of `/v1/model/delivery`.
pub use analysis::TABLE2_MEAN_RATE;

/// Largest `onions` (K) a model request may ask for: ⌊8192/37⌋ = 221,
/// the deepest route a wire packet can carry (an 8192-byte body, 37
/// bytes per onion layer). Bounds the O(K²) traceable-rate loop and the
/// `K + 1`-stage rate vector of the delivery model.
pub const MAX_MODEL_ONIONS: usize = 221;

/// Largest `group_size` (g) a model request may ask for: the whole
/// Table II population. The delivery model's uniformization chain
/// settles after ≈ 745·g steps, so this bound (with
/// [`MAX_MODEL_ONIONS`]) caps one delivery request at tens of
/// milliseconds, whatever its deadline.
pub const MAX_MODEL_GROUP_SIZE: usize = 100;

/// Largest `copies` (L) a model request may ask for: one per node of
/// the Table II population.
pub const MAX_MODEL_COPIES: u32 = 100;

/// Server-side execution limits and knobs shared by every endpoint.
pub struct ApiLimits {
    /// Threads used for sweep fan-out (results are thread-invariant).
    pub sweep_threads: usize,
    /// Largest accepted `opts.realizations`.
    pub max_realizations: usize,
    /// Largest accepted `opts.messages`.
    pub max_messages: usize,
}

impl Default for ApiLimits {
    fn default() -> Self {
        ApiLimits {
            sweep_threads: 1,
            max_realizations: 64,
            max_messages: 200,
        }
    }
}

/// The routing table plus the state every handler shares.
pub struct Api {
    cache: ShardedLru,
    store: Option<Arc<ResponseStore>>,
    flight: SingleFlight<SweepFailure>,
    stats: Arc<ServeStats>,
    limits: ApiLimits,
}

impl Api {
    /// Builds the router around a result cache of `cache_capacity`
    /// entries over `cache_shards` locks, with an optional disk store
    /// that persists every sweep's rows beneath the LRU.
    pub fn new(
        cache_capacity: usize,
        cache_shards: usize,
        store: Option<Arc<ResponseStore>>,
        stats: Arc<ServeStats>,
        limits: ApiLimits,
    ) -> Api {
        let api = Api {
            cache: ShardedLru::new(cache_capacity, cache_shards),
            store,
            flight: SingleFlight::default(),
            stats,
            limits,
        };
        // Surface the recovery scan's findings on /metricsz right away.
        api.sync_store_gauges();
        api
    }

    /// Publishes the disk store's health gauges, the one place that
    /// sets `serve.store_*`: at start (the recovery scan's findings) and
    /// after every write.
    fn sync_store_gauges(&self) {
        if let Some(store) = &self.store {
            let s = store.status();
            self.stats.store_records.set(s.records as i64);
            self.stats.store_bytes.set(s.bytes as i64);
            self.stats
                .store_records_quarantined
                .set(s.quarantined as i64);
        }
    }

    /// The latency/metrics class a path belongs to. Any query string is
    /// ignored: `/metricsz?format=prometheus` classifies as `metrics`.
    pub fn class_of(path: &str) -> &'static str {
        let path = path.split('?').next().unwrap_or(path);
        if path.starts_with("/v1/model/") {
            "model"
        } else if path.starts_with("/v1/sweep/") {
            "sweep"
        } else if path == "/healthz" {
            "health"
        } else if path == "/metricsz" {
            "metrics"
        } else if path.starts_with("/v1/admin/") {
            "admin"
        } else {
            "other"
        }
    }

    /// Routes one parsed request to its handler with no deadline (tests
    /// and embedders); the server calls [`Api::handle_at`].
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_at(req, None)
    }

    /// Routes one parsed request to its handler. The request target is
    /// split into path and query at the first `?`; only `/metricsz`
    /// currently inspects its query (`format=prometheus`). `deadline`
    /// is the request's wall-clock budget end (measured from accept):
    /// sweep endpoints poll it between rows and answer `504
    /// deadline_exceeded` when it passes mid-computation.
    pub fn handle_at(&self, req: &Request, deadline: Option<Instant>) -> Response {
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}".to_string()),
            ("GET", "/metricsz") => self.metricsz(query),
            ("POST", "/v1/admin/shutdown") => {
                let mut resp = Response::json(200, "{\"status\":\"draining\"}".to_string());
                resp.shutdown = true;
                resp
            }
            ("POST", path) if path.starts_with("/v1/model/") => self.model(req),
            ("POST", path) if path.starts_with("/v1/sweep/") => self.sweep(req, deadline),
            (_, path)
                if path == "/healthz"
                    || path == "/metricsz"
                    || path.starts_with("/v1/model/")
                    || path.starts_with("/v1/sweep/")
                    || path.starts_with("/v1/admin/") =>
            {
                Response::error(405, "method_not_allowed", "method not allowed")
            }
            _ => Response::error(404, "not_found", "no such endpoint"),
        }
    }

    /// `/metricsz`: JSON by default, Prometheus text exposition with
    /// `?format=prometheus`.
    fn metricsz(&self, query: &str) -> Response {
        match query_param(query, "format") {
            Some("prometheus") => Response::with_content_type(
                200,
                crate::http::CONTENT_TYPE_PROMETHEUS,
                self.stats.snapshot().to_prometheus(),
            ),
            None | Some("json") => match serde_json::to_string(&self.stats.snapshot()) {
                Ok(body) => Response::json(200, body),
                Err(e) => Response::error(500, "internal", &format!("snapshot: {e}")),
            },
            Some(other) => Response::error(
                400,
                "invalid_argument",
                &format!("unknown format {other:?}; expected json or prometheus"),
            ),
        }
    }

    fn model(&self, req: &Request) -> Response {
        let mut body = match Body::parse(&req.body) {
            Ok(v) => v,
            Err(e) => return Response::error(400, "malformed_request", &e),
        };
        let model: fn(&ModelQuery) -> Result<String, String> = match req.path.as_str() {
            "/v1/model/delivery" => model_delivery,
            "/v1/model/cost" => model_cost,
            "/v1/model/traceable" => model_traceable,
            "/v1/model/anonymity" => model_anonymity,
            _ => return Response::error(404, "not_found", "no such model endpoint"),
        };
        match ModelQuery::read(&mut body).and_then(|query| model(&query)) {
            Ok(json) => Response::json(200, json),
            Err(e) => Response::error(400, "invalid_argument", &e),
        }
    }

    fn sweep(&self, req: &Request, deadline: Option<Instant>) -> Response {
        let kind = req.path.trim_start_matches("/v1/sweep/");
        let job = match Body::parse(&req.body) {
            Err(e) => return Response::error(400, "malformed_request", &e),
            Ok(_) if !SWEEP_KINDS.contains(&kind) => {
                return Response::error(404, "not_found", "no such sweep endpoint")
            }
            Ok(mut body) => match self.sweep_job(kind, &mut body) {
                Ok(job) => job,
                Err(e) => return Response::error(400, "invalid_argument", &e),
            },
        };
        self.cached_sweep(&job.key, deadline, || {
            // The *server* owns the run policies the identity zeroes: the
            // thread count never shows in a response, and without
            // `keep_going` a result missing trials is never cached or stored.
            let run_opts = job.opts.clone().into_builder().keep_going(false);
            let run_opts = run_opts.threads(self.limits.sweep_threads).build();
            let cancel = || deadline.is_some_and(|d| Instant::now() >= d);
            let rows = self.store.as_deref().map(|store| StoreRowCache {
                api: self,
                store,
                prefix: job.row_prefix(),
            });
            let controls = SweepControls {
                cancel: Some(&cancel),
                rows: rows.as_ref().map(|rows| rows as &(dyn RowCache + Sync)),
            };
            let report = job.spec.run_controlled(&run_opts, &controls);
            let json = match report.map_err(SweepFailure::Stopped)? {
                SweepReport::Point(summary) => to_json(&*summary),
                SweepReport::Delivery(rows) => to_json(&rows),
                SweepReport::Security(rows) => to_json(&rows),
                SweepReport::Fault(rows) => to_json(&rows),
                SweepReport::Code(rows) => to_json(&rows),
            };
            json.map_err(SweepFailure::Internal)
        })
    }

    /// Parses a request for `/v1/sweep/<kind>` into its spec, refuses a
    /// field the kind does not read, checks the spec with
    /// [`SweepSpec::validate`] and the sweep limits, and derives its cache
    /// key.
    fn sweep_job(&self, kind: &str, body: &mut Body) -> Result<SweepJob, String> {
        let cfg = body.or("config", ProtocolConfig::table2_defaults)?;
        let opts = body.or("opts", ExperimentOptions::default)?;
        let spec = match body.or::<Option<SparseScenario>>("sparse", || None)? {
            Some(s) => SweepSpec::sparse(cfg, s.avg_degree),
            None => SweepSpec::random_graph(cfg),
        };
        let spec = match kind {
            "deadline" => spec
                .over_deadlines(&body.or("deadlines", || vec![60.0, 180.0, 360.0, 720.0, 1080.0])?),
            "security" => {
                let compromised: Vec<usize> =
                    body.or("compromised", || default_security_grid(spec.config.nodes))?;
                spec.over_security(&compromised, body.or("adversary_draws", || 3)?)
            }
            "fault" => spec.over_faults(
                body.or("plan", default_fault_plan)?,
                &body.or("intensities", || DEFAULT_FAULT_INTENSITIES.to_vec())?,
            ),
            "code" => spec.over_code_rates(
                &body.or("rates", || vec![(1, 1), (1, 2), (2, 3), (2, 4), (3, 5)])?,
            ),
            // "point": the spec's default axis.
            _ => spec,
        };
        body.reject_unread()?;
        let limits = &self.limits;
        for (field, value, max) in [
            (
                "opts.realizations",
                opts.realizations,
                limits.max_realizations,
            ),
            ("opts.messages", opts.messages, limits.max_messages),
        ] {
            if value > max {
                return Err(format!("{field} must be within 1..={max}"));
            }
        }
        spec.validate(&opts).map_err(|e| e.to_string())?;
        check_sweep_limits(&spec, &opts)?;
        let key = spec.identity(&opts).key();
        Ok(SweepJob { spec, opts, key })
    }

    /// The cache → single-flight → compute funnel for sweep endpoints.
    /// The in-memory LRU holds whole bodies; a miss runs `compute` once
    /// per key however many requests wait on it, and the leader caches
    /// the body before answering. A durable store sits beneath `compute`
    /// alone, as its row cache. A `deadline` in the past by the time the
    /// leader would start computing cancels it after 0 of 0 rows, as an
    /// expiry mid-sweep does after the rows it finished: `504
    /// deadline_exceeded`.
    fn cached_sweep<F>(&self, key: &str, deadline: Option<Instant>, compute: F) -> Response
    where
        F: FnOnce() -> Result<String, SweepFailure>,
    {
        if let Some(hit) = self.cache.get(key) {
            self.stats.cache_hits.bump();
            return Response::json(200, (*hit).clone());
        }
        self.stats.cache_misses.bump();
        let (result, role) = self.flight.run(key, || {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                // Expired while waiting in the single-flight queue:
                // report zero completed work rather than starting a
                // sweep whose budget is already spent.
                let cancelled = SweepRunError::Cancelled {
                    completed: 0,
                    total: 0,
                };
                return Err(SweepFailure::Stopped(cancelled));
            }
            self.stats.sweep_computes.bump();
            compute().map(Arc::new)
        });
        if role == Role::Coalesced {
            self.stats.sweep_coalesced.bump();
        }
        match result {
            Ok(body) => {
                if role == Role::Led {
                    self.cache.insert(key, Arc::clone(&body));
                }
                Response::json(200, (*body).clone())
            }
            Err(SweepFailure::Stopped(SweepRunError::Cancelled { completed, total })) => {
                self.stats.deadline_exceeded.bump();
                // Finished rows outlive the request only in a store.
                let kept = match self.store {
                    Some(_) => "completed rows are persisted — retry to resume",
                    None => "finished rows were not kept — a retry starts over",
                };
                Response::error(
                    504,
                    "deadline_exceeded",
                    &format!(
                        "request deadline exceeded after {completed} of {total} sweep \
                         row(s); {kept}"
                    ),
                )
            }
            Err(SweepFailure::Stopped(e @ SweepRunError::Quarantined { .. })) => {
                Response::error(500, "trial_failed", &e.to_string())
            }
            Err(SweepFailure::Stopped(e)) => {
                Response::error(500, "internal", &format!("sweep: {e}"))
            }
            Err(SweepFailure::Internal(e)) => Response::error(500, "internal", &e),
        }
    }
}

/// Why a sweep computation answered no body.
#[derive(Clone, Debug)]
enum SweepFailure {
    /// The run stopped short.
    Stopped(SweepRunError),
    /// The computation panicked, or its report did not serialize.
    Internal(String),
}

impl From<Panicked> for SweepFailure {
    fn from(Panicked(text): Panicked) -> Self {
        SweepFailure::Internal(text)
    }
}

/// The API's durable [`ResponseStore`] as a [`RowCache`], the one way a
/// sweep reaches it: every row persists under `<prefix>:<row key>`, so a
/// restarted daemon rebuilds a body from its rows and a sweep cancelled
/// by its deadline resumes from the rows it finished.
struct StoreRowCache<'a> {
    api: &'a Api,
    store: &'a ResponseStore,
    prefix: String,
}

impl RowCache for StoreRowCache<'_> {
    fn load(&self, key: &str) -> Option<String> {
        let row = self.store.get(&format!("{}:{key}", self.prefix));
        let stats = &self.api.stats;
        match row {
            Some(_) => stats.store_hits.bump(),
            None => stats.store_misses.bump(),
        }
        row
    }

    fn save(&self, key: &str, row_json: &str) {
        let full = format!("{}:{key}", self.prefix);
        match self.store.put(&full, row_json) {
            Ok(()) => self.api.stats.store_writes.bump(),
            Err(e) => obs::warn!("serve::store", "persist row {full} failed: {e}"),
        }
        self.api.sync_store_gauges();
    }
}

/// The `/v1/sweep/<kind>` endpoints: `point` answers with a point
/// summary, the others with their axis rows.
const SWEEP_KINDS: [&str; 5] = ["point", "deadline", "security", "fault", "code"];

/// A parsed, validated sweep request and its cache key.
struct SweepJob {
    spec: SweepSpec,
    opts: ExperimentOptions,
    /// The response's cache key: the spec's identity key.
    key: String,
}

impl SweepJob {
    /// The store prefix of the sweep's rows: the key of the same spec
    /// with its grid emptied, so a stored row replays in any grid that
    /// contains it. A point has no grid, so its prefix is its own key.
    fn row_prefix(&self) -> String {
        let mut rows = self.spec.clone();
        match &mut rows.axis {
            SweepAxis::Point => return self.key.clone(),
            SweepAxis::Deadline(grid) => grid.clear(),
            SweepAxis::Security(axis) => axis.compromised.clear(),
            SweepAxis::Fault(axis) => axis.intensities.clear(),
            SweepAxis::Code(axis) => axis.rates.clear(),
        }
        rows.identity(&self.opts).key()
    }
}

/// Largest estimated memory of one sweep realization: 512 MiB. Dense
/// worlds need 8 bytes of λ per pair plus
/// `SampledContacts::BYTES_PER_CONTACT` (8) per expected contact
/// (Table II at `T = 1080`: ~4.4 MB); sparse worlds need
/// `SPARSE_PAIR_BYTES` per pair and `SPARSE_NODE_BYTES` per node (the
/// README's `n = 10⁵`, degree-10 point: ~70 MB). A `nodes: 10⁶` dense
/// request would otherwise abort the daemon allocating 4 TB of λ.
pub const MAX_SWEEP_REALIZATION_BYTES: u64 = 512 << 20;

/// Largest `adversary_draws` a security sweep may ask for. The security
/// axis polls the request deadline once, before its single pass, so its
/// work must be bounded up front.
pub const MAX_ADVERSARY_DRAWS: usize = 100;

/// Longest grid (`deadlines`, `compromised`, `intensities`, `rates`) a
/// sweep request may ask for.
pub const MAX_SWEEP_GRID: usize = 64;

/// A sparse world's bytes per proximity pair: a 32-byte calendar slot,
/// its ring entry, 24 bytes of CSR adjacency and generation scratch.
const SPARSE_PAIR_BYTES: f64 = 128.0;

/// A sparse world's bytes per node: position, CSR offset, engine state.
const SPARSE_NODE_BYTES: f64 = 64.0;

/// Most contact events one realization may expect: the count whose
/// dense storage fills [`MAX_SWEEP_REALIZATION_BYTES`], 2²⁶ ≈ 6.7·10⁷.
/// A sparse world stores few of its contacts, so its memory bound does
/// not bound its work, and a point has no row boundary at which the
/// request deadline could stop it.
const MAX_REALIZATION_CONTACTS: f64 =
    (MAX_SWEEP_REALIZATION_BYTES / SampledContacts::BYTES_PER_CONTACT as u64) as f64;

/// Rejects sweeps that would exhaust the daemon: a grid longer than
/// [`MAX_SWEEP_GRID`], more than [`MAX_ADVERSARY_DRAWS`] draws, one
/// realization estimated past [`MAX_SWEEP_REALIZATION_BYTES`], or a
/// sparse realization expecting more than [`MAX_REALIZATION_CONTACTS`]
/// contacts.
fn check_sweep_limits(spec: &SweepSpec, opts: &ExperimentOptions) -> Result<(), String> {
    let horizon = spec.config.deadline.as_f64();
    let (grid, horizon) = match &spec.axis {
        SweepAxis::Point => (None, horizon),
        SweepAxis::Deadline(d) => (
            Some(("deadlines", d.len())),
            d.iter().cloned().fold(0.0, f64::max),
        ),
        SweepAxis::Security(a) => {
            check_limit("adversary_draws", a.adversary_draws, MAX_ADVERSARY_DRAWS)?;
            (Some(("compromised", a.compromised.len())), horizon)
        }
        SweepAxis::Fault(a) => (Some(("intensities", a.intensities.len())), horizon),
        SweepAxis::Code(a) => (Some(("rates", a.rates.len())), horizon),
    };
    if let Some((grid, len)) = grid {
        check_limit(&format!("{grid} length"), len, MAX_SWEEP_GRID)?;
    }
    let n = spec.config.nodes as f64;
    let (bytes, driver) = realization_bytes(spec, opts, horizon);
    let (mib, limit) = (
        bytes / (1u64 << 20) as f64,
        MAX_SWEEP_REALIZATION_BYTES >> 20,
    );
    if mib > limit as f64 {
        return Err(format!(
            "config.nodes {n} at {driver} needs ~{mib:.0} MiB per realization; \
             the limit is {limit} MiB"
        ));
    }
    if let Scenario::Sparse(s) = &spec.scenario {
        let contacts = expected_contacts(n * s.avg_degree / 2.0, opts, horizon);
        if contacts > MAX_REALIZATION_CONTACTS {
            return Err(format!(
                "config.nodes {n} at sparse.avg_degree {} and deadline {horizon} expects \
                 ~{contacts:.1e} contacts per realization; the limit is {MAX_REALIZATION_CONTACTS:.1e}",
                s.avg_degree
            ));
        }
    }
    Ok(())
}

/// Estimated memory of one realization of `spec` simulated to `horizon`,
/// and the field that drives it.
fn realization_bytes(spec: &SweepSpec, opts: &ExperimentOptions, horizon: f64) -> (f64, String) {
    let n = spec.config.nodes as f64;
    match &spec.scenario {
        Scenario::Sparse(s) => (
            SPARSE_NODE_BYTES * n + SPARSE_PAIR_BYTES * n * s.avg_degree / 2.0,
            format!("sparse.avg_degree {}", s.avg_degree),
        ),
        _ => {
            let pairs = n * (n - 1.0) / 2.0;
            let contact_bytes = SampledContacts::BYTES_PER_CONTACT as f64;
            (
                8.0 * pairs + contact_bytes * expected_contacts(pairs, opts, horizon),
                format!("deadline {horizon}"),
            )
        }
    }
}

/// Expected contacts of `pairs` pairs until `horizon`: pairs × E[1/X] × T
/// for mean inter-contact times X ~ U(lo, hi), which dense and sparse
/// worlds both draw per pair.
fn expected_contacts(pairs: f64, opts: &ExperimentOptions, horizon: f64) -> f64 {
    let (lo, hi) = opts.intercontact_range;
    let mean_rate = if hi > lo {
        (hi / lo).ln() / (hi - lo)
    } else {
        1.0 / lo
    };
    pairs * mean_rate * horizon
}

/// Looks up one `key=value` pair in an `&`-separated query string.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find_map(|(k, v)| (k == key).then_some(v))
}

/// A request body's top-level JSON object. Each read records its field,
/// so [`Body::reject_unread`] refuses a field no read asked for.
struct Body {
    fields: Vec<(String, Value)>,
    read: Vec<&'static str>,
}

impl Body {
    /// An empty body parses as an empty object; anything else must be a
    /// JSON object, and the error names the type of any other value.
    fn parse(body: &str) -> Result<Body, String> {
        let value = if body.is_empty() {
            Value::Object(Vec::new())
        } else {
            serde_json::parse_value(body).map_err(|e| format!("invalid JSON body: {e}"))?
        };
        let kind = match value {
            Value::Object(fields) => {
                return Ok(Body {
                    fields,
                    read: Vec::new(),
                })
            }
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "a number",
            Value::Str(_) => "a string",
            Value::Array(_) => "an array",
        };
        Err(format!("the body must be a JSON object, got {kind}"))
    }

    /// A typed field, or `default()` when absent or null.
    fn or<T: serde::DeserializeOwned>(
        &mut self,
        key: &'static str,
        default: impl FnOnce() -> T,
    ) -> Result<T, String> {
        self.read.push(key);
        match self.fields.iter().find(|(k, _)| k == key) {
            None | Some((_, Value::Null)) => Ok(default()),
            Some((_, v)) => T::from_value(v).map_err(|e| format!("{key}: {e}")),
        }
    }

    /// Refuses the first field that no read asked for.
    fn reject_unread(&self) -> Result<(), String> {
        for (key, _) in &self.fields {
            if !self.read.contains(&key.as_str()) {
                return Err(format!("unexpected field {key:?}"));
            }
        }
        Ok(())
    }
}

/// Passes a model size field through when it is at most `limit`; the
/// error names the field and the limit. The CLI's `plan` command applies
/// the same checks to its flags.
pub fn check_limit<T: PartialOrd + std::fmt::Display>(
    field: &str,
    value: T,
    limit: T,
) -> Result<T, String> {
    if value > limit {
        Err(format!("{field} must be at most {limit}, got {value}"))
    } else {
        Ok(value)
    }
}

fn to_json<T: Serialize>(value: &T) -> Result<String, String> {
    serde_json::to_string(value).map_err(|e| format!("serialize response: {e}"))
}

/// `/v1/model/delivery` response.
#[derive(Debug, Serialize)]
pub struct DeliveryModel {
    /// Per-pair contact rate used for every hop.
    pub lambda: f64,
    /// Onion group size `g`.
    pub group_size: usize,
    /// Onion hops `K`.
    pub onions: usize,
    /// Message copies `L`.
    pub copies: u32,
    /// Deadline `T` (minutes).
    pub deadline: f64,
    /// Per-hop aggregate rates (Eq. 4).
    pub rates: Vec<f64>,
    /// Delivery probability within the deadline (Eq. 6/7).
    pub delivery_rate: f64,
    /// Mean end-to-end delay of a single copy.
    pub mean_delay: f64,
    /// Median end-to-end delay of a single copy.
    pub median_delay: f64,
}

/// The one query every `/v1/model/*` endpoint reads: seven fields, each
/// with one default, under one set of checks.
struct ModelQuery {
    lambda: f64,
    group_size: usize,
    onions: usize,
    copies: u32,
    deadline: f64,
    nodes: usize,
    compromised: usize,
}

impl ModelQuery {
    /// Reads the query, refuses any other field, and checks the sizes
    /// against their limits and `0 < nodes`, `compromised <= nodes`.
    fn read(body: &mut Body) -> Result<ModelQuery, String> {
        let query = ModelQuery {
            lambda: body.or("lambda", || TABLE2_MEAN_RATE)?,
            group_size: body.or("group_size", || 5)?,
            onions: body.or("onions", || 3)?,
            copies: body.or("copies", || 1)?,
            deadline: body.or("deadline", || 1080.0)?,
            nodes: body.or("nodes", || 100)?,
            compromised: body.or("compromised", || 10)?,
        };
        body.reject_unread()?;
        check_limit("group_size", query.group_size, MAX_MODEL_GROUP_SIZE)?;
        check_limit("onions", query.onions, MAX_MODEL_ONIONS)?;
        check_limit("copies", query.copies, MAX_MODEL_COPIES)?;
        if query.nodes == 0 || query.compromised > query.nodes {
            return Err("need 0 < nodes and compromised <= nodes".to_string());
        }
        Ok(query)
    }
}

fn model_delivery(q: &ModelQuery) -> Result<String, String> {
    let rates = analysis::uniform_onion_path_rates(q.lambda, q.group_size, q.onions)
        .map_err(|e| e.to_string())?;
    let delivery_rate = analysis::delivery_rate_multicopy(&rates, q.copies, q.deadline)
        .map_err(|e| e.to_string())?;
    let mean_delay = analysis::expected_delay(&rates).map_err(|e| e.to_string())?;
    let median_delay = analysis::median_delay(&rates).map_err(|e| e.to_string())?;
    to_json(&DeliveryModel {
        lambda: q.lambda,
        group_size: q.group_size,
        onions: q.onions,
        copies: q.copies,
        deadline: q.deadline,
        rates,
        delivery_rate,
        mean_delay,
        median_delay,
    })
}

/// `/v1/model/cost` response.
#[derive(Debug, Serialize)]
pub struct CostModel {
    /// Onion hops `K`.
    pub onions: usize,
    /// Message copies `L`.
    pub copies: u32,
    /// Transmission bound for these parameters (§IV-C).
    pub bound: u64,
    /// Non-anonymous (direct spray) bound at the same `L`.
    pub non_anonymous: u64,
    /// Multiplicative overhead of anonymity at `L = 1`.
    pub anonymity_cost_factor: f64,
}

fn model_cost(q: &ModelQuery) -> Result<String, String> {
    let bound = if q.copies == 1 {
        analysis::single_copy_cost(q.onions)
    } else {
        analysis::multi_copy_bound(q.onions, q.copies).map_err(|e| e.to_string())?
    };
    to_json(&CostModel {
        onions: q.onions,
        copies: q.copies,
        bound,
        non_anonymous: analysis::non_anonymous_bound(q.copies),
        anonymity_cost_factor: analysis::anonymity_cost_factor(q.onions),
    })
}

/// `/v1/model/traceable` response.
#[derive(Debug, Serialize)]
pub struct TraceableModel {
    /// Node count `n`.
    pub nodes: usize,
    /// Compromised nodes `c`.
    pub compromised: usize,
    /// Onion hops `K`.
    pub onions: usize,
    /// Hops between endpoints `η = K + 1`.
    pub eta: usize,
    /// Compromise probability `p = c/n`.
    pub compromise_probability: f64,
    /// Expected traceable rate (run-length model, Eqs. 8–12).
    pub traceable_rate: f64,
}

fn model_traceable(q: &ModelQuery) -> Result<String, String> {
    let eta = q.onions + 1;
    let p = q.compromised as f64 / q.nodes as f64;
    let traceable_rate = analysis::expected_traceable_rate(eta, p).map_err(|e| e.to_string())?;
    to_json(&TraceableModel {
        nodes: q.nodes,
        compromised: q.compromised,
        onions: q.onions,
        eta,
        compromise_probability: p,
        traceable_rate,
    })
}

/// `/v1/model/anonymity` response.
#[derive(Debug, Serialize)]
pub struct AnonymityModel {
    /// Node count `n`.
    pub nodes: usize,
    /// Onion group size `g`.
    pub group_size: usize,
    /// Onion hops `K`.
    pub onions: usize,
    /// Compromised nodes `c`.
    pub compromised: usize,
    /// Message copies `L`.
    pub copies: u32,
    /// Entropy-based path anonymity degree (Eq. 19).
    pub anonymity: f64,
}

fn model_anonymity(q: &ModelQuery) -> Result<String, String> {
    let anonymity =
        analysis::path_anonymity(q.nodes, q.group_size, q.onions, q.compromised, q.copies)
            .map_err(|e| e.to_string())?;
    to_json(&AnonymityModel {
        nodes: q.nodes,
        group_size: q.group_size,
        onions: q.onions,
        compromised: q.compromised,
        copies: q.copies,
        anonymity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_sim::FaultPlan;
    use onion_routing::run_random_graph_point;

    fn api() -> Api {
        api_with_store(None)
    }

    fn api_with_store(store: Option<Arc<ResponseStore>>) -> Api {
        Api::new(
            16,
            2,
            store,
            Arc::new(ServeStats::new()),
            ApiLimits {
                sweep_threads: 1,
                max_realizations: 4,
                max_messages: 20,
            },
        )
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            body: body.to_string(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            body: String::new(),
        }
    }

    #[test]
    fn health_and_metrics_respond() {
        let api = api();
        let r = api.handle(&get("/healthz"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("ok"));
        let r = api.handle(&get("/metricsz"));
        assert_eq!(r.status, 200);
        assert!(r.body.contains("uptime_secs"));
    }

    #[test]
    fn metricsz_formats_select_body_and_content_type() {
        let api = api();
        // `observe` lives in the connection handler, not the router, so
        // record the latency sample directly.
        api.stats.observe("health", 200, 0.0005);
        let json = api.handle(&get("/metricsz"));
        assert_eq!(json.status, 200);
        assert_eq!(json.content_type, crate::http::CONTENT_TYPE_JSON);
        assert!(json.body.contains("\"endpoint_buckets\""));
        let prom = api.handle(&get("/metricsz?format=prometheus"));
        assert_eq!(prom.status, 200);
        assert_eq!(prom.content_type, crate::http::CONTENT_TYPE_PROMETHEUS);
        assert!(prom.body.contains("serve_requests_total"));
        assert!(prom
            .body
            .contains("serve_latency_seconds_bucket{class=\"health\",le=\"+Inf\"} 1"));
        let explicit = api.handle(&get("/metricsz?format=json"));
        assert_eq!(explicit.status, 200);
        assert_eq!(explicit.content_type, crate::http::CONTENT_TYPE_JSON);
        let bad = api.handle(&get("/metricsz?format=xml"));
        assert_eq!(bad.status, 400);
        assert_eq!(Api::class_of("/metricsz?format=prometheus"), "metrics");
    }

    #[test]
    fn routing_rejects_unknown_and_wrong_method() {
        let api = api();
        assert_eq!(api.handle(&get("/nope")).status, 404);
        assert_eq!(api.handle(&get("/v1/model/delivery")).status, 405);
        assert_eq!(api.handle(&post("/healthz", "")).status, 405);
        assert_eq!(api.handle(&post("/v1/model/unknown", "{}")).status, 404);
    }

    #[test]
    fn model_delivery_defaults_match_direct_evaluation() {
        let api = api();
        let r = api.handle(&post("/v1/model/delivery", "{}"));
        assert_eq!(r.status, 200, "{}", r.body);
        let rates = analysis::uniform_onion_path_rates(TABLE2_MEAN_RATE, 5, 3).unwrap();
        let expected = analysis::delivery_rate_multicopy(&rates, 1, 1080.0).unwrap();
        let value = serde_json::parse_value(&r.body).unwrap();
        match value.get("delivery_rate").unwrap() {
            Value::Float(f) => assert_eq!(*f, expected),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn model_endpoints_validate_inputs() {
        let api = api();
        // g = 0 is rejected by the analysis layer.
        let r = api.handle(&post("/v1/model/delivery", "{\"group_size\":0}"));
        assert_eq!(r.status, 400);
        let r = api.handle(&post("/v1/model/traceable", "{\"compromised\":200}"));
        assert_eq!(r.status, 400);
        let r = api.handle(&post("/v1/model/anonymity", "not json"));
        assert_eq!(r.status, 400);
    }

    #[test]
    fn dense_estimate_prices_contacts_as_sampled_contacts_store_them() {
        // A Table II realization at T = 1080: the admission estimate and
        // what sampling stores agree, so the per-contact cost has one
        // source.
        use contact_graph::{Time, UniformGraphBuilder};
        use rand::SeedableRng;
        let cfg = ProtocolConfig::table2_defaults();
        let opts = ExperimentOptions::default();
        let horizon = cfg.deadline.as_f64();
        let (estimate, _) = realization_bytes(&SweepSpec::random_graph(cfg), &opts, horizon);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let graph = UniformGraphBuilder::new(100).build(&mut rng);
        let contacts = SampledContacts::sample(&graph, Time::new(horizon), &mut rng);
        let stored = 8.0 * 4950.0 + (contacts.len() * SampledContacts::BYTES_PER_CONTACT) as f64;
        assert!(
            (estimate / stored - 1.0).abs() < 0.05,
            "estimate {estimate} vs stored {stored}"
        );
    }

    #[test]
    fn model_size_limits_admit_the_bound_and_reject_past_it() {
        let api = api();
        let at_limit = format!(
            "{{\"group_size\":{MAX_MODEL_GROUP_SIZE},\"onions\":{MAX_MODEL_ONIONS},\
             \"copies\":{MAX_MODEL_COPIES},\"nodes\":100000,\"compromised\":10}}"
        );
        for path in [
            "/v1/model/delivery",
            "/v1/model/cost",
            "/v1/model/traceable",
            "/v1/model/anonymity",
        ] {
            let r = api.handle(&post(path, &at_limit));
            assert_eq!(r.status, 200, "{path}: {}", r.body);
        }
        let past = [
            ("group_size", MAX_MODEL_GROUP_SIZE as u64 + 1),
            ("onions", MAX_MODEL_ONIONS as u64 + 1),
            ("copies", MAX_MODEL_COPIES as u64 + 1),
        ];
        for (field, value) in past {
            let r = api.handle(&post(
                "/v1/model/delivery",
                &format!("{{\"{field}\":{value}}}"),
            ));
            assert_eq!(r.status, 400, "{field}: {}", r.body);
            assert!(
                r.body
                    .contains(&format!("{field} must be at most {}", value - 1)),
                "{}",
                r.body
            );
        }
        // Every endpoint reads the one query, so each checks every size.
        let r = api.handle(&post("/v1/model/traceable", "{\"group_size\":1000000}"));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(
            r.body.contains("group_size must be at most 100"),
            "{}",
            r.body
        );
    }

    const MODEL_PATHS: [&str; 4] = [
        "/v1/model/delivery",
        "/v1/model/cost",
        "/v1/model/traceable",
        "/v1/model/anonymity",
    ];

    /// Asserts a `400 invalid_argument` whose message names `field`.
    fn assert_unexpected_field(r: &Response, field: &str) {
        let message = format!("unexpected field {field:?}");
        assert_eq!(
            r.body,
            Response::error(400, "invalid_argument", &message).body
        );
        assert_eq!(r.status, 400);
    }

    #[test]
    fn a_model_field_outside_the_query_answers_400_naming_it() {
        let api = api();
        for path in MODEL_PATHS {
            assert_unexpected_field(&api.handle(&post(path, "{\"onoins\":5}")), "onoins");
        }
    }

    /// The body perfbench's serve mix posts to every model endpoint
    /// answers 200 on each, with the bytes of the direct evaluation.
    #[test]
    fn one_model_body_answers_every_model_endpoint() {
        let (g, k, l, t, n, c) = (4, 3, 2, 360.0, 120, 17);
        let body = format!(
            "{{\"group_size\":{g},\"onions\":{k},\"copies\":{l},\"deadline\":{t:?},\
             \"nodes\":{n},\"compromised\":{c}}}"
        );
        let rates = analysis::uniform_onion_path_rates(TABLE2_MEAN_RATE, g, k).unwrap();
        let p = c as f64 / n as f64;
        let expected = [
            json(&DeliveryModel {
                lambda: TABLE2_MEAN_RATE,
                group_size: g,
                onions: k,
                copies: l,
                deadline: t,
                delivery_rate: analysis::delivery_rate_multicopy(&rates, l, t).unwrap(),
                mean_delay: analysis::expected_delay(&rates).unwrap(),
                median_delay: analysis::median_delay(&rates).unwrap(),
                rates,
            }),
            json(&CostModel {
                onions: k,
                copies: l,
                bound: analysis::multi_copy_bound(k, l).unwrap(),
                non_anonymous: analysis::non_anonymous_bound(l),
                anonymity_cost_factor: analysis::anonymity_cost_factor(k),
            }),
            json(&TraceableModel {
                nodes: n,
                compromised: c,
                onions: k,
                eta: k + 1,
                compromise_probability: p,
                traceable_rate: analysis::expected_traceable_rate(k + 1, p).unwrap(),
            }),
            json(&AnonymityModel {
                nodes: n,
                group_size: g,
                onions: k,
                compromised: c,
                copies: l,
                anonymity: analysis::path_anonymity(n, g, k, c, l).unwrap(),
            }),
        ];
        let api = api();
        for (path, expected) in MODEL_PATHS.into_iter().zip(expected) {
            let r = api.handle(&post(path, &body));
            assert_eq!(r.status, 200, "{path}: {}", r.body);
            assert_eq!(r.body, expected, "{path}");
        }
    }

    #[test]
    fn a_sweep_field_its_kind_does_not_read_answers_400_naming_it() {
        let api = api();
        for (body, field) in [
            ("{\"confg\":{}}", "confg"),
            ("{\"deadlines\":[60]}", "deadlines"),
        ] {
            assert_unexpected_field(&api.handle(&post("/v1/sweep/point", body)), field);
        }
        // Each kind reads `config`, `opts`, `sparse` and its own axis
        // fields, and refuses every other kind's.
        let plan = json(&FaultPlan::default());
        let fields = [
            ("deadlines", "[60.0]".to_string(), "deadline"),
            ("compromised", "[1]".into(), "security"),
            ("adversary_draws", "2".into(), "security"),
            ("plan", plan, "fault"),
            ("intensities", "[0.5]".into(), "fault"),
            ("rates", "[[1,2]]".into(), "code"),
        ];
        let base = format!(
            "\"config\":{},\"opts\":{},\"sparse\":null",
            json(&ProtocolConfig::table2_defaults()),
            json(&ExperimentOptions::builder().realizations(1).build())
        );
        for kind in SWEEP_KINDS {
            for (field, value, reader) in &fields {
                let mut body = Body::parse(&format!("{{{base},\"{field}\":{value}}}")).unwrap();
                match api.sweep_job(kind, &mut body) {
                    Ok(_) => assert_eq!(kind, *reader, "{kind} read {field}"),
                    Err(e) => {
                        assert_ne!(kind, *reader, "{kind} refused {field}: {e}");
                        assert_eq!(e, format!("unexpected field {field:?}"));
                    }
                }
            }
        }
    }

    #[test]
    fn sweep_caps_are_enforced() {
        let api = api();
        let opts = ExperimentOptions::builder().realizations(100).build();
        let body = format!("{{\"opts\":{}}}", serde_json::to_string(&opts).unwrap());
        let r = api.handle(&post("/v1/sweep/point", &body));
        assert_eq!(r.status, 400);
        assert!(r.body.contains("realizations"), "{}", r.body);
    }

    #[test]
    fn sweep_point_computes_then_hits_cache() {
        let api = api();
        let opts = ExperimentOptions::builder()
            .messages(4)
            .realizations(2)
            .build();
        let body = format!("{{\"opts\":{}}}", serde_json::to_string(&opts).unwrap());
        let first = api.handle(&post("/v1/sweep/point", &body));
        assert_eq!(first.status, 200, "{}", first.body);
        let second = api.handle(&post("/v1/sweep/point", &body));
        assert_eq!(second.body, first.body);
        let snap = api.stats.snapshot();
        assert_eq!(snap.counters["sweep_computes"], 1);
        assert_eq!(snap.counters["cache_hits"], 1);
        assert_eq!(snap.counters["cache_misses"], 1);
        // Bit-identical to the offline run of the same config.
        let offline = run_random_graph_point(&ProtocolConfig::table2_defaults(), &opts);
        assert_eq!(first.body, serde_json::to_string(&offline).unwrap());
    }

    #[test]
    fn thread_count_does_not_split_the_cache() {
        let api = api();
        let a = ExperimentOptions::builder()
            .messages(4)
            .realizations(2)
            .threads(1)
            .build();
        let b = a.clone().into_builder().threads(8).build();
        // Nor does `keep_going`, the other run policy the daemon owns.
        let c = a.clone().into_builder().keep_going(true).build();
        let [ra, rb, rc] = [a, b, c].map(|opts| {
            let body = format!("{{\"opts\":{}}}", serde_json::to_string(&opts).unwrap());
            api.handle(&post("/v1/sweep/point", &body))
        });
        assert_eq!(ra.body, rb.body);
        assert_eq!(ra.body, rc.body);
        assert_eq!(api.stats.snapshot().counters["sweep_computes"], 1);
    }

    #[test]
    fn sweep_deadline_rejects_bad_axis() {
        let api = api();
        let r = api.handle(&post("/v1/sweep/deadline", "{\"deadlines\":[-5.0]}"));
        assert_eq!(r.status, 400);
        let r = api.handle(&post("/v1/sweep/deadline", "{\"deadlines\":[]}"));
        assert_eq!(r.status, 400);
    }

    /// A parsed body is keyed by its spec's identity under its options,
    /// the key `--resume` gives the same run, and its stored rows by the
    /// same spec with its grid emptied (a point by its own key).
    /// Committed keys are pinned in `tests/sweep_api_equivalence.rs`.
    #[test]
    fn a_parsed_body_is_keyed_by_its_spec_identity() {
        let cfg = ProtocolConfig {
            nodes: 60,
            group_size: 4,
            onions: 2,
            copies: 2,
            deadline: contact_graph::TimeDelta::new(720.0),
            compromised: 6,
            ..ProtocolConfig::table2_defaults()
        };
        let opts = ExperimentOptions::builder()
            .messages(7)
            .realizations(3)
            .seed(99)
            .threads(4)
            .wire(true)
            .build();
        let base = format!("\"config\":{},\"opts\":{}", json(&cfg), json(&opts));
        let plan = FaultPlan {
            contact_failure: 0.1,
            ..FaultPlan::default()
        };
        let api = api();
        for sparse in [None, Some(9.5)] {
            let world = match sparse {
                Some(d) => SweepSpec::sparse(cfg.clone(), d),
                None => SweepSpec::random_graph(cfg.clone()),
            };
            let cells = [
                ("point", String::new(), world.clone(), world.clone()),
                (
                    "deadline",
                    ",\"deadlines\":[60.0,720.0]".into(),
                    world.clone().over_deadlines(&[60.0, 720.0]),
                    world.clone().over_deadlines(&[]),
                ),
                (
                    "security",
                    ",\"compromised\":[3,12]".into(),
                    world.clone().over_security(&[3, 12], 3),
                    world.clone().over_security(&[], 3),
                ),
                (
                    "fault",
                    format!(",\"plan\":{},\"intensities\":[0.0,1.0]", json(&plan)),
                    world.clone().over_faults(plan, &[0.0, 1.0]),
                    world.clone().over_faults(plan, &[]),
                ),
                (
                    "code",
                    ",\"rates\":[[1,2],[2,3]]".into(),
                    world.clone().over_code_rates(&[(1, 2), (2, 3)]),
                    world.clone().over_code_rates(&[]),
                ),
            ];
            for (kind, axis, spec, rows) in cells {
                let mut body = format!("{{{base}{axis}");
                if let Some(d) = sparse {
                    body += &format!(",\"sparse\":{{\"avg_degree\":{d}}}");
                }
                let mut body = Body::parse(&format!("{body}}}")).unwrap();
                let job = api.sweep_job(kind, &mut body);
                let job = job.unwrap_or_else(|e| panic!("{kind} {sparse:?}: {e}"));
                assert_eq!(job.spec, spec, "{kind} {sparse:?}");
                assert_eq!(job.key, spec.identity(&opts).key(), "{kind} {sparse:?}");
                assert_eq!(
                    job.row_prefix(),
                    rows.identity(&opts).key(),
                    "{kind} {sparse:?}"
                );
            }
        }
    }

    /// Each invalid spec names its field from `SweepSpec::validate`, and
    /// the same spec posted as a request body answers 400 with that
    /// error.
    #[test]
    fn invalid_sweep_specs_name_their_field_and_answer_400() {
        let cfg = ProtocolConfig {
            nodes: 30,
            group_size: 3,
            onions: 2,
            compromised: 3,
            ..ProtocolConfig::table2_defaults()
        };
        let opts = ExperimentOptions::builder()
            .messages(2)
            .realizations(1)
            .build();
        let rg = || SweepSpec::random_graph(cfg.clone());
        // Passes every other config check, but no message has two
        // distinct endpoints.
        let one_node = ProtocolConfig {
            nodes: 1,
            group_size: 1,
            onions: 1,
            compromised: 0,
            ..cfg.clone()
        };
        let broken = FaultPlan {
            contact_failure: 2.0,
            ..FaultPlan::default()
        };
        let table: Vec<(SweepSpec, ExperimentOptions, &str)> = vec![
            (rg().over_deadlines(&[]), opts.clone(), "deadlines"),
            (
                rg().over_deadlines(&[-5.0, 60.0]),
                opts.clone(),
                "deadlines",
            ),
            (rg().over_security(&[1000], 3), opts.clone(), "compromised"),
            (rg().over_faults(broken, &[0.5]), opts.clone(), "plan"),
            (
                rg().over_faults(FaultPlan::default(), &[11.0]),
                opts.clone(),
                "intensities",
            ),
            (rg().over_code_rates(&[(3, 2)]), opts.clone(), "rates"),
            (
                SweepSpec::random_graph(ProtocolConfig {
                    group_size: 0,
                    ..cfg.clone()
                })
                .over_deadlines(&[60.0]),
                opts.clone(),
                "config",
            ),
            (
                SweepSpec::random_graph(one_node.clone()).over_deadlines(&[60.0]),
                opts.clone(),
                "config",
            ),
            (
                SweepSpec::sparse(cfg.clone(), 0.0).over_deadlines(&[60.0]),
                opts.clone(),
                "sparse.avg_degree",
            ),
            (
                rg().over_deadlines(&[60.0]),
                opts.clone().into_builder().code(Some((0, 1))).build(),
                "opts.code",
            ),
            (
                rg().over_deadlines(&[60.0]),
                opts.clone().into_builder().faults(broken).build(),
                "opts.faults",
            ),
            (
                rg().over_deadlines(&[60.0]),
                opts.clone()
                    .into_builder()
                    .intercontact_range((0.0, 36.0))
                    .build(),
                "opts.intercontact_range",
            ),
            (
                rg().over_deadlines(&[60.0]),
                opts.clone().into_builder().messages(0).build(),
                "opts.messages",
            ),
            (
                rg().over_deadlines(&[60.0]),
                opts.clone().into_builder().realizations(0).build(),
                "opts.realizations",
            ),
        ];
        let api = api();
        let request = |spec: &SweepSpec, opts: &ExperimentOptions| {
            let mut body = format!("\"config\":{},\"opts\":{}", json(&spec.config), json(opts));
            if let Scenario::Sparse(s) = &spec.scenario {
                body += &format!(",\"sparse\":{}", json(&s));
            }
            let (path, axis) = match &spec.axis {
                SweepAxis::Point => ("point", String::new()),
                SweepAxis::Deadline(d) => ("deadline", format!(",\"deadlines\":{}", json(&d))),
                SweepAxis::Security(a) => (
                    "security",
                    format!(",\"compromised\":{}", json(&a.compromised)),
                ),
                SweepAxis::Fault(a) => (
                    "fault",
                    format!(
                        ",\"plan\":{},\"intensities\":{}",
                        json(&a.base_plan),
                        json(&a.intensities)
                    ),
                ),
                SweepAxis::Code(a) => ("code", format!(",\"rates\":{}", json(&a.rates))),
            };
            api.handle(&post(
                &format!("/v1/sweep/{path}"),
                &format!("{{{body}{axis}}}"),
            ))
        };
        for (spec, opts, field) in table {
            let err = spec.validate(&opts).expect_err(field);
            assert_eq!(err.field, field, "{err}");
            let r = request(&spec, &opts);
            assert_eq!(r.status, 400, "{field}: {}", r.body);
            assert!(r.body.contains(&err.to_string()), "{field}: {}", r.body);
        }
        // Specs that validate but would hold a worker for hours: the
        // sweep limits name the fields that drive the estimate.
        let at = |deadline: f64| ProtocolConfig {
            deadline: contact_graph::TimeDelta::new(deadline),
            ..cfg.clone()
        };
        let sparse_named = "sparse.avg_degree 10 and deadline 1000000000";
        let limited = [
            (
                rg().over_deadlines(&[1e9]),
                "config.nodes 30 at deadline 1000000000",
            ),
            (
                SweepSpec::sparse(cfg.clone(), 10.0).over_deadlines(&[1e9]),
                sparse_named,
            ),
            (SweepSpec::sparse(at(1e9), 10.0), sparse_named),
            (
                SweepSpec::sparse(at(1e9), 10.0).over_code_rates(&[(1, 1)]),
                sparse_named,
            ),
        ];
        for (spec, named) in limited {
            spec.validate(&opts).expect(named);
            let err = check_sweep_limits(&spec, &opts).expect_err(named);
            assert!(err.contains(named), "{err}");
            let r = request(&spec, &opts);
            assert_eq!(r.status, 400, "{named}: {}", r.body);
            assert!(r.body.contains(&err), "{named}: {}", r.body);
        }
        // The README's n = 10⁵, degree-10 point (~5.5·10⁷ expected
        // contacts at T = 1080) stays admissible.
        let readme = ProtocolConfig {
            nodes: 100_000,
            compromised: 10_000,
            ..ProtocolConfig::table2_defaults()
        };
        let point = SweepSpec::sparse(readme, 10.0);
        let defaults = ExperimentOptions::default();
        point.validate(&defaults).expect("README point validates");
        check_sweep_limits(&point, &defaults).expect("README point is admitted");
        // The point endpoint rejects the same config before any trial runs.
        let body = format!(
            "{{\"config\":{},\"opts\":{}}}",
            json(&one_node),
            json(&opts)
        );
        let r = api.handle(&post("/v1/sweep/point", &body));
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("invalid_argument"), "{}", r.body);
        assert!(
            r.body.contains("config: n must be at least 2"),
            "{}",
            r.body
        );
    }

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        serde_json::to_string(value).unwrap()
    }

    /// Unique scratch dir per test, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(name: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("onion-dtn-api-{name}"));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn small_sweep_body() -> String {
        let opts = ExperimentOptions::builder()
            .messages(4)
            .realizations(2)
            .build();
        format!("{{\"opts\":{}}}", serde_json::to_string(&opts).unwrap())
    }

    #[test]
    fn store_survives_restart_and_promotes_to_lru() {
        let scratch = Scratch::new("restart");
        let body = small_sweep_body();
        let first = {
            let store = Arc::new(ResponseStore::open(&scratch.0, 1 << 20).unwrap());
            let api = api_with_store(Some(store));
            let r = api.handle(&post("/v1/sweep/point", &body));
            assert_eq!(r.status, 200, "{}", r.body);
            let snap = api.stats.snapshot();
            assert_eq!(snap.counters["sweep_computes"], 1);
            assert_eq!(snap.counters["store_misses"], 1);
            assert_eq!(snap.counters["store_writes"], 1);
            assert_eq!(snap.gauges["store_records"], 1);
            r.body
        };
        // "Restart": fresh LRU, fresh stats, same directory on disk.
        let store = Arc::new(ResponseStore::open(&scratch.0, 1 << 20).unwrap());
        let api = api_with_store(Some(store));
        let warm = api.handle(&post("/v1/sweep/point", &body));
        assert_eq!(warm.status, 200, "{}", warm.body);
        assert_eq!(warm.body, first, "store must replay byte-identical bodies");
        // A row is computed exactly when its lookup misses.
        let snap = api.stats.snapshot();
        assert_eq!(snap.counters["store_misses"], 0);
        assert_eq!(snap.counters["store_hits"], 1);
        // The leader rebuilt the body from its stored row into the LRU.
        let again = api.handle(&post("/v1/sweep/point", &body));
        assert_eq!(again.body, first);
        assert_eq!(api.stats.snapshot().counters["cache_hits"], 1);
    }

    #[test]
    fn expired_deadline_maps_to_504_and_retry_succeeds() {
        let api = api();
        let body = small_sweep_body();
        let req = post("/v1/sweep/point", &body);
        let expired = api.handle_at(&req, Some(Instant::now()));
        assert_eq!(expired.status, 504, "{}", expired.body);
        // Without a store nothing outlives the request.
        let message = "request deadline exceeded after 0 of 0 sweep row(s); \
                       finished rows were not kept — a retry starts over";
        let envelope = Response::error(504, "deadline_exceeded", message);
        assert_eq!(expired.body, envelope.body);
        assert_eq!(api.stats.snapshot().counters["deadline_exceeded"], 1);
        assert_eq!(api.stats.snapshot().counters["sweep_computes"], 0);
        // An expired leader must not poison the cache: a retry without a
        // deadline computes normally.
        let retry = api.handle(&req);
        assert_eq!(retry.status, 200, "{}", retry.body);
    }

    #[test]
    fn expired_deadline_with_a_store_says_completed_rows_are_persisted() {
        let scratch = Scratch::new("expired-store");
        let store = Arc::new(ResponseStore::open(&scratch.0, 1 << 20).unwrap());
        let api = api_with_store(Some(store));
        let req = post("/v1/sweep/point", &small_sweep_body());
        let expired = api.handle_at(&req, Some(Instant::now()));
        let message = "request deadline exceeded after 0 of 0 sweep row(s); \
                       completed rows are persisted — retry to resume";
        let envelope = Response::error(504, "deadline_exceeded", message);
        assert_eq!(expired.status, 504, "{}", expired.body);
        assert_eq!(expired.body, envelope.body);
    }

    #[test]
    fn fault_rows_persist_and_replay_across_intensity_grids() {
        let scratch = Scratch::new("fault-rows");
        let store = Arc::new(ResponseStore::open(&scratch.0, 1 << 20).unwrap());
        let opts = ExperimentOptions::builder()
            .messages(3)
            .realizations(2)
            .build();
        let opts_json = serde_json::to_string(&opts).unwrap();
        let grid = format!("{{\"opts\":{opts_json},\"intensities\":[0.0,0.5]}}");
        let single = format!("{{\"opts\":{opts_json},\"intensities\":[0.5]}}");

        let api = api_with_store(Some(Arc::clone(&store)));
        let r = api.handle(&post("/v1/sweep/fault", &grid));
        assert_eq!(r.status, 200, "{}", r.body);
        assert_eq!(api.stats.snapshot().counters["store_writes"], 2);
        // One record per row, and no body that repeats them.
        assert_eq!(store.status().records, 2);

        // Fresh stats + LRU, same store: a different grid sharing one
        // intensity replays that row instead of recomputing it, and the
        // result is bit-identical to a cold run of the same grid.
        let api2 = api_with_store(Some(Arc::clone(&store)));
        let warm = api2.handle(&post("/v1/sweep/fault", &single));
        assert_eq!(warm.status, 200, "{}", warm.body);
        let snap = api2.stats.snapshot();
        assert_eq!(snap.counters["store_hits"], 1);
        assert_eq!(snap.counters["store_writes"], 0);

        let cold = api_with_store(None);
        let reference = cold.handle(&post("/v1/sweep/fault", &single));
        assert_eq!(warm.body, reference.body);
    }

    /// Every kind, dense and sparse, answers a restart onto its store
    /// with the body it computed cold, rebuilt from its stored rows
    /// without computing one.
    #[test]
    fn every_kind_rebuilds_its_body_from_stored_rows_after_a_restart() {
        let cfg = ProtocolConfig {
            nodes: 20,
            group_size: 2,
            onions: 2,
            deadline: contact_graph::TimeDelta::new(120.0),
            compromised: 2,
            ..ProtocolConfig::table2_defaults()
        };
        let opts = ExperimentOptions::builder()
            .messages(2)
            .realizations(2)
            .build();
        let base = format!("\"config\":{},\"opts\":{}", json(&cfg), json(&opts));
        for sparse in ["", ",\"sparse\":{\"avg_degree\":4.0}"] {
            for (kind, axis) in [
                ("point", ""),
                ("deadline", ",\"deadlines\":[60.0,120.0]"),
                ("security", ",\"compromised\":[1,4],\"adversary_draws\":2"),
                ("fault", ",\"intensities\":[0.0,0.5]"),
                ("code", ",\"rates\":[[1,1],[1,2]]"),
            ] {
                let case = format!("{kind}{}", if sparse.is_empty() { "" } else { "-sparse" });
                let req = post(
                    &format!("/v1/sweep/{kind}"),
                    &format!("{{{base}{axis}{sparse}}}"),
                );
                let reference = api().handle(&req);
                assert_eq!(reference.status, 200, "{case}: {}", reference.body);
                let scratch = Scratch::new(&format!("rebuild-{case}"));
                let open = || Some(Arc::new(ResponseStore::open(&scratch.0, 1 << 20).unwrap()));
                let cold = api_with_store(open()).handle(&req);
                assert_eq!(cold.body, reference.body, "{case}: cold");
                let api = api_with_store(open());
                let warm = api.handle(&req);
                assert_eq!(warm.body, reference.body, "{case}: after a restart");
                let snap = api.stats.snapshot();
                assert_eq!(snap.counters["store_misses"], 0, "{case}");
                assert!(snap.counters["store_hits"] >= 1, "{case}");
                assert_eq!(snap.counters["store_writes"], 0, "{case}");
            }
        }
    }
}
