//! # serve
//!
//! A dependency-free HTTP/1.1 model-serving daemon for the onion-DTN
//! workspace, plus its closed-loop load generator.
//!
//! The daemon puts both halves of the paper behind a JSON API:
//!
//! * `/v1/model/{delivery,cost,traceable,anonymity}` — the closed-form
//!   analytical models (`analysis` crate), evaluated per request.
//! * `/v1/sweep/{point,deadline,security,fault,code}` — full Monte-Carlo
//!   experiments (`onion_routing` harness), with a sharded LRU result
//!   cache, an optional crash-safe disk store of their rows beneath it,
//!   and single-flight request coalescing.
//! * `/healthz`, `/metricsz` — liveness and the per-instance
//!   counters/gauges/latency snapshot.
//! * `/v1/admin/shutdown` — graceful drain-and-exit.
//!
//! Two design decisions carry the weight (details in `DESIGN.md` §5):
//!
//! 1. **Cache keys are checkpoint fingerprints.** A sweep response is
//!    cached under `SweepSpec::identity(&opts).key()` of the parsed
//!    request — the key the CLI's `--resume` checkpoint of the same run
//!    carries, with the `threads` knob zeroed because results are
//!    bit-identical for every thread count. Determinism is what makes
//!    caching *correct*: a cached body is byte-for-byte the body a fresh
//!    run would produce.
//! 2. **Explicit backpressure, bounded everything.** Connections flow
//!    through a bounded queue into a fixed worker pool; when the queue
//!    is full the accept loop answers `503` + `Retry-After` instead of
//!    buffering without bound. Identical concurrent cache misses
//!    coalesce onto one computation (single-flight), so a thundering
//!    herd of the same expensive sweep costs one sweep. Requests carry
//!    a wall-clock deadline: expiry in the queue is shed with `503`,
//!    expiry mid-sweep returns `504` with completed rows persisted.
//!
//! With `--store <dir>` the daemon persists every sweep row in an
//! append-only, CRC-framed record log (DESIGN.md §4j), the row cache of
//! each run beneath the LRU: it survives `kill -9`, and a restarted
//! daemon rebuilds byte-identical responses from the stored rows.
//!
//! Everything is hand-rolled on `std::net` — no async runtime, no HTTP
//! library — matching the workspace's vendored-shims-only constraint.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod flight;
pub mod http;
pub mod loadgen;
pub mod queue;
pub mod server;
pub mod stats;
pub mod store;

pub use api::{
    Api, ApiLimits, MAX_ADVERSARY_DRAWS, MAX_MODEL_COPIES, MAX_MODEL_GROUP_SIZE, MAX_MODEL_ONIONS,
    MAX_SWEEP_GRID, MAX_SWEEP_REALIZATION_BYTES, TABLE2_MEAN_RATE,
};
pub use cache::ShardedLru;
pub use flight::{Panicked, Role, SingleFlight};
pub use http::{Request, Response, CONTENT_TYPE_JSON, CONTENT_TYPE_PROMETHEUS};
pub use loadgen::{run_loadgen, ClassStats, LoadReport, LoadgenConfig, LOAD_REPORT_SCHEMA};
pub use queue::{BoundedQueue, PushError};
pub use server::{ServeConfig, ServeError, Server, ServerHandle};
pub use stats::{LatencyBucket, ServeStats, StatsSnapshot};
pub use store::{ResponseStore, StoreError, StoreStatus};
