//! Per-instance serving statistics.
//!
//! The daemon keeps its own authoritative counters/gauges/latency
//! histograms (so `/metricsz` reflects exactly this server instance,
//! independent of whether the process-global [`obs`] registry is
//! enabled), and *mirrors* every event into the global registry under
//! `serve.*` names when metrics are on — that way `--metrics-out`
//! JSONL snapshots interleave serving telemetry with experiment
//! telemetry for free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;

/// A monotonic event count, mirrored into the global registry under
/// its `serve.<name>` obs name.
pub struct Counter {
    value: AtomicU64,
    obs_name: &'static str,
}

impl Counter {
    /// The count so far.
    pub fn load(&self, order: Ordering) -> u64 {
        self.value.load(order)
    }

    /// Counts one event here and in the global registry.
    pub fn bump(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
        obs::counter_add(self.obs_name, 1);
    }
}

/// An instantaneous level, mirrored like a [`Counter`].
pub struct Gauge {
    value: AtomicI64,
    obs_name: &'static str,
}

impl Gauge {
    /// The current level.
    pub fn load(&self, order: Ordering) -> i64 {
        self.value.load(order)
    }

    /// Moves the level by `delta` and mirrors the new level.
    pub fn add(&self, delta: i64) {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        obs::gauge_set(self.obs_name, new);
    }

    /// Sets the level and mirrors it.
    pub fn set(&self, level: i64) {
        self.value.store(level, Ordering::Relaxed);
        obs::gauge_set(self.obs_name, level);
    }
}

/// Declares every serve counter and gauge once: its field, named as
/// `/metricsz` names it, and its doc. The obs name `serve.<name>`, the
/// zero it starts at and its place in [`ServeStats::snapshot`] follow.
macro_rules! serve_stats {
    (
        counters { $( $(#[$cdoc:meta])* $counter:ident, )* }
        gauges { $( $(#[$gdoc:meta])* $gauge:ident, )* }
    ) => {
        /// Lock-free event tallies plus per-endpoint-class latency
        /// histograms.
        pub struct ServeStats {
            started: Instant,
            $( $(#[$cdoc])* pub $counter: Counter, )*
            $( $(#[$gdoc])* pub $gauge: Gauge, )*
            latency: Mutex<BTreeMap<String, obs::Histogram>>,
        }

        impl ServeStats {
            /// Fresh stats anchored at "now" for uptime reporting.
            pub fn new() -> ServeStats {
                ServeStats {
                    started: Instant::now(),
                    $( $counter: Counter {
                        value: AtomicU64::new(0),
                        obs_name: concat!("serve.", stringify!($counter)),
                    }, )*
                    $( $gauge: Gauge {
                        value: AtomicI64::new(0),
                        obs_name: concat!("serve.", stringify!($gauge)),
                    }, )*
                    latency: Mutex::new(BTreeMap::new()),
                }
            }

            /// Every counter and every gauge, by name.
            fn levels(&self) -> (BTreeMap<String, u64>, BTreeMap<String, i64>) {
                let load = Ordering::Relaxed;
                (
                    BTreeMap::from([
                        $( (stringify!($counter).to_string(), self.$counter.load(load)), )*
                    ]),
                    BTreeMap::from([
                        $( (stringify!($gauge).to_string(), self.$gauge.load(load)), )*
                    ]),
                )
            }
        }
    };
}

serve_stats! {
    counters {
        /// Total requests that reached the router (rejects excluded).
        requests,
        /// Responses with a 2xx status.
        ok,
        /// Responses with a 4xx status.
        client_errors,
        /// Responses with a 5xx status.
        server_errors,
        /// Connections shed with 503 at the acceptor (queue full).
        rejected,
        /// Sweep responses served from the LRU cache.
        cache_hits,
        /// Sweep requests not present in the cache.
        cache_misses,
        /// Sweeps run by single-flight leaders, whether each row was
        /// computed or replayed from the disk store.
        sweep_computes,
        /// Sweep requests that coalesced onto an in-flight computation.
        sweep_coalesced,
        /// Sweep rows replayed from the disk store.
        store_hits,
        /// Sweep rows looked up in the disk store and not found; each is
        /// then computed.
        store_misses,
        /// Sweep rows persisted to the disk store.
        store_writes,
        /// Requests whose deadline expired while waiting in the queue (503).
        deadline_queue_expired,
        /// Requests whose deadline expired mid-computation (504).
        deadline_exceeded,
    }
    gauges {
        /// Connections currently being handled by a worker.
        inflight,
        /// Connections currently waiting in the bounded queue.
        queue_depth,
        /// Live records in the disk store (0 when no store is configured).
        store_records,
        /// Disk-store log length in bytes.
        store_bytes,
        /// Bad-CRC records skipped by the store since it was opened.
        store_records_quarantined,
    }
}

impl ServeStats {
    /// Records one request's latency under its endpoint class and tallies
    /// the status family.
    pub fn observe(&self, class: &str, status: u16, seconds: f64) {
        self.requests.bump();
        match status {
            200..=299 => self.ok.bump(),
            400..=499 => self.client_errors.bump(),
            _ => self.server_errors.bump(),
        }
        self.latency
            .lock()
            .unwrap()
            .entry(class.to_string())
            .or_default()
            .record(seconds);
        obs::record(&format!("serve.latency_secs.{class}"), seconds);
    }

    /// Point-in-time snapshot for `/metricsz`.
    pub fn snapshot(&self) -> StatsSnapshot {
        let (counters, gauges) = self.levels();
        let latency = self.latency.lock().unwrap();
        let endpoints = latency
            .iter()
            .map(|(class, hist)| (class.clone(), hist.summary()))
            .collect();
        let endpoint_buckets = latency
            .iter()
            .map(|(class, hist)| {
                let buckets = hist
                    .cumulative_le()
                    .into_iter()
                    .map(|(le, count)| LatencyBucket { le, count })
                    .collect();
                (class.clone(), buckets)
            })
            .collect();
        drop(latency);
        StatsSnapshot {
            uptime_secs: self.started.elapsed().as_secs_f64(),
            counters,
            gauges,
            endpoints,
            endpoint_buckets,
        }
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats::new()
    }
}

/// One cumulative latency bucket: `count` observations were `<= le`
/// seconds. Only finite, occupied bucket bounds appear here; the
/// implicit `+Inf` bucket equals the class's total count (see
/// [`StatsSnapshot::endpoints`]).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct LatencyBucket {
    /// Upper bound of the bucket, in seconds.
    pub le: f64,
    /// Cumulative observation count at or below `le`.
    pub count: u64,
}

/// The `/metricsz` response body.
#[derive(Debug, Serialize)]
pub struct StatsSnapshot {
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Monotonic event totals since start.
    pub counters: BTreeMap<String, u64>,
    /// Instantaneous levels.
    pub gauges: BTreeMap<String, i64>,
    /// Latency summaries (seconds) keyed by endpoint class.
    pub endpoints: BTreeMap<String, obs::HistSummary>,
    /// Cumulative latency histogram buckets keyed by endpoint class.
    pub endpoint_buckets: BTreeMap<String, Vec<LatencyBucket>>,
}

impl StatsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `serve_<name>_total`, gauges as
    /// `serve_<name>`, and per-class latency as a conventional
    /// `serve_latency_seconds` histogram with cumulative `le` buckets,
    /// an explicit `+Inf` bucket, `_sum`, and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("# HELP serve_uptime_seconds Seconds since the server started.\n");
        out.push_str("# TYPE serve_uptime_seconds gauge\n");
        out.push_str(&format!("serve_uptime_seconds {}\n", self.uptime_secs));
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE serve_{name}_total counter\n"));
            out.push_str(&format!("serve_{name}_total {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE serve_{name} gauge\n"));
            out.push_str(&format!("serve_{name} {value}\n"));
        }
        if !self.endpoints.is_empty() {
            out.push_str(
                "# HELP serve_latency_seconds Request latency by endpoint class.\n\
                 # TYPE serve_latency_seconds histogram\n",
            );
        }
        for (class, summary) in &self.endpoints {
            for bucket in self.endpoint_buckets.get(class).into_iter().flatten() {
                out.push_str(&format!(
                    "serve_latency_seconds_bucket{{class=\"{class}\",le=\"{}\"}} {}\n",
                    bucket.le, bucket.count,
                ));
            }
            out.push_str(&format!(
                "serve_latency_seconds_bucket{{class=\"{class}\",le=\"+Inf\"}} {}\n",
                summary.count,
            ));
            out.push_str(&format!(
                "serve_latency_seconds_sum{{class=\"{class}\"}} {}\n",
                summary.sum.unwrap_or(0.0),
            ));
            out.push_str(&format!(
                "serve_latency_seconds_count{{class=\"{class}\"}} {}\n",
                summary.count,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_classifies_statuses_and_records_latency() {
        let stats = ServeStats::new();
        stats.observe("model", 200, 0.001);
        stats.observe("model", 200, 0.002);
        stats.observe("model", 404, 0.001);
        stats.observe("sweep", 500, 0.5);
        let snap = stats.snapshot();
        assert_eq!(snap.counters["requests"], 4);
        assert_eq!(snap.counters["ok"], 2);
        assert_eq!(snap.counters["client_errors"], 1);
        assert_eq!(snap.counters["server_errors"], 1);
        assert_eq!(snap.endpoints["model"].count, 3);
        assert_eq!(snap.endpoints["sweep"].count, 1);
        assert!(snap.uptime_secs >= 0.0);
    }

    #[test]
    fn gauges_track_levels_not_totals() {
        let stats = ServeStats::new();
        stats.inflight.add(1);
        stats.inflight.add(1);
        stats.inflight.add(-1);
        assert_eq!(stats.snapshot().gauges["inflight"], 1);
    }

    #[test]
    fn snapshot_carries_cumulative_buckets() {
        let stats = ServeStats::new();
        stats.observe("model", 200, 0.001);
        stats.observe("model", 200, 0.002);
        stats.observe("model", 200, 4.0);
        let snap = stats.snapshot();
        let buckets = &snap.endpoint_buckets["model"];
        assert!(!buckets.is_empty());
        // Monotone non-decreasing in both bound and count, ending at the
        // total observation count.
        for pair in buckets.windows(2) {
            assert!(pair[0].le < pair[1].le);
            assert!(pair[0].count <= pair[1].count);
        }
        assert_eq!(buckets.last().unwrap().count, 3);
    }

    #[test]
    fn prometheus_rendering_has_the_conventional_shape() {
        let stats = ServeStats::new();
        stats.observe("model", 200, 0.001);
        stats.observe("sweep", 500, 0.5);
        stats.inflight.add(1);
        let text = stats.snapshot().to_prometheus();
        assert!(text.contains("# TYPE serve_requests_total counter"));
        assert!(text.contains("serve_requests_total 2"));
        assert!(text.contains("serve_inflight 1"));
        assert!(text.contains("# TYPE serve_latency_seconds histogram"));
        assert!(text.contains("serve_latency_seconds_bucket{class=\"model\",le=\"+Inf\"} 1"));
        assert!(text.contains("serve_latency_seconds_count{class=\"sweep\"} 1"));
        assert!(text.contains("serve_latency_seconds_sum{class=\"sweep\"} 0.5"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.rsplitn(2, ' ').count(), 2, "bad line: {line}");
        }
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let stats = ServeStats::new();
        stats.observe("health", 200, 0.0001);
        let text = serde_json::to_string(&stats.snapshot()).unwrap();
        assert!(text.contains("\"uptime_secs\""));
        assert!(text.contains("\"health\""));
    }
}
