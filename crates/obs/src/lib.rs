//! Dependency-free telemetry for the onion-DTN workspace.
//!
//! One small facade, four primitives:
//!
//! - **Events** — leveled, targeted lines on stderr via the
//!   [`error!`]/[`warn!`]/[`info!`]/[`debug!`]/[`trace!`] macros,
//!   filtered by the `ONION_DTN_LOG` env var (see [`EnvFilter`]).
//! - **Counters** — named monotonic totals ([`counter_add`]).
//! - **Gauges** — named instantaneous levels such as queue depth or
//!   in-flight requests ([`gauge_set`], [`gauge_add`]); unlike
//!   counters they are *not* reset by a flush.
//! - **Histograms** — log-bucketed value distributions with
//!   p50/p90/p99 summaries ([`record`], [`Histogram`]).
//! - **Spans** — RAII wall-time measurement into a histogram
//!   ([`span`], [`Span`]), plus a throttled live [`Progress`] line.
//! - **Traces** — bounded per-trial message-lifecycle journals
//!   ([`trace_event`], [`TraceRing`]), written in trial order by
//!   [`trace_append`]; a quarantined trial's journal ends with a
//!   [`TraceEvent::Quarantine`] event. Gated by `ONION_DTN_TRACE` /
//!   [`set_trace_enabled`].
//!
//! Everything funnels through one global recorder. The design contract
//! is that *disabled telemetry costs nothing measurable*: every
//! instrumentation call first takes a relaxed atomic-load gate
//! ([`metrics_enabled`] / [`log_enabled`]) and does no formatting,
//! locking, or clock reads when it fails. Metric recording never feeds
//! back into simulation results, so enabling it cannot perturb the
//! deterministic Monte-Carlo reports.
//!
//! Metrics accumulate in a process-global registry until
//! [`flush_point`] snapshots and resets them; with a metrics path set
//! (CLI `--metrics-out`, or an `ONION_DTN_METRICS=<path>` value) each
//! snapshot is appended as one JSON line ([`MetricsSnapshot`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counters;
mod gauges;
mod hist;
mod level;
mod progress;
mod recorder;
mod span;
mod trace;

pub use counters::CounterMap;
pub use gauges::GaugeMap;
pub use hist::{
    bucket_bounds, HistSummary, Histogram, BUCKET_COUNT, MAX_EXP, MIN_EXP, SUB_BUCKETS,
};
pub use level::{EnvFilter, Level};
pub use progress::Progress;
pub use recorder::{
    counter_add, emit, flush_point, gauge_add, gauge_max, gauge_set, init, log_enabled,
    metrics_enabled, progress_enabled, record, set_filter, set_metrics_enabled, set_metrics_path,
    set_progress, take_last_snapshot, MetricsSnapshot,
};
pub use span::{span, Span};
pub use trace::{
    set_trace_capacity, set_trace_enabled, set_trace_path, trace_append, trace_capacity,
    trace_enabled, trace_event, trace_ring_begin, trace_ring_take, TraceEvent, TraceRing,
    DEFAULT_TRACE_CAP,
};

/// Emits a leveled event: `event!(Level::Info, "target", "fmt {}", x)`.
///
/// Arguments are only formatted when the level/target pass the current
/// filter, so a filtered-out event costs one atomic load.
#[macro_export]
macro_rules! event {
    ($level:expr, $target:expr, $($arg:tt)+) => {{
        let level = $level;
        let target = $target;
        if $crate::log_enabled(level, target) {
            $crate::emit(level, target, format_args!($($arg)+));
        }
    }};
}

/// Emits an [`Level::Error`] event. See [`event!`].
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)+) => {
        $crate::event!($crate::Level::Error, $target, $($arg)+)
    };
}

/// Emits a [`Level::Warn`] event. See [`event!`].
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)+) => {
        $crate::event!($crate::Level::Warn, $target, $($arg)+)
    };
}

/// Emits an [`Level::Info`] event. See [`event!`].
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)+) => {
        $crate::event!($crate::Level::Info, $target, $($arg)+)
    };
}

/// Emits a [`Level::Debug`] event. See [`event!`].
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)+) => {
        $crate::event!($crate::Level::Debug, $target, $($arg)+)
    };
}

/// Emits a [`Level::Trace`] event. See [`event!`].
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)+) => {
        $crate::event!($crate::Level::Trace, $target, $($arg)+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // Recorder state is process-global and the harness runs tests on
    // multiple threads, so every test that touches it holds this lock.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn metrics_gate_counters_and_histograms() {
        let _guard = serial();
        set_metrics_enabled(false);
        counter_add("test.gated", 7);
        record("test.gated_hist", 1.0);
        set_metrics_enabled(true);
        counter_add("test.gated", 2);
        record("test.gated_hist", 2.0);
        let snap = flush_point("gate_test").expect("metrics enabled");
        set_metrics_enabled(false);
        assert_eq!(snap.counters.get("test.gated"), 2);
        assert_eq!(snap.histograms["test.gated_hist"].count, 1);
        assert_eq!(snap.label, "gate_test");
    }

    #[test]
    fn gauges_survive_flushes_and_track_levels() {
        let _guard = serial();
        set_metrics_enabled(true);
        gauge_set("test.depth", 4);
        gauge_add("test.depth", -1);
        gauge_add("test.inflight", 2);
        let first = flush_point("gauge_first").unwrap();
        assert_eq!(first.gauges.get("test.depth"), 3);
        assert_eq!(first.gauges.get("test.inflight"), 2);
        // Unlike counters, the levels persist across the flush.
        let second = flush_point("gauge_second").unwrap();
        set_metrics_enabled(false);
        assert_eq!(second.gauges.get("test.depth"), 3);
        assert_eq!(second.counters.get("test.depth"), 0);
    }

    #[test]
    fn flush_resets_the_registry() {
        let _guard = serial();
        set_metrics_enabled(true);
        counter_add("test.reset", 1);
        flush_point("first_flush");
        counter_add("test.reset_other", 1);
        let snap = flush_point("second_flush").unwrap();
        set_metrics_enabled(false);
        assert_eq!(snap.counters.get("test.reset"), 0);
        assert_eq!(snap.counters.get("test.reset_other"), 1);
    }

    #[test]
    fn spans_record_into_histograms() {
        let _guard = serial();
        set_metrics_enabled(true);
        {
            let _s = span("test.span_secs");
        }
        let snap = flush_point("span_test").unwrap();
        set_metrics_enabled(false);
        let summary = &snap.histograms["test.span_secs"];
        assert_eq!(summary.count, 1);
        assert!(summary.min.unwrap() >= 0.0);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _guard = serial();
        set_metrics_enabled(false);
        let s = span("test.inert");
        assert!(s.elapsed_secs().is_none());
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let _guard = serial();
        set_metrics_enabled(true);
        counter_add("test.json", 5);
        record("test.json_hist", 0.25);
        record("test.json_hist", 4.0);
        let snap = flush_point("json_test").unwrap();
        set_metrics_enabled(false);
        let line = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&line).unwrap();
        assert_eq!(back, snap);
    }
}
