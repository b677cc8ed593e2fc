//! The global recorder: event emission, metric registry, and JSONL export.
//!
//! All state lives in process-wide statics so instrumentation sites need
//! no handle. The hot-path gates — [`log_enabled`] and
//! [`metrics_enabled`] — are single relaxed atomic loads, so with
//! telemetry disabled every instrumented call site reduces to a load and
//! a predictable branch.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, Once};

use serde::{Deserialize, Serialize};

use crate::counters::CounterMap;
use crate::gauges::GaugeMap;
use crate::hist::{HistSummary, Histogram};
use crate::level::{EnvFilter, Level};

static INIT: Once = Once::new();
/// Loosest level any target can pass; 0 = all logging off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static METRICS: AtomicBool = AtomicBool::new(false);
static PROGRESS: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);

fn filter() -> &'static Mutex<EnvFilter> {
    static FILTER: Mutex<EnvFilter> = Mutex::new(EnvFilter::new());
    &FILTER
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());
    &REGISTRY
}

fn metrics_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
    &PATH
}

fn last_snapshot() -> &'static Mutex<Option<MetricsSnapshot>> {
    static LAST: Mutex<Option<MetricsSnapshot>> = Mutex::new(None);
    &LAST
}

/// Counters and histograms accumulated since the last flush, plus the
/// current gauge levels (which outlive flushes).
struct Registry {
    counters: CounterMap,
    hists: BTreeMap<String, Histogram>,
    gauges: GaugeMap,
}

impl Registry {
    const fn new() -> Self {
        Registry {
            counters: CounterMap::new(),
            hists: BTreeMap::new(),
            gauges: GaugeMap::new(),
        }
    }
}

/// One flushed metrics interval: everything recorded between the
/// previous [`flush_point`] and this one. Serialized as one JSON object
/// per line when `--metrics-out` is set.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Caller-supplied label, e.g. the experiment entry point name.
    pub label: String,
    /// Monotonic flush sequence number within this process.
    pub seq: u64,
    /// Counter totals for the interval.
    pub counters: CounterMap,
    /// Gauge levels at flush time. Unlike counters and histograms,
    /// gauges are *not* reset by the flush — they are instantaneous
    /// levels (queue depth, in-flight requests) that keep evolving.
    pub gauges: GaugeMap,
    /// Histogram summaries for the interval, keyed by metric name.
    pub histograms: BTreeMap<String, HistSummary>,
}

/// Initializes the recorder from the environment, once per process:
///
/// - `ONION_DTN_LOG` — event filter spec (see [`EnvFilter`]); default `info`.
/// - `ONION_DTN_METRICS` — `0`/`false`/`off` disables, `1`/`true`/`on`
///   enables, any other non-empty value enables metrics *and* is taken
///   as the JSONL output path (truncated on init).
/// - `ONION_DTN_PROGRESS` — `1`/`true`/`on` enables the live progress line.
///
/// Called implicitly by every public entry point; calling it directly is
/// only needed to force env parsing before overriding programmatically.
pub fn init() {
    INIT.call_once(|| {
        if let Ok(spec) = std::env::var("ONION_DTN_LOG") {
            apply_filter(&EnvFilter::parse(&spec));
        }
        if let Ok(val) = std::env::var("ONION_DTN_METRICS") {
            match val.trim().to_ascii_lowercase().as_str() {
                "" | "0" | "false" | "off" => {}
                "1" | "true" | "on" => METRICS.store(true, Ordering::Relaxed),
                _ => {
                    METRICS.store(true, Ordering::Relaxed);
                    // Not `set_metrics_path`: this runs inside the
                    // `Once`, which must not re-enter.
                    apply_metrics_path(Some(Path::new(val.trim())));
                }
            }
        }
        if let Ok(val) = std::env::var("ONION_DTN_PROGRESS") {
            if matches!(val.trim(), "1" | "true" | "on") {
                PROGRESS.store(true, Ordering::Relaxed);
            }
        }
        if let Ok(val) = std::env::var("ONION_DTN_TRACE") {
            crate::trace::init_from_env(&val);
        }
    });
}

fn apply_filter(f: &EnvFilter) {
    MAX_LEVEL.store(f.max_ceiling(), Ordering::Relaxed);
    *filter().lock().unwrap() = f.clone();
}

/// Replaces the event filter with a parsed spec (same grammar as
/// `ONION_DTN_LOG`). `set_filter("error")` is how `--quiet` silences
/// status output while keeping hard errors visible.
pub fn set_filter(spec: &str) {
    init();
    apply_filter(&EnvFilter::parse(spec));
}

/// Whether an event at `level` for `target` would be emitted.
///
/// The common disabled case is one relaxed atomic load and a compare.
pub fn log_enabled(level: Level, target: &str) -> bool {
    init();
    if level as u8 > MAX_LEVEL.load(Ordering::Relaxed) {
        return false;
    }
    filter().lock().unwrap().enabled(level, target)
}

/// Writes one formatted event line to stderr: `[LEVEL target] message`.
///
/// Call through the [`event!`](crate::event!) family of macros, which
/// check [`log_enabled`] first so arguments are never formatted for
/// filtered-out events.
pub fn emit(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    eprintln!("[{} {}] {}", level.as_str(), target, args);
}

/// Turns metric recording on or off programmatically (overrides env).
pub fn set_metrics_enabled(on: bool) {
    init();
    METRICS.store(on, Ordering::Relaxed);
}

/// Whether counters, histograms, and spans are being recorded.
pub fn metrics_enabled() -> bool {
    init();
    METRICS.load(Ordering::Relaxed)
}

/// Sets (or clears) the JSONL file that [`flush_point`] appends to.
/// The file is created/truncated immediately so a sweep starts clean.
pub fn set_metrics_path(path: Option<&Path>) {
    init();
    apply_metrics_path(path);
}

fn apply_metrics_path(path: Option<&Path>) {
    if let Some(p) = path {
        if let Err(e) = File::create(p) {
            emit(
                Level::Error,
                "obs",
                format_args!("cannot create metrics file {}: {e}", p.display()),
            );
            return;
        }
    }
    *metrics_path().lock().unwrap() = path.map(Path::to_path_buf);
}

/// Turns the live progress line on or off programmatically.
pub fn set_progress(on: bool) {
    init();
    PROGRESS.store(on, Ordering::Relaxed);
}

/// Whether the live progress line is enabled.
pub fn progress_enabled() -> bool {
    init();
    PROGRESS.load(Ordering::Relaxed)
}

/// Adds `n` to the global counter `name`. No-op unless metrics are enabled.
pub fn counter_add(name: &str, n: u64) {
    if !metrics_enabled() {
        return;
    }
    registry().lock().unwrap().counters.add(name, n);
}

/// Sets the global gauge `name` to the absolute level `v`. No-op
/// unless metrics are enabled.
pub fn gauge_set(name: &str, v: i64) {
    if !metrics_enabled() {
        return;
    }
    registry().lock().unwrap().gauges.set(name, v);
}

/// Adds `delta` (possibly negative) to the global gauge `name`. No-op
/// unless metrics are enabled.
pub fn gauge_add(name: &str, delta: i64) {
    if !metrics_enabled() {
        return;
    }
    registry().lock().unwrap().gauges.add(name, delta);
}

/// Raises the global gauge `name` to `v` if `v` exceeds its current
/// level — a high-water mark (e.g. peak arena bytes). No-op unless
/// metrics are enabled.
pub fn gauge_max(name: &str, v: i64) {
    if !metrics_enabled() {
        return;
    }
    registry().lock().unwrap().gauges.max(name, v);
}

/// Records `value` into the global histogram `name`. No-op unless
/// metrics are enabled.
pub fn record(name: &str, value: f64) {
    if !metrics_enabled() {
        return;
    }
    registry()
        .lock()
        .unwrap()
        .hists
        .entry(name.to_string())
        .or_default()
        .record(value);
}

/// Snapshots and resets the global registry, labels the snapshot,
/// appends it as one JSONL line to the `--metrics-out` file (if set),
/// and remembers it for [`take_last_snapshot`]. Returns `None` when
/// metrics are disabled.
pub fn flush_point(label: &str) -> Option<MetricsSnapshot> {
    if !metrics_enabled() {
        return None;
    }
    let (counters, hists, gauges) = {
        let mut reg = registry().lock().unwrap();
        (
            std::mem::take(&mut reg.counters),
            std::mem::take(&mut reg.hists),
            reg.gauges.clone(),
        )
    };
    let snapshot = MetricsSnapshot {
        label: label.to_string(),
        seq: SEQ.fetch_add(1, Ordering::Relaxed),
        counters,
        gauges,
        histograms: hists
            .iter()
            .map(|(k, h)| (k.clone(), h.summary()))
            .collect(),
    };
    if let Some(path) = metrics_path().lock().unwrap().as_ref() {
        if let Err(e) = append_jsonl(path, &snapshot) {
            emit(
                Level::Error,
                "obs",
                format_args!("cannot write metrics to {}: {e}", path.display()),
            );
        }
    }
    *last_snapshot().lock().unwrap() = Some(snapshot.clone());
    Some(snapshot)
}

fn append_jsonl(path: &Path, snapshot: &MetricsSnapshot) -> std::io::Result<()> {
    let line = serde_json::to_string(snapshot)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    writeln!(f, "{line}")
}

/// Takes the most recent [`flush_point`] snapshot, leaving `None`.
/// Lets callers (e.g. `tests/telemetry_determinism.rs`) read back
/// summaries without parsing the JSONL file.
pub fn take_last_snapshot() -> Option<MetricsSnapshot> {
    last_snapshot().lock().unwrap().take()
}
