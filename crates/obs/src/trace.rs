//! Message-lifecycle tracing: bounded per-trial event journals.
//!
//! Tracing follows the same contract as the metric registry: the
//! disabled fast path is **one relaxed atomic load** ([`trace_enabled`])
//! and event construction is deferred behind a closure, so an
//! instrumented site costs nothing measurable when tracing is off.
//! Recording is purely observational — it never draws randomness and
//! never feeds back into simulation state — so enabling it cannot
//! perturb the deterministic Monte-Carlo results.
//!
//! # Per-trial rings
//!
//! Events accumulate in a thread-local fixed-capacity [`TraceRing`]
//! installed by [`trace_ring_begin`] before each attempt of a trial and
//! removed by [`trace_ring_take`] after it. The ring keeps the **last**
//! `cap` events (FIFO eviction, oldest first) plus a count of everything
//! it evicted, so memory stays bounded no matter how long a trial runs.
//! The trial runner carries each trial's ring beside its result and
//! appends it ([`trace_append`]) as JSONL to the `--trace-out` path (one
//! object per line, tagged with the trial id) in trial order.
//!
//! # Flight recorder
//!
//! A trial that panics on its retry too is quarantined, and its ring is
//! kept: the runner closes it with one [`TraceEvent::Quarantine`] event
//! (attempts and panic message) and appends it at the trial's position
//! like any other, so the trace holds the last events before the panic.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::level::Level;
use crate::recorder::{emit, init};

/// Default per-trial ring capacity (events kept per trial).
pub const DEFAULT_TRACE_CAP: usize = 4096;

static TRACE: AtomicBool = AtomicBool::new(false);
static TRACE_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_TRACE_CAP);

fn trace_path() -> &'static Mutex<Option<PathBuf>> {
    static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);
    &PATH
}

thread_local! {
    static RING: RefCell<Option<TraceRing>> = const { RefCell::new(None) };
}

/// Declares every [`TraceEvent`] once — its variant, doc, JSON tag and
/// fields in serialization order — and generates the enum, `time()`, a
/// test-only `name()` and the serde impls from that one list, so a new
/// event is a one-entry change. Every event carries its simulation
/// `time`, which serializes right after the tag.
///
/// The JSON form is one flat object per event with a leading `event`
/// tag, e.g. `{"event":"forward","time":3.5,"message":0,"from":1,"to":2,
/// "kind":"handoff","route_group":1}` (the vendored derive cannot
/// express data-carrying enums).
macro_rules! trace_events {
    (
        $(#[$outer:meta])*
        pub enum TraceEvent {
            $(
                $(#[$doc:meta])*
                $variant:ident = $tag:literal {
                    $( $(#[$field_doc:meta])* $field:ident: $ty:ty, )*
                },
            )*
        }
    ) => {
        $(#[$outer])*
        #[derive(Clone, Debug, PartialEq)]
        pub enum TraceEvent {
            $(
                $(#[$doc])*
                $variant {
                    /// Simulation time.
                    time: f64,
                    $( $(#[$field_doc])* $field: $ty, )*
                },
            )*
        }

        impl TraceEvent {
            /// The event's simulation time.
            pub fn time(&self) -> f64 {
                match self {
                    $( TraceEvent::$variant { time, .. } => *time, )*
                }
            }

            /// The event's kind tag (the JSON `event` field).
            #[cfg(test)]
            fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$variant { .. } => $tag, )*
                }
            }
        }

        impl Serialize for TraceEvent {
            fn to_value(&self) -> serde::Value {
                match self {
                    $(
                        TraceEvent::$variant { time, $($field),* } => serde::Value::Object(vec![
                            ("event".into(), serde::Value::Str($tag.into())),
                            ("time".into(), time.to_value()),
                            $( (stringify!($field).into(), $field.to_value()), )*
                        ]),
                    )*
                }
            }
        }

        impl<'de> Deserialize<'de> for TraceEvent {
            fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
                fn field<T: serde::DeserializeOwned>(
                    value: &serde::Value,
                    name: &str,
                ) -> Result<T, serde::DeError> {
                    match value.get(name) {
                        Some(v) => T::from_value(v),
                        None => Err(serde::DeError::new(format!(
                            "TraceEvent: missing field {name}"
                        ))),
                    }
                }
                let tag: String = field(value, "event")?;
                let time: f64 = field(value, "time")?;
                match tag.as_str() {
                    $(
                        $tag => Ok(TraceEvent::$variant {
                            time,
                            $( $field: field(value, stringify!($field))?, )*
                        }),
                    )*
                    other => Err(serde::DeError::new(format!(
                        "TraceEvent: unknown event tag {other:?}"
                    ))),
                }
            }
        }
    };
}

trace_events! {
    /// One message-lifecycle event. All ids are plain integers (node and
    /// message ids as `u64`, times as `f64` minutes) so the type stays
    /// dependency-free; the simulation layer converts at the call site.
    pub enum TraceEvent {
        /// A message entered the network at its source.
        Inject = "inject" {
            /// Message id.
            message: u64,
            /// Source node.
            source: u64,
            /// Destination node.
            destination: u64,
        },
        /// Wire mode: a constant-size onion packet was built and sealed.
        Seal = "seal" {
            /// Message id.
            message: u64,
            /// Node that built the packet (the source).
            node: u64,
            /// AEAD layers sealed (the route length).
            layers: u64,
        },
        /// A committed custody transfer.
        Forward = "forward" {
            /// Message id.
            message: u64,
            /// Sending custodian.
            from: u64,
            /// Receiving node.
            to: u64,
            /// Forward kind: `handoff`, `split`, or `replicate`.
            kind: String,
            /// Protocol tag of the receiver's copy (onion hop index).
            route_group: u64,
        },
        /// Wire mode: a receiving relay peeled one AEAD layer.
        Peel = "peel" {
            /// Message id.
            message: u64,
            /// Peeling node.
            node: u64,
        },
        /// A message reached its destination within the deadline.
        Deliver = "deliver" {
            /// Message id.
            message: u64,
            /// Destination node.
            node: u64,
        },
        /// A copy was dropped (buffer admission refused or evicted).
        Drop = "drop" {
            /// Message id.
            message: u64,
            /// Node that dropped the copy.
            node: u64,
        },
        /// A buffered copy passed its deadline and was discarded.
        Expire = "expire" {
            /// Message id.
            message: u64,
            /// Node holding the expired copy.
            node: u64,
        },
        /// Fault injection: a node crashed (churn).
        FaultCrash = "fault_crash" {
            /// Crashed node.
            node: u64,
        },
        /// Fault injection: a crash wipe destroyed a buffered copy.
        FaultBufferWipe = "fault_buffer_wipe" {
            /// Crashed node.
            node: u64,
            /// Destroyed copy's message id.
            message: u64,
        },
        /// Fault injection: a scheduled contact was suppressed.
        FaultContactDrop = "fault_contact_drop" {
            /// One endpoint.
            a: u64,
            /// The other endpoint.
            b: u64,
        },
        /// Fault injection: a contact window closed mid-transfer.
        FaultTransferTruncated = "fault_transfer_truncated" {
            /// Sending custodian.
            from: u64,
            /// Intended receiver.
            to: u64,
        },
        /// Fault injection: a committed transfer's copy was lost in flight.
        FaultMessageLost = "fault_message_lost" {
            /// Message id.
            message: u64,
            /// Sending custodian (paid the transmission anyway).
            from: u64,
            /// Receiver that got nothing.
            to: u64,
        },
        /// The trial panicked on every attempt and was quarantined: the
        /// last event of its block, at the time of the event before it
        /// (0 when there is none).
        Quarantine = "quarantine" {
            /// Attempts made (the original run and its retry).
            attempts: u32,
            /// The panic message of the final attempt.
            message: String,
        },
    }
}

/// A fixed-capacity per-trial event journal that keeps the **last**
/// `capacity` events: pushing into a full ring evicts the oldest event
/// (deterministic FIFO order) and counts it as dropped.
#[derive(Clone, Debug)]
pub struct TraceRing {
    trial: u64,
    capacity: usize,
    pushed: u64,
    events: VecDeque<TraceEvent>,
}

impl TraceRing {
    /// An empty ring for `trial` keeping at most `capacity` events
    /// (clamped to at least 1).
    pub fn new(trial: u64, capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            trial,
            capacity,
            pushed: 0,
            events: VecDeque::with_capacity(capacity),
        }
    }

    /// The trial this ring records.
    pub fn trial(&self) -> u64 {
        self.trial
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed (held + evicted).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events evicted to make room (`pushed - len`); also the sequence
    /// number of the oldest surviving event.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.events.len() as u64
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
        self.pushed += 1;
    }

    /// Iterates the surviving events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Consumes the ring into its surviving events, oldest first.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events.into()
    }
}

/// Parses the `ONION_DTN_TRACE` env value (called from `init`):
/// `1`/`true`/`on` enables tracing; any other non-empty value enables
/// tracing *and* is taken as the JSONL output path.
pub(crate) fn init_from_env(val: &str) {
    match val.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "false" | "off" => {}
        "1" | "true" | "on" => TRACE.store(true, Ordering::Relaxed),
        _ => {
            TRACE.store(true, Ordering::Relaxed);
            // Not `set_trace_path`: this runs inside `init`'s `Once`,
            // which must not re-enter.
            let path = Path::new(val.trim());
            if let Err(e) = apply_trace_path(Some(path)) {
                emit(
                    Level::Error,
                    "obs",
                    format_args!("cannot create trace file {}: {e}", path.display()),
                );
            }
        }
    }
}

/// Whether lifecycle events are being recorded. The common disabled
/// case is one relaxed atomic load.
pub fn trace_enabled() -> bool {
    init();
    TRACE.load(Ordering::Relaxed)
}

/// Turns lifecycle tracing on or off programmatically (overrides env).
pub fn set_trace_enabled(on: bool) {
    init();
    TRACE.store(on, Ordering::Relaxed);
}

/// Sets (or clears) the JSONL file that [`trace_append`] appends to.
/// The file is created/truncated immediately so a sweep starts clean;
/// a create error is returned and leaves the previous path in place.
pub fn set_trace_path(path: Option<&Path>) -> std::io::Result<()> {
    init();
    apply_trace_path(path)
}

fn apply_trace_path(path: Option<&Path>) -> std::io::Result<()> {
    if let Some(p) = path {
        File::create(p)?;
    }
    *trace_path().lock().unwrap() = path.map(Path::to_path_buf);
    Ok(())
}

/// Sets the per-trial ring capacity used by [`trace_ring_begin`]
/// (clamped to at least 1).
pub fn set_trace_capacity(cap: usize) {
    TRACE_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// The current per-trial ring capacity.
pub fn trace_capacity() -> usize {
    TRACE_CAP.load(Ordering::Relaxed)
}

/// Installs a fresh ring for `trial` on this thread, replacing any ring
/// still installed. No-op when tracing is disabled.
pub fn trace_ring_begin(trial: u64) {
    if !trace_enabled() {
        return;
    }
    let ring = TraceRing::new(trial, trace_capacity());
    RING.with(|cell| *cell.borrow_mut() = Some(ring));
}

/// Records one lifecycle event into this thread's ring. The closure is
/// only invoked when tracing is enabled, so a disabled call site costs
/// one relaxed atomic load.
pub fn trace_event(f: impl FnOnce() -> TraceEvent) {
    if !TRACE.load(Ordering::Relaxed) {
        return;
    }
    RING.with(|cell| {
        if let Some(ring) = cell.borrow_mut().as_mut() {
            ring.push(f());
        }
    });
}

/// Removes and returns this thread's ring, if any.
pub fn trace_ring_take() -> Option<TraceRing> {
    RING.with(|cell| cell.borrow_mut().take())
}

/// Appends a finished trial's ring to the trace path (one JSON object
/// per line, tagged with the trial id and per-trial sequence number).
/// Events are discarded when no trace path is set.
pub fn trace_append(ring: &TraceRing) {
    let guard = trace_path().lock().unwrap();
    let Some(path) = guard.as_ref() else {
        return;
    };
    // Written while holding the path lock so each trial's lines stay
    // contiguous when concurrent runs (daemon requests) share the file.
    if let Err(e) = append_ring(path, ring) {
        emit(
            Level::Error,
            "obs",
            format_args!("cannot write trace to {}: {e}", path.display()),
        );
    }
}

fn event_line(trial: u64, seq: u64, event: &TraceEvent) -> String {
    let mut fields = vec![
        ("trial".to_string(), serde::Value::UInt(trial)),
        ("seq".to_string(), serde::Value::UInt(seq)),
    ];
    if let serde::Value::Object(rest) = event.to_value() {
        fields.extend(rest);
    }
    serde_json::to_string(&serde::Value::Object(fields)).expect("trace event serializes")
}

fn append_ring(path: &Path, ring: &TraceRing) -> std::io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    let mut out = String::new();
    for (seq, event) in (ring.dropped()..).zip(ring.iter()) {
        out.push_str(&event_line(ring.trial(), seq, event));
        out.push('\n');
    }
    f.write_all(out.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_last_cap_events_in_order() {
        let mut ring = TraceRing::new(7, 3);
        for i in 0..5u64 {
            ring.push(TraceEvent::FaultCrash {
                time: i as f64,
                node: i,
            });
        }
        assert_eq!(ring.trial(), 7);
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 2);
        let nodes: Vec<u64> = ring
            .iter()
            .map(|e| match e {
                TraceEvent::FaultCrash { node, .. } => *node,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(nodes, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut ring = TraceRing::new(0, 0);
        ring.push(TraceEvent::FaultCrash { time: 0.0, node: 1 });
        ring.push(TraceEvent::FaultCrash { time: 1.0, node: 2 });
        assert_eq!(ring.capacity, 1);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn every_event_kind_roundtrips_through_json() {
        let events = vec![
            TraceEvent::Inject {
                time: 0.0,
                message: 1,
                source: 2,
                destination: 3,
            },
            TraceEvent::Seal {
                time: 0.0,
                message: 1,
                node: 2,
                layers: 4,
            },
            TraceEvent::Forward {
                time: 1.5,
                message: 1,
                from: 2,
                to: 5,
                kind: "handoff".to_string(),
                route_group: 1,
            },
            TraceEvent::Peel {
                time: 1.5,
                message: 1,
                node: 5,
            },
            TraceEvent::Deliver {
                time: 9.0,
                message: 1,
                node: 3,
            },
            TraceEvent::Drop {
                time: 2.0,
                message: 1,
                node: 5,
            },
            TraceEvent::Expire {
                time: 99.0,
                message: 1,
                node: 5,
            },
            TraceEvent::FaultCrash { time: 3.0, node: 7 },
            TraceEvent::FaultBufferWipe {
                time: 3.0,
                node: 7,
                message: 1,
            },
            TraceEvent::FaultContactDrop {
                time: 4.0,
                a: 1,
                b: 2,
            },
            TraceEvent::FaultTransferTruncated {
                time: 5.0,
                from: 1,
                to: 2,
            },
            TraceEvent::FaultMessageLost {
                time: 6.0,
                message: 1,
                from: 1,
                to: 2,
            },
            TraceEvent::Quarantine {
                time: 6.0,
                attempts: 2,
                message: "boom at \"trial\" 1".to_string(),
            },
        ];
        for event in events {
            let text = serde_json::to_string(&event).expect("serialize");
            assert!(
                text.contains(&format!("\"event\":\"{}\"", event.name())),
                "{text}"
            );
            let back: TraceEvent = serde_json::from_str(&text).expect("deserialize");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = serde_json::from_str::<TraceEvent>("{\"event\":\"warp\",\"time\":0.0}");
        assert!(err.is_err());
    }
}
