//! Simulation results: delivery, cost, and the forwarding log.

use std::collections::BTreeMap;

use contact_graph::{NodeId, Time, TimeDelta};
use serde::{Deserialize, Serialize};

use crate::message::{Message, MessageId};

/// One recorded transmission.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ForwardRecord {
    /// When the transfer happened.
    pub time: Time,
    /// Which message moved.
    pub message: MessageId,
    /// Sending custodian.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Protocol tag assigned to the receiver's copy (onion protocols store
    /// the hop index here).
    pub receiver_tag: u64,
}

/// When a [`SimCounters`] tally appears in its JSON form.
#[derive(Clone, Copy, PartialEq)]
enum Group {
    /// Always written, and required when read.
    Always,
    /// Written only when some wire tally is nonzero; zero when absent.
    Wire,
    /// Written only when some coded tally is nonzero; zero when absent.
    Coded,
}

/// Declares every [`SimCounters`] tally once — its field, doc, `obs`
/// name (under the caller's prefix) and serialization [`Group`] — and
/// generates the struct, `merge`, `for_each_named` and the serde impls
/// from that one list, so a new tally is a one-entry change.
macro_rules! sim_counters {
    (
        $(#[$outer:meta])*
        pub struct SimCounters {
            $( $(#[$doc:meta])* $field:ident: $name:literal, $group:ident; )*
        }
    ) => {
        $(#[$outer])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct SimCounters {
            $( $(#[$doc])* pub $field: u64, )*
        }

        impl SimCounters {
            /// Adds every tally of `other` into `self` (associative and
            /// commutative, like plain integer sums).
            pub fn merge(&mut self, other: &SimCounters) {
                $( self.$field += other.$field; )*
            }

            /// Visits each `(name, value)` pair under the given prefix, in
            /// a fixed order — how counters are mirrored into the `obs`
            /// registry.
            pub fn for_each_named(&self, prefix: &str, mut f: impl FnMut(&str, u64)) {
                $( f(&format!("{prefix}.{}", $name), self.$field); )*
            }

            /// Whether any tally of `group` is nonzero.
            fn any_in(&self, group: Group) -> bool {
                false $( || (Group::$group == group && self.$field != 0) )*
            }
        }

        // The always-group fields serialize in declaration order (the
        // historical derived layout, byte for byte), then each optional
        // group when one of its tallies is nonzero, so abstract-mode
        // reports — the committed goldens among them — keep their layout.
        impl Serialize for SimCounters {
            fn to_value(&self) -> serde::Value {
                let (wire, coded) = (self.any_in(Group::Wire), self.any_in(Group::Coded));
                let shown = |group| match group {
                    Group::Always => true,
                    Group::Wire => wire,
                    Group::Coded => coded,
                };
                let mut fields = Vec::new();
                $(
                    if shown(Group::$group) {
                        fields.push((stringify!($field).into(), serde::Value::UInt(self.$field)));
                    }
                )*
                serde::Value::Object(fields)
            }
        }

        impl<'de> Deserialize<'de> for SimCounters {
            fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
                let read = |name: &str, group: Group| match value.get(name) {
                    Some(v) => u64::from_value(v),
                    None if group != Group::Always => Ok(0),
                    None => Err(serde::DeError::new(format!(
                        "SimCounters: missing field {name}"
                    ))),
                };
                Ok(SimCounters {
                    $( $field: read(stringify!($field), Group::$group)?, )*
                })
            }
        }
    };
}

sim_counters! {
    /// Deterministic event tallies from one simulation run.
    ///
    /// Every field is an exact integer count derived purely from the
    /// simulated events, so counters are bit-identical across thread
    /// counts and telemetry settings — safe to carry inside results that
    /// the determinism suite compares. The engine always fills them (a
    /// handful of integer increments per event); mirroring into the
    /// global `obs` registry only happens when metrics are enabled.
    ///
    /// The `wire_*` tallies are only nonzero in wire mode
    /// (`SimConfig::wire_mode`), where every forward moves a real
    /// constant-size ciphertext packet, and the coded tallies
    /// (`fragments_*`, `decode_*`) only in coded mode
    /// (`SimConfig::copy_mode`). Both groups serialize only when nonzero,
    /// so abstract-mode reports (including the committed goldens) keep
    /// their exact historical byte layout.
    pub struct SimCounters {
        /// Contact events processed from the schedule.
        contacts: "contacts", Always;
        /// Successful forwards that moved custody ([`ForwardKind::Handoff`]).
        ///
        /// [`ForwardKind::Handoff`]: crate::protocol::ForwardKind::Handoff
        forwards_handoff: "forwards_handoff", Always;
        /// Successful forwards that split tickets ([`ForwardKind::Split`]).
        ///
        /// [`ForwardKind::Split`]: crate::protocol::ForwardKind::Split
        forwards_split: "forwards_split", Always;
        /// Successful forwards that replicated ([`ForwardKind::Replicate`]).
        ///
        /// [`ForwardKind::Replicate`]: crate::protocol::ForwardKind::Replicate
        forwards_replicate: "forwards_replicate", Always;
        /// Forwards the engine refused (invalid proposal, peer already had
        /// the copy, or already delivered).
        rejected_forwards: "rejected_forwards", Always;
        /// Copies dropped or refused because of finite buffers.
        buffer_drops: "buffer_drops", Always;
        /// Subset of `buffer_drops` where an older copy was evicted to admit
        /// a new one (`DropPolicy::DropOldest`).
        buffer_evictions: "buffer_evictions", Always;
        /// Buffered copies discarded because their deadline passed.
        deadline_expiries: "deadline_expiries", Always;
        /// Messages injected into the network.
        injected: "injected", Always;
        /// Messages delivered within their deadlines.
        delivered: "delivered", Always;
        /// Injected messages that were never delivered in time.
        expired: "expired", Always;
        /// Injected node crashes whose buffer wipe was applied
        /// ([`FaultPlan`] churn).
        ///
        /// [`FaultPlan`]: crate::faults::FaultPlan
        fault_crashes: "faults.crashes", Always;
        /// Scheduled contacts suppressed by fault injection (a down endpoint
        /// or an i.i.d. contact failure).
        fault_contacts_dropped: "faults.contacts_dropped", Always;
        /// Planned transfers cancelled because a contact window closed early
        /// (mid-transfer truncation).
        fault_transfers_truncated: "faults.transfers_truncated", Always;
        /// Buffered copies destroyed by crash wipes.
        fault_buffer_wipes: "faults.buffer_wipes", Always;
        /// Committed transfers whose copy was lost in flight (the sender
        /// paid the transmission, the receiver got nothing).
        fault_messages_lost: "faults.messages_lost", Always;
        /// Wire mode: constant-size packets built at injection time.
        wire_packets_built: "wire.packets_built", Wire;
        /// Wire mode: layers peeled off real packets by receiving relays.
        wire_packets_peeled: "wire.packets_peeled", Wire;
        /// Wire mode: actual bytes moved by committed transfers (every
        /// transfer costs exactly one full packet, including lost ones —
        /// the sender pays either way).
        wire_bytes_sent: "wire.bytes_sent", Wire;
        /// Wire mode: AEAD seal operations (route length per packet built).
        wire_aead_seals: "wire.aead_seals", Wire;
        /// Wire mode: AEAD open operations (one per successful peel).
        wire_aead_opens: "wire.aead_opens", Wire;
        /// Coded mode: Reed-Solomon fragments injected (m per message).
        fragments_injected: "coded.fragments_injected", Coded;
        /// Coded mode: distinct fragments that reached their destination.
        fragments_delivered: "coded.fragments_delivered", Coded;
        /// Coded mode: messages whose k-th fragment arrival decoded back to
        /// the original payload.
        decode_successes: "coded.decode_successes", Coded;
        /// Coded mode: decode attempts that failed or mismatched the
        /// original payload (0 in a fault-free run).
        decode_failures: "coded.decode_failures", Coded;
    }
}

impl SimCounters {
    /// Total successful forwards across all kinds.
    pub fn total_forwards(&self) -> u64 {
        self.forwards_handoff + self.forwards_split + self.forwards_replicate
    }
}

/// Fragment-level results of a coded-mode run
/// (`SimConfig::copy_mode = CopyMode::Coded`).
///
/// The report proper stays message-keyed (a message counts as delivered
/// when its k-th distinct fragment arrived), while this records which
/// individual fragments made it — the per-fragment custody view the
/// adversary analyses need, since each fragment travels its own route.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CodedOutcome {
    /// Fragments required to reconstruct a message.
    pub k: u32,
    /// Fragments generated per message.
    pub m: u32,
    /// Arrival time of every fragment that reached its destination,
    /// keyed by fragment id (see [`crate::message::fragment_id`]).
    pub fragment_delivered: BTreeMap<MessageId, Time>,
}

impl CodedOutcome {
    /// The `(fragment index, arrival time)` pairs of `parent`'s delivered
    /// fragments, ascending by index.
    pub fn delivered_fragments(&self, parent: MessageId) -> Vec<(u32, Time)> {
        (0..self.m)
            .filter_map(|i| {
                self.fragment_delivered
                    .get(&crate::message::fragment_id(parent, i))
                    .map(|t| (i, *t))
            })
            .collect()
    }
}

/// The outcome of one simulation run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimReport {
    protocol: String,
    messages: Vec<Message>,
    injected: Vec<MessageId>,
    delivered: BTreeMap<MessageId, Time>,
    transmissions: BTreeMap<MessageId, u64>,
    forward_log: Vec<ForwardRecord>,
    counters: Option<SimCounters>,
    coded: Option<CodedOutcome>,
}

impl SimReport {
    pub(crate) fn new(
        protocol: String,
        messages: Vec<Message>,
        injected: Vec<MessageId>,
        delivered: BTreeMap<MessageId, Time>,
        transmissions: BTreeMap<MessageId, u64>,
        forward_log: Vec<ForwardRecord>,
        counters: Option<SimCounters>,
    ) -> Self {
        SimReport {
            protocol,
            messages,
            injected,
            delivered,
            transmissions,
            forward_log,
            counters,
            coded: None,
        }
    }

    /// Attaches the fragment-level outcome of a coded-mode run.
    pub(crate) fn with_coded(mut self, coded: CodedOutcome) -> Self {
        self.coded = Some(coded);
        self
    }

    /// Fragment-level results, present only for coded-mode runs.
    pub fn coded(&self) -> Option<&CodedOutcome> {
        self.coded.as_ref()
    }

    /// Number of injected messages.
    pub fn injected_count(&self) -> usize {
        self.injected.len()
    }

    /// Ids of injected messages.
    pub fn injected(&self) -> &[MessageId] {
        &self.injected
    }

    /// Number of messages delivered within their deadlines.
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// Fraction of injected messages delivered within their deadlines.
    pub fn delivery_rate(&self) -> f64 {
        if self.injected.is_empty() {
            return 0.0;
        }
        self.delivered.len() as f64 / self.injected.len() as f64
    }

    /// First delivery time of `message`, if delivered.
    pub fn delivery_time(&self, message: MessageId) -> Option<Time> {
        self.delivered.get(&message).copied()
    }

    /// End-to-end delay of `message`, if delivered.
    pub fn delivery_delay(&self, message: MessageId) -> Option<TimeDelta> {
        let t = self.delivery_time(message)?;
        let m = self.message_meta(message)?;
        Some(t - m.created)
    }

    /// Mean delay over delivered messages; `None` if nothing was delivered.
    pub fn mean_delay(&self) -> Option<TimeDelta> {
        if self.delivered.is_empty() {
            return None;
        }
        let total: f64 = self
            .delivered
            .keys()
            .filter_map(|&id| self.delivery_delay(id))
            .map(|d| d.as_f64())
            .sum();
        Some(TimeDelta::new(total / self.delivered.len() as f64))
    }

    /// All delivery delays, sorted ascending (one per delivered message).
    fn delays_sorted(&self) -> Vec<TimeDelta> {
        let mut delays: Vec<TimeDelta> = self
            .delivered
            .keys()
            .filter_map(|&id| self.delivery_delay(id))
            .collect();
        delays.sort();
        delays
    }

    /// The `q`-quantile of the delivery delay over delivered messages
    /// (nearest-rank), or `None` if nothing was delivered.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn delay_quantile(&self, q: f64) -> Option<TimeDelta> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        let delays = self.delays_sorted();
        if delays.is_empty() {
            return None;
        }
        let rank = ((q * delays.len() as f64).ceil() as usize).clamp(1, delays.len());
        Some(delays[rank - 1])
    }

    /// Median delivery delay, if anything was delivered.
    pub fn median_delay(&self) -> Option<TimeDelta> {
        self.delay_quantile(0.5)
    }

    /// Empirical delivery rate as a function of deadline: the fraction of
    /// injected messages with delay `≤ t` (the curve the paper's
    /// delivery figures plot).
    pub fn delivery_rate_within(&self, t: TimeDelta) -> f64 {
        if self.injected.is_empty() {
            return 0.0;
        }
        let hits = self
            .injected
            .iter()
            .filter(|&&id| self.delivery_delay(id).is_some_and(|d| d <= t))
            .count();
        hits as f64 / self.injected.len() as f64
    }

    /// Number of transmissions of `message` (0 if unknown).
    pub fn transmissions_for(&self, message: MessageId) -> u64 {
        self.transmissions.get(&message).copied().unwrap_or(0)
    }

    /// Total transmissions across all messages.
    pub fn total_transmissions(&self) -> u64 {
        self.transmissions.values().sum()
    }

    /// Mean transmissions per injected message.
    pub fn mean_transmissions(&self) -> f64 {
        if self.injected.is_empty() {
            return 0.0;
        }
        self.total_transmissions() as f64 / self.injected.len() as f64
    }

    /// The full forwarding log: every committed transfer, in order.
    pub fn forward_log(&self) -> &[ForwardRecord] {
        &self.forward_log
    }

    /// Forwards the engine refused (protocol proposed an invalid transfer
    /// or the receiver already had the copy).
    pub fn rejected_forwards(&self) -> u64 {
        self.counters.map_or(0, |c| c.rejected_forwards)
    }

    /// Copies dropped (or refused) because of finite buffers.
    pub fn buffer_drops(&self) -> u64 {
        self.counters.map_or(0, |c| c.buffer_drops)
    }

    /// The full per-run event tallies, when the engine produced them
    /// (always, for engine-built reports).
    pub fn counters(&self) -> Option<&SimCounters> {
        self.counters.as_ref()
    }

    /// Metadata of `message`.
    pub fn message_meta(&self, message: MessageId) -> Option<&Message> {
        self.messages.iter().find(|m| m.id == message)
    }

    /// Reconstructs the custody chain of the copy that was delivered:
    /// `[source, relay_1, …, destination]`. `None` if the message was not
    /// delivered.
    ///
    /// For multi-copy runs this traces the *winning* copy backwards from
    /// the delivery record.
    pub fn delivered_path(&self, message: MessageId) -> Option<Vec<NodeId>> {
        let delivery_time = self.delivery_time(message)?;
        let meta = self.message_meta(message)?;
        self.trace_path(message, meta.source, meta.destination, delivery_time)
    }

    /// Custody chain of one delivered fragment of a coded-mode run:
    /// `[source, relay_1, …, destination]`. `None` if the fragment was
    /// not delivered or the run was not coded.
    pub fn fragment_path(&self, fragment: MessageId) -> Option<Vec<NodeId>> {
        let coded = self.coded.as_ref()?;
        let delivery_time = coded.fragment_delivered.get(&fragment).copied()?;
        let (parent, _) = crate::message::fragment_parent(fragment)?;
        let meta = self.message_meta(parent)?;
        self.trace_path(fragment, meta.source, meta.destination, delivery_time)
    }

    /// Backwards walk through the forwarding log from the record that
    /// reached `destination` at `delivery_time` to `source`.
    fn trace_path(
        &self,
        message: MessageId,
        source: NodeId,
        destination: NodeId,
        delivery_time: Time,
    ) -> Option<Vec<NodeId>> {
        // Find the record that performed the delivery.
        let mut current = self
            .forward_log
            .iter()
            .find(|r| r.message == message && r.to == destination && r.time == delivery_time)?;
        let mut path = vec![current.to, current.from];
        // Walk backwards: who gave the copy to `current.from`?
        while current.from != source {
            let prev = self
                .forward_log
                .iter()
                .filter(|r| r.message == message && r.to == current.from && r.time <= current.time)
                .max_by(|x, y| x.time.cmp(&y.time))?;
            path.push(prev.from);
            current = prev;
        }
        path.reverse();
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contact_graph::TimeDelta;

    fn report() -> SimReport {
        let m1 = Message {
            id: MessageId(1),
            source: NodeId(0),
            destination: NodeId(3),
            created: Time::new(0.0),
            deadline: TimeDelta::new(100.0),
            copies: 2,
        };
        let m2 = Message {
            id: MessageId(2),
            source: NodeId(1),
            destination: NodeId(3),
            created: Time::new(5.0),
            deadline: TimeDelta::new(100.0),
            copies: 1,
        };
        let mut delivered = BTreeMap::new();
        delivered.insert(MessageId(1), Time::new(30.0));
        let mut transmissions = BTreeMap::new();
        transmissions.insert(MessageId(1), 4);
        transmissions.insert(MessageId(2), 1);
        // Winning chain: 0 → 2 → 3; a losing copy went 0 → 1.
        let log = vec![
            ForwardRecord {
                time: Time::new(10.0),
                message: MessageId(1),
                from: NodeId(0),
                to: NodeId(1),
                receiver_tag: 0,
            },
            ForwardRecord {
                time: Time::new(20.0),
                message: MessageId(1),
                from: NodeId(0),
                to: NodeId(2),
                receiver_tag: 1,
            },
            ForwardRecord {
                time: Time::new(30.0),
                message: MessageId(1),
                from: NodeId(2),
                to: NodeId(3),
                receiver_tag: 2,
            },
            ForwardRecord {
                time: Time::new(40.0),
                message: MessageId(2),
                from: NodeId(1),
                to: NodeId(2),
                receiver_tag: 0,
            },
        ];
        SimReport::new(
            "test".into(),
            vec![m1, m2],
            vec![MessageId(1), MessageId(2)],
            delivered,
            transmissions,
            log,
            Some(SimCounters {
                rejected_forwards: 3,
                ..SimCounters::default()
            }),
        )
    }

    #[test]
    fn rates_and_counts() {
        let r = report();
        assert_eq!(r.protocol, "test");
        assert_eq!(r.injected_count(), 2);
        assert_eq!(r.delivered_count(), 1);
        assert_eq!(r.delivery_rate(), 0.5);
        assert_eq!(r.total_transmissions(), 5);
        assert_eq!(r.mean_transmissions(), 2.5);
        assert_eq!(r.rejected_forwards(), 3);
    }

    #[test]
    fn delays() {
        let r = report();
        assert_eq!(r.delivery_delay(MessageId(1)), Some(TimeDelta::new(30.0)));
        assert_eq!(r.delivery_delay(MessageId(2)), None);
        assert_eq!(r.mean_delay(), Some(TimeDelta::new(30.0)));
    }

    #[test]
    fn path_reconstruction_follows_winning_copy() {
        let r = report();
        assert_eq!(
            r.delivered_path(MessageId(1)),
            Some(vec![NodeId(0), NodeId(2), NodeId(3)])
        );
        assert_eq!(r.delivered_path(MessageId(2)), None);
    }

    #[test]
    fn delay_quantiles_and_curve() {
        let r = report();
        // One delivered message with delay 30.
        assert_eq!(r.delays_sorted(), vec![TimeDelta::new(30.0)]);
        assert_eq!(r.median_delay(), Some(TimeDelta::new(30.0)));
        assert_eq!(r.delay_quantile(0.01), Some(TimeDelta::new(30.0)));
        assert_eq!(r.delay_quantile(1.0), Some(TimeDelta::new(30.0)));
        // Delivery-vs-deadline curve: 0 below 30, 0.5 at/after 30 (one of
        // two messages delivered).
        assert_eq!(r.delivery_rate_within(TimeDelta::new(29.9)), 0.0);
        assert_eq!(r.delivery_rate_within(TimeDelta::new(30.0)), 0.5);
        assert_eq!(r.delivery_rate_within(TimeDelta::new(1e9)), 0.5);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_range_checked() {
        let _ = report().delay_quantile(1.5);
    }

    #[test]
    fn empty_report_is_sane() {
        let r = SimReport::new(
            "empty".into(),
            vec![],
            vec![],
            BTreeMap::new(),
            BTreeMap::new(),
            vec![],
            None,
        );
        assert_eq!(r.delivery_rate(), 0.0);
        assert_eq!(r.mean_transmissions(), 0.0);
        assert!(r.mean_delay().is_none());
        assert!(r.counters().is_none());
    }

    #[test]
    fn counters_merge_and_totals() {
        let a = SimCounters {
            contacts: 10,
            forwards_handoff: 1,
            forwards_split: 2,
            forwards_replicate: 3,
            rejected_forwards: 4,
            buffer_drops: 2,
            buffer_evictions: 1,
            deadline_expiries: 5,
            injected: 6,
            delivered: 4,
            expired: 2,
            fault_crashes: 3,
            fault_contacts_dropped: 7,
            fault_transfers_truncated: 1,
            fault_buffer_wipes: 5,
            fault_messages_lost: 2,
            wire_packets_built: 8,
            wire_packets_peeled: 6,
            wire_bytes_sent: 8198 * 9,
            wire_aead_seals: 16,
            wire_aead_opens: 6,
            fragments_injected: 12,
            fragments_delivered: 9,
            decode_successes: 4,
            decode_failures: 1,
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.contacts, 20);
        assert_eq!(b.total_forwards(), 12);
        assert_eq!(b.expired, 4);
        assert_eq!(b.fault_crashes, 6);
        assert_eq!(b.fault_contacts_dropped, 14);
        assert_eq!(b.fault_transfers_truncated, 2);
        assert_eq!(b.fault_buffer_wipes, 10);
        assert_eq!(b.fault_messages_lost, 4);
        assert_eq!(b.wire_packets_built, 16);
        assert_eq!(b.wire_packets_peeled, 12);
        assert_eq!(b.wire_bytes_sent, 8198 * 18);
        assert_eq!(b.wire_aead_seals, 32);
        assert_eq!(b.wire_aead_opens, 12);
        assert_eq!(b.fragments_injected, 24);
        assert_eq!(b.fragments_delivered, 18);
        assert_eq!(b.decode_successes, 8);
        assert_eq!(b.decode_failures, 2);

        let mut names = Vec::new();
        a.for_each_named("sim", |name, value| names.push((name.to_string(), value)));
        assert_eq!(names.len(), 25);
        assert_eq!(names[0], ("sim.contacts".to_string(), 10));
        assert!(names.iter().any(|(n, v)| n == "sim.delivered" && *v == 4));
        assert!(names
            .iter()
            .any(|(n, v)| n == "sim.faults.buffer_wipes" && *v == 5));
        assert!(names
            .iter()
            .any(|(n, v)| n == "sim.wire.bytes_sent" && *v == 8198 * 9));
        assert!(names
            .iter()
            .any(|(n, v)| n == "sim.coded.fragments_injected" && *v == 12));
        assert!(names
            .iter()
            .any(|(n, v)| n == "sim.coded.decode_successes" && *v == 4));
    }

    #[test]
    fn counters_wire_fields_serialize_only_when_nonzero() {
        // Abstract-mode counters keep their historical 16-field layout
        // (committed goldens embed it byte for byte)...
        let abstract_mode = SimCounters {
            contacts: 3,
            delivered: 1,
            ..SimCounters::default()
        };
        let text = serde_json::to_string(&abstract_mode).expect("serialize");
        assert!(!text.contains("wire_"), "{text}");
        assert!(!text.contains("fragments_"), "{text}");
        assert!(!text.contains("decode_"), "{text}");
        let back: SimCounters = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, abstract_mode);

        // ...while wire-mode counters round-trip the extra tallies.
        let wire_mode = SimCounters {
            contacts: 3,
            wire_packets_built: 2,
            wire_bytes_sent: 2 * 8198,
            ..SimCounters::default()
        };
        let text = serde_json::to_string(&wire_mode).expect("serialize");
        assert!(text.contains("wire_packets_built"), "{text}");
        assert!(!text.contains("fragments_"), "{text}");
        let back: SimCounters = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, wire_mode);

        // ...and coded-mode counters carry theirs without the wire group.
        let coded_mode = SimCounters {
            contacts: 3,
            fragments_injected: 6,
            fragments_delivered: 4,
            decode_successes: 2,
            ..SimCounters::default()
        };
        let text = serde_json::to_string(&coded_mode).expect("serialize");
        assert!(text.contains("fragments_injected"), "{text}");
        assert!(text.contains("decode_successes"), "{text}");
        assert!(!text.contains("wire_"), "{text}");
        let back: SimCounters = serde_json::from_str(&text).expect("deserialize");
        assert_eq!(back, coded_mode);
    }
}
