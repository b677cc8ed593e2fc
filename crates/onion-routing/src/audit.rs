//! Trace-based path auditor: empirical security metrics from lifecycle
//! traces.
//!
//! [`crate::metrics`] computes the realized traceable rate and path
//! anonymity from a [`dtn_sim::SimReport`]'s forwarding log. This module
//! computes the *same* quantities from an [`obs::TraceEvent`] journal —
//! the bounded per-trial trace the engine emits when tracing is enabled.
//! Because the two derivations share no code path (one folds the report,
//! the other folds the event stream), agreement between them is a strong
//! correctness oracle: the trace provably carries enough causal
//! information to reconstruct every message's custody chain, and the
//! engine's instrumentation points are in the right places. The
//! `trace_audit` validation test pins both the per-trial exact agreement
//! and the Monte-Carlo agreement with the `analysis` closed forms.

use std::collections::{BTreeMap, HashSet};

use contact_graph::NodeId;
use obs::TraceEvent;

use crate::adversary::Adversary;

/// One committed custody transfer, as seen in the trace.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HopRecord {
    time: f64,
    from: u64,
    to: u64,
    route_group: u64,
}

/// Per-message lifecycle folded from a trace.
#[derive(Clone, Debug, Default, PartialEq)]
struct MessageTrace {
    source: u64,
    destination: u64,
    forwards: Vec<HopRecord>,
    delivered: Option<(f64, u64)>,
}

/// A trial's trace folded into per-message hop chains.
///
/// Build with [`TraceAudit::from_events`], then query delivered paths and
/// the empirical security metrics under a compromised-node set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceAudit {
    /// Keyed by message id; ascending iteration matches the ascending
    /// injection order of [`dtn_sim::SimReport::injected`], so metric
    /// means sum in the same f64 order as [`crate::metrics`].
    messages: BTreeMap<u64, MessageTrace>,
}

impl TraceAudit {
    /// Folds a trace (one trial's events, in emission order) into
    /// per-message hop chains. Events that carry no per-message custody
    /// information (`fault_crash`, `fault_contact_drop`, …) are skipped.
    pub fn from_events(events: &[TraceEvent]) -> TraceAudit {
        let mut messages: BTreeMap<u64, MessageTrace> = BTreeMap::new();
        for event in events {
            match event {
                TraceEvent::Inject {
                    message,
                    source,
                    destination,
                    ..
                } => {
                    let m = messages.entry(*message).or_default();
                    m.source = *source;
                    m.destination = *destination;
                }
                TraceEvent::Forward {
                    time,
                    message,
                    from,
                    to,
                    route_group,
                    ..
                } => {
                    messages
                        .entry(*message)
                        .or_default()
                        .forwards
                        .push(HopRecord {
                            time: *time,
                            from: *from,
                            to: *to,
                            route_group: *route_group,
                        });
                }
                TraceEvent::Deliver {
                    time,
                    message,
                    node,
                } => {
                    let m = messages.entry(*message).or_default();
                    // The engine emits deliver once per message (first
                    // arrival at the destination wins), but keep the
                    // earliest defensively for truncated rings.
                    if m.delivered.is_none() {
                        m.delivered = Some((*time, *node));
                    }
                }
                _ => {}
            }
        }
        TraceAudit { messages }
    }

    /// Number of messages seen in the trace.
    pub fn message_count(&self) -> usize {
        self.messages.len()
    }

    /// Whether the trace recorded a delivery for `message`.
    pub fn is_delivered(&self, message: u64) -> bool {
        self.messages
            .get(&message)
            .is_some_and(|m| m.delivered.is_some())
    }

    /// The winning custody chain source → … → destination, reconstructed
    /// backward from the delivering forward — the same walk
    /// [`dtn_sim::SimReport::delivered_path`] performs on the forwarding
    /// log. `None` if the message was not delivered or the chain is
    /// incomplete (e.g. early events evicted from a saturated ring).
    pub fn delivered_path(&self, message: u64) -> Option<Vec<NodeId>> {
        let m = self.messages.get(&message)?;
        let (delivery_time, _) = m.delivered?;
        let mut current = m
            .forwards
            .iter()
            .find(|r| r.to == m.destination && r.time == delivery_time)?;
        let mut path = vec![current.to, current.from];
        // Walk backwards: who gave the copy to `current.from`?
        while current.from != m.source {
            let prev = m
                .forwards
                .iter()
                .filter(|r| r.to == current.from && r.time <= current.time)
                .max_by(|x, y| x.time.total_cmp(&y.time))?;
            path.push(prev.from);
            current = prev;
        }
        path.reverse();
        Some(path.into_iter().map(|v| NodeId(v as u32)).collect())
    }

    /// The custodian sets per sender position `1 … η`, from the trace:
    /// position 1 holds the source, position `i` every node that received
    /// a copy with hop tag `i − 1` — mirroring
    /// [`crate::metrics::custodians_per_position`].
    pub fn custodians_per_position(&self, message: u64, eta: usize) -> Vec<HashSet<NodeId>> {
        let mut positions: Vec<HashSet<NodeId>> = vec![HashSet::new(); eta];
        if eta == 0 {
            return positions;
        }
        if let Some(m) = self.messages.get(&message) {
            positions[0].insert(NodeId(m.source as u32));
            for rec in &m.forwards {
                let tag = rec.route_group as usize;
                if tag < eta {
                    positions[tag].insert(NodeId(rec.to as u32));
                }
            }
        }
        positions
    }

    /// Empirical mean traceable rate (Eq. 1) over all delivered messages'
    /// winning custody chains — the trace-side twin of
    /// [`crate::metrics::mean_traceable_rate`]. `None` if nothing was
    /// delivered.
    pub fn mean_traceable_rate(&self, adversary: &Adversary) -> Option<f64> {
        let mut total = 0.0;
        let mut count = 0usize;
        for &id in self.messages.keys() {
            if let Some(path) = self.delivered_path(id) {
                total += adversary.traceable_rate(&path);
                count += 1;
            }
        }
        if count == 0 {
            None
        } else {
            Some(total / count as f64)
        }
    }

    /// Empirical mean realized path anonymity `D(φ')` over every traced
    /// message (delivered or not), with the observed exposed-position
    /// count plugged into the Stirling entropy ratio (Eq. 19) — the
    /// trace-side twin of [`crate::metrics::mean_path_anonymity`].
    pub fn mean_path_anonymity(
        &self,
        adversary: &Adversary,
        n: usize,
        g: usize,
        eta: usize,
    ) -> Option<f64> {
        let mut total = 0.0;
        let mut count = 0usize;
        for &id in self.messages.keys() {
            let positions = self.custodians_per_position(id, eta);
            let c_o = adversary.exposed_positions(&positions) as f64;
            let d = analysis::path_anonymity_stirling(n, g, eta, c_o).ok()?;
            total += d;
            count += 1;
        }
        if count == 0 {
            None
        } else {
            Some(total / count as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inject(message: u64, source: u64, destination: u64) -> TraceEvent {
        TraceEvent::Inject {
            time: 0.0,
            message,
            source,
            destination,
        }
    }

    fn forward(time: f64, message: u64, from: u64, to: u64, route_group: u64) -> TraceEvent {
        TraceEvent::Forward {
            time,
            message,
            from,
            to,
            kind: "handoff".to_string(),
            route_group,
        }
    }

    fn deliver(time: f64, message: u64, node: u64) -> TraceEvent {
        TraceEvent::Deliver {
            time,
            message,
            node,
        }
    }

    #[test]
    fn folds_a_linear_chain() {
        let events = vec![
            inject(1, 0, 3),
            forward(1.0, 1, 0, 1, 1),
            forward(2.0, 1, 1, 2, 2),
            forward(3.0, 1, 2, 3, 3),
            deliver(3.0, 1, 3),
        ];
        let audit = TraceAudit::from_events(&events);
        assert_eq!(audit.message_count(), 1);
        assert!(audit.is_delivered(1));
        assert_eq!(
            audit.delivered_path(1),
            Some(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
        );
        let positions = audit.custodians_per_position(1, 3);
        assert_eq!(positions[0], HashSet::from([NodeId(0)]));
        assert_eq!(positions[1], HashSet::from([NodeId(1)]));
        assert_eq!(positions[2], HashSet::from([NodeId(2)]));
    }

    #[test]
    fn undelivered_message_has_no_path_but_counts_for_anonymity() {
        let events = vec![inject(5, 2, 6), forward(1.0, 5, 2, 4, 1)];
        let audit = TraceAudit::from_events(&events);
        assert!(!audit.is_delivered(5));
        assert_eq!(audit.delivered_path(5), None);
        let none = Adversary::default();
        assert_eq!(audit.mean_traceable_rate(&none), None);
        assert_eq!(audit.mean_path_anonymity(&none, 8, 2, 3), Some(1.0));
    }

    #[test]
    fn traceable_rate_extremes() {
        let events = vec![
            inject(1, 0, 3),
            forward(1.0, 1, 0, 1, 1),
            forward(2.0, 1, 1, 2, 2),
            forward(3.0, 1, 2, 3, 3),
            deliver(3.0, 1, 3),
        ];
        let audit = TraceAudit::from_events(&events);
        let none = Adversary::default();
        assert_eq!(audit.mean_traceable_rate(&none), Some(0.0));
        let all = Adversary::from_nodes((0..4).map(NodeId));
        assert_eq!(audit.mean_traceable_rate(&all), Some(1.0));
    }

    #[test]
    fn truncated_ring_yields_incomplete_chain_not_a_panic() {
        // The inject and first forward were evicted: the back-walk cannot
        // reach the source, so the path is None.
        let events = vec![
            inject(1, 0, 3),
            forward(2.0, 1, 1, 2, 2),
            forward(3.0, 1, 2, 3, 3),
            deliver(3.0, 1, 3),
        ];
        let audit = TraceAudit::from_events(&events);
        assert_eq!(audit.delivered_path(1), None);
    }
}
