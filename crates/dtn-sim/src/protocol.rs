//! The routing-protocol interface.
//!
//! The engine replays a contact schedule and, at each contact and for each
//! direction, asks the protocol which messages to transfer. Protocols are
//! stateless with respect to buffers — the engine owns custody — but may
//! keep their own routing state (e.g. the onion group sequence chosen per
//! message).

use contact_graph::{NodeId, Time};
use rand::RngCore;

use crate::message::{CopyState, Message, MessageId};
use crate::report::SimCounters;

/// How a message moves from carrier to peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardKind {
    /// Hand off the only copy: the carrier drops its copy, the peer
    /// receives it (ticket count preserved).
    Handoff,
    /// Split tickets: the peer receives a copy with `tickets_to_receiver`
    /// tickets and the carrier keeps the rest. If the carrier's remainder
    /// hits zero its copy is dropped (Algorithm 2).
    Split {
        /// Tickets granted to the receiving copy (must be >= 1 and <= the
        /// carrier's current tickets).
        tickets_to_receiver: u32,
    },
    /// Unbounded replication (epidemic): the peer receives a copy with the
    /// same ticket count; the carrier keeps its copy.
    Replicate,
}

/// One forwarding decision returned by a protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Forward {
    /// Which message to transfer.
    pub message: MessageId,
    /// Transfer semantics.
    pub kind: ForwardKind,
    /// Protocol tag for the receiver's copy (e.g. the onion hop index the
    /// copy will be at after this transfer).
    pub receiver_tag: u64,
}

/// Read-only view of the simulation handed to protocols at a contact.
pub trait ContactView {
    /// Current simulation time.
    fn now(&self) -> Time;
    /// The node currently making forwarding decisions.
    fn carrier(&self) -> NodeId;
    /// The node it met.
    fn peer(&self) -> NodeId;
    /// Messages (with copy state) buffered at the carrier, in ascending
    /// message-id order.
    fn carried(&self) -> &[(MessageId, CopyState)];
    /// Whether the peer already buffers (or has already seen) `message`.
    fn peer_has(&self, message: MessageId) -> bool;
    /// Whether `message` has already been delivered to its destination.
    fn is_delivered(&self, message: MessageId) -> bool;
    /// Message metadata.
    fn message(&self, id: MessageId) -> &Message;
}

/// A DTN routing protocol.
///
/// Implementations decide what to do at injection time and at contacts;
/// the engine owns buffers, tickets, deadlines, and statistics.
pub trait RoutingProtocol {
    /// Short protocol name for reports.
    fn name(&self) -> &str;

    /// Called when a message enters the network at its source. Returns the
    /// initial copy state (default: `copies` tickets, tag 0).
    fn on_inject(&mut self, message: &Message, rng: &mut dyn RngCore) -> CopyState {
        let _ = rng;
        CopyState::new(message.copies)
    }

    /// Called for *every* contact, before any forwarding decisions and
    /// regardless of buffer contents — lets utility-based protocols (e.g.
    /// PRoPHET) learn encounter statistics. Default: no-op.
    ///
    /// The engine only promises every call while
    /// [`observes_contacts`](RoutingProtocol::observes_contacts) returns
    /// true: a protocol that overrides this hook must override that one
    /// too, or a run may stop replaying contacts once no copy is left.
    fn on_contact_observed(&mut self, a: NodeId, b: NodeId, time: Time) {
        let _ = (a, b, time);
    }

    /// Whether the protocol watches every contact through
    /// [`on_contact_observed`](RoutingProtocol::on_contact_observed).
    /// Default: no — the engine may then stop replaying an exact-size
    /// contact stream once the run is idle (see `engine::run_stream`).
    /// Any protocol that overrides `on_contact_observed` must return
    /// true here.
    fn observes_contacts(&self) -> bool {
        false
    }

    /// Called once per direction at each contact. Returns the transfers the
    /// carrier performs toward the peer.
    fn on_contact(&mut self, view: &dyn ContactView, rng: &mut dyn RngCore) -> Vec<Forward>;

    /// Whether this protocol can move real ciphertext in wire mode
    /// (`SimConfig::wire_mode`). Default: no — the engine rejects
    /// wire-mode runs with `SimError::WireUnsupported` rather than
    /// silently reporting zero crypto cost.
    fn wire_capable(&self) -> bool {
        false
    }

    /// Wire mode only: called right after [`on_inject`] so the protocol
    /// builds the real constant-size packet for `message`, tallying
    /// build cost into `counters`. Default: no-op.
    ///
    /// [`on_inject`]: RoutingProtocol::on_inject
    fn wire_on_inject(&mut self, message: &Message, counters: &mut SimCounters) {
        let _ = (message, counters);
    }

    /// Wire mode only: called for every committed transfer (including
    /// copies lost in flight, where the sender still paid the bytes) so
    /// the protocol moves/peels the real packet and tallies byte and
    /// AEAD cost into `counters`. `receiver_tag` is the tag the engine
    /// assigned to the receiving copy; `lost` marks in-flight loss.
    /// Default: no-op.
    fn wire_on_transfer(
        &mut self,
        message: MessageId,
        receiver_tag: u64,
        lost: bool,
        counters: &mut SimCounters,
    ) {
        let _ = (message, receiver_tag, lost, counters);
    }

    /// Coded mode only (`SimConfig::copy_mode = CopyMode::Coded`): called
    /// once per message when its first fragment is injected, so the
    /// protocol Reed-Solomon-encodes the real payload into `m` fragment
    /// shares (tallying into `counters` as it sees fit). The engine
    /// handles fragment custody either way; this hook is where actual
    /// bytes get coded. Default: no-op.
    fn coded_on_encode(&mut self, parent: &Message, k: u32, m: u32, counters: &mut SimCounters) {
        let _ = (parent, k, m, counters);
    }

    /// Coded mode only: called exactly once per message, at the instant
    /// its k-th distinct fragment reaches the destination, with the
    /// indices of the fragments delivered so far. The protocol decodes
    /// from its stored shares and tallies `decode_successes` /
    /// `decode_failures` into `counters`. Default: no-op.
    fn coded_on_decode(
        &mut self,
        parent: MessageId,
        delivered_fragments: &[u32],
        counters: &mut SimCounters,
    ) {
        let _ = (parent, delivered_fragments, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contact_graph::TimeDelta;

    struct Null;
    impl RoutingProtocol for Null {
        fn name(&self) -> &str {
            "null"
        }
        fn on_contact(&mut self, _: &dyn ContactView, _: &mut dyn RngCore) -> Vec<Forward> {
            Vec::new()
        }
    }

    #[test]
    fn default_inject_uses_message_copies() {
        let mut p = Null;
        let m = Message {
            id: MessageId(0),
            source: NodeId(0),
            destination: NodeId(1),
            created: Time::ZERO,
            deadline: TimeDelta::new(10.0),
            copies: 4,
        };
        let state = p.on_inject(&m, &mut rand::thread_rng());
        assert_eq!(state, CopyState::new(4));
        assert_eq!(p.name(), "null");
    }
}
