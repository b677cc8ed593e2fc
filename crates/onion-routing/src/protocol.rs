//! The abstract onion-based anonymous routing protocol (Section III,
//! Algorithms 1 and 2).
//!
//! At injection the source selects `K` onion groups `R_1 … R_K`; the
//! message then travels `v_s → R_1 → … → R_K → v_d`, each hop taken at the
//! first contact with *any* member of the next group. With `L ≥ 2`
//! (multi-copy), the source additionally sprays single-ticket copies to
//! the first nodes it meets (source spray-and-wait), each of which follows
//! the same group route independently.
//!
//! The per-copy protocol tag stores the hop index `k` — the number of
//! onion groups the copy has traversed (0 = still pre-`R_1`).

use std::cell::RefCell;
use std::collections::HashMap;

use contact_graph::NodeId;
use dtn_sim::{
    ContactView, CopyState, Forward, ForwardKind, Message, MessageId, RoutingProtocol, SimCounters,
};
use onion_codec::RsCodec;
use onion_crypto::{RouteTarget, WirePacket, WirePeeled, WIRE_PACKET_LEN};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;

use crate::config::RouteSelection;
use crate::crypto::OnionCryptoContext;
use crate::groups::{GroupId, OnionGroups};

/// Cap on pooled wire buffers retained per worker thread (at 8 KiB each,
/// 2 MiB per thread worst case).
const WIRE_POOL_CAP: usize = 256;

thread_local! {
    /// Reusable wire-packet buffers, pooled per worker thread so wire-mode
    /// runs peel in place over recycled 8 KiB arenas instead of allocating
    /// per packet (the same reuse discipline as the engine's forward arena).
    static WIRE_POOL: RefCell<Vec<WirePacket>> = const { RefCell::new(Vec::new()) };
}

/// Takes a packet buffer from the thread-local pool (zero-filled origin,
/// but callers always overwrite the whole buffer via `build_into` or
/// `copy_from` before use).
fn pool_take() -> WirePacket {
    WIRE_POOL
        .with(|p| p.borrow_mut().pop())
        .unwrap_or_else(WirePacket::zeroed)
}

/// Returns a packet buffer to the thread-local pool.
fn pool_recycle(packet: WirePacket) {
    WIRE_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < WIRE_POOL_CAP {
            pool.push(packet);
        }
    });
}

/// Wire-mode state: real constant-size ciphertext per in-flight message.
///
/// `packets[m][d]` is the canonical packet of message `m` after `d` layers
/// have been peeled (slot 0 = as built at the source). Only slots
/// `0 .. K-1` are ever filled — they are the peel *sources* for transfers
/// at hop tags `1 ..= K`; the fully peeled packet is cleartext at the last
/// relay and needs no slot. Multi-copy keeps every filled slot, since any
/// copy may still peel from it; single-copy returns slot `k-1` to the pool
/// right after the peel at hop `k`, so a message holds at most one packet.
#[derive(Clone, Debug)]
struct WireState {
    crypto: OnionCryptoContext,
    rng: ChaCha8Rng,
    packets: HashMap<MessageId, Vec<Option<WirePacket>>>,
}

impl Drop for WireState {
    fn drop(&mut self) {
        for (_, slots) in self.packets.drain() {
            for packet in slots.into_iter().flatten() {
                pool_recycle(packet);
            }
        }
    }
}

/// Bytes of real payload Reed-Solomon-encoded per message in coded mode.
/// Big enough that every fragment carries a non-trivial share (at the
/// largest supported `k`, each share still holds at least one byte).
pub const CODED_PAYLOAD_LEN: usize = 64;

/// Coded-mode state: real Reed-Solomon shares per in-flight message.
///
/// The payload is drawn from the codec's own randomness stream (seed it
/// from `SeedDomain::Codec`) so enabling coded byte-work never perturbs
/// the protocol's trial draw order; it is kept alongside the shares so
/// decode at delivery can be verified byte-for-byte.
#[derive(Clone, Debug)]
struct CodedState {
    codec: RsCodec,
    rng: ChaCha8Rng,
    payloads: HashMap<MessageId, Vec<u8>>,
    shares: HashMap<MessageId, Vec<Vec<u8>>>,
}

/// Copy discipline of the abstract protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardingMode {
    /// Algorithm 1: a single custody token follows the group route.
    SingleCopy,
    /// Algorithm 2: up to `L` copies; the source sprays, every copy
    /// follows the route independently.
    MultiCopy,
}

/// The onion-group routing protocol, pluggable into `dtn_sim`.
///
/// # Examples
///
/// ```
/// use dtn_sim::RoutingProtocol;
/// use onion_routing::{OnionGroups, OnionRouting, ForwardingMode};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
/// let groups = OnionGroups::random_partition(100, 5, &mut rng);
/// let protocol = OnionRouting::new(groups, 3, ForwardingMode::SingleCopy);
/// assert_eq!(protocol.name(), "onion/single-copy");
/// ```
#[derive(Clone, Debug)]
pub struct OnionRouting {
    groups: OnionGroups,
    onions: usize,
    mode: ForwardingMode,
    selection: RouteSelection,
    routes: HashMap<MessageId, Vec<GroupId>>,
    wire: Option<WireState>,
    coded: Option<CodedState>,
}

impl OnionRouting {
    /// Creates the protocol over a group structure with `onions = K`
    /// relay groups per route.
    ///
    /// # Panics
    ///
    /// Panics if `onions` is zero or exceeds the number of groups.
    pub fn new(groups: OnionGroups, onions: usize, mode: ForwardingMode) -> Self {
        assert!(onions > 0, "K must be positive");
        assert!(
            onions <= groups.group_count(),
            "K = {onions} exceeds the {} available groups",
            groups.group_count()
        );
        OnionRouting {
            groups,
            onions,
            mode,
            selection: RouteSelection::Uniform,
            routes: HashMap::new(),
            wire: None,
            coded: None,
        }
    }

    /// Switches the route-selection policy (default
    /// [`RouteSelection::Uniform`]).
    pub fn with_selection(mut self, selection: RouteSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Enables wire mode: every forward of a simulation run with
    /// [`dtn_sim::SimConfig::wire_mode`] set moves (and, at route hops,
    /// peels) a real constant-size ciphertext packet.
    ///
    /// `rng` is the *wire* randomness stream (seed it from
    /// [`crate::runner::SeedDomain::Wire`]): the network master secret is
    /// drawn from it, as are all nonces and re-padding fill, so enabling
    /// wire mode never perturbs the protocol's own trial draw order.
    pub fn with_wire(mut self, mut rng: ChaCha8Rng) -> Self {
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        self.wire = Some(WireState {
            crypto: OnionCryptoContext::new(master, self.groups.clone()),
            rng,
            packets: HashMap::new(),
        });
        self
    }

    /// Enables coded byte-work: a simulation run with
    /// [`dtn_sim::SimConfig::copy_mode`] set to `CopyMode::Coded { k, m }`
    /// Reed-Solomon-encodes a real [`CODED_PAYLOAD_LEN`]-byte payload per
    /// message at injection and decodes it from the delivered fragments'
    /// shares at the k-th arrival, tallying `decode_successes` /
    /// `decode_failures`.
    ///
    /// `rng` is the *codec* randomness stream (seed it from
    /// [`crate::runner::SeedDomain::Codec`]): payloads are drawn from it,
    /// so enabling coded byte-work never perturbs the protocol's own
    /// trial draw order.
    ///
    /// # Panics
    ///
    /// Panics if `(k, m)` is not a valid code shape (`1 <= k <= m <= 255`).
    pub fn with_code(mut self, k: u32, m: u32, rng: ChaCha8Rng) -> Self {
        let codec = RsCodec::new(k as usize, m as usize)
            .expect("code shape validated by the caller (engine rejects bad k/m)");
        self.coded = Some(CodedState {
            codec,
            rng,
            payloads: HashMap::new(),
            shares: HashMap::new(),
        });
        self
    }

    /// The group structure in use.
    pub fn groups(&self) -> &OnionGroups {
        &self.groups
    }

    /// The route chosen for `message`, if it has been injected.
    pub fn route_of(&self, message: MessageId) -> Option<&[GroupId]> {
        self.routes.get(&message).map(|r| r.as_slice())
    }

    /// Whether `node` may serve as a relay of `group` for `message` — the
    /// endpoints never relay their own message (they are modeled as pure
    /// endpoints in the analysis).
    fn is_eligible_relay(&self, group: GroupId, node: NodeId, msg: &Message) -> bool {
        node != msg.source && node != msg.destination && self.groups.contains(group, node)
    }
}

impl RoutingProtocol for OnionRouting {
    fn name(&self) -> &str {
        match self.mode {
            ForwardingMode::SingleCopy => "onion/single-copy",
            ForwardingMode::MultiCopy => "onion/multi-copy",
        }
    }

    fn on_inject(&mut self, message: &Message, rng: &mut dyn RngCore) -> CopyState {
        let route = match self.selection {
            RouteSelection::Uniform => self.groups.select_route_avoiding(
                self.onions,
                &[message.source, message.destination],
                rng,
            ),
            RouteSelection::ArdenLastHop => {
                self.groups
                    .select_route_arden(self.onions, message.destination, rng)
            }
        }
        .expect("K validated against group count in OnionRouting::new");
        self.routes.insert(message.id, route);
        let tickets = match self.mode {
            ForwardingMode::SingleCopy => 1,
            ForwardingMode::MultiCopy => message.copies,
        };
        CopyState::with_tag(tickets, 0)
    }

    fn on_contact(&mut self, view: &dyn ContactView, _rng: &mut dyn RngCore) -> Vec<Forward> {
        let mut out = Vec::new();
        let peer = view.peer();
        for &(id, copy) in view.carried() {
            if view.is_delivered(id) {
                continue;
            }
            let msg = view.message(id);
            let Some(route) = self.routes.get(&id) else {
                continue;
            };
            let k = copy.tag as usize;

            if k < route.len() {
                // ARDEN variant: the last route group is the destination's
                // group, so reaching the destination there is delivery.
                if self.selection == RouteSelection::ArdenLastHop
                    && k == route.len() - 1
                    && peer == msg.destination
                    && self.groups.contains(route[k], peer)
                {
                    out.push(Forward {
                        message: id,
                        kind: ForwardKind::Handoff,
                        receiver_tag: copy.tag + 1,
                    });
                    continue;
                }
                // Next hop: any eligible member of R_{k+1}.
                if self.is_eligible_relay(route[k], peer, msg) && !view.peer_has(id) {
                    let kind = if copy.tickets > 1 {
                        // Multi-copy source: route progress consumes one
                        // ticket, the rest stay for spraying.
                        ForwardKind::Split {
                            tickets_to_receiver: 1,
                        }
                    } else {
                        ForwardKind::Handoff
                    };
                    out.push(Forward {
                        message: id,
                        kind,
                        receiver_tag: copy.tag + 1,
                    });
                    continue;
                }
                // Multi-copy spray: the source hands pre-route copies to
                // any node it meets (source spray-and-wait).
                if self.mode == ForwardingMode::MultiCopy
                    && view.carrier() == msg.source
                    && k == 0
                    && copy.tickets > 1
                    && peer != msg.destination
                    && !view.peer_has(id)
                {
                    out.push(Forward {
                        message: id,
                        kind: ForwardKind::Split {
                            tickets_to_receiver: 1,
                        },
                        receiver_tag: 0,
                    });
                }
            } else {
                // All K groups traversed: only the destination remains.
                if peer == msg.destination {
                    out.push(Forward {
                        message: id,
                        kind: ForwardKind::Handoff,
                        receiver_tag: copy.tag + 1,
                    });
                }
            }
        }
        out
    }

    fn wire_capable(&self) -> bool {
        self.wire.is_some()
    }

    fn wire_on_inject(&mut self, message: &Message, counters: &mut SimCounters) {
        let Some(wire) = self.wire.as_mut() else {
            return;
        };
        let route = self
            .routes
            .get(&message.id)
            .expect("wire_on_inject runs right after on_inject stored the route");
        // The simulated payload is the message id — enough to prove the
        // plaintext survives the full peel chain byte-for-byte.
        let payload = message.id.0.to_le_bytes();
        let mut packet = pool_take();
        wire.crypto
            .build_wire_into(
                &mut packet,
                route,
                message.destination,
                &payload,
                &mut wire.rng,
            )
            .expect("K >= 1 and an 8-byte payload always fit the fixed body");
        let depth = route.len();
        let mut slots = vec![None; depth];
        slots[0] = Some(packet);
        wire.packets.insert(message.id, slots);
        counters.wire_packets_built += 1;
        counters.wire_aead_seals += depth as u64;
    }

    fn wire_on_transfer(
        &mut self,
        message: MessageId,
        receiver_tag: u64,
        lost: bool,
        counters: &mut SimCounters,
    ) {
        let Some(wire) = self.wire.as_mut() else {
            return;
        };
        // Every committed transfer moves one full constant-size packet —
        // including copies lost in flight (the sender already paid the
        // bytes), pre-route sprayed copies (tag 0), and the final clear
        // hop to the destination (tag K+1), which carry ciphertext
        // without peeling.
        counters.wire_bytes_sent += WIRE_PACKET_LEN as u64;
        if lost {
            return;
        }
        let route = self
            .routes
            .get(&message)
            .expect("transfers only happen for injected messages");
        let depth = route.len();
        let tag = receiver_tag as usize;
        if tag == 0 || tag > depth {
            return;
        }
        // Route hop k = tag: a member of R_k peels layer k. Copies reach
        // tag k only via a non-lost transfer at tag k, so the canonical
        // depth-(k-1) packet is always present.
        let slots = wire
            .packets
            .get_mut(&message)
            .expect("packet built at injection");
        let source = slots[tag - 1]
            .as_ref()
            .expect("peel sources are filled in ascending tag order");
        let mut scratch = pool_take();
        scratch.copy_from(source);
        let key = wire.crypto.group_key(route[tag - 1]);
        let peeled = scratch
            .peel_in_place(&key, &mut wire.rng)
            .expect("the group key of R_k peels layer k by construction");
        counters.wire_packets_peeled += 1;
        counters.wire_aead_opens += 1;
        if self.mode == ForwardingMode::SingleCopy {
            // The message's only copy has just moved past hop k-1 (a
            // handoff removes the carrier's copy; a lost transfer returned
            // above), so no later transfer peels the depth-(k-1) packet.
            pool_recycle(slots[tag - 1].take().expect("peel source present"));
        }
        match peeled {
            WirePeeled::Forward { next } => {
                debug_assert!(tag < depth, "forward target past the last layer");
                debug_assert_eq!(
                    next,
                    RouteTarget::Group(route[tag].0),
                    "peeled layer must reveal the next onion group"
                );
                if slots[tag].is_none() {
                    slots[tag] = Some(scratch);
                } else {
                    pool_recycle(scratch);
                }
            }
            WirePeeled::Delivered { .. } => {
                debug_assert_eq!(tag, depth, "cleartext before the last layer");
                pool_recycle(scratch);
            }
        }
    }

    fn coded_on_encode(&mut self, parent: &Message, k: u32, m: u32, _counters: &mut SimCounters) {
        let Some(coded) = self.coded.as_mut() else {
            return;
        };
        debug_assert_eq!(
            (coded.codec.k(), coded.codec.m()),
            (k as usize, m as usize),
            "with_code shape must match SimConfig::copy_mode"
        );
        let mut payload = vec![0u8; CODED_PAYLOAD_LEN];
        coded.rng.fill_bytes(&mut payload);
        let shares = coded.codec.encode(&payload);
        coded.payloads.insert(parent.id, payload);
        coded.shares.insert(parent.id, shares);
    }

    fn coded_on_decode(
        &mut self,
        parent: MessageId,
        delivered_fragments: &[u32],
        counters: &mut SimCounters,
    ) {
        let Some(coded) = self.coded.as_ref() else {
            return;
        };
        let (Some(shares), Some(payload)) =
            (coded.shares.get(&parent), coded.payloads.get(&parent))
        else {
            counters.decode_failures += 1;
            return;
        };
        let picked: Vec<(usize, &[u8])> = delivered_fragments
            .iter()
            .map(|&i| (i as usize, shares[i as usize].as_slice()))
            .collect();
        match coded.codec.decode(&picked, CODED_PAYLOAD_LEN) {
            Ok(data) if data == *payload => counters.decode_successes += 1,
            _ => counters.decode_failures += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contact_graph::{ContactEvent, ContactSchedule, Time, TimeDelta};
    use dtn_sim::{run, SimConfig};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn msg(id: u64, src: u32, dst: u32, deadline: f64, copies: u32) -> Message {
        Message {
            id: MessageId(id),
            source: NodeId(src),
            destination: NodeId(dst),
            created: Time::ZERO,
            deadline: TimeDelta::new(deadline),
            copies,
        }
    }

    /// 8 nodes, groups of 2 in node order: R0 = {0,1}, R1 = {2,3},
    /// R2 = {4,5}, R3 = {6,7}.
    fn proto(k: usize, mode: ForwardingMode) -> OnionRouting {
        OnionRouting::new(OnionGroups::sequential_partition(8, 2), k, mode)
    }

    fn schedule(events: Vec<(f64, u32, u32)>, horizon: f64) -> ContactSchedule {
        let evs = events
            .into_iter()
            .map(|(t, a, b)| ContactEvent::new(Time::new(t), NodeId(a), NodeId(b)))
            .collect();
        ContactSchedule::from_events(evs, 8, Time::new(horizon))
    }

    #[test]
    fn single_copy_follows_route_in_order() {
        let mut p = proto(2, ForwardingMode::SingleCopy);
        // Force a deterministic seed; read back the route afterwards.
        let mut r = rng(1);
        // Rich schedule: source 0 meets everyone repeatedly.
        let mut events = Vec::new();
        let mut t = 1.0;
        for round in 0..6 {
            for other in 1..8u32 {
                events.push((t + round as f64 * 10.0, 0, other));
                t += 0.1;
            }
        }
        // All pairs meet late so any route can complete.
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                events.push((70.0 + (a * 8 + b) as f64 * 0.1, a, b));
                events.push((80.0 + (a * 8 + b) as f64 * 0.1, a, b));
                events.push((90.0 + (a * 8 + b) as f64 * 0.1, a, b));
            }
        }
        let s = schedule(events, 100.0);
        let report = run(
            &s,
            &mut p,
            vec![msg(1, 0, 7, 100.0, 1)],
            &SimConfig::default(),
            &mut r,
        )
        .unwrap();

        let route = p.route_of(MessageId(1)).unwrap().to_vec();
        assert_eq!(route.len(), 2);

        if let Some(path) = report.delivered_path(MessageId(1)) {
            // path = [source, relay in R_1, relay in R_2, destination]
            assert_eq!(path.len(), 4);
            assert_eq!(path[0], NodeId(0));
            assert_eq!(path[3], NodeId(7));
            assert!(p.groups().contains(route[0], path[1]));
            assert!(p.groups().contains(route[1], path[2]));
            // Single copy: transmissions equal K + 1 (Section IV-C).
            assert_eq!(report.transmissions_for(MessageId(1)), 3);
        } else {
            panic!("message should be delivered under the rich schedule");
        }
    }

    #[test]
    fn endpoints_never_relay() {
        // Destination 7 is in group R3; if the route includes R3 the
        // protocol must not use node 7 as a relay. Run many seeds and
        // check every intermediate hop.
        for seed in 0..20u64 {
            let mut p = proto(3, ForwardingMode::SingleCopy);
            let mut r = rng(seed);
            let mut events = Vec::new();
            let mut t = 1.0;
            for _ in 0..40 {
                for a in 0..8u32 {
                    for b in (a + 1)..8u32 {
                        events.push((t, a, b));
                        t += 0.01;
                    }
                }
                t += 1.0;
            }
            let s = schedule(events, t + 10.0);
            let report = run(
                &s,
                &mut p,
                vec![msg(1, 0, 7, t + 10.0, 1)],
                &SimConfig::default(),
                &mut r,
            )
            .unwrap();
            if let Some(path) = report.delivered_path(MessageId(1)) {
                for &hop in &path[1..path.len() - 1] {
                    assert_ne!(hop, NodeId(0));
                    assert_ne!(hop, NodeId(7));
                }
            }
        }
    }

    #[test]
    fn multi_copy_sprays_at_most_l_copies() {
        let mut p = proto(2, ForwardingMode::MultiCopy);
        let mut r = rng(3);
        // Source meets many nodes early (spray), then everything mixes.
        let mut events = Vec::new();
        let mut t = 1.0;
        for other in 1..8u32 {
            events.push((t, 0, other));
            t += 0.5;
        }
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                events.push((20.0 + (a * 8 + b) as f64 * 0.05, a, b));
            }
        }
        let s = schedule(events, 50.0);
        let l = 3;
        let report = run(
            &s,
            &mut p,
            vec![msg(1, 0, 7, 50.0, l)],
            &SimConfig::default(),
            &mut r,
        )
        .unwrap();
        // Cost bound of Section IV-C: at most (K + 2) · L transmissions.
        let bound = analysis::multi_copy_bound(2, l).unwrap();
        assert!(
            report.transmissions_for(MessageId(1)) <= bound,
            "{} > {bound}",
            report.transmissions_for(MessageId(1))
        );
        // Copies with tag 0 (sprayed) cannot exceed L − 1.
        let sprayed = report
            .forward_log()
            .iter()
            .filter(|rec| rec.receiver_tag == 0)
            .count();
        assert!(sprayed <= (l - 1) as usize, "sprayed {sprayed}");
    }

    #[test]
    fn single_copy_never_exceeds_k_plus_1_transmissions() {
        for seed in 0..10u64 {
            let mut p = proto(3, ForwardingMode::SingleCopy);
            let mut r = rng(seed + 100);
            let mut events = Vec::new();
            let mut t = 1.0;
            for _ in 0..30 {
                for a in 0..8u32 {
                    for b in (a + 1)..8u32 {
                        events.push((t, a, b));
                        t += 0.02;
                    }
                }
            }
            let s = schedule(events, t + 1.0);
            let report = run(
                &s,
                &mut p,
                vec![msg(1, 0, 7, t + 1.0, 1)],
                &SimConfig::default(),
                &mut r,
            )
            .unwrap();
            assert!(
                report.transmissions_for(MessageId(1)) <= analysis::single_copy_cost(3),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn no_delivery_without_route_completion() {
        // Source only ever meets the destination directly — but the route
        // requires passing an onion group first, so no delivery happens.
        let mut p = proto(2, ForwardingMode::SingleCopy);
        let mut r = rng(4);
        let s = schedule(vec![(1.0, 0, 7), (2.0, 0, 7), (3.0, 0, 7)], 10.0);
        let report = run(
            &s,
            &mut p,
            vec![msg(1, 0, 7, 10.0, 1)],
            &SimConfig::default(),
            &mut r,
        )
        .unwrap();
        assert_eq!(report.delivery_rate(), 0.0);
        assert_eq!(report.total_transmissions(), 0);
    }

    #[test]
    fn arden_selection_stores_destination_group_last() {
        let groups = OnionGroups::sequential_partition(8, 2);
        let mut p = OnionRouting::new(groups, 2, ForwardingMode::SingleCopy)
            .with_selection(RouteSelection::ArdenLastHop);
        let mut r = rng(5);
        let s = schedule(vec![(1.0, 0, 1)], 10.0);
        let _ = run(
            &s,
            &mut p,
            vec![msg(1, 0, 7, 10.0, 1)],
            &SimConfig::default(),
            &mut r,
        )
        .unwrap();
        let route = p.route_of(MessageId(1)).unwrap();
        assert_eq!(*route.last().unwrap(), p.groups().group_of(NodeId(7)));
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn too_many_onions_rejected() {
        let _ = proto(9, ForwardingMode::SingleCopy);
    }

    /// Rich all-pairs schedule under which a K=2 route always completes.
    fn rich_schedule() -> ContactSchedule {
        let mut events = Vec::new();
        let mut t = 1.0;
        for round in 0..6 {
            for other in 1..8u32 {
                events.push((t + round as f64 * 10.0, 0, other));
                t += 0.1;
            }
        }
        for a in 0..8u32 {
            for b in (a + 1)..8u32 {
                events.push((70.0 + (a * 8 + b) as f64 * 0.1, a, b));
                events.push((80.0 + (a * 8 + b) as f64 * 0.1, a, b));
                events.push((90.0 + (a * 8 + b) as f64 * 0.1, a, b));
            }
        }
        schedule(events, 100.0)
    }

    #[test]
    fn wire_capability_follows_with_wire() {
        assert!(!proto(2, ForwardingMode::SingleCopy).wire_capable());
        let p = proto(2, ForwardingMode::SingleCopy).with_wire(rng(77));
        assert!(p.wire_capable());
    }

    #[test]
    fn debug_prints_no_wire_key_or_master_secret() {
        let seed = [0xA5; 32];
        let mut master = [0u8; 32];
        ChaCha8Rng::from_seed(seed).fill_bytes(&mut master);
        let p = proto(2, ForwardingMode::SingleCopy).with_wire(ChaCha8Rng::from_seed(seed));
        let shown = format!("{p:?} {p:#?}");
        let key_word = u32::from_le_bytes([0xA5; 4]);
        let master_words = master
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
        for word in std::iter::once(key_word).chain(master_words) {
            assert!(!shown.contains(&word.to_string()), "{word} in {shown}");
        }
    }

    #[test]
    fn wire_mode_matches_abstract_run_and_counts_crypto() {
        let s = rich_schedule();
        let mut p0 = proto(2, ForwardingMode::SingleCopy);
        let mut r0 = rng(1);
        let report0 = run(
            &s,
            &mut p0,
            vec![msg(1, 0, 7, 100.0, 1)],
            &SimConfig::default(),
            &mut r0,
        )
        .unwrap();

        let mut p1 = proto(2, ForwardingMode::SingleCopy).with_wire(rng(999));
        let mut r1 = rng(1);
        let cfg = SimConfig::builder().wire_mode(true).build();
        let report1 = run(&s, &mut p1, vec![msg(1, 0, 7, 100.0, 1)], &cfg, &mut r1).unwrap();

        // The abstract trajectory is untouched by the real crypto.
        assert_eq!(
            report0.delivered_path(MessageId(1)),
            report1.delivered_path(MessageId(1))
        );
        assert_eq!(report0.total_transmissions(), report1.total_transmissions());
        assert_eq!(p0.route_of(MessageId(1)), p1.route_of(MessageId(1)));

        // Wire tallies: one packet of K=2 layers built; every transfer
        // moved a full packet; the two route hops peeled.
        let c1 = report1.counters().unwrap();
        assert_eq!(c1.wire_packets_built, 1);
        assert_eq!(c1.wire_aead_seals, 2);
        assert_eq!(
            c1.wire_bytes_sent,
            report1.total_transmissions() * WIRE_PACKET_LEN as u64
        );
        assert!(report1.delivery_rate() == 1.0, "rich schedule delivers");
        assert_eq!(c1.wire_packets_peeled, 2);
        assert_eq!(c1.wire_aead_opens, 2);

        // Without wire mode no wire counters move.
        let c0 = report0.counters().unwrap();
        assert_eq!(c0.wire_packets_built, 0);
        assert_eq!(c0.wire_bytes_sent, 0);
    }

    #[test]
    fn wire_mode_multi_copy_moves_bytes_without_peeling_sprays() {
        let s = rich_schedule();
        let l = 3;
        let mut p = proto(2, ForwardingMode::MultiCopy).with_wire(rng(42));
        let mut r = rng(3);
        let cfg = SimConfig::builder().wire_mode(true).build();
        let report = run(&s, &mut p, vec![msg(1, 0, 7, 100.0, l)], &cfg, &mut r).unwrap();
        let c = report.counters().unwrap();
        assert_eq!(c.wire_packets_built, 1);
        // Sprayed copies (tag 0) and the final clear hop move bytes but
        // never open a layer; route hops open exactly one layer each.
        let sprayed = report
            .forward_log()
            .iter()
            .filter(|rec| rec.receiver_tag == 0)
            .count() as u64;
        assert_eq!(
            c.wire_bytes_sent,
            report.total_transmissions() * WIRE_PACKET_LEN as u64
        );
        assert!(c.wire_packets_peeled + sprayed <= report.total_transmissions());
        assert_eq!(c.wire_packets_peeled, c.wire_aead_opens);
        assert!(c.wire_packets_peeled >= 1, "at least one route hop peeled");
    }

    /// Which canonical packet slots `p` still holds for `message`.
    fn held_slots(p: &OnionRouting, message: MessageId) -> Vec<bool> {
        let wire = p.wire.as_ref().expect("wire mode");
        wire.packets[&message].iter().map(Option::is_some).collect()
    }

    #[test]
    fn spent_single_copy_packets_return_to_the_pool() {
        // Every pair meets once per round, for ten rounds.
        let mut events = Vec::new();
        let mut t = 1.0;
        for _ in 0..10 {
            for a in 0..8u32 {
                for b in (a + 1)..8u32 {
                    events.push((t, a, b));
                    t += 0.01;
                }
            }
            t += 1.0;
        }
        let s = schedule(events, t);
        let messages = || vec![msg(1, 0, 7, t, 3), msg(2, 1, 5, t, 3)];

        // Single copy: a delivered message holds no packet, and one in
        // flight holds only the packet its copy will peel next.
        let cfg = SimConfig::builder().wire_mode(true).build();
        let mut p = proto(3, ForwardingMode::SingleCopy).with_wire(rng(31));
        let report = run(&s, &mut p, messages(), &cfg, &mut rng(1)).unwrap();
        assert_eq!(report.delivery_rate(), 1.0, "rich schedule delivers");
        for id in [MessageId(1), MessageId(2)] {
            assert_eq!(held_slots(&p, id), [false; 3], "{id}");
        }

        // Coded: every fragment is single-copy.
        let cfg = SimConfig::builder()
            .wire_mode(true)
            .copy_mode(dtn_sim::CopyMode::Coded { k: 2, m: 3 })
            .build();
        let mut p = proto(3, ForwardingMode::SingleCopy)
            .with_wire(rng(32))
            .with_code(2, 3, rng(33));
        let report = run(&s, &mut p, messages(), &cfg, &mut rng(2)).unwrap();
        let delivered = &report.coded().expect("coded run").fragment_delivered;
        assert_eq!(delivered.len(), 6, "rich schedule delivers every fragment");
        for &fragment in delivered.keys() {
            assert_eq!(held_slots(&p, fragment), [false; 3], "{fragment}");
        }

        // Multi-copy keeps every slot a copy reached: any other copy may
        // still peel from it.
        let cfg = SimConfig::builder().wire_mode(true).build();
        let mut p = proto(3, ForwardingMode::MultiCopy).with_wire(rng(34));
        let report = run(&s, &mut p, messages(), &cfg, &mut rng(3)).unwrap();
        assert!(
            report.delivery_rate() > 0.0,
            "some copy went the whole route"
        );
        for id in [MessageId(1), MessageId(2)] {
            let reached: Vec<bool> = (0..3u64)
                .map(|d| {
                    d == 0
                        || report
                            .forward_log()
                            .iter()
                            .any(|rec| rec.message == id && rec.receiver_tag == d)
                })
                .collect();
            assert_eq!(held_slots(&p, id), reached, "{id}");
        }
    }

    #[test]
    fn coded_mode_routes_each_fragment_independently_and_decodes() {
        let s = rich_schedule();
        let mut p = proto(2, ForwardingMode::SingleCopy).with_code(2, 3, rng(555));
        let mut r = rng(1);
        let cfg = SimConfig::builder()
            .copy_mode(dtn_sim::CopyMode::Coded { k: 2, m: 3 })
            .build();
        let report = run(&s, &mut p, vec![msg(1, 0, 7, 100.0, 1)], &cfg, &mut r).unwrap();

        // Every fragment is a separate single-copy message with its own
        // onion route — the source of coded mode's anonymity gain.
        for i in 0..3u32 {
            let f = dtn_sim::fragment_id(MessageId(1), i);
            assert!(p.route_of(f).is_some(), "fragment {i} has a route");
        }
        assert!(
            p.route_of(MessageId(1)).is_none(),
            "parents are never routed"
        );

        let c = report.counters().unwrap();
        assert_eq!(c.fragments_injected, 3);
        assert_eq!(report.delivery_rate(), 1.0, "rich schedule delivers");
        // The real Reed-Solomon decode from the delivered shares
        // round-tripped the payload.
        assert_eq!((c.decode_successes, c.decode_failures), (1, 0));
    }

    #[test]
    fn wire_mode_arden_delivery_peels_last_layer() {
        let s = rich_schedule();
        let groups = OnionGroups::sequential_partition(8, 2);
        let mut p = OnionRouting::new(groups, 2, ForwardingMode::SingleCopy)
            .with_selection(RouteSelection::ArdenLastHop)
            .with_wire(rng(8));
        let mut r = rng(6);
        let cfg = SimConfig::builder().wire_mode(true).build();
        let report = run(&s, &mut p, vec![msg(1, 0, 7, 100.0, 1)], &cfg, &mut r).unwrap();
        assert_eq!(report.delivery_rate(), 1.0);
        let c = report.counters().unwrap();
        // ARDEN: the destination itself peels the last layer, so peels
        // equal K and every transfer (K of them) carried a full packet.
        assert_eq!(c.wire_packets_peeled, 2);
        assert_eq!(
            c.wire_bytes_sent,
            report.total_transmissions() * WIRE_PACKET_LEN as u64
        );
    }
}
