//! Real layered-encryption integration.
//!
//! The discrete-event experiments use the abstract protocol (routes kept
//! as metadata) for speed; this module provides the *actual* cryptography
//! for the same group structure — group keys derived from a network master
//! secret, constant-size wire packets ([`onion_crypto::wire`]) built at
//! the source, and layer-by-layer in-place peeling along a realized
//! custody chain — so the full ARDEN-style data path is exercised
//! end-to-end in tests, examples, and benches.

use std::sync::OnceLock;

use contact_graph::NodeId;
use onion_crypto::keys::derive_group_key;
use onion_crypto::{AeadKey, CryptoError, GroupKeyring, OnionLayerSpec, RouteTarget};
use rand::RngCore;

use crate::groups::{GroupId, OnionGroups};

/// Errors from walking an onion along a custody chain.
#[derive(Debug)]
#[non_exhaustive]
pub enum WalkError {
    /// A relay could not peel its layer (not a member of the expected
    /// group, or packet corruption).
    Crypto(CryptoError),
    /// A relay peeled a layer but the revealed next hop does not admit the
    /// next node on the chain.
    WrongNextHop {
        /// Index of the hop in the chain.
        hop: usize,
        /// What the layer said.
        expected: RouteTarget,
        /// Who actually came next.
        actual: NodeId,
    },
    /// The chain ended before the onion was fully unwrapped, or continued
    /// after delivery.
    ChainLengthMismatch,
    /// A chain node lies outside the group structure, so it has no group
    /// and no keyring.
    UnknownNode {
        /// Index of the node in the chain.
        hop: usize,
        /// The out-of-range node.
        node: NodeId,
    },
}

impl std::fmt::Display for WalkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalkError::Crypto(e) => write!(f, "crypto failure while peeling: {e}"),
            WalkError::WrongNextHop {
                hop,
                expected,
                actual,
            } => write!(
                f,
                "hop {hop}: layer says {expected}, chain went to {actual}"
            ),
            WalkError::ChainLengthMismatch => {
                write!(f, "custody chain length does not match onion depth")
            }
            WalkError::UnknownNode { hop, node } => {
                write!(f, "hop {hop}: {node} is outside the group structure")
            }
        }
    }
}

impl std::error::Error for WalkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WalkError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for WalkError {
    fn from(e: CryptoError) -> Self {
        WalkError::Crypto(e)
    }
}

/// Key-management context binding a group structure to real keys.
///
/// Stands in for ARDEN's ABE/IBC setup: all group keys derive from one
/// network master secret, and each node's keyring holds exactly its own
/// group's key. Like ARDEN's once-per-network setup, each group's key is
/// derived (HKDF-SHA256) on first use and then kept, so builds and peels
/// never re-derive it; a clone keeps the keys derived so far.
#[derive(Clone)]
pub struct OnionCryptoContext {
    master: [u8; 32],
    groups: OnionGroups,
    /// `keys[g]` caches group `g`'s key, one slot per group id.
    keys: Box<[OnceLock<AeadKey>]>,
}

impl std::fmt::Debug for OnionCryptoContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnionCryptoContext")
            .field("groups", &self.groups.group_count())
            .finish_non_exhaustive()
    }
}

impl OnionCryptoContext {
    /// Creates the context from a master secret and group structure.
    pub fn new(master: [u8; 32], groups: OnionGroups) -> Self {
        let keys = (0..groups.group_count()).map(|_| OnceLock::new()).collect();
        OnionCryptoContext {
            master,
            groups,
            keys,
        }
    }

    /// The group structure.
    pub fn groups(&self) -> &OnionGroups {
        &self.groups
    }

    /// The group of `node`, or `None` for a node outside the structure.
    fn group_of(&self, node: NodeId) -> Option<GroupId> {
        (node.index() < self.groups.node_count()).then(|| self.groups.group_of(node))
    }

    /// The keyring of `node`: exactly its own group's key. A node outside
    /// the group structure has no group, so its keyring is empty.
    pub fn keyring_for(&self, node: NodeId) -> GroupKeyring {
        let mut ring = GroupKeyring::new();
        if let Some(gid) = self.group_of(node) {
            ring.insert(gid.0, self.group_key(gid));
        }
        ring
    }

    /// The AEAD key of onion group `group` — what every member of that
    /// group holds in its keyring. Derived on first use and cached; an id
    /// past the group count has no slot and is derived on every call.
    pub fn group_key(&self, group: GroupId) -> AeadKey {
        match self.keys.get(group.index()) {
            Some(slot) => slot
                .get_or_init(|| derive_group_key(&self.master, group.0))
                .clone(),
            None => derive_group_key(&self.master, group.0),
        }
    }

    /// Builds a constant-size wire packet ([`onion_crypto::wire`]) in
    /// place over `route`, reusing `packet`'s buffer and the cached group
    /// keys — no per-call allocation beyond the transient layer-spec list.
    ///
    /// # Errors
    ///
    /// Propagates [`CryptoError`] (empty route, payload too large for the
    /// fixed body).
    pub fn build_wire_into<R: RngCore + ?Sized>(
        &self,
        packet: &mut onion_crypto::WirePacket,
        route: &[GroupId],
        destination: NodeId,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<(), CryptoError> {
        let specs: Vec<OnionLayerSpec> = route
            .iter()
            .map(|&gid| OnionLayerSpec {
                group: gid.0,
                key: self.group_key(gid),
            })
            .collect();
        packet.build_into(&specs, destination.0, payload, rng)
    }

    /// Peels one layer of a wire packet exactly as `relay` would: with
    /// the key of its own group — the one key its keyring holds — so a
    /// relay outside the expected group fails authentication.
    ///
    /// # Errors
    ///
    /// [`CryptoError::UnknownNode`] if `relay` lies outside the group
    /// structure (the packet is left untouched); otherwise propagates
    /// [`CryptoError`] (wrong group, tampered packet).
    pub fn peel_wire_as<R: RngCore + ?Sized>(
        &self,
        packet: &mut onion_crypto::WirePacket,
        relay: NodeId,
        rng: &mut R,
    ) -> Result<onion_crypto::WirePeeled, CryptoError> {
        let gid = self
            .group_of(relay)
            .ok_or(CryptoError::UnknownNode(relay.0))?;
        packet.peel_in_place(&self.group_key(gid), rng)
    }

    /// Replays a realized custody chain `[source, relay_1, …, relay_K,
    /// destination]` against a freshly built packet: each relay peels its
    /// layer with *its own* keyring ([`Self::peel_wire_as`], drawing the
    /// re-pad filler from `rng`), and the final payload is returned.
    ///
    /// This is the end-to-end proof that the abstract simulation's paths
    /// are cryptographically realizable.
    ///
    /// # Errors
    ///
    /// See [`WalkError`]. A chain node outside the group structure is
    /// rejected before any layer is peeled.
    pub fn walk_custody_chain<R: RngCore + ?Sized>(
        &self,
        mut packet: onion_crypto::WirePacket,
        chain: &[NodeId],
        rng: &mut R,
    ) -> Result<Vec<u8>, WalkError> {
        if let Some((hop, &node)) = chain
            .iter()
            .enumerate()
            .find(|(_, &node)| self.group_of(node).is_none())
        {
            return Err(WalkError::UnknownNode { hop, node });
        }
        if chain.len() < 2 {
            return Err(WalkError::ChainLengthMismatch);
        }
        let destination = *chain.last().expect("len checked");
        // Relays are chain[1..len-1]; each peels one layer.
        for (idx, &relay) in chain[1..chain.len() - 1].iter().enumerate() {
            match self.peel_wire_as(&mut packet, relay, rng)? {
                onion_crypto::WirePeeled::Forward { next } => {
                    // The next chain node must be admitted by `next`.
                    let next_node = chain[idx + 2];
                    let admitted = match next {
                        RouteTarget::Group(gid) => self.groups.contains(GroupId(gid), next_node),
                        RouteTarget::Node(node) => node == next_node.0,
                    };
                    if !admitted {
                        return Err(WalkError::WrongNextHop {
                            hop: idx + 1,
                            expected: next,
                            actual: next_node,
                        });
                    }
                }
                onion_crypto::WirePeeled::Delivered { node, payload_len } => {
                    // Last relay: the remaining chain must be exactly the
                    // destination.
                    if idx + 2 != chain.len() - 1 || node != destination.0 {
                        return Err(WalkError::ChainLengthMismatch);
                    }
                    return Ok(packet.body()[..payload_len].to_vec());
                }
            }
        }
        Err(WalkError::ChainLengthMismatch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn context() -> OnionCryptoContext {
        // 8 nodes, groups of 2: R0 = {0,1}, R1 = {2,3}, R2 = {4,5},
        // R3 = {6,7}.
        OnionCryptoContext::new([9u8; 32], OnionGroups::sequential_partition(8, 2))
    }

    /// Builds the packet a source emits for `route` toward node 7 and
    /// replays `chain` against it.
    fn walk(route: &[u32], chain: &[u32], payload: &[u8], seed: u64) -> Result<Vec<u8>, WalkError> {
        let ctx = context();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let route: Vec<GroupId> = route.iter().map(|&g| GroupId(g)).collect();
        let mut packet = onion_crypto::WirePacket::zeroed();
        ctx.build_wire_into(&mut packet, &route, NodeId(7), payload, &mut rng)
            .unwrap();
        let chain: Vec<NodeId> = chain.iter().map(|&v| NodeId(v)).collect();
        ctx.walk_custody_chain(packet, &chain, &mut rng)
    }

    #[test]
    fn walk_succeeds_for_valid_chain() {
        // chain: source 0 → node 3 (R1) → node 4 (R2) → destination 7.
        let payload = walk(&[1, 2], &[0, 3, 4, 7], b"meet at dawn", 1).unwrap();
        assert_eq!(payload, b"meet at dawn");
        // Three layers, with the source itself in a route group (R3).
        let payload = walk(&[1, 2, 0], &[6, 3, 4, 1, 7], b"three layers", 10).unwrap();
        assert_eq!(payload, b"three layers");
    }

    #[test]
    fn any_group_member_can_peel() {
        for relay1 in [2, 3] {
            for relay2 in [4, 5] {
                assert!(walk(&[1, 2], &[0, relay1, relay2, 7], b"x", 2).is_ok());
            }
        }
    }

    #[test]
    fn non_member_cannot_peel() {
        // Node 6 (group R3) tries to act as the first relay.
        let err = walk(&[1, 2], &[0, 6, 4, 7], b"x", 3).unwrap_err();
        assert!(matches!(
            err,
            WalkError::Crypto(CryptoError::AuthenticationFailed)
        ));
    }

    #[test]
    fn chain_deviating_from_route_detected() {
        // Second relay is in R3, not the R2 the layer mandates — relay 1
        // peels fine but the next hop check fails.
        let err = walk(&[1, 2], &[0, 3, 6, 7], b"x", 4).unwrap_err();
        assert!(matches!(err, WalkError::WrongNextHop { hop: 1, .. }));
    }

    #[test]
    fn short_chain_rejected() {
        assert!(matches!(
            walk(&[1], &[0], b"x", 5),
            Err(WalkError::ChainLengthMismatch)
        ));
        // A chain with an extra relay beyond the onion depth also fails.
        assert!(walk(&[1], &[0, 2, 4, 7], b"x", 5).is_err());
    }

    #[test]
    fn walk_rejects_node_outside_group_structure() {
        // Relay 3 would peel fine; node 100 has no group among 8 nodes.
        let err = walk(&[1, 2], &[0, 3, 100, 7], b"x", 6).unwrap_err();
        assert!(matches!(
            err,
            WalkError::UnknownNode {
                hop: 2,
                node: NodeId(100)
            }
        ));
    }

    #[test]
    fn wire_packet_walks_chain_via_keyrings() {
        let ctx = context();
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let route = vec![GroupId(1), GroupId(2)];
        let mut packet = onion_crypto::WirePacket::zeroed();
        ctx.build_wire_into(&mut packet, &route, NodeId(7), b"wire payload", &mut rng)
            .unwrap();
        // Relay 3 (R1) peels, then relay 4 (R2) peels and sees delivery.
        match ctx.peel_wire_as(&mut packet, NodeId(3), &mut rng).unwrap() {
            onion_crypto::WirePeeled::Forward { next } => {
                assert_eq!(next, RouteTarget::Group(2));
            }
            other => panic!("expected forward, got {other:?}"),
        }
        match ctx.peel_wire_as(&mut packet, NodeId(4), &mut rng).unwrap() {
            onion_crypto::WirePeeled::Delivered { node, payload_len } => {
                assert_eq!(node, 7);
                assert_eq!(payload_len, b"wire payload".len());
                assert_eq!(&packet.body()[..payload_len], b"wire payload");
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn wire_peel_by_wrong_group_member_fails() {
        let ctx = context();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let route = vec![GroupId(1), GroupId(2)];
        let mut packet = onion_crypto::WirePacket::zeroed();
        ctx.build_wire_into(&mut packet, &route, NodeId(7), b"x", &mut rng)
            .unwrap();
        // Node 6 is in R3, not the R1 the outer layer mandates.
        let err = ctx
            .peel_wire_as(&mut packet, NodeId(6), &mut rng)
            .unwrap_err();
        assert!(matches!(err, CryptoError::AuthenticationFailed));
        // The group key accessor hands the same key the keyring holds.
        let mut direct = onion_crypto::WirePacket::zeroed();
        direct.copy_from(&packet);
        assert!(direct
            .peel_in_place(&ctx.group_key(GroupId(1)), &mut rng)
            .is_ok());
    }

    #[test]
    fn keyring_holds_only_own_group() {
        let ctx = context();
        let ring = ctx.keyring_for(NodeId(5));
        assert_eq!(ring.len(), 1);
        assert!(ring.contains(2)); // node 5 is in R2
        assert!(!ring.contains(1));
    }

    #[test]
    fn peel_as_node_outside_group_structure_is_a_typed_error() {
        let ctx = context();
        let mut rng = ChaCha8Rng::seed_from_u64(14);
        let mut packet = onion_crypto::WirePacket::zeroed();
        ctx.build_wire_into(&mut packet, &[GroupId(1)], NodeId(7), b"x", &mut rng)
            .unwrap();
        let before = packet.clone();
        let err = ctx
            .peel_wire_as(&mut packet, NodeId(100), &mut rng)
            .unwrap_err();
        assert_eq!(err, CryptoError::UnknownNode(100));
        assert_eq!(
            err.to_string(),
            "node 100 is outside the onion group structure"
        );
        assert_eq!(packet, before, "the buffer is untouched");
        // A member of R1 still peels the same packet.
        assert!(ctx.peel_wire_as(&mut packet, NodeId(2), &mut rng).is_ok());
    }

    #[test]
    fn keyring_of_node_outside_group_structure_is_empty() {
        let ctx = context();
        let ring = ctx.keyring_for(NodeId(100));
        assert!(ring.is_empty());
        assert_eq!(ring.key(0).unwrap_err(), CryptoError::UnknownGroup(0));
    }
}
