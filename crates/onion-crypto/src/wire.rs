//! Constant-size onion packets on a fixed wire footprint.
//!
//! A source selects onion groups `R_1 … R_K` and a destination, then
//! wraps the payload in `K` AEAD layers. Layer `k` is sealed under group
//! `R_k`'s shared key, so *any* member of `R_k` can peel it to learn only
//! the next hop — the anycast-like property that defines the paper's
//! *opportunistic onion path*.
//!
//! Every packet is exactly [`WIRE_PACKET_LEN`] bytes — a 6-byte routing
//! header plus an 8 KiB body — and both building and peeling operate
//! **in place** on a reusable buffer, so a relay peels a layer with zero
//! allocation. That is what makes a wire-mode trial honest about byte
//! and AEAD cost without perturbing the simulation hot path.
//!
//! Wire layout:
//!
//! ```text
//! packet = version (1) || target-type (1) || target-id (4) || body (8192)
//! body   = nonce (12) || masked_len (4) || AEAD(type || id || inner) || filler
//! ```
//!
//! Each AEAD layer is keyed by one onion group, its plaintext starts with
//! a 5-byte header (`type (1) || id (4)`), and the length field is masked
//! with key stream the AEAD construction discards (bytes 32..36 of
//! ChaCha20 block 0), so every byte past the routing header is
//! indistinguishable from random. The length field is not itself
//! authenticated: flipping its bits shifts the AEAD window, which then
//! fails to verify. After a peel the body is restored to the full 8192
//! bytes with fresh random filler — an observer cannot tell packet depth
//! from size, the property Ando–Lysyanskaya–Upfal show is load-bearing
//! for anonymity.
//!
//! The routing header is the only cleartext: the current target (an onion
//! group, or the destination node once the last layer is off) is exactly
//! what a relay needs to forward.

use rand::RngCore;

use crate::aead::{self, AeadKey, NONCE_LEN};
use crate::chacha20;
use crate::error::CryptoError;
use crate::poly1305::TAG_LEN;

const TY_GROUP: u8 = 0x01;
const TY_NODE_CLEAR: u8 = 0x04;
const LAYER_HEADER_LEN: usize = 1 + 4;
const LEN_FIELD: usize = 4;
const AAD: &[u8] = b"onion-dtn/v1 wire";

/// Wire-format version byte (first byte of every packet).
const WIRE_VERSION: u8 = 0x01;
/// Routing-header tag: the packet targets an onion group.
const TARGET_GROUP: u8 = 0x01;
/// Routing-header tag: the packet targets the destination node.
const TARGET_NODE: u8 = 0x02;

/// Cleartext routing header: version + target type + target id.
pub const WIRE_HEADER_LEN: usize = 1 + 1 + 4;
/// Constant body size: every packet carries exactly 8 KiB of ciphertext
/// plus filler, regardless of depth or payload length.
pub const WIRE_BODY_LEN: usize = 8192;
/// Total on-the-wire packet size.
pub const WIRE_PACKET_LEN: usize = WIRE_HEADER_LEN + WIRE_BODY_LEN;
/// Body bytes consumed per onion layer
/// (nonce + masked length + tag + layer header).
pub const WIRE_PER_LAYER: usize = NONCE_LEN + LEN_FIELD + TAG_LEN + LAYER_HEADER_LEN;

const BODY_OFF: usize = WIRE_HEADER_LEN;
const LAYER_DATA_OFF: usize = NONCE_LEN + LEN_FIELD + LAYER_HEADER_LEN;

/// Largest payload that fits under `layers` onion layers.
pub fn wire_max_payload(layers: usize) -> usize {
    WIRE_BODY_LEN.saturating_sub(layers * WIRE_PER_LAYER)
}

/// Whom a packet may be handed to next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteTarget {
    /// Any member of the onion group with this id.
    Group(u32),
    /// Exactly the node with this id (the destination hop).
    Node(u32),
}

impl std::fmt::Display for RouteTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteTarget::Group(g) => write!(f, "group {g}"),
            RouteTarget::Node(n) => write!(f, "node {n}"),
        }
    }
}

/// One layer of an onion route: the group that may peel it and the group's
/// shared key.
#[derive(Clone, Debug)]
pub struct OnionLayerSpec {
    /// Onion group id.
    pub group: u32,
    /// The group's shared AEAD key.
    pub key: AeadKey,
}

/// Result of peeling one wire layer in place.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WirePeeled {
    /// One layer off; the packet (already re-padded to full capacity)
    /// should travel on to `next`.
    Forward {
        /// Next eligible hop.
        next: RouteTarget,
    },
    /// The last layer is off: the packet body now starts with the
    /// cleartext payload for `node`.
    Delivered {
        /// Destination node id.
        node: u32,
        /// True payload length (the payload occupies `body()[..payload_len]`).
        payload_len: usize,
    },
}

/// A constant-size onion packet over a fixed, reusable buffer.
///
/// The buffer is allocated once (boxed, [`WIRE_PACKET_LEN`] bytes) and
/// every operation — [`build_into`](WirePacket::build_into),
/// [`peel_in_place`](WirePacket::peel_in_place),
/// [`copy_from`](WirePacket::copy_from) — reuses it, so pooled packets
/// make the whole build/peel cycle allocation-free.
#[derive(Clone, PartialEq, Eq)]
pub struct WirePacket {
    buf: Box<[u8; WIRE_PACKET_LEN]>,
}

impl Default for WirePacket {
    fn default() -> Self {
        Self::zeroed()
    }
}

/// Prints the raw routing header, which any buffer has, so a zeroed or
/// garbage packet formats instead of panicking like
/// [`target`](WirePacket::target).
impl std::fmt::Debug for WirePacket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let id = u32::from_le_bytes(self.buf[2..BODY_OFF].try_into().expect("4-byte id"));
        f.debug_struct("WirePacket")
            .field("version", &self.buf[0])
            .field("target_tag", &self.buf[1])
            .field("target_id", &id)
            .field("len", &WIRE_PACKET_LEN)
            .finish()
    }
}

/// Key-stream mask for the length field: bytes 32..36 of ChaCha20 block
/// 0, which RFC 8439's AEAD construction discards.
fn len_mask(key: &AeadKey, nonce: &[u8; NONCE_LEN]) -> [u8; LEN_FIELD] {
    let block = chacha20::block(key.as_bytes(), 0, nonce);
    [block[32], block[33], block[34], block[35]]
}

impl WirePacket {
    /// Allocates an all-zero packet buffer (not yet a valid packet).
    pub fn zeroed() -> Self {
        WirePacket {
            buf: Box::new([0u8; WIRE_PACKET_LEN]),
        }
    }

    /// Builds a packet for `route`, delivering `payload` to node
    /// `destination`, allocating a fresh buffer.
    ///
    /// # Errors
    ///
    /// See [`build_into`](WirePacket::build_into).
    pub fn build<R: RngCore + ?Sized>(
        route: &[OnionLayerSpec],
        destination: u32,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<Self, CryptoError> {
        let mut pkt = Self::zeroed();
        pkt.build_into(route, destination, payload, rng)?;
        Ok(pkt)
    }

    /// Builds the packet in place, overwriting whatever the buffer held.
    ///
    /// All layers are encrypted in one batched pass over the same buffer:
    /// the payload is written once, then each layer (innermost first)
    /// shifts the current body right by one layer header and seals it
    /// with that group's key. No intermediate blobs are allocated.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::EmptyRoute`] — `route` is empty;
    /// * [`CryptoError::PaddingTooSmall`] — `payload` plus
    ///   [`WIRE_PER_LAYER`] per layer exceeds [`WIRE_BODY_LEN`].
    pub fn build_into<R: RngCore + ?Sized>(
        &mut self,
        route: &[OnionLayerSpec],
        destination: u32,
        payload: &[u8],
        rng: &mut R,
    ) -> Result<(), CryptoError> {
        if route.is_empty() {
            return Err(CryptoError::EmptyRoute);
        }
        let required = payload.len() + route.len() * WIRE_PER_LAYER;
        if required > WIRE_BODY_LEN {
            return Err(CryptoError::PaddingTooSmall {
                required,
                requested: WIRE_BODY_LEN,
            });
        }

        let body = &mut self.buf[BODY_OFF..];
        body[..payload.len()].copy_from_slice(payload);
        let mut cur = payload.len();

        let mut inner_ty = TY_NODE_CLEAR;
        let mut inner_id = destination;
        for spec in route.iter().rev() {
            // Shift the current content right to make room for this
            // layer's nonce, masked length, and layer header.
            body.copy_within(..cur, LAYER_DATA_OFF);
            body[NONCE_LEN + LEN_FIELD] = inner_ty;
            body[NONCE_LEN + LEN_FIELD + 1..LAYER_DATA_OFF]
                .copy_from_slice(&inner_id.to_le_bytes());

            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            body[..NONCE_LEN].copy_from_slice(&nonce);

            let plain_len = LAYER_HEADER_LEN + cur;
            aead::seal_in_place(
                &spec.key,
                &nonce,
                AAD,
                &mut body[NONCE_LEN + LEN_FIELD..],
                plain_len,
            );

            let boxed_len = (plain_len + TAG_LEN) as u32;
            let mask = len_mask(&spec.key, &nonce);
            for (i, b) in boxed_len.to_le_bytes().iter().enumerate() {
                body[NONCE_LEN + i] = b ^ mask[i];
            }

            cur += WIRE_PER_LAYER;
            inner_ty = TY_GROUP;
            inner_id = spec.group;
        }
        debug_assert_eq!(cur, required);
        rng.fill_bytes(&mut body[cur..]);

        self.buf[0] = WIRE_VERSION;
        self.buf[1] = TARGET_GROUP;
        self.buf[2..BODY_OFF].copy_from_slice(&route[0].group.to_le_bytes());
        Ok(())
    }

    /// Peels one layer in place and restores the body to its full
    /// constant size with fresh random filler.
    ///
    /// On [`WirePeeled::Forward`] the packet is again a valid wire packet
    /// addressed to the next hop; on [`WirePeeled::Delivered`] the body
    /// starts with the cleartext payload.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::AuthenticationFailed`] — wrong key, tampering, or
    ///   a corrupted length field (which shifts the AEAD window);
    /// * [`CryptoError::MalformedOnion`] — unknown layer type.
    ///
    /// On `AuthenticationFailed` the buffer is left unmodified. On
    /// `MalformedOnion` the tag has already verified, so the layer is left
    /// decrypted in place; only a holder of the group key can forge such a
    /// layer.
    pub fn peel_in_place<R: RngCore + ?Sized>(
        &mut self,
        key: &AeadKey,
        rng: &mut R,
    ) -> Result<WirePeeled, CryptoError> {
        let body = &mut self.buf[BODY_OFF..];
        let nonce: [u8; NONCE_LEN] = body[..NONCE_LEN].try_into().expect("sized");
        let mask = len_mask(key, &nonce);
        let mut len_bytes = [0u8; LEN_FIELD];
        for (i, b) in len_bytes.iter_mut().enumerate() {
            *b = body[NONCE_LEN + i] ^ mask[i];
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let start = NONCE_LEN + LEN_FIELD;
        if len < TAG_LEN + LAYER_HEADER_LEN || start + len > WIRE_BODY_LEN {
            // A wrong key scrambles the length; report it as an
            // authentication failure.
            return Err(CryptoError::AuthenticationFailed);
        }
        let ct_len = aead::open_in_place(key, &nonce, AAD, &mut body[start..start + len])?;
        let ty = body[start];
        let id = u32::from_le_bytes(
            body[start + 1..start + LAYER_HEADER_LEN]
                .try_into()
                .unwrap(),
        );
        let inner_len = ct_len - LAYER_HEADER_LEN;
        match ty {
            TY_GROUP => {
                body.copy_within(LAYER_DATA_OFF..LAYER_DATA_OFF + inner_len, 0);
                rng.fill_bytes(&mut body[inner_len..]);
                self.buf[1] = TARGET_GROUP;
                self.buf[2..BODY_OFF].copy_from_slice(&id.to_le_bytes());
                Ok(WirePeeled::Forward {
                    next: RouteTarget::Group(id),
                })
            }
            TY_NODE_CLEAR => {
                body.copy_within(LAYER_DATA_OFF..LAYER_DATA_OFF + inner_len, 0);
                rng.fill_bytes(&mut body[inner_len..]);
                self.buf[1] = TARGET_NODE;
                self.buf[2..BODY_OFF].copy_from_slice(&id.to_le_bytes());
                Ok(WirePeeled::Delivered {
                    node: id,
                    payload_len: inner_len,
                })
            }
            _ => Err(CryptoError::MalformedOnion("unknown layer type")),
        }
    }

    /// The hop this packet is currently addressed to.
    ///
    /// # Panics
    ///
    /// Panics on a zeroed/garbage buffer that never held a valid packet;
    /// use [`from_bytes`](WirePacket::from_bytes) to validate untrusted
    /// input.
    pub fn target(&self) -> RouteTarget {
        let id = u32::from_le_bytes(self.buf[2..BODY_OFF].try_into().unwrap());
        match self.buf[1] {
            TARGET_GROUP => RouteTarget::Group(id),
            TARGET_NODE => RouteTarget::Node(id),
            other => panic!("invalid wire packet target tag {other:#x}"),
        }
    }

    /// The full packet bytes (always [`WIRE_PACKET_LEN`] of them).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[..]
    }

    /// The body region (always [`WIRE_BODY_LEN`] bytes).
    pub fn body(&self) -> &[u8] {
        &self.buf[BODY_OFF..]
    }

    /// Copies another packet's bytes into this buffer (no allocation).
    pub fn copy_from(&mut self, other: &WirePacket) {
        self.buf.copy_from_slice(&other.buf[..]);
    }

    /// Validates and adopts raw wire bytes (after a network transfer).
    ///
    /// # Errors
    ///
    /// * [`CryptoError::LengthMismatch`] — not exactly
    ///   [`WIRE_PACKET_LEN`] bytes (e.g. a truncated transfer);
    /// * [`CryptoError::MalformedOnion`] — bad version or target tag.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        if bytes.len() != WIRE_PACKET_LEN {
            return Err(CryptoError::LengthMismatch {
                expected: WIRE_PACKET_LEN,
                actual: bytes.len(),
            });
        }
        if bytes[0] != WIRE_VERSION {
            return Err(CryptoError::MalformedOnion("unsupported wire version"));
        }
        if bytes[1] != TARGET_GROUP && bytes[1] != TARGET_NODE {
            return Err(CryptoError::MalformedOnion("bad wire target tag"));
        }
        let mut pkt = Self::zeroed();
        pkt.buf.copy_from_slice(bytes);
        Ok(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::derive_group_key;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn route(master: &[u8; 32], k: usize) -> Vec<OnionLayerSpec> {
        (0..k as u32)
            .map(|g| OnionLayerSpec {
                group: g + 10,
                key: derive_group_key(master, g + 10),
            })
            .collect()
    }

    #[test]
    fn constants_are_as_documented() {
        assert_eq!(WIRE_PER_LAYER, 37);
        assert_eq!(WIRE_HEADER_LEN, 6);
        assert_eq!(WIRE_PACKET_LEN, 8198);
        assert_eq!(wire_max_payload(5), 8192 - 5 * 37);
        assert_eq!(wire_max_payload(500), 0);
    }

    #[test]
    fn build_peel_roundtrip_five_layers() {
        let master = [5u8; 32];
        let specs = route(&master, 5);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut pkt = WirePacket::build(&specs, 99, b"constant size!", &mut rng).unwrap();
        assert_eq!(pkt.as_bytes().len(), WIRE_PACKET_LEN);
        assert_eq!(pkt.target(), RouteTarget::Group(10));

        for (i, spec) in specs.iter().enumerate() {
            let peeled = pkt.peel_in_place(&spec.key, &mut rng).unwrap();
            assert_eq!(pkt.as_bytes().len(), WIRE_PACKET_LEN, "hop {i} leaked size");
            if i + 1 < specs.len() {
                assert_eq!(
                    peeled,
                    WirePeeled::Forward {
                        next: RouteTarget::Group(specs[i + 1].group)
                    }
                );
                assert_eq!(pkt.target(), RouteTarget::Group(specs[i + 1].group));
            } else {
                assert_eq!(
                    peeled,
                    WirePeeled::Delivered {
                        node: 99,
                        payload_len: 14
                    }
                );
                assert_eq!(pkt.target(), RouteTarget::Node(99));
                assert_eq!(&pkt.body()[..14], b"constant size!");
            }
        }
    }

    #[test]
    fn oversize_payload_rejected_exactly_at_capacity() {
        let master = [1u8; 32];
        let specs = route(&master, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let fits = vec![0xA5u8; wire_max_payload(2)];
        assert!(WirePacket::build(&specs, 1, &fits, &mut rng).is_ok());
        let over = vec![0xA5u8; wire_max_payload(2) + 1];
        assert_eq!(
            WirePacket::build(&specs, 1, &over, &mut rng).unwrap_err(),
            CryptoError::PaddingTooSmall {
                required: WIRE_BODY_LEN + 1,
                requested: WIRE_BODY_LEN,
            }
        );
    }

    #[test]
    fn empty_route_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert_eq!(
            WirePacket::build(&[], 1, b"x", &mut rng).unwrap_err(),
            CryptoError::EmptyRoute
        );
    }

    #[test]
    fn wrong_key_rejected_and_buffer_unchanged() {
        let master = [8u8; 32];
        let specs = route(&master, 2);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut pkt = WirePacket::build(&specs, 1, b"x", &mut rng).unwrap();
        let before = pkt.clone();
        assert_eq!(
            pkt.peel_in_place(&specs[1].key, &mut rng),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(pkt, before);
    }

    #[test]
    fn from_bytes_validates() {
        let master = [4u8; 32];
        let specs = route(&master, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let pkt = WirePacket::build(&specs, 9, b"hello", &mut rng).unwrap();

        let rebuilt = WirePacket::from_bytes(pkt.as_bytes()).unwrap();
        assert_eq!(rebuilt, pkt);

        assert!(matches!(
            WirePacket::from_bytes(&pkt.as_bytes()[..100]),
            Err(CryptoError::LengthMismatch { .. })
        ));
        let mut bad = pkt.as_bytes().to_vec();
        bad[0] = 0x7F;
        assert!(matches!(
            WirePacket::from_bytes(&bad),
            Err(CryptoError::MalformedOnion(_))
        ));
        let mut bad = pkt.as_bytes().to_vec();
        bad[1] = 0x7F;
        assert!(matches!(
            WirePacket::from_bytes(&bad),
            Err(CryptoError::MalformedOnion(_))
        ));
    }

    #[test]
    fn build_into_reuses_buffer_across_messages() {
        let master = [6u8; 32];
        let specs = route(&master, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut pkt = WirePacket::zeroed();
        for msg in [b"first".as_slice(), b"second-longer-payload", b""] {
            pkt.build_into(&specs, 42, msg, &mut rng).unwrap();
            let mut copy = WirePacket::zeroed();
            copy.copy_from(&pkt);
            for spec in &specs {
                copy.peel_in_place(&spec.key, &mut rng).unwrap();
            }
            assert_eq!(&copy.body()[..msg.len()], msg);
        }
    }

    #[test]
    fn debug_prints_raw_header_of_any_buffer() {
        assert_eq!(
            format!("{:?}", WirePacket::default()),
            "WirePacket { version: 0, target_tag: 0, target_id: 0, len: 8198 }"
        );
        let master = [2u8; 32];
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let pkt = WirePacket::build(&route(&master, 2), 7, b"x", &mut rng).unwrap();
        assert_eq!(
            format!("{pkt:?}"),
            "WirePacket { version: 1, target_tag: 1, target_id: 10, len: 8198 }"
        );
    }
}
