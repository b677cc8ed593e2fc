//! Protocol test battery for the constant-size wire packet format
//! (`onion_crypto::wire`):
//!
//! * build → full-peel roundtrip over arbitrary depth and payload,
//! * the constant-size invariant at every hop,
//! * tamper / truncation / wrong-key rejection (with the failed buffer
//!   left byte-identical),
//! * peel-then-repad restoring the exact fixed capacity,
//! * fresh nonces at every layer of every build,
//! * a `Debug` form that never panics, even on a zeroed buffer, and
//! * committed golden wire vectors at fixed seeds (regenerate with
//!   `UPDATE_GOLDEN=1 cargo test --test packet_wire`).

use onion_crypto::aead::NONCE_LEN;
use onion_crypto::hex;
use onion_crypto::keys::derive_group_key;
use onion_crypto::wire::{wire_max_payload, WIRE_HEADER_LEN};
use onion_crypto::{
    CryptoError, OnionLayerSpec, RouteTarget, WirePacket, WirePeeled, WIRE_BODY_LEN,
    WIRE_PACKET_LEN, WIRE_PER_LAYER,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const MASTER: [u8; 32] = [7u8; 32];

fn specs(layers: usize) -> Vec<OnionLayerSpec> {
    (0..layers as u32)
        .map(|g| OnionLayerSpec {
            group: g,
            key: derive_group_key(&MASTER, g),
        })
        .collect()
}

/// Bytes of the body that carry sealed data (nonce + masked length +
/// ciphertext + tag) for a `layers`-deep packet over `payload_len`
/// payload bytes; everything after is filler.
fn sealed_span(layers: usize, payload_len: usize) -> usize {
    payload_len + layers * WIRE_PER_LAYER
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Build → full peel returns the exact payload, the packet is
    /// constant-size at every hop, and the header names the hop's group.
    #[test]
    fn build_full_peel_roundtrip(seed in any::<u64>(),
                                 layers in 1usize..=8,
                                 payload in proptest::collection::vec(any::<u8>(), 0..=1024),
                                 dest in any::<u32>()) {
        let specs = specs(layers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pkt = WirePacket::build(&specs, dest, &payload, &mut rng).unwrap();
        for (i, spec) in specs.iter().enumerate() {
            prop_assert_eq!(pkt.as_bytes().len(), WIRE_PACKET_LEN, "size leak at hop {}", i);
            prop_assert_eq!(pkt.target(), RouteTarget::Group(spec.group));
            match pkt.peel_in_place(&spec.key, &mut rng).unwrap() {
                WirePeeled::Forward { next } => {
                    prop_assert!(i + 1 < layers, "forward past the last layer");
                    prop_assert_eq!(next, RouteTarget::Group(specs[i + 1].group));
                }
                WirePeeled::Delivered { node, payload_len } => {
                    prop_assert_eq!(i + 1, layers, "cleartext before the last layer");
                    prop_assert_eq!(node, dest);
                    prop_assert_eq!(payload_len, payload.len());
                    prop_assert_eq!(&pkt.body()[..payload_len], &payload[..]);
                }
            }
            prop_assert_eq!(pkt.as_bytes().len(), WIRE_PACKET_LEN);
        }
    }

    /// Any bit flip inside the sealed span (nonce, masked length,
    /// ciphertext, or tag) is rejected, and the rejected buffer is left
    /// byte-identical so the caller can safely retry or drop.
    #[test]
    fn tampered_packet_rejected_and_buffer_intact(seed in any::<u64>(),
                                                  layers in 1usize..=5,
                                                  payload in proptest::collection::vec(any::<u8>(), 1..256),
                                                  flip in any::<usize>()) {
        let specs = specs(layers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pkt = WirePacket::build(&specs, 9, &payload, &mut rng).unwrap();
        let bit = flip % (sealed_span(layers, payload.len()) * 8);
        let mut bytes = pkt.as_bytes().to_vec();
        bytes[WIRE_HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
        let mut tampered = WirePacket::from_bytes(&bytes).unwrap();
        let err = tampered.peel_in_place(&specs[0].key, &mut rng).unwrap_err();
        prop_assert!(matches!(err, CryptoError::AuthenticationFailed));
        prop_assert_eq!(tampered.as_bytes(), &bytes[..]);
    }

    /// A key for any group other than the outer layer's fails, leaving
    /// the buffer byte-identical.
    #[test]
    fn wrong_key_rejected(seed in any::<u64>(), wrong in 100u32..1000) {
        let specs = specs(3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pkt = WirePacket::build(&specs, 9, b"secret", &mut rng).unwrap();
        let before = pkt.as_bytes().to_vec();
        let bad = derive_group_key(&MASTER, wrong);
        let err = pkt.peel_in_place(&bad, &mut rng).unwrap_err();
        prop_assert!(matches!(err, CryptoError::AuthenticationFailed));
        prop_assert_eq!(pkt.as_bytes(), &before[..]);
    }

    /// Truncated or padded byte strings never parse as wire packets.
    #[test]
    fn truncation_rejected(seed in any::<u64>(), cut in 1usize..8198) {
        let specs = specs(2);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pkt = WirePacket::build(&specs, 9, b"m", &mut rng).unwrap();
        let bytes = pkt.as_bytes();
        let err = WirePacket::from_bytes(&bytes[..WIRE_PACKET_LEN - cut]).unwrap_err();
        prop_assert!(matches!(err, CryptoError::LengthMismatch { .. }));
        let mut padded = bytes.to_vec();
        padded.push(0);
        prop_assert!(WirePacket::from_bytes(&padded).is_err());
    }

    /// Peeling frees exactly one layer's overhead and re-pads it with
    /// fresh filler: the sealed span shrinks by `WIRE_PER_LAYER`, the
    /// freed tail is re-randomized, and the packet stays full capacity.
    #[test]
    fn peel_repads_to_exact_capacity(seed in any::<u64>(),
                                     layers in 2usize..=6,
                                     payload in proptest::collection::vec(any::<u8>(), 1..128)) {
        let specs = specs(layers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pkt = WirePacket::build(&specs, 9, &payload, &mut rng).unwrap();
        let old_filler = pkt.body()[sealed_span(layers, payload.len())..].to_vec();
        match pkt.peel_in_place(&specs[0].key, &mut rng).unwrap() {
            WirePeeled::Forward { .. } => {}
            other => prop_assert!(false, "unexpected {:?}", other),
        }
        prop_assert_eq!(pkt.as_bytes().len(), WIRE_PACKET_LEN);
        prop_assert_eq!(pkt.body().len(), WIRE_BODY_LEN);
        // The sealed span shrank by one layer's overhead, and everything
        // past it — including the bytes the old filler occupied — was
        // refilled from the RNG: kilobytes of ChaCha output matching the
        // old filler by chance is impossible.
        prop_assert_ne!(
            &pkt.body()[sealed_span(layers, payload.len())..],
            &old_filler[..]
        );
        // The remaining onion still peels: it is a well-formed
        // (layers-1)-deep packet at full capacity.
        let mut rest = WirePacket::from_bytes(pkt.as_bytes()).unwrap();
        prop_assert!(rest.peel_in_place(&specs[1].key, &mut rng).is_ok());
    }

    /// The advertised capacity is exact: `wire_max_payload(K)` bytes
    /// build, one more byte is rejected with the fixed body size in the
    /// error.
    #[test]
    fn capacity_bound_is_exact(layers in 1usize..=8, seed in any::<u64>()) {
        let specs = specs(layers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max = wire_max_payload(layers);
        let fits = vec![0xABu8; max];
        let mut pkt = WirePacket::build(&specs, 3, &fits, &mut rng).unwrap();
        // The max-size payload survives the full peel.
        for (i, spec) in specs.iter().enumerate() {
            match pkt.peel_in_place(&spec.key, &mut rng).unwrap() {
                WirePeeled::Forward { .. } => prop_assert!(i + 1 < layers),
                WirePeeled::Delivered { payload_len, .. } => {
                    prop_assert_eq!(i + 1, layers);
                    prop_assert_eq!(payload_len, max);
                    prop_assert_eq!(&pkt.body()[..max], &fits[..]);
                }
            }
        }
        let over = vec![0xABu8; max + 1];
        let err = WirePacket::build(&specs, 3, &over, &mut rng).unwrap_err();
        prop_assert!(matches!(err, CryptoError::PaddingTooSmall { .. }));
    }

    /// Two builds of the same route and payload from one RNG stream
    /// differ: each layer's nonce, visible once the layers above it are
    /// peeled, is fresh, so equal messages never repeat on the wire.
    #[test]
    fn nonces_are_fresh_per_build(seed in any::<u64>(), layers in 1usize..=5) {
        let specs = specs(layers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut a = WirePacket::build(&specs, 9, b"same message", &mut rng).unwrap();
        let mut b = WirePacket::build(&specs, 9, b"same message", &mut rng).unwrap();
        for spec in &specs {
            prop_assert_ne!(&a.body()[..NONCE_LEN], &b.body()[..NONCE_LEN]);
            a.peel_in_place(&spec.key, &mut rng).unwrap();
            b.peel_in_place(&spec.key, &mut rng).unwrap();
        }
    }

    /// `Debug` prints the raw routing header of any buffer: a zeroed
    /// packet formats instead of panicking, and at every hop of a full
    /// peel it shows the id `target()` decodes.
    #[test]
    fn debug_prints_raw_header_without_panicking(seed in any::<u64>(),
                                                 layers in 1usize..=5,
                                                 dest in any::<u32>()) {
        let zeroed = format!("{:?}", WirePacket::zeroed());
        prop_assert!(zeroed.contains("target_tag: 0, target_id: 0"), "{}", zeroed);
        let specs = specs(layers);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut pkt = WirePacket::build(&specs, dest, b"debug", &mut rng).unwrap();
        for spec in &specs {
            let shown = format!("{pkt:?}");
            let id = format!("target_id: {},", spec.group);
            prop_assert!(shown.contains(&id), "{}", shown);
            pkt.peel_in_place(&spec.key, &mut rng).unwrap();
        }
        prop_assert_eq!(pkt.target(), RouteTarget::Node(dest));
        let shown = format!("{pkt:?}");
        let id = format!("target_id: {dest},");
        prop_assert!(shown.contains(&id), "{}", shown);
    }
}

// ---------------------------------------------------------------------
// Committed golden wire vectors: the exact bytes on the wire at fixed
// seeds, so any unintentional format change (layout, nonce draw order,
// length masking, filler discipline) fails loudly.
// ---------------------------------------------------------------------

const GOLDEN_VECTORS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/wire_vectors.txt");

fn golden_packet(layers: usize, seed: u64) -> WirePacket {
    let specs = specs(layers);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    WirePacket::build(&specs, 42, b"golden wire vector payload", &mut rng)
        .expect("payload fits the fixed body")
}

fn computed_vectors() -> String {
    format!(
        "k=1 seed=0xA11CE {}\nk=5 seed=0xB0B {}\n",
        hex::encode(golden_packet(1, 0xA11CE).as_bytes()),
        hex::encode(golden_packet(5, 0xB0B).as_bytes()),
    )
}

#[test]
fn wire_vectors_match_committed_golden() {
    let computed = computed_vectors();

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_VECTORS, &computed).expect("write golden wire vectors");
        eprintln!("updated {GOLDEN_VECTORS}");
    }

    let golden = std::fs::read_to_string(GOLDEN_VECTORS)
        .expect("golden wire vectors missing — run with UPDATE_GOLDEN=1 to create them");
    assert_eq!(
        computed.trim_end(),
        golden.trim_end(),
        "wire packet bytes drifted from the committed vectors"
    );
}

#[test]
fn golden_vectors_still_peel() {
    // The committed bytes are not just stable — they decode: parse each
    // vector back and run the full peel chain. Under UPDATE_GOLDEN the
    // file may not exist yet (both tests run concurrently), so fall back
    // to the freshly computed vectors.
    let golden = match std::fs::read_to_string(GOLDEN_VECTORS) {
        Ok(g) => g,
        Err(_) if std::env::var_os("UPDATE_GOLDEN").is_some() => computed_vectors(),
        Err(e) => panic!("golden wire vectors missing ({e}) — run with UPDATE_GOLDEN=1"),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let mut seen = 0;
    for line in golden.lines() {
        let mut parts = line.split_whitespace();
        let k: usize = parts
            .next()
            .and_then(|p| p.strip_prefix("k="))
            .and_then(|v| v.parse().ok())
            .expect("vector line starts with k=<layers>");
        let hex_bytes = parts.nth(1).expect("vector line ends with hex bytes");
        let bytes = hex::decode(hex_bytes).expect("valid hex");
        let mut pkt = WirePacket::from_bytes(&bytes).expect("valid packet");
        let specs = specs(k);
        for (i, spec) in specs.iter().enumerate() {
            match pkt.peel_in_place(&spec.key, &mut rng).unwrap() {
                WirePeeled::Forward { .. } => assert!(i + 1 < k),
                WirePeeled::Delivered { node, payload_len } => {
                    assert_eq!(i + 1, k);
                    assert_eq!(node, 42);
                    assert_eq!(&pkt.body()[..payload_len], b"golden wire vector payload");
                }
            }
        }
        seen += 1;
    }
    assert_eq!(seen, 2, "expected the k=1 and k=5 vectors");
}
