//! Property-based tests of the crypto primitives: round-trips and tamper
//! detection under arbitrary inputs. The onion packet format has its own
//! battery in `packet_wire.rs`.

use onion_crypto::aead::{open, open_in_place, seal, seal_in_place, AeadKey};
use onion_crypto::hex;
use onion_crypto::sha256::Sha256;
use onion_crypto::{chacha20, hkdf, hmac, keys};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn aead_roundtrip(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                      aad in proptest::collection::vec(any::<u8>(), 0..64),
                      payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let key = AeadKey::from_bytes(key);
        let boxed = seal(&key, &nonce, &aad, &payload);
        prop_assert_eq!(boxed.len(), payload.len() + 16);
        let opened = open(&key, &nonce, &aad, &boxed).unwrap();
        prop_assert_eq!(opened, payload);
    }

    #[test]
    fn aead_detects_any_single_bit_flip(key in any::<[u8; 32]>(),
                                        payload in proptest::collection::vec(any::<u8>(), 1..64),
                                        flip_bit in 0usize..64) {
        let key = AeadKey::from_bytes(key);
        let nonce = [3u8; 12];
        let mut boxed = seal(&key, &nonce, b"aad", &payload);
        let bit = flip_bit % (boxed.len() * 8);
        boxed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(open(&key, &nonce, b"aad", &boxed).is_err());
    }

    /// The zero-copy in-place seal/open pair is byte-equivalent to the
    /// allocating pair for every key, nonce, aad, and payload.
    #[test]
    fn aead_in_place_matches_allocating(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                                        aad in proptest::collection::vec(any::<u8>(), 0..64),
                                        payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let key = AeadKey::from_bytes(key);
        let boxed = seal(&key, &nonce, &aad, &payload);
        let mut buf = payload.clone();
        buf.resize(payload.len() + 16, 0);
        seal_in_place(&key, &nonce, &aad, &mut buf, payload.len());
        prop_assert_eq!(&buf[..], &boxed[..]);
        let len = open_in_place(&key, &nonce, &aad, &mut buf).unwrap();
        prop_assert_eq!(len, payload.len());
        prop_assert_eq!(&buf[..len], &payload[..]);
    }

    /// A failed in-place open must leave the buffer byte-identical (the
    /// wire peel path relies on this to keep packets forwardable after a
    /// wrong-key attempt).
    #[test]
    fn aead_open_in_place_rejects_flip_and_preserves_buffer(
            key in any::<[u8; 32]>(),
            payload in proptest::collection::vec(any::<u8>(), 1..64),
            flip_bit in any::<usize>()) {
        let key = AeadKey::from_bytes(key);
        let nonce = [5u8; 12];
        let mut buf = payload.clone();
        buf.resize(payload.len() + 16, 0);
        seal_in_place(&key, &nonce, b"aad", &mut buf, payload.len());
        let bit = flip_bit % (buf.len() * 8);
        buf[bit / 8] ^= 1 << (bit % 8);
        let tampered = buf.clone();
        prop_assert!(open_in_place(&key, &nonce, b"aad", &mut buf).is_err());
        prop_assert_eq!(buf, tampered);
    }

    #[test]
    fn sha256_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..1024),
                                       split in 0usize..1024) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn chacha20_is_involution(key in any::<[u8; 32]>(), nonce in any::<[u8; 12]>(),
                              data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let once = chacha20::xor(&key, &nonce, 1, &data);
        let twice = chacha20::xor(&key, &nonce, 1, &once);
        prop_assert_eq!(twice, data);
    }

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn hkdf_is_deterministic_and_length_exact(salt in proptest::collection::vec(any::<u8>(), 0..32),
                                              ikm in proptest::collection::vec(any::<u8>(), 1..64),
                                              len in 1usize..200) {
        let a = hkdf::derive(&salt, &ikm, b"ctx", len);
        let b = hkdf::derive(&salt, &ikm, b"ctx", len);
        prop_assert_eq!(a.len(), len);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn hmac_keys_separate(key_a in any::<[u8; 16]>(), key_b in any::<[u8; 16]>(),
                          msg in proptest::collection::vec(any::<u8>(), 0..100)) {
        prop_assume!(key_a != key_b);
        prop_assert_ne!(hmac::hmac_sha256(&key_a, &msg), hmac::hmac_sha256(&key_b, &msg));
    }

    #[test]
    fn group_keys_separate_groups_and_masters(master_a in any::<[u8; 32]>(),
                                              master_b in any::<[u8; 32]>(),
                                              g in any::<u32>(), h in any::<u32>()) {
        // Every member of a group derives the same key, and no other
        // group or network master secret yields it.
        prop_assume!(master_a != master_b && g != h);
        let key = keys::derive_group_key(&master_a, g);
        prop_assert_eq!(&key, &keys::derive_group_key(&master_a, g));
        prop_assert_ne!(&key, &keys::derive_group_key(&master_a, h));
        prop_assert_ne!(&key, &keys::derive_group_key(&master_b, g));
    }
}
