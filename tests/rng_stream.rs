//! Pins the word stream of the vendored ChaCha generators, which every
//! seeded result in this workspace is a function of.
//!
//! `fill_bytes` must be exactly the little-endian bytes of successive
//! `next_u64` calls at every length and every position inside a block, and
//! `ChaCha20Rng` must be the RFC 8439 ChaCha20 keystream. An optimisation
//! of the generators' word path that moved any word fails here.

use onion_crypto::chacha20;
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng};

/// Checks `fill_bytes` against `next_u64` for lengths `0..=80` starting
/// at word offsets `0..16` of the first block.
fn fill_bytes_is_next_u64_words<R: RngCore + SeedableRng + Clone>(name: &str) {
    for offset in 0..16 {
        let mut start = R::seed_from_u64(0x5EED_F111);
        for _ in 0..offset {
            start.next_u32();
        }
        for len in 0..=80usize {
            let words = len.div_ceil(8);
            let mut filled = start.clone();
            let mut got = vec![0u8; len];
            filled.fill_bytes(&mut got);

            let mut drawn = start.clone();
            let want: Vec<u8> = (0..words)
                .flat_map(|_| drawn.next_u64().to_le_bytes())
                .take(len)
                .collect();
            assert_eq!(got, want, "{name}: offset {offset}, len {len}");

            // Both generators now sit 2·⌈len/8⌉ 32-bit words on.
            let mut skipped = start.clone();
            for _ in 0..2 * words {
                skipped.next_u32();
            }
            for _ in 0..20 {
                let next = skipped.next_u64();
                assert_eq!(
                    filled.next_u64(),
                    next,
                    "{name}: offset {offset}, len {len}"
                );
                assert_eq!(drawn.next_u64(), next, "{name}: offset {offset}, len {len}");
            }
        }
    }
}

#[test]
fn fill_bytes_is_little_endian_next_u64_at_every_length_and_offset() {
    fill_bytes_is_next_u64_words::<ChaCha8Rng>("ChaCha8");
    fill_bytes_is_next_u64_words::<ChaCha12Rng>("ChaCha12");
    fill_bytes_is_next_u64_words::<ChaCha20Rng>("ChaCha20");
}

#[test]
fn chacha20_rng_is_the_rfc8439_keystream_with_zero_nonce() {
    let counting: [u8; 32] = std::array::from_fn(|i| i as u8);
    for key in [[0u8; 32], counting, [0xA5; 32]] {
        let mut rng = ChaCha20Rng::from_seed(key);
        for counter in 0..4 {
            let got: Vec<u8> = (0..16).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
            assert_eq!(
                got,
                chacha20::block(&key, counter, &[0; 12]),
                "key {key:02x?}, block {counter}"
            );
        }
    }
}
