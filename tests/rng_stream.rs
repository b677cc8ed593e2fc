//! Pins the word stream of the vendored ChaCha generators, which every
//! seeded result in this workspace is a function of.
//!
//! `fill_bytes` must be exactly the little-endian bytes of successive
//! `next_u64` calls at every length and every position inside a refill,
//! including fills that cross the 64-word (four-block) refill boundary,
//! and `ChaCha20Rng` must be the RFC 8439 ChaCha20 keystream. A recorded
//! digest of each generator's first 2¹⁶ words pins the stream itself. An
//! optimisation of the generators' word path that moved any word fails
//! here.

use onion_crypto::{chacha20, hex, sha256::Sha256};
use rand::{RngCore, SeedableRng};
use rand_chacha::{ChaCha12Rng, ChaCha20Rng, ChaCha8Rng};

/// Checks `fill_bytes` against `next_u64` for lengths `0..=80`, one
/// filler-sized 8 150 and a page of 8 192, starting at word offsets
/// `0..=70`: past the first four-block refill.
fn fill_bytes_is_next_u64_words<R: RngCore + SeedableRng + Clone>(name: &str) {
    let lens = (0..=80usize).chain([8_150, 8_192]);
    for offset in 0..=70 {
        let mut start = R::seed_from_u64(0x5EED_F111);
        for _ in 0..offset {
            start.next_u32();
        }
        for len in lens.clone() {
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
        // Three four-block refills.
        for counter in 0..12 {
            let got: Vec<u8> = (0..16).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
            assert_eq!(
                got,
                chacha20::block(&key, counter, &[0; 12]),
                "key {key:02x?}, block {counter}"
            );
        }
    }
}

/// SHA-256 of the little-endian bytes of the first 2¹⁶ `next_u32` words
/// from seed `0x0D7E_5EED`.
fn stream_digest<R: RngCore + SeedableRng>() -> String {
    let mut rng = R::seed_from_u64(0x0D7E_5EED);
    let mut hash = Sha256::new();
    for _ in 0..1 << 16 {
        hash.update(&rng.next_u32().to_le_bytes());
    }
    hex::encode(&hash.finalize())
}

#[test]
fn first_65536_words_match_the_recorded_digests() {
    // Recorded from the one-block-per-refill generators, before the
    // four-block kernel replaced them.
    assert_eq!(
        stream_digest::<ChaCha8Rng>(),
        "381ff49829d0e9e01ae60dd397d1ebdfa1607201342266dea2ac849ad5daafbb"
    );
    assert_eq!(
        stream_digest::<ChaCha12Rng>(),
        "4871121def9c968e9be5d814489f4d54b9a47abc6f8b8bafe73edc2aad21c334"
    );
    assert_eq!(
        stream_digest::<ChaCha20Rng>(),
        "b06d9cb9f363daf1e02958839961dda72f3d52f64f5d9ec022e9535e75038dcf"
    );
}
