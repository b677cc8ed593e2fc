//! ChaCha20 stream cipher (RFC 8439), verified against the RFC test vectors.

/// ChaCha20 key size in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce size in bytes (IETF 96-bit variant).
pub const NONCE_LEN: usize = 12;

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }

    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Encrypts or decrypts `data` in place (XOR keystream), starting at block
/// `counter`.
///
/// ChaCha20 is its own inverse, so the same call decrypts.
///
/// # Panics
///
/// Panics if the message needs a block past counter 2³²−1, which cannot
/// occur for onion payloads. Block 2³²−1 itself is valid (RFC 8439).
pub fn xor_in_place(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    let mut ctr = counter;
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        if i > 0 {
            ctr = ctr.checked_add(1).expect("ChaCha20 block counter overflow");
        }
        let ks = block(key, ctr, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Convenience wrapper returning a new buffer instead of mutating in place.
///
/// # Panics
///
/// As [`xor_in_place`]: if the message needs a block past counter 2³²−1.
pub fn xor(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &[u8]) -> Vec<u8> {
    let mut out = data.to_vec();
    xor_in_place(key, nonce, counter, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn key_0_31() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    // RFC 8439 section 2.3.2.
    #[test]
    fn rfc8439_block_function() {
        let key = key_0_31();
        let nonce = hex::decode_array::<12>("000000090000004a00000000").unwrap();
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            hex::encode(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 section 2.4.2.
    #[test]
    fn rfc8439_encryption() {
        let key = key_0_31();
        let nonce = hex::decode_array::<12>("000000000000004a00000000").unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let ct = xor(&key, &nonce, 1, plaintext);
        assert_eq!(
            hex::encode(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
        // Decryption is the same operation.
        let pt = xor(&key, &nonce, 1, &ct);
        assert_eq!(pt, plaintext);
    }

    #[test]
    fn counter_zero_vs_one_differ() {
        let key = key_0_31();
        let nonce = [0u8; 12];
        assert_ne!(block(&key, 0, &nonce), block(&key, 1, &nonce));
    }

    #[test]
    fn in_place_matches_copy() {
        let key = key_0_31();
        let nonce = [7u8; 12];
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let copied = xor(&key, &nonce, 0, &data);
        let mut in_place = data.clone();
        xor_in_place(&key, &nonce, 0, &mut in_place);
        assert_eq!(copied, in_place);
    }

    #[test]
    fn last_counter_block_is_valid() {
        let key = key_0_31();
        let nonce = [3u8; 12];
        let mut data = [0u8; 64];
        xor_in_place(&key, &nonce, u32::MAX, &mut data);
        assert_eq!(data, block(&key, u32::MAX, &nonce));
        assert_eq!(xor(&key, &nonce, u32::MAX, &[0; 64]), data);
    }

    #[test]
    #[should_panic(expected = "ChaCha20 block counter overflow")]
    fn block_past_last_counter_panics() {
        xor_in_place(&key_0_31(), &[3u8; 12], u32::MAX, &mut [0u8; 65]);
    }

    #[test]
    fn non_block_multiple_lengths() {
        let key = key_0_31();
        let nonce = [1u8; 12];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xA5u8; len];
            let ct = xor(&key, &nonce, 0, &data);
            assert_eq!(ct.len(), len);
            assert_eq!(xor(&key, &nonce, 0, &ct), data, "len {len}");
        }
    }
}
