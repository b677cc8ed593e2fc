//! Poly1305 one-time authenticator (RFC 8439), 26-bit-limb implementation,
//! verified against the RFC test vector.

/// Poly1305 key size in bytes (`r || s`).
pub const KEY_LEN: usize = 32;
/// Poly1305 tag size in bytes.
pub const TAG_LEN: usize = 16;

const MASK26: u32 = 0x3ff_ffff;

/// Incremental Poly1305 MAC.
///
/// The key must be used for a single message only; the AEAD construction in
/// [`crate::aead`] derives a fresh key per nonce.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u32; 5],
    h: [u32; 5],
    s: [u32; 4],
    buf: [u8; 16],
    buf_len: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Poly1305")
            .field("buffered", &self.buf_len)
            .finish_non_exhaustive()
    }
}

impl Poly1305 {
    /// Creates a MAC with the given one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let le32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        // Clamp r and split into 26-bit limbs (donna constants).
        let r = [
            le32(&key[0..4]) & 0x3ff_ffff,
            (le32(&key[3..7]) >> 2) & 0x3ff_ff03,
            (le32(&key[6..10]) >> 4) & 0x3ff_c0ff,
            (le32(&key[9..13]) >> 6) & 0x3f0_3fff,
            (le32(&key[12..16]) >> 8) & 0x00f_ffff,
        ];
        let s = [
            le32(&key[16..20]),
            le32(&key[20..24]),
            le32(&key[24..28]),
            le32(&key[28..32]),
        ];
        Poly1305 {
            r,
            h: [0; 5],
            s,
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    /// One-shot MAC.
    #[cfg(test)]
    fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new(key);
        p.update(data);
        p.finalize()
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.absorb(&block, true);
                self.buf_len = 0;
            }
        }
        while data.len() >= 16 {
            let mut block = [0u8; 16];
            block.copy_from_slice(&data[..16]);
            self.absorb(&block, true);
            data = &data[16..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn absorb(&mut self, block: &[u8; 16], full: bool) {
        let le32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let t0 = le32(&block[0..4]);
        let t1 = le32(&block[4..8]);
        let t2 = le32(&block[8..12]);
        let t3 = le32(&block[12..16]);
        let hibit: u32 = if full { 1 << 24 } else { 0 };

        self.h[0] += t0 & MASK26;
        self.h[1] += ((t1 << 6) | (t0 >> 26)) & MASK26;
        self.h[2] += ((t2 << 12) | (t1 >> 20)) & MASK26;
        self.h[3] += ((t3 << 18) | (t2 >> 14)) & MASK26;
        self.h[4] += (t3 >> 8) | hibit;

        self.mul_r();
    }

    /// h := h * r  (mod 2^130 - 5), with limb-wise carries.
    fn mul_r(&mut self) {
        let [h0, h1, h2, h3, h4] = self.h.map(u64::from);
        let [r0, r1, r2, r3, r4] = self.r.map(u64::from);
        let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let mut d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let mut d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let mut d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let mut d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mut c;
        c = d0 >> 26;
        self.h[0] = (d0 as u32) & MASK26;
        d1 += c;
        c = d1 >> 26;
        self.h[1] = (d1 as u32) & MASK26;
        d2 += c;
        c = d2 >> 26;
        self.h[2] = (d2 as u32) & MASK26;
        d3 += c;
        c = d3 >> 26;
        self.h[3] = (d3 as u32) & MASK26;
        d4 += c;
        c = d4 >> 26;
        self.h[4] = (d4 as u32) & MASK26;
        self.h[0] += (c as u32) * 5;
        let c2 = self.h[0] >> 26;
        self.h[0] &= MASK26;
        self.h[1] += c2;
    }

    /// Produces the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Pad final partial block with 0x01 then zeros; hibit = 0.
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 0x01;
            self.absorb(&block, false);
        }

        // Full carry propagation.
        let h = &mut self.h;
        let mut c;
        c = h[1] >> 26;
        h[1] &= MASK26;
        h[2] += c;
        c = h[2] >> 26;
        h[2] &= MASK26;
        h[3] += c;
        c = h[3] >> 26;
        h[3] &= MASK26;
        h[4] += c;
        c = h[4] >> 26;
        h[4] &= MASK26;
        h[0] += c * 5;
        c = h[0] >> 26;
        h[0] &= MASK26;
        h[1] += c;

        // Compute h + -p and constant-time select.
        let mut g0 = h[0].wrapping_add(5);
        c = g0 >> 26;
        g0 &= MASK26;
        let mut g1 = h[1].wrapping_add(c);
        c = g1 >> 26;
        g1 &= MASK26;
        let mut g2 = h[2].wrapping_add(c);
        c = g2 >> 26;
        g2 &= MASK26;
        let mut g3 = h[3].wrapping_add(c);
        c = g3 >> 26;
        g3 &= MASK26;
        let g4 = h[4].wrapping_add(c).wrapping_sub(1 << 26);

        let mask = (g4 >> 31).wrapping_sub(1); // all-ones if h >= p
        let keep = !mask;
        h[0] = (h[0] & keep) | (g0 & mask);
        h[1] = (h[1] & keep) | (g1 & mask);
        h[2] = (h[2] & keep) | (g2 & mask);
        h[3] = (h[3] & keep) | (g3 & mask);
        h[4] = (h[4] & keep) | (g4 & mask);

        // Repack into 128 bits.
        let w0 = h[0] | (h[1] << 26);
        let w1 = (h[1] >> 6) | (h[2] << 20);
        let w2 = (h[2] >> 12) | (h[3] << 14);
        let w3 = (h[3] >> 18) | (h[4] << 8);

        // Add s mod 2^128.
        let mut f: u64;
        let mut out = [0u8; TAG_LEN];
        f = u64::from(w0) + u64::from(self.s[0]);
        out[0..4].copy_from_slice(&(f as u32).to_le_bytes());
        f = u64::from(w1) + u64::from(self.s[1]) + (f >> 32);
        out[4..8].copy_from_slice(&(f as u32).to_le_bytes());
        f = u64::from(w2) + u64::from(self.s[2]) + (f >> 32);
        out[8..12].copy_from_slice(&(f as u32).to_le_bytes());
        f = u64::from(w3) + u64::from(self.s[3]) + (f >> 32);
        out[12..16].copy_from_slice(&(f as u32).to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 8439 section 2.5.2.
    #[test]
    fn rfc8439_vector() {
        let key = hex::decode_array::<32>(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
        )
        .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(hex::encode(&tag), "a8061dc1305136c6c22b8baf0c0127a9");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x42u8; 32];
        let data: Vec<u8> = (0..100).map(|i| i as u8).collect();
        let oneshot = Poly1305::mac(&key, &data);
        for chunk in [1usize, 5, 15, 16, 17, 33] {
            let mut p = Poly1305::new(&key);
            for piece in data.chunks(chunk) {
                p.update(piece);
            }
            assert_eq!(p.finalize(), oneshot, "chunk {chunk}");
        }
    }

    #[test]
    fn empty_message() {
        // With r = s = 0 the tag is zero; with nonzero s the tag is s.
        let mut key = [0u8; 32];
        assert_eq!(Poly1305::mac(&key, b""), [0u8; 16]);
        key[16..].copy_from_slice(&[9u8; 16]);
        assert_eq!(Poly1305::mac(&key, b""), [9u8; 16]);
    }

    #[test]
    fn partial_block_lengths() {
        let key = hex::decode_array::<32>(
            "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
        )
        .unwrap();
        // Tags for different lengths must all differ (no trivial collisions
        // introduced by the padding scheme for these inputs).
        let mut tags = std::collections::HashSet::new();
        for len in 0..48 {
            let data = vec![0xAAu8; len];
            assert!(tags.insert(Poly1305::mac(&key, &data)), "len {len}");
        }
    }

    #[test]
    fn debug_hides_key() {
        let p = Poly1305::new(&[7u8; 32]);
        let s = format!("{p:?}");
        assert!(s.contains("Poly1305"));
        assert!(!s.contains('7'));
    }
}
