//! Systematic Reed-Solomon erasure coding over GF(2^8).
//!
//! A message of `data_len` bytes is split into `k` equal chunks (the last
//! zero-padded) and expanded to `m` fragments: the first `k` fragments are
//! the chunks verbatim (systematic), the remaining `m - k` are parity rows
//! of a generator matrix derived from an m-by-k Vandermonde matrix
//! normalised so its top k-by-k block is the identity. Any `k` rows of
//! that matrix are linearly independent, so **any** `k` distinct fragments
//! reconstruct the message exactly via Gaussian elimination.

use crate::gf256::{mul_slice_add, Gf256};
use std::fmt;

/// Largest supported fragment count: the field has only 255 distinct
/// nonzero evaluation points, and row indices double as field elements.
pub const MAX_FRAGMENTS: usize = 255;

/// Errors from codec construction, encoding, or decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// `(k, m)` outside `1 <= k <= m <= 255`.
    InvalidShape {
        /// Requested data fragment count.
        k: usize,
        /// Requested total fragment count.
        m: usize,
    },
    /// Fewer than `k` distinct fragments were supplied to `decode`.
    NotEnoughFragments {
        /// Distinct fragments available.
        have: usize,
        /// Fragments required (`k`).
        need: usize,
    },
    /// A fragment index was `>= m`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Total fragment count (`m`).
        m: usize,
    },
    /// The same fragment index was supplied twice.
    DuplicateIndex(usize),
    /// A fragment's length disagrees with `ceil(data_len / k)`.
    LengthMismatch {
        /// The offending fragment index.
        index: usize,
        /// Its byte length.
        got: usize,
        /// The expected fragment length.
        want: usize,
    },
    /// `data_len` cannot be produced by `k` fragments of the given length.
    BadDataLen {
        /// Claimed plaintext length.
        data_len: usize,
        /// Supplied fragment length.
        fragment_len: usize,
    },
    /// Redundant fragments disagree with the decoded message: at least one
    /// supplied fragment is corrupt, and the decode result was discarded.
    Inconsistent {
        /// Index of the first fragment that failed re-encoding checks.
        index: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidShape { k, m } => {
                write!(
                    f,
                    "invalid code shape k={k}, m={m} (need 1 <= k <= m <= 255)"
                )
            }
            CodecError::NotEnoughFragments { have, need } => {
                write!(
                    f,
                    "not enough fragments to decode: have {have}, need {need}"
                )
            }
            CodecError::IndexOutOfRange { index, m } => {
                write!(f, "fragment index {index} out of range for m={m}")
            }
            CodecError::DuplicateIndex(i) => write!(f, "duplicate fragment index {i}"),
            CodecError::LengthMismatch { index, got, want } => {
                write!(f, "fragment {index} has {got} bytes, expected {want}")
            }
            CodecError::BadDataLen {
                data_len,
                fragment_len,
            } => {
                write!(
                    f,
                    "data_len {data_len} incompatible with fragment length {fragment_len}"
                )
            }
            CodecError::Inconsistent { index } => {
                write!(
                    f,
                    "fragment {index} inconsistent with decoded message (corruption)"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A systematic `(k, m)` Reed-Solomon erasure codec.
#[derive(Clone, Debug)]
pub struct RsCodec {
    k: usize,
    m: usize,
    /// `m` rows by `k` columns; rows `0..k` are the identity.
    gen: Vec<Vec<u8>>,
}

impl RsCodec {
    /// Builds the codec for a `(k, m)` code, `1 <= k <= m <= 255`.
    pub fn new(k: usize, m: usize) -> Result<Self, CodecError> {
        if k == 0 || k > m || m > MAX_FRAGMENTS {
            return Err(CodecError::InvalidShape { k, m });
        }
        // Vandermonde rows over distinct evaluation points x_i = i.
        let vand: Vec<Vec<Gf256>> = (0..m)
            .map(|i| {
                (0..k)
                    .map(|j| Gf256(i as u8).pow(j as u32))
                    .collect::<Vec<_>>()
            })
            .collect();
        // Normalise so the top k-by-k block becomes the identity: any k
        // rows of V * inv(V_top) stay independent because both factors of
        // the corresponding k-by-k product are invertible Vandermonde-
        // derived matrices.
        let top: Vec<Vec<Gf256>> = vand[..k].to_vec();
        let top_inv = invert(top).expect("Vandermonde top block is always invertible");
        let gen: Vec<Vec<u8>> = vand
            .iter()
            .map(|row| {
                (0..k)
                    .map(|j| {
                        let mut acc = Gf256::ZERO;
                        for (c, rv) in row.iter().enumerate() {
                            acc += *rv * top_inv[c][j];
                        }
                        acc.0
                    })
                    .collect()
            })
            .collect();
        Ok(RsCodec { k, m, gen })
    }

    /// Data fragment count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total fragment count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Per-fragment byte length for a message of `data_len` bytes.
    pub fn fragment_len(&self, data_len: usize) -> usize {
        data_len.div_ceil(self.k)
    }

    /// Splits `data` into `m` fragments of `fragment_len(data.len())`
    /// bytes each; the first `k` are the (zero-padded) data chunks.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let flen = self.fragment_len(data.len());
        let mut frags: Vec<Vec<u8>> = Vec::with_capacity(self.m);
        for c in 0..self.k {
            let mut chunk = vec![0u8; flen];
            let start = c * flen;
            if start < data.len() {
                let end = usize::min(start + flen, data.len());
                chunk[..end - start].copy_from_slice(&data[start..end]);
            }
            frags.push(chunk);
        }
        for i in self.k..self.m {
            let mut parity = vec![0u8; flen];
            for (c, coeff) in self.gen[i].iter().enumerate() {
                mul_slice_add(*coeff, &frags[c], &mut parity);
            }
            frags.push(parity);
        }
        frags
    }

    /// Reconstructs the original `data_len`-byte message from any `k`
    /// distinct `(index, bytes)` fragments.
    ///
    /// When more than `k` fragments are supplied the surplus is used as a
    /// consistency check: the decoded message is re-encoded and compared
    /// against every supplied fragment, so a corrupted fragment in a
    /// redundant set yields [`CodecError::Inconsistent`] rather than a
    /// silently wrong plaintext. (With exactly `k` fragments there is no
    /// redundancy left to check against; corruption there is undetectable
    /// by construction.)
    pub fn decode(
        &self,
        fragments: &[(usize, &[u8])],
        data_len: usize,
    ) -> Result<Vec<u8>, CodecError> {
        let flen = self.fragment_len(data_len);
        let mut seen = vec![false; self.m];
        for (idx, bytes) in fragments {
            if *idx >= self.m {
                return Err(CodecError::IndexOutOfRange {
                    index: *idx,
                    m: self.m,
                });
            }
            if seen[*idx] {
                return Err(CodecError::DuplicateIndex(*idx));
            }
            seen[*idx] = true;
            if bytes.len() != flen {
                return Err(CodecError::LengthMismatch {
                    index: *idx,
                    got: bytes.len(),
                    want: flen,
                });
            }
        }
        if fragments.len() < self.k {
            return Err(CodecError::NotEnoughFragments {
                have: fragments.len(),
                need: self.k,
            });
        }
        if data_len > self.k * flen {
            return Err(CodecError::BadDataLen {
                data_len,
                fragment_len: flen,
            });
        }

        // Solve A * chunks = received, where A stacks the generator rows
        // of the first k received fragment indices.
        let use_frags = &fragments[..self.k];
        let a: Vec<Vec<Gf256>> = use_frags
            .iter()
            .map(|(idx, _)| self.gen[*idx].iter().map(|b| Gf256(*b)).collect())
            .collect();
        let a_inv = invert(a).expect("any k generator rows are independent");

        let mut chunks: Vec<Vec<u8>> = vec![vec![0u8; flen]; self.k];
        for (r, chunk) in chunks.iter_mut().enumerate() {
            for (c, (_, bytes)) in use_frags.iter().enumerate() {
                mul_slice_add(a_inv[r][c].0, bytes, chunk);
            }
        }

        // Verify every supplied fragment against the reconstruction.
        for (idx, bytes) in fragments {
            let mut expect = vec![0u8; flen];
            for (c, coeff) in self.gen[*idx].iter().enumerate() {
                mul_slice_add(*coeff, &chunks[c], &mut expect);
            }
            if expect.as_slice() != *bytes {
                return Err(CodecError::Inconsistent { index: *idx });
            }
        }

        let mut data = Vec::with_capacity(data_len);
        for chunk in &chunks {
            data.extend_from_slice(chunk);
        }
        // Padding bytes beyond data_len must be zero for a well-formed
        // message; they are dropped either way.
        data.truncate(data_len);
        Ok(data)
    }
}

/// Inverts a square matrix over GF(2^8) by Gauss-Jordan elimination with
/// partial (first nonzero) pivoting. Returns `None` if singular.
fn invert(mut a: Vec<Vec<Gf256>>) -> Option<Vec<Vec<Gf256>>> {
    let n = a.len();
    let mut inv: Vec<Vec<Gf256>> = (0..n)
        .map(|i| {
            (0..n)
                .map(|j| if i == j { Gf256::ONE } else { Gf256::ZERO })
                .collect()
        })
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| !a[r][col].is_zero())?;
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = a[col][col].inv();
        for j in 0..n {
            a[col][j] *= scale;
            inv[col][j] *= scale;
        }
        for r in 0..n {
            if r == col || a[r][col].is_zero() {
                continue;
            }
            let factor = a[r][col];
            for j in 0..n {
                let av = a[col][j];
                let iv = inv[col][j];
                a[r][j] -= factor * av;
                inv[r][j] -= factor * iv;
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(frags: &[Vec<u8>], keep: &[usize]) -> Vec<(usize, Vec<u8>)> {
        keep.iter().map(|&i| (i, frags[i].clone())).collect()
    }

    fn decode_pairs(
        codec: &RsCodec,
        owned: &[(usize, Vec<u8>)],
        data_len: usize,
    ) -> Result<Vec<u8>, CodecError> {
        let view: Vec<(usize, &[u8])> = owned.iter().map(|(i, v)| (*i, v.as_slice())).collect();
        codec.decode(&view, data_len)
    }

    #[test]
    fn shape_validation() {
        assert!(RsCodec::new(0, 3).is_err());
        assert!(RsCodec::new(4, 3).is_err());
        assert!(RsCodec::new(1, 256).is_err());
        assert!(RsCodec::new(1, 1).is_ok());
        assert!(RsCodec::new(255, 255).is_ok());
    }

    #[test]
    fn generator_top_is_identity() {
        let codec = RsCodec::new(4, 7).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(codec.gen[i][j], u8::from(i == j));
            }
        }
    }

    #[test]
    fn systematic_roundtrip_all_fragments() {
        let codec = RsCodec::new(3, 6).unwrap();
        let data: Vec<u8> = (0..50u8).collect();
        let frags = codec.encode(&data);
        assert_eq!(frags.len(), 6);
        for f in &frags {
            assert_eq!(f.len(), codec.fragment_len(data.len()));
        }
        let owned: Vec<(usize, Vec<u8>)> = frags.iter().cloned().enumerate().collect();
        assert_eq!(decode_pairs(&codec, &owned, data.len()).unwrap(), data);
    }

    #[test]
    fn every_erasure_pattern_recovers() {
        let data: Vec<u8> = (0..37u8)
            .map(|b| b.wrapping_mul(41).wrapping_add(7))
            .collect();
        for (k, m) in [(1usize, 1usize), (1, 4), (2, 4), (3, 5), (4, 6)] {
            let codec = RsCodec::new(k, m).unwrap();
            let frags = codec.encode(&data);
            // All size-k subsets of 0..m, via bitmask enumeration.
            for mask in 0u32..(1 << m) {
                if mask.count_ones() as usize != k {
                    continue;
                }
                let keep: Vec<usize> = (0..m).filter(|i| mask & (1 << i) != 0).collect();
                let owned = pairs(&frags, &keep);
                assert_eq!(
                    decode_pairs(&codec, &owned, data.len()).unwrap(),
                    data,
                    "k={k} m={m} keep={keep:?}"
                );
            }
        }
    }

    #[test]
    fn corruption_with_redundancy_is_detected() {
        let codec = RsCodec::new(2, 5).unwrap();
        let data = b"erasure codes keep secrets whole".to_vec();
        let frags = codec.encode(&data);
        let mut owned = pairs(&frags, &[0, 2, 4]);
        owned[1].1[3] ^= 0x40;
        match decode_pairs(&codec, &owned, data.len()) {
            Err(CodecError::Inconsistent { .. }) => {}
            other => panic!("expected Inconsistent, got {other:?}"),
        }
    }

    #[test]
    fn decode_errors_are_specific() {
        let codec = RsCodec::new(2, 4).unwrap();
        let data = vec![9u8; 10];
        let frags = codec.encode(&data);

        let owned = pairs(&frags, &[1]);
        assert_eq!(
            decode_pairs(&codec, &owned, data.len()),
            Err(CodecError::NotEnoughFragments { have: 1, need: 2 })
        );

        let owned = vec![(0usize, frags[0].clone()), (0, frags[0].clone())];
        assert_eq!(
            decode_pairs(&codec, &owned, data.len()),
            Err(CodecError::DuplicateIndex(0))
        );

        let owned = vec![(7usize, frags[0].clone())];
        assert_eq!(
            decode_pairs(&codec, &owned, data.len()),
            Err(CodecError::IndexOutOfRange { index: 7, m: 4 })
        );

        let mut short = frags[0].clone();
        short.pop();
        let owned = vec![(0usize, short), (1, frags[1].clone())];
        assert!(matches!(
            decode_pairs(&codec, &owned, data.len()),
            Err(CodecError::LengthMismatch { index: 0, .. })
        ));
    }

    #[test]
    fn empty_message_roundtrips() {
        let codec = RsCodec::new(3, 5).unwrap();
        let frags = codec.encode(&[]);
        assert!(frags.iter().all(|f| f.is_empty()));
        let owned = pairs(&frags, &[0, 1, 2]);
        assert_eq!(decode_pairs(&codec, &owned, 0).unwrap(), Vec::<u8>::new());
    }
}
