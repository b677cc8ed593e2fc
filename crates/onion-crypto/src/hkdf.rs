//! HKDF with SHA-256 (RFC 5869), verified against the RFC test vectors.
//!
//! Used to derive the onion-group keys from the network master secret.

use crate::hmac::hmac_sha256;
use crate::sha256::DIGEST_LEN;

/// `HKDF-Extract(salt, ikm)` — returns the pseudorandom key (PRK).
///
/// An empty `salt` is treated as a string of `HashLen` zeros per the RFC.
fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let zeros = [0u8; DIGEST_LEN];
    let salt = if salt.is_empty() { &zeros[..] } else { salt };
    hmac_sha256(salt, ikm)
}

/// `HKDF-Expand(prk, info, len)` — derives `len` output bytes.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (the RFC 5869 limit).
fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(
        len <= 255 * DIGEST_LEN,
        "HKDF-Expand output limited to {} bytes",
        255 * DIGEST_LEN
    );
    let mut okm = Vec::with_capacity(len);
    let mut previous: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut msg = Vec::with_capacity(previous.len() + info.len() + 1);
        msg.extend_from_slice(&previous);
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(prk, &msg);
        let take = (len - okm.len()).min(DIGEST_LEN);
        okm.extend_from_slice(&block[..take]);
        previous = block.to_vec();
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    okm
}

/// One-shot `HKDF(salt, ikm, info, len)` (extract-then-expand).
///
/// # Examples
///
/// ```
/// let key = onion_crypto::hkdf::derive(b"salt", b"input key material", b"ctx", 32);
/// assert_eq!(key.len(), 32);
/// ```
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = extract(salt, ikm);
    expand(&prk, info, len)
}

/// Derives a fixed 32-byte key, the common case for this crate.
pub fn derive_key(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; 32] {
    let v = derive(salt, ikm, info, 32);
    let mut out = [0u8; 32];
    out.copy_from_slice(&v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = hex::decode("000102030405060708090a0b0c").unwrap();
        let info = hex::decode("f0f1f2f3f4f5f6f7f8f9").unwrap();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_2_long() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm = derive(&salt, &ikm, &info, 82);
        assert_eq!(
            hex::encode(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = [0x0bu8; 22];
        let okm = derive(b"", &ikm, b"", 42);
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn derive_key_is_prefix_of_derive() {
        let long = derive(b"s", b"ikm", b"info", 64);
        let key = derive_key(b"s", b"ikm", b"info");
        assert_eq!(&long[..32], &key[..]);
    }

    #[test]
    fn distinct_info_gives_distinct_keys() {
        let a = derive_key(b"s", b"ikm", b"layer-0");
        let b = derive_key(b"s", b"ikm", b"layer-1");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "HKDF-Expand output limited")]
    fn expand_enforces_rfc_limit() {
        let prk = [0u8; 32];
        let _ = expand(&prk, b"", 255 * 32 + 1);
    }
}
