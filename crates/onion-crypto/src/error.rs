//! Error types for the crypto substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by the `onion-crypto` crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CryptoError {
    /// An AEAD tag failed to verify; the ciphertext is corrupt or the key is
    /// wrong (for onion peeling: the node is not a member of the layer's
    /// group).
    AuthenticationFailed,
    /// Hex input was malformed.
    InvalidHex,
    /// A byte-string had the wrong length for the requested conversion.
    LengthMismatch {
        /// Length the caller required.
        expected: usize,
        /// Length actually supplied.
        actual: usize,
    },
    /// An onion packet was structurally malformed (truncated header, bogus
    /// target tag, or length field exceeding the buffer).
    MalformedOnion(&'static str),
    /// Attempted to build an onion with zero layers.
    EmptyRoute,
    /// A key for the requested group is not present in the keyring.
    UnknownGroup(u32),
    /// The node lies outside the group structure, so it belongs to no
    /// group and holds no key.
    UnknownNode(u32),
    /// The requested padded size is too small for the onion content.
    PaddingTooSmall {
        /// Bytes needed by the layered content.
        required: usize,
        /// Padded size requested by the caller.
        requested: usize,
    },
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "authentication tag mismatch"),
            CryptoError::InvalidHex => write!(f, "invalid hexadecimal input"),
            CryptoError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "length mismatch: expected {expected} bytes, got {actual}"
                )
            }
            CryptoError::MalformedOnion(what) => write!(f, "malformed onion packet: {what}"),
            CryptoError::EmptyRoute => write!(f, "onion route must contain at least one layer"),
            CryptoError::UnknownGroup(id) => write!(f, "no key for onion group {id}"),
            CryptoError::UnknownNode(id) => {
                write!(f, "node {id} is outside the onion group structure")
            }
            CryptoError::PaddingTooSmall {
                required,
                requested,
            } => write!(
                f,
                "padded size {requested} too small: onion needs {required} bytes"
            ),
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errs: Vec<CryptoError> = vec![
            CryptoError::AuthenticationFailed,
            CryptoError::InvalidHex,
            CryptoError::LengthMismatch {
                expected: 32,
                actual: 16,
            },
            CryptoError::MalformedOnion("truncated"),
            CryptoError::EmptyRoute,
            CryptoError::UnknownGroup(7),
            CryptoError::UnknownNode(100),
            CryptoError::PaddingTooSmall {
                required: 100,
                requested: 10,
            },
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
            // std::error::Error is implemented.
            let _: &dyn Error = &e;
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
