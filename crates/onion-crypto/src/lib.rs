//! # onion-crypto
//!
//! The cryptographic substrate for onion-based anonymous routing in delay
//! tolerant networks, written from scratch (no external crypto crates are
//! available in this offline build environment).
//!
//! Every primitive is verified against its RFC/FIPS test vectors:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4)
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104 / 4231)
//! * [`hkdf`] — HKDF (RFC 5869)
//! * [`chacha20`] — ChaCha20 (RFC 8439)
//! * [`poly1305`] — Poly1305 (RFC 8439)
//! * [`aead`] — ChaCha20-Poly1305 AEAD (RFC 8439)
//! * [`shamir`] — Shamir secret sharing over GF(2⁸) (for the TPS
//!   comparison protocol)
//!
//! On top of these, [`keys`] provides the onion-group keyrings (any member
//! of group `R_k` can peel layer `k`) and [`wire`] the constant-size
//! layered packet format used by the routing protocols.
//!
//! # Quick start
//!
//! ```
//! use onion_crypto::keys::{derive_group_key, GroupKeyring};
//! use onion_crypto::{OnionLayerSpec, RouteTarget, WirePacket, WirePeeled};
//!
//! // Network setup: a master secret provisions group keys.
//! let master = [7u8; 32];
//! let route: Vec<OnionLayerSpec> = [4u32, 9, 2] // onion groups R_1, R_2, R_3
//!     .iter()
//!     .map(|&g| OnionLayerSpec { group: g, key: derive_group_key(&master, g) })
//!     .collect();
//!
//! // The source wraps the message for node 55 in three layers.
//! let mut rng = rand::thread_rng();
//! let mut packet = WirePacket::build(&route, 55, b"rendezvous at dawn", &mut rng)?;
//! assert_eq!(packet.target(), RouteTarget::Group(4));
//!
//! // A relay holding group 4's key peels the first layer in place; the
//! // packet keeps its size and now names group 9.
//! let mut ring = GroupKeyring::new();
//! ring.insert(4, derive_group_key(&master, 4));
//! let peeled = packet.peel_in_place(ring.key(4)?, &mut rng)?;
//! assert_eq!(peeled, WirePeeled::Forward { next: RouteTarget::Group(9) });
//! assert_eq!(packet.as_bytes().len(), onion_crypto::WIRE_PACKET_LEN);
//! # Ok::<(), onion_crypto::CryptoError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod error;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod keys;
pub mod poly1305;
pub mod sha256;
pub mod shamir;
pub mod wire;

pub use aead::AeadKey;
pub use error::CryptoError;
pub use keys::GroupKeyring;
pub use wire::{
    OnionLayerSpec, RouteTarget, WirePacket, WirePeeled, WIRE_BODY_LEN, WIRE_PACKET_LEN,
    WIRE_PER_LAYER,
};
