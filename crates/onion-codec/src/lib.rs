//! `onion-codec`: dependency-free GF(2^8) arithmetic and systematic
//! Reed-Solomon erasure coding for k-of-m coded forwarding.
//!
//! The crate backs the simulator's `CopyMode::Coded { k, m }`: a message
//! is split into `m` fragments such that **any** `k` of them reconstruct
//! it exactly. [`gf256`] holds the field core (compile-time log/antilog
//! tables over the primitive polynomial `0x11d` — not AES's `0x11b` —
//! and the [`Gf256`] newtype);
//! [`rs`] builds the systematic codec on top (Vandermonde-derived
//! generator, Gaussian-elimination erasure decoding).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod rs;

pub use gf256::Gf256;
pub use rs::{CodecError, RsCodec, MAX_FRAGMENTS};
