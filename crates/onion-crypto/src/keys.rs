//! Group key management for onion-group routing.
//!
//! In the papers this reproduction follows (ARDEN, EnPassant), onion groups
//! are provisioned with shared keys via attribute-based or identity-based
//! cryptography so that *any* member of group `R_k` can peel layer `k`. The
//! analytical models only rely on that functional property, so this crate
//! substitutes a simpler, honest construction: every group key is derived
//! from a network master secret with HKDF, and each node's keyring holds
//! exactly the keys of the groups it belongs to.

use std::collections::BTreeMap;

use crate::aead::AeadKey;
use crate::error::CryptoError;
use crate::hkdf;

/// Derives the shared symmetric key for onion group `group_id` from the
/// network master secret.
///
/// Deterministic: every member derives the same key, standing in for the
/// ABE/IBC group setup of ARDEN.
pub fn derive_group_key(master: &[u8; 32], group_id: u32) -> AeadKey {
    let mut info = Vec::with_capacity(16);
    info.extend_from_slice(b"onion-group:");
    info.extend_from_slice(&group_id.to_le_bytes());
    AeadKey::from_bytes(hkdf::derive_key(b"onion-dtn/v1", master, &info))
}

/// A node's set of onion-group keys, indexed by group id.
///
/// # Examples
///
/// ```
/// use onion_crypto::keys::{derive_group_key, GroupKeyring};
///
/// let master = [0u8; 32];
/// let mut ring = GroupKeyring::new();
/// ring.insert(3, derive_group_key(&master, 3));
/// assert!(ring.key(3).is_ok());
/// assert!(ring.key(4).is_err());
/// ```
#[derive(Clone, Default)]
pub struct GroupKeyring {
    keys: BTreeMap<u32, AeadKey>,
}

impl std::fmt::Debug for GroupKeyring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupKeyring")
            .field("groups", &self.keys.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl GroupKeyring {
    /// Creates an empty keyring.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or replaces) the key for `group_id`.
    pub fn insert(&mut self, group_id: u32, key: AeadKey) {
        self.keys.insert(group_id, key);
    }

    /// Looks up the key for `group_id`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownGroup`] if this keyring has no key for
    /// the group (the node is not a member).
    pub fn key(&self, group_id: u32) -> Result<&AeadKey, CryptoError> {
        self.keys
            .get(&group_id)
            .ok_or(CryptoError::UnknownGroup(group_id))
    }

    /// Whether this keyring can peel layers for `group_id`.
    pub fn contains(&self, group_id: u32) -> bool {
        self.keys.contains_key(&group_id)
    }

    /// Number of groups with keys in this ring.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over the group ids in the ring.
    pub fn group_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.keys.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_keys_are_deterministic_and_distinct() {
        let master = [7u8; 32];
        let k1 = derive_group_key(&master, 1);
        let k1_again = derive_group_key(&master, 1);
        let k2 = derive_group_key(&master, 2);
        assert_eq!(k1.as_bytes(), k1_again.as_bytes());
        assert_ne!(k1.as_bytes(), k2.as_bytes());
    }

    #[test]
    fn different_masters_give_different_keys() {
        let k_a = derive_group_key(&[0u8; 32], 1);
        let k_b = derive_group_key(&[1u8; 32], 1);
        assert_ne!(k_a.as_bytes(), k_b.as_bytes());
    }

    #[test]
    fn keyring_membership() {
        let master = [3u8; 32];
        let mut ring = GroupKeyring::new();
        for g in [2, 5, 8] {
            ring.insert(g, derive_group_key(&master, g));
        }
        assert_eq!(ring.len(), 3);
        assert!(ring.contains(5));
        assert!(!ring.contains(4));
        assert_eq!(
            ring.key(2).unwrap().as_bytes(),
            derive_group_key(&master, 2).as_bytes()
        );
        assert_eq!(ring.key(9), Err(CryptoError::UnknownGroup(9)));
        assert_eq!(ring.group_ids().collect::<Vec<_>>(), vec![2, 5, 8]);
    }

    #[test]
    fn keyring_insert() {
        let mut ring = GroupKeyring::new();
        assert!(ring.is_empty());
        ring.insert(1, AeadKey::from_bytes([1u8; 32]));
        assert!(!ring.is_empty());
    }

    #[test]
    fn debug_shows_groups_not_keys() {
        let mut ring = GroupKeyring::new();
        ring.insert(42, derive_group_key(&[0u8; 32], 42));
        let s = format!("{ring:?}");
        assert!(s.contains("42"));
        assert!(!s.to_lowercase().contains("aeadkey("));
    }
}
