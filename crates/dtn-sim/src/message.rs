//! Messages and per-copy custody state.

use contact_graph::{NodeId, Time, TimeDelta};
use serde::{Deserialize, Serialize};

/// Unique message identifier within one simulation.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MessageId(pub u64);

impl std::fmt::Display for MessageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An application message: `v_s` wants `m` delivered to `v_d` within the
/// deadline `T`, with at most `L` copies in the network (Table I).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Unique id.
    pub id: MessageId,
    /// Source node `v_s`.
    pub source: NodeId,
    /// Destination node `v_d`.
    pub destination: NodeId,
    /// Injection time.
    pub created: Time,
    /// Relative deadline `T`: the message must be delivered by
    /// `created + deadline` or it is discarded.
    pub deadline: TimeDelta,
    /// Maximum number of copies `L` (1 = single-copy forwarding).
    pub copies: u32,
}

impl Message {
    /// Absolute expiry instant.
    pub fn expires_at(&self) -> Time {
        self.created + self.deadline
    }
}

/// Base of the reserved id band for coded fragments. Parent message ids
/// must stay below this so fragment ids (derived as
/// `FRAG_BASE + parent * MAX_CODE_FRAGMENTS + index`) never collide with
/// application ids.
pub const FRAG_BASE: u64 = 1 << 48;

/// Largest fragment count `m` the engine accepts in coded mode. Keeps the
/// fragment id band dense and bounds per-parent bookkeeping.
pub const MAX_CODE_FRAGMENTS: u32 = 64;

/// The one rule for an erasure-code shape `(k, m)`: any `k` of `m`
/// fragments reconstruct a message, `1 <= k <= m <= MAX_CODE_FRAGMENTS`.
///
/// # Errors
///
/// The rule and the offending shape, e.g. `need 1 <= k <= m <= 64, got 3/2`.
pub fn check_code_shape((k, m): (u32, u32)) -> Result<(), String> {
    if 1 <= k && k <= m && m <= MAX_CODE_FRAGMENTS {
        Ok(())
    } else {
        Err(format!(
            "need 1 <= k <= m <= {MAX_CODE_FRAGMENTS}, got {k}/{m}"
        ))
    }
}

/// The id of fragment `index` of `parent` in coded mode.
///
/// Fragment ids are monotone in `(parent, index)`, so sorting fragments by
/// id groups them by parent in parent-id order — the engine relies on this
/// to map fragment ranks back to parents with a division.
pub fn fragment_id(parent: MessageId, index: u32) -> MessageId {
    debug_assert!(parent.0 < FRAG_BASE);
    debug_assert!(index < MAX_CODE_FRAGMENTS);
    MessageId(FRAG_BASE + parent.0 * MAX_CODE_FRAGMENTS as u64 + index as u64)
}

/// Inverts [`fragment_id`]: `Some((parent, index))` for ids in the
/// fragment band, `None` for plain message ids.
pub fn fragment_parent(id: MessageId) -> Option<(MessageId, u32)> {
    if id.0 < FRAG_BASE {
        return None;
    }
    let off = id.0 - FRAG_BASE;
    Some((
        MessageId(off / MAX_CODE_FRAGMENTS as u64),
        (off % MAX_CODE_FRAGMENTS as u64) as u32,
    ))
}

/// Custody state of one copy of a message at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CopyState {
    /// Remaining forwarding tickets (Algorithm 2's `v_i.ticket`).
    pub tickets: u32,
    /// Protocol-defined tag. The onion protocols store the current hop
    /// index `k` (how many onion groups the copy has traversed); baselines
    /// ignore it.
    pub tag: u64,
}

impl CopyState {
    /// A fresh copy with `tickets` tickets and a zero tag.
    pub fn new(tickets: u32) -> Self {
        CopyState { tickets, tag: 0 }
    }

    /// A fresh copy with an explicit protocol tag.
    pub fn with_tag(tickets: u32, tag: u64) -> Self {
        CopyState { tickets, tag }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message {
            id: MessageId(1),
            source: NodeId(0),
            destination: NodeId(9),
            created: Time::new(100.0),
            deadline: TimeDelta::new(50.0),
            copies: 3,
        }
    }

    #[test]
    fn expiry() {
        let m = msg();
        assert_eq!(m.expires_at(), Time::new(150.0));
    }

    #[test]
    fn copy_state_constructors() {
        assert_eq!(CopyState::new(5), CopyState { tickets: 5, tag: 0 });
        assert_eq!(
            CopyState::with_tag(1, 42),
            CopyState {
                tickets: 1,
                tag: 42
            }
        );
    }

    #[test]
    fn display() {
        assert_eq!(MessageId(7).to_string(), "m7");
    }

    #[test]
    fn fragment_ids_roundtrip_and_sort_by_parent() {
        let a = fragment_id(MessageId(3), 0);
        let b = fragment_id(MessageId(3), 5);
        let c = fragment_id(MessageId(4), 0);
        assert!(a < b && b < c);
        assert_eq!(fragment_parent(a), Some((MessageId(3), 0)));
        assert_eq!(fragment_parent(b), Some((MessageId(3), 5)));
        assert_eq!(fragment_parent(c), Some((MessageId(4), 0)));
        assert_eq!(fragment_parent(MessageId(7)), None);
    }
}
