//! The adversary model: randomly compromised nodes (Section IV-D).
//!
//! A compromised custodian discloses the link to its successor, so for a
//! realized custody chain the traceable rate follows Eq. 1, and for the
//! anonymity metric each compromised on-path custodian narrows its next
//! hop to the `g` members of the next onion group.

use std::collections::HashSet;

use contact_graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// A set of compromised nodes.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Adversary {
    compromised: HashSet<NodeId>,
}

impl Adversary {
    /// An adversary controlling exactly the given nodes.
    pub(crate) fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> Self {
        Adversary {
            compromised: nodes.into_iter().collect(),
        }
    }

    /// Compromises `c` of `n` nodes uniformly at random (the paper's
    /// security-evaluation setup).
    ///
    /// # Panics
    ///
    /// Panics if `c > n`.
    pub fn random<R: Rng + ?Sized>(n: usize, c: usize, rng: &mut R) -> Self {
        assert!(c <= n, "cannot compromise more nodes than exist");
        let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        ids.shuffle(rng);
        ids.truncate(c);
        Self::from_nodes(ids)
    }

    /// Whether `node` is compromised.
    fn is_compromised(&self, node: NodeId) -> bool {
        self.compromised.contains(&node)
    }

    /// Number of compromised nodes.
    pub fn len(&self) -> usize {
        self.compromised.len()
    }

    /// Whether no node is compromised.
    pub fn is_empty(&self) -> bool {
        self.compromised.is_empty()
    }

    /// Iterates over compromised nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.compromised.iter().copied()
    }

    /// The compromise bit string of a custody chain (Eq. 1's `b`):
    /// `bits[i] = true` iff the **sender** of hop `i` is compromised.
    /// A chain of `η + 1` nodes yields `η` bits.
    fn path_bits(&self, path: &[NodeId]) -> Vec<bool> {
        if path.len() < 2 {
            return Vec::new();
        }
        path[..path.len() - 1]
            .iter()
            .map(|&v| self.is_compromised(v))
            .collect()
    }

    /// Traceable rate of a realized custody chain (Eq. 1).
    pub fn traceable_rate(&self, path: &[NodeId]) -> f64 {
        analysis::traceable_rate_of_bits(&self.path_bits(path))
    }

    /// Number of *sender positions* (1 ≤ i ≤ η) at which at least one
    /// custodian is compromised, given the custodian sets per position —
    /// the realized `c_o` (single-copy: one custodian per position;
    /// multi-copy: the union over all `L` copies, Eq. 20's `Y'`).
    pub fn exposed_positions(&self, custodians_per_position: &[HashSet<NodeId>]) -> usize {
        custodians_per_position
            .iter()
            .filter(|set| set.iter().any(|&v| self.is_compromised(v)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_compromise_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = Adversary::random(100, 10, &mut rng);
        assert_eq!(a.len(), 10);
        assert!(a.nodes().all(|v| v.index() < 100));
    }

    #[test]
    fn zero_and_full_compromise() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        assert!(Adversary::random(10, 0, &mut rng).is_empty());
        let full = Adversary::random(10, 10, &mut rng);
        assert_eq!(full.len(), 10);
        assert!((0..10u32).all(|i| full.is_compromised(NodeId(i))));
    }

    #[test]
    #[should_panic(expected = "cannot compromise")]
    fn over_compromise_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let _ = Adversary::random(5, 6, &mut rng);
    }

    #[test]
    fn paper_bit_string_example() {
        // Path v1→…→v6 with v2, v3, v5 compromised → bits 01101.
        let a = Adversary::from_nodes([NodeId(2), NodeId(3), NodeId(5)]);
        let path: Vec<NodeId> = (1..=6).map(NodeId).collect();
        assert_eq!(a.path_bits(&path), vec![false, true, true, false, true]);
    }

    #[test]
    fn paper_traceable_example() {
        // v1..v5, {v1, v2, v4} compromised → 0.3125.
        let a = Adversary::from_nodes([NodeId(1), NodeId(2), NodeId(4)]);
        let path: Vec<NodeId> = (1..=5).map(NodeId).collect();
        assert!((a.traceable_rate(&path) - 0.3125).abs() < 1e-12);
        // Consecutive {v2, v3, v4} → 0.5625.
        let a = Adversary::from_nodes([NodeId(2), NodeId(3), NodeId(4)]);
        assert!((a.traceable_rate(&path) - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn short_paths() {
        let a = Adversary::from_nodes([NodeId(0)]);
        assert!(a.path_bits(&[]).is_empty());
        assert!(a.path_bits(&[NodeId(0)]).is_empty());
        assert_eq!(a.traceable_rate(&[NodeId(0), NodeId(1)]), 1.0);
        assert_eq!(a.traceable_rate(&[NodeId(1), NodeId(0)]), 0.0);
    }

    #[test]
    fn exposed_positions_union_semantics() {
        let a = Adversary::from_nodes([NodeId(5)]);
        let positions = vec![
            HashSet::from([NodeId(0)]),            // clean
            HashSet::from([NodeId(1), NodeId(5)]), // exposed via one of L copies
            HashSet::from([NodeId(2)]),            // clean
        ];
        assert_eq!(a.exposed_positions(&positions), 1);
        let none = Adversary::default();
        assert_eq!(none.exposed_positions(&positions), 0);
    }
}
