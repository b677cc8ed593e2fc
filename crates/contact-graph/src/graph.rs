//! The contact graph: pairwise contact rates `λ_{i,j}`.
//!
//! A DTN is represented by a contact graph with `n` nodes (Section III-A of
//! the paper). Two nodes are connected iff they ever meet; the inter-contact
//! time of a connected pair is exponential with rate `λ_{i,j}`.

use serde::{Deserialize, Serialize};

use crate::node::NodeId;
use crate::time::Rate;

/// A symmetric matrix of pairwise contact rates.
///
/// # Examples
///
/// ```
/// use contact_graph::{ContactGraph, NodeId, Rate};
///
/// let mut g = ContactGraph::new(3);
/// g.set_rate(NodeId(0), NodeId(1), Rate::new(0.5));
/// assert_eq!(g.rate(NodeId(1), NodeId(0)), Rate::new(0.5));
/// assert_eq!(g.neighbors(NodeId(2)).count(), 0);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ContactGraph {
    n: usize,
    /// Upper-triangular storage: rate of pair (i, j) with i < j at
    /// `tri_index(i, j)`.
    rates: Vec<f64>,
}

impl ContactGraph {
    /// Creates a graph of `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        ContactGraph {
            n,
            rates: vec![0.0; n * n.saturating_sub(1) / 2],
        }
    }

    fn tri_index(&self, a: NodeId, b: NodeId) -> usize {
        let (i, j) = if a.index() < b.index() {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        debug_assert!(i < j && j < self.n);
        // Row-major upper triangle.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n as u32).map(NodeId)
    }

    /// Sets the contact rate of the pair `(a, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either id is out of range.
    pub fn set_rate(&mut self, a: NodeId, b: NodeId, rate: Rate) {
        assert!(a != b, "a node has no contact process with itself");
        assert!(
            a.index() < self.n && b.index() < self.n,
            "node id out of range (n = {})",
            self.n
        );
        let idx = self.tri_index(a, b);
        self.rates[idx] = rate.as_f64();
    }

    /// The contact rate of the pair `(a, b)`; zero for `a == b`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn rate(&self, a: NodeId, b: NodeId) -> Rate {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "node id out of range (n = {})",
            self.n
        );
        if a == b {
            return Rate::ZERO;
        }
        Rate::new(self.rates[self.tri_index(a, b)])
    }

    /// Nodes that `a` ever meets (positive rate).
    pub fn neighbors(&self, a: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(move |&b| b != a && !self.rate(a, b).is_zero())
    }

    /// Number of connected pairs.
    fn edge_count(&self) -> usize {
        self.rates.iter().filter(|&&r| r > 0.0).count()
    }

    /// Fraction of pairs that are connected, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.edge_count() as f64 / self.rates.len() as f64
    }

    /// Mean rate over *connected* pairs; zero if none.
    pub fn mean_rate(&self) -> Rate {
        let (sum, count) = self
            .rates
            .iter()
            .filter(|&&r| r > 0.0)
            .fold((0.0, 0usize), |(s, c), &r| (s + r, c + 1));
        if count == 0 {
            Rate::ZERO
        } else {
            Rate::new(sum / count as f64)
        }
    }

    /// Whether every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ContactModel;

    fn line_graph(n: usize, rate: f64) -> ContactGraph {
        let mut g = ContactGraph::new(n);
        for i in 0..n - 1 {
            g.set_rate(NodeId(i as u32), NodeId(i as u32 + 1), Rate::new(rate));
        }
        g
    }

    #[test]
    fn symmetric_rates() {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(2), NodeId(0), Rate::new(0.25));
        assert_eq!(g.rate(NodeId(0), NodeId(2)), Rate::new(0.25));
        assert_eq!(g.rate(NodeId(2), NodeId(0)), Rate::new(0.25));
        assert_eq!(g.rate(NodeId(0), NodeId(1)), Rate::ZERO);
        assert_eq!(g.rate(NodeId(3), NodeId(3)), Rate::ZERO);
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn self_rate_rejected() {
        let mut g = ContactGraph::new(2);
        g.set_rate(NodeId(1), NodeId(1), Rate::new(1.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let g = ContactGraph::new(2);
        let _ = g.rate(NodeId(0), NodeId(5));
    }

    #[test]
    fn neighbors_and_degree() {
        let g = line_graph(4, 1.0);
        assert_eq!(g.neighbors(NodeId(0)).count(), 1);
        let n1: Vec<_> = g.neighbors(NodeId(1)).collect();
        assert_eq!(n1, vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    fn density_and_mean_rate() {
        let mut g = ContactGraph::new(3);
        assert_eq!(g.density(), 0.0);
        assert_eq!(g.mean_rate(), Rate::ZERO);
        g.set_rate(NodeId(0), NodeId(1), Rate::new(2.0));
        g.set_rate(NodeId(1), NodeId(2), Rate::new(4.0));
        assert!((g.density() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.mean_rate(), Rate::new(3.0));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn aggregate_rate_sums_over_group() {
        let mut g = ContactGraph::new(4);
        g.set_rate(NodeId(0), NodeId(1), Rate::new(0.1));
        g.set_rate(NodeId(0), NodeId(2), Rate::new(0.2));
        g.set_rate(NodeId(0), NodeId(3), Rate::new(0.4));
        let r = g.rate_to_group(NodeId(0), &[NodeId(1), NodeId(2)]);
        assert!((r.as_f64() - 0.3).abs() < 1e-12);
        // A group containing the node itself skips it.
        let r = g.rate_to_group(NodeId(0), &[NodeId(0), NodeId(3)]);
        assert!((r.as_f64() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn mean_aggregate_between_groups_matches_eq4() {
        let mut g = ContactGraph::new(4);
        // from = {0, 1}, to = {2, 3}
        g.set_rate(NodeId(0), NodeId(2), Rate::new(0.1));
        g.set_rate(NodeId(0), NodeId(3), Rate::new(0.2));
        g.set_rate(NodeId(1), NodeId(2), Rate::new(0.3));
        g.set_rate(NodeId(1), NodeId(3), Rate::new(0.4));
        let r = g.mean_rate_between_groups(&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]);
        // (0.1 + 0.2 + 0.3 + 0.4) / 2
        assert!((r.as_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn connectivity() {
        assert!(line_graph(5, 1.0).is_connected());
        assert!(ContactGraph::new(1).is_connected());
        assert!(ContactGraph::new(0).is_connected());
        let mut g = ContactGraph::new(3);
        g.set_rate(NodeId(0), NodeId(1), Rate::new(1.0));
        assert!(!g.is_connected());
    }

    #[test]
    fn tri_index_covers_all_pairs() {
        let n = 7;
        let mut g = ContactGraph::new(n);
        let mut val = 1.0;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                g.set_rate(NodeId(i), NodeId(j), Rate::new(val));
                val += 1.0;
            }
        }
        // Re-read every pair: no index collisions.
        let mut val = 1.0;
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                assert_eq!(g.rate(NodeId(i), NodeId(j)).as_f64(), val);
                val += 1.0;
            }
        }
    }
}
