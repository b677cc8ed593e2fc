//! Random contact-graph generators.
//!
//! [`UniformGraphBuilder`] reproduces the paper's Table II setup: a complete
//! contact graph whose mean inter-contact times are uniform in
//! `[min, max]` (1 to 36 minutes by default). The other generators provide
//! richer topologies for examples and ablations.

use rand::Rng;

use crate::graph::ContactGraph;
use crate::node::NodeId;
use crate::time::{Rate, TimeDelta};

/// Builder for the paper's random contact graphs (Table II).
///
/// Every pair of nodes is connected (with probability
/// [`connectivity`](Self::connectivity), default 1.0) and assigned a mean
/// inter-contact time drawn uniformly from
/// `[min_mean_intercontact, max_mean_intercontact]`.
///
/// # Examples
///
/// ```
/// use contact_graph::UniformGraphBuilder;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = UniformGraphBuilder::new(100).build(&mut rng);
/// assert_eq!(g.len(), 100);
/// assert!(g.is_connected());
/// ```
#[derive(Clone, Debug)]
pub struct UniformGraphBuilder {
    n: usize,
    min_mean: f64,
    max_mean: f64,
    connectivity: f64,
}

impl UniformGraphBuilder {
    /// Starts a builder for `n` nodes with the paper's defaults
    /// (inter-contact times uniform in `[1, 36]` minutes, fully connected).
    pub fn new(n: usize) -> Self {
        UniformGraphBuilder {
            n,
            min_mean: 1.0,
            max_mean: 36.0,
            connectivity: 1.0,
        }
    }

    /// Sets the range of mean inter-contact times.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < min <= max`.
    pub fn mean_intercontact_range(mut self, min: TimeDelta, max: TimeDelta) -> Self {
        assert!(
            min.as_f64() > 0.0 && min <= max,
            "require 0 < min <= max inter-contact time"
        );
        self.min_mean = min.as_f64();
        self.max_mean = max.as_f64();
        self
    }

    /// Sets the probability that a pair is connected at all (default 1.0,
    /// the paper's fully-connected contact graph).
    ///
    /// # Panics
    ///
    /// Panics unless `p ∈ [0, 1]`.
    pub fn connectivity(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "connectivity must be in [0,1]");
        self.connectivity = p;
        self
    }

    /// Builds the graph.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> ContactGraph {
        let mut g = ContactGraph::new(self.n);
        for i in 0..self.n as u32 {
            for j in (i + 1)..self.n as u32 {
                if self.connectivity >= 1.0 || rng.gen_bool(self.connectivity) {
                    let mean = rng.gen_range(self.min_mean..=self.max_mean);
                    g.set_rate(
                        NodeId(i),
                        NodeId(j),
                        Rate::from_mean_intercontact(TimeDelta::new(mean)),
                    );
                }
            }
        }
        g
    }
}

/// Builds a community-structured contact graph: `communities` cliques of
/// `community_size` nodes with fast intra-community contacts and slow
/// inter-community contacts.
///
/// Models the social structure of human-contact DTNs (pocket switched
/// networks); used by examples and ablations.
///
/// # Panics
///
/// Panics if `communities == 0` or `community_size == 0`.
pub fn community_graph<R: Rng + ?Sized>(
    communities: usize,
    community_size: usize,
    intra_mean: TimeDelta,
    inter_mean: TimeDelta,
    inter_connectivity: f64,
    rng: &mut R,
) -> ContactGraph {
    assert!(communities > 0 && community_size > 0);
    let n = communities * community_size;
    let mut g = ContactGraph::new(n);
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            let same = (i as usize / community_size) == (j as usize / community_size);
            if same {
                // Jitter ±50% around the intra-community mean.
                let mean = intra_mean.as_f64() * rng.gen_range(0.5..=1.5);
                g.set_rate(
                    NodeId(i),
                    NodeId(j),
                    Rate::from_mean_intercontact(TimeDelta::new(mean)),
                );
            } else if rng.gen_bool(inter_connectivity) {
                let mean = inter_mean.as_f64() * rng.gen_range(0.5..=1.5);
                g.set_rate(
                    NodeId(i),
                    NodeId(j),
                    Rate::from_mean_intercontact(TimeDelta::new(mean)),
                );
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_builder_defaults_match_table2() {
        let g = UniformGraphBuilder::new(50).build(&mut rng(7));
        assert_eq!(g.len(), 50);
        assert_eq!(g.density(), 1.0);
        for i in g.nodes() {
            for j in g.nodes() {
                if i != j {
                    let mean = g.rate(i, j).mean_intercontact().unwrap().as_f64();
                    assert!((1.0..=36.0).contains(&mean), "mean {mean} out of range");
                }
            }
        }
    }

    #[test]
    fn uniform_builder_is_deterministic_per_seed() {
        let a = UniformGraphBuilder::new(20).build(&mut rng(3));
        let b = UniformGraphBuilder::new(20).build(&mut rng(3));
        let c = UniformGraphBuilder::new(20).build(&mut rng(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn partial_connectivity() {
        let g = UniformGraphBuilder::new(40)
            .connectivity(0.3)
            .build(&mut rng(11));
        assert!(g.density() > 0.15 && g.density() < 0.45, "{}", g.density());
    }

    #[test]
    fn custom_range_respected() {
        let g = UniformGraphBuilder::new(10)
            .mean_intercontact_range(TimeDelta::new(5.0), TimeDelta::new(6.0))
            .build(&mut rng(2));
        for i in g.nodes() {
            for j in g.nodes() {
                if i != j {
                    let mean = g.rate(i, j).mean_intercontact().unwrap().as_f64();
                    assert!((5.0..=6.0).contains(&mean));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "0 < min <= max")]
    fn bad_range_rejected() {
        let _ = UniformGraphBuilder::new(5)
            .mean_intercontact_range(TimeDelta::new(6.0), TimeDelta::new(5.0));
    }

    #[test]
    fn community_graph_structure() {
        let g = community_graph(
            3,
            5,
            TimeDelta::new(2.0),
            TimeDelta::new(100.0),
            0.2,
            &mut rng(5),
        );
        assert_eq!(g.len(), 15);
        // Intra-community edges always exist and are fast.
        let intra = g.rate(NodeId(0), NodeId(1));
        assert!(!intra.is_zero());
        assert!(intra.mean_intercontact().unwrap().as_f64() <= 3.0);
    }
}
