//! The [`ContactModel`] abstraction and the sparse CSR backend.
//!
//! The analytical models (Eq. 4 of the paper) only ever ask a contact
//! substrate three questions: how many nodes there are, what the pairwise
//! rate `λ_{a,b}` is, and the two aggregate-rate queries over onion
//! groups. [`ContactModel`] captures exactly that surface, so the dense
//! [`ContactGraph`] (Table II, `n ≤ 10³`) and the sparse
//! [`SparseContacts`] backend (`n = 10⁵–10⁶`) are interchangeable to the
//! analysis layer while keeping completely different storage.
//!
//! `SparseContacts` stores only the *active* pairs in a symmetric
//! CSR-style adjacency — `O(n + m)` memory instead of the dense
//! `n(n−1)/2` triangle, which would be 4 TB at `n = 10⁶`. Pairs come
//! either from an existing dense graph ([`SparseContacts::from_dense`],
//! used by the equivalence tests) or from a Poisson-point-process
//! proximity generator ([`SparseContacts::poisson_proximity`]) that
//! scatters nodes on the unit square and connects pairs within the
//! radius that yields a target mean degree — the standard PPP mobility
//! recipe, `O(n)` expected work via a uniform grid instead of `n²`
//! pair enumeration.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::graph::ContactGraph;
use crate::node::NodeId;
use crate::time::{Rate, TimeDelta};

/// The contact-substrate surface the analytical models need.
///
/// Implementations must agree on semantics: rates are symmetric,
/// `λ_{a,a} = 0`, and the two group queries follow Eq. 4. The default
/// methods define the *exact* f64 summation order (group order, then
/// `from` order) that the dense goldens were frozen with; implementors
/// should not override them unless they reproduce that order.
pub trait ContactModel {
    /// Number of nodes `n`.
    fn node_count(&self) -> usize;

    /// The pairwise contact rate `λ_{a,b}`; zero for `a == b`.
    fn contact_rate(&self, a: NodeId, b: NodeId) -> Rate;

    /// Aggregate rate from `a` to *any* member of `group` (Eq. 4, first
    /// and last cases): `Σ_j λ_{a, r_j}`, skipping `a` itself.
    fn rate_to_group(&self, a: NodeId, group: &[NodeId]) -> Rate {
        let sum: f64 = group
            .iter()
            .filter(|&&r| r != a)
            .map(|&r| self.contact_rate(a, r).as_f64())
            .sum();
        Rate::new(sum)
    }

    /// Mean aggregate rate from a member of `from` to any member of `to`
    /// (Eq. 4, middle case): `(1/|from|) Σ_i Σ_j λ_{from_i, to_j}`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is empty.
    fn mean_rate_between_groups(&self, from: &[NodeId], to: &[NodeId]) -> Rate {
        assert!(!from.is_empty(), "`from` group must be non-empty");
        let total: f64 = from
            .iter()
            .map(|&i| self.rate_to_group(i, to).as_f64())
            .sum();
        Rate::new(total / from.len() as f64)
    }
}

impl ContactModel for ContactGraph {
    fn node_count(&self) -> usize {
        self.len()
    }

    fn contact_rate(&self, a: NodeId, b: NodeId) -> Rate {
        self.rate(a, b)
    }
}

/// Sparse symmetric contact rates in CSR-style adjacency.
///
/// Each undirected active pair is stored twice (once per endpoint), with
/// every node's neighbor list sorted ascending, so a rate lookup is a
/// binary search in one node's row. Memory is `O(n + m)` where `m` is
/// the number of active pairs.
///
/// # Examples
///
/// ```
/// use contact_graph::{ContactModel, NodeId, Rate, SparseContacts};
///
/// let pairs = vec![(NodeId(0), NodeId(1), Rate::new(0.5))];
/// let s = SparseContacts::from_pairs(3, pairs);
/// assert_eq!(s.contact_rate(NodeId(1), NodeId(0)), Rate::new(0.5));
/// assert_eq!(s.contact_rate(NodeId(1), NodeId(2)), Rate::ZERO);
/// assert_eq!(s.iter_pairs().count(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SparseContacts {
    n: usize,
    /// Row starts: node `i`'s neighbors live at
    /// `neighbors[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    /// Concatenated neighbor ids, ascending within each row.
    neighbors: Vec<u32>,
    /// Rate of the edge to the corresponding neighbor.
    rates: Vec<f64>,
}

impl SparseContacts {
    /// Builds from an explicit pair list.
    ///
    /// Pairs are normalized to `a < b`; duplicates keep the last rate.
    /// Zero-rate pairs are dropped.
    ///
    /// # Panics
    ///
    /// Panics on a self-loop or an id out of range.
    pub fn from_pairs(n: usize, pairs: Vec<(NodeId, NodeId, Rate)>) -> Self {
        let mut norm: Vec<(u32, u32, f64)> = Vec::with_capacity(pairs.len());
        for (a, b, r) in pairs {
            assert!(a != b, "a node has no contact process with itself");
            assert!(
                a.index() < n && b.index() < n,
                "node id out of range (n = {n})"
            );
            if r.is_zero() {
                continue;
            }
            let (lo, hi) = if a.0 < b.0 { (a.0, b.0) } else { (b.0, a.0) };
            norm.push((lo, hi, r.as_f64()));
        }
        norm.sort_by_key(|&(a, b, _)| (a, b));
        norm.dedup_by(|later, earlier| {
            // `dedup_by` sees (later, earlier); keep the later rate.
            let dup = later.0 == earlier.0 && later.1 == earlier.1;
            if dup {
                earlier.2 = later.2;
            }
            dup
        });
        Self::from_sorted_unique(n, &norm)
    }

    /// CSR assembly from pairs already sorted by `(a, b)` with `a < b`.
    fn from_sorted_unique(n: usize, pairs: &[(u32, u32, f64)]) -> Self {
        let mut degree = vec![0usize; n];
        for &(a, b, _) in pairs {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        let mut neighbors = vec![0u32; acc];
        let mut rates = vec![0.0f64; acc];
        for &(a, b, r) in pairs {
            neighbors[cursor[a as usize]] = b;
            rates[cursor[a as usize]] = r;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize]] = a;
            rates[cursor[b as usize]] = r;
            cursor[b as usize] += 1;
        }
        // Rows were filled in (a, b)-sorted pair order: the `b`-side of
        // each row ascends, and the `a`-side entries (b > a) are appended
        // after all smaller ids, so every row is already ascending.
        debug_assert!((0..n).all(|i| neighbors[offsets[i]..offsets[i + 1]].is_sorted()));
        SparseContacts {
            n,
            offsets,
            neighbors,
            rates,
        }
    }

    /// Converts a dense graph, keeping every positive-rate pair.
    ///
    /// Used by the dense-vs-sparse equivalence tests: the result answers
    /// every [`ContactModel`] query with the same values as `graph`.
    pub fn from_dense(graph: &ContactGraph) -> Self {
        let n = graph.len();
        let mut pairs = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                let r = graph.rate(NodeId(i), NodeId(j));
                if !r.is_zero() {
                    pairs.push((i, j, r.as_f64()));
                }
            }
        }
        Self::from_sorted_unique(n, &pairs)
    }

    /// Poisson-point-process proximity generator.
    ///
    /// Scatters `n` nodes uniformly on the unit square (two draws per
    /// node, in id order), connects every pair within radius
    /// `r = sqrt(avg_degree / (π·n))` — so the expected degree is
    /// `avg_degree` — and assigns each connected pair a mean
    /// inter-contact time drawn uniformly from `[min, max]`, in `(a, b)`
    /// pair order. Expected work is `O(n · avg_degree)` via a uniform
    /// grid of cell side `r`: only the 3×3 cell neighborhood of a node
    /// can contain its neighbors.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 0`, `avg_degree > 0` and
    /// `0 < min <= max`.
    pub fn poisson_proximity<R: Rng + ?Sized>(
        n: usize,
        avg_degree: f64,
        intercontact_range: (TimeDelta, TimeDelta),
        rng: &mut R,
    ) -> Self {
        assert!(n > 0, "n must be positive");
        assert!(
            avg_degree > 0.0 && avg_degree.is_finite(),
            "avg_degree must be positive"
        );
        let (min_mean, max_mean) = (intercontact_range.0.as_f64(), intercontact_range.1.as_f64());
        assert!(
            min_mean > 0.0 && min_mean <= max_mean,
            "require 0 < min <= max inter-contact time"
        );
        let radius = (avg_degree / (std::f64::consts::PI * n as f64))
            .sqrt()
            .min(std::f64::consts::SQRT_2);
        let r2 = radius * radius;
        // Positions first, in id order (draw order is part of the frozen
        // sparse determinism contract).
        let mut pos = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            pos.push((x, y));
        }
        // Uniform grid of cell side >= radius.
        let cells_per_side = ((1.0 / radius).floor() as usize).clamp(1, 4096);
        let cell_of = |x: f64, y: f64| {
            let cx = ((x * cells_per_side as f64) as usize).min(cells_per_side - 1);
            let cy = ((y * cells_per_side as f64) as usize).min(cells_per_side - 1);
            cy * cells_per_side + cx
        };
        let mut cells: Vec<Vec<u32>> = vec![Vec::new(); cells_per_side * cells_per_side];
        for (i, &(x, y)) in pos.iter().enumerate() {
            cells[cell_of(x, y)].push(i as u32);
        }
        // Candidate pairs: each node against the 3×3 neighborhood,
        // keeping only partners with a larger id to visit each pair once.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (i, &(x, y)) in pos.iter().enumerate() {
            let cx = ((x * cells_per_side as f64) as usize).min(cells_per_side - 1);
            let cy = ((y * cells_per_side as f64) as usize).min(cells_per_side - 1);
            for ny in cy.saturating_sub(1)..=(cy + 1).min(cells_per_side - 1) {
                for nx in cx.saturating_sub(1)..=(cx + 1).min(cells_per_side - 1) {
                    for &j in &cells[ny * cells_per_side + nx] {
                        if (j as usize) <= i {
                            continue;
                        }
                        let (dx, dy) = (pos[j as usize].0 - x, pos[j as usize].1 - y);
                        if dx * dx + dy * dy <= r2 {
                            pairs.push((i as u32, j));
                        }
                    }
                }
            }
        }
        // Rates are drawn in sorted (a, b) order so the realization does
        // not depend on grid iteration order.
        pairs.sort_unstable();
        let with_rates: Vec<(u32, u32, f64)> = pairs
            .into_iter()
            .map(|(a, b)| {
                let mean = rng.gen_range(min_mean..=max_mean);
                (a, b, 1.0 / mean)
            })
            .collect();
        Self::from_sorted_unique(n, &with_rates)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the model has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Nodes that `a` ever meets, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    pub fn neighbors(&self, a: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.neighbors[self.offsets[a.index()]..self.offsets[a.index() + 1]]
            .iter()
            .map(|&j| NodeId(j))
    }

    /// Iterates active pairs as `(a, b, rate)` with `a < b`, sorted by
    /// `(a, b)` — the canonical order the calendar event queue indexes.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, Rate)> + '_ {
        (0..self.n).flat_map(move |i| {
            let row = self.offsets[i]..self.offsets[i + 1];
            self.neighbors[row.clone()]
                .iter()
                .zip(&self.rates[row])
                .filter(move |(&j, _)| (j as usize) > i)
                .map(move |(&j, &r)| (NodeId(i as u32), NodeId(j), Rate::new(r)))
        })
    }

    /// Approximate heap footprint in bytes (CSR arrays only).
    pub fn approx_bytes(&self) -> usize {
        self.offsets.capacity() * size_of::<usize>()
            + self.neighbors.capacity() * size_of::<u32>()
            + self.rates.capacity() * size_of::<f64>()
    }
}

impl ContactModel for SparseContacts {
    fn node_count(&self) -> usize {
        self.n
    }

    fn contact_rate(&self, a: NodeId, b: NodeId) -> Rate {
        assert!(
            a.index() < self.n && b.index() < self.n,
            "node id out of range (n = {})",
            self.n
        );
        if a == b {
            return Rate::ZERO;
        }
        let row = &self.neighbors[self.offsets[a.index()]..self.offsets[a.index() + 1]];
        match row.binary_search(&b.0) {
            Ok(pos) => Rate::new(self.rates[self.offsets[a.index()] + pos]),
            Err(_) => Rate::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    use crate::generator::UniformGraphBuilder;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn from_pairs_is_symmetric_and_sparse() {
        let s = SparseContacts::from_pairs(
            4,
            vec![
                (NodeId(2), NodeId(0), Rate::new(0.25)),
                (NodeId(1), NodeId(3), Rate::new(0.5)),
                (NodeId(0), NodeId(3), Rate::ZERO), // dropped
            ],
        );
        assert_eq!(s.iter_pairs().count(), 2);
        assert_eq!(s.contact_rate(NodeId(0), NodeId(2)), Rate::new(0.25));
        assert_eq!(s.contact_rate(NodeId(2), NodeId(0)), Rate::new(0.25));
        assert_eq!(s.contact_rate(NodeId(0), NodeId(3)), Rate::ZERO);
        assert_eq!(s.contact_rate(NodeId(1), NodeId(1)), Rate::ZERO);
        assert_eq!(s.neighbors(NodeId(3)).count(), 1);
        let pairs: Vec<_> = s.iter_pairs().collect();
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), NodeId(2), Rate::new(0.25)),
                (NodeId(1), NodeId(3), Rate::new(0.5)),
            ]
        );
    }

    #[test]
    fn duplicate_pairs_keep_last_rate() {
        let s = SparseContacts::from_pairs(
            3,
            vec![
                (NodeId(0), NodeId(1), Rate::new(0.1)),
                (NodeId(1), NodeId(0), Rate::new(0.9)),
            ],
        );
        assert_eq!(s.iter_pairs().count(), 1);
        assert_eq!(s.contact_rate(NodeId(0), NodeId(1)), Rate::new(0.9));
    }

    #[test]
    fn from_dense_answers_identically() {
        let g = UniformGraphBuilder::new(25)
            .connectivity(0.4)
            .build(&mut rng(11));
        let s = SparseContacts::from_dense(&g);
        assert_eq!(s.node_count(), g.len());
        for a in g.nodes() {
            for b in g.nodes() {
                assert_eq!(s.contact_rate(a, b), g.rate(a, b), "pair {a:?},{b:?}");
            }
        }
        // Group queries match bit-for-bit (same summation order).
        let group: Vec<NodeId> = (0..5).map(NodeId).collect();
        let other: Vec<NodeId> = (5..10).map(NodeId).collect();
        assert_eq!(
            s.rate_to_group(NodeId(12), &group),
            g.rate_to_group(NodeId(12), &group)
        );
        assert_eq!(
            s.mean_rate_between_groups(&group, &other),
            g.mean_rate_between_groups(&group, &other)
        );
    }

    #[test]
    fn poisson_proximity_hits_target_degree() {
        let n = 4000;
        let s = SparseContacts::poisson_proximity(
            n,
            6.0,
            (TimeDelta::new(1.0), TimeDelta::new(36.0)),
            &mut rng(5),
        );
        let mean_degree = 2.0 * s.iter_pairs().count() as f64 / n as f64;
        // Border effects bite a little (nodes near the edge see a clipped
        // disc), so allow a generous band around the target.
        assert!(
            (3.5..=7.0).contains(&mean_degree),
            "mean degree {mean_degree}"
        );
        for (a, b, r) in s.iter_pairs().take(100) {
            assert!(a < b);
            let mean = r.mean_intercontact().unwrap().as_f64();
            assert!((1.0..=36.0).contains(&mean));
        }
    }

    #[test]
    fn poisson_proximity_is_deterministic_per_seed() {
        let make = |seed| {
            SparseContacts::poisson_proximity(
                500,
                4.0,
                (TimeDelta::new(1.0), TimeDelta::new(36.0)),
                &mut rng(seed),
            )
        };
        assert_eq!(make(3), make(3));
        assert_ne!(make(3), make(4));
    }

    #[test]
    fn serde_roundtrip() {
        let s = SparseContacts::from_pairs(3, vec![(NodeId(0), NodeId(2), Rate::new(0.5))]);
        let text = serde_json::to_string(&s).unwrap();
        assert_eq!(serde_json::from_str::<SparseContacts>(&text).unwrap(), s);
    }

    #[test]
    #[should_panic(expected = "no contact process with itself")]
    fn self_loop_rejected() {
        let _ = SparseContacts::from_pairs(2, vec![(NodeId(1), NodeId(1), Rate::new(1.0))]);
    }
}
