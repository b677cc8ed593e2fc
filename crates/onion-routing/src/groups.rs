//! Onion groups: the anycast relay sets of group onion routing.
//!
//! The network's `n` nodes are partitioned into `⌈n/g⌉` groups of size `g`
//! (the last group may be smaller when `g ∤ n` — the paper notes this and
//! our simulation keeps it). Any member of a group shares the group key
//! and can peel the corresponding onion layer, so a custodian may forward
//! to *any* member of the next group on the route.

use contact_graph::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Identifier of an onion group.
#[derive(
    Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct GroupId(pub u32);

impl GroupId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// A partition of the network's nodes into onion groups.
///
/// # Examples
///
/// ```
/// use onion_routing::OnionGroups;
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let groups = OnionGroups::random_partition(100, 5, &mut rng);
/// assert_eq!(groups.group_count(), 20);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OnionGroups {
    /// `assignment[node] = group`.
    assignment: Vec<GroupId>,
    /// `members[group] = nodes`, each sorted ascending.
    members: Vec<Vec<NodeId>>,
    nominal_size: usize,
}

impl OnionGroups {
    /// Randomly partitions `n` nodes into groups of `g` (the last group
    /// keeps the remainder when `g ∤ n`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `g == 0`.
    pub fn random_partition<R: Rng + ?Sized>(n: usize, g: usize, rng: &mut R) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(g > 0, "group size must be positive");
        let mut nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        nodes.shuffle(rng);
        Self::from_chunks(nodes, n, g)
    }

    /// Deterministic partition in node order, a fixture for unit tests.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `g == 0`.
    #[cfg(test)]
    pub(crate) fn sequential_partition(n: usize, g: usize) -> Self {
        assert!(n > 0, "need at least one node");
        assert!(g > 0, "group size must be positive");
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        Self::from_chunks(nodes, n, g)
    }

    fn from_chunks(nodes: Vec<NodeId>, n: usize, g: usize) -> Self {
        let mut assignment = vec![GroupId(0); n];
        let mut members = Vec::with_capacity(n.div_ceil(g));
        for (gi, chunk) in nodes.chunks(g).enumerate() {
            let gid = GroupId(gi as u32);
            let mut group: Vec<NodeId> = chunk.to_vec();
            group.sort();
            for &node in &group {
                assignment[node.index()] = gid;
            }
            members.push(group);
        }
        OnionGroups {
            assignment,
            members,
            nominal_size: g,
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.members.len()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.assignment.len()
    }

    /// The group containing `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn group_of(&self, node: NodeId) -> GroupId {
        self.assignment[node.index()]
    }

    /// Members of `group` (sorted ascending).
    ///
    /// # Panics
    ///
    /// Panics if `group` is out of range.
    pub fn members(&self, group: GroupId) -> &[NodeId] {
        &self.members[group.index()]
    }

    /// Whether `node` belongs to `group`.
    pub fn contains(&self, group: GroupId, node: NodeId) -> bool {
        self.group_of(node) == group
    }

    /// Iterates over all group ids.
    pub fn group_ids(&self) -> impl Iterator<Item = GroupId> {
        (0..self.members.len() as u32).map(GroupId)
    }

    /// Selects `k` distinct onion groups uniformly at random — the route
    /// `R_1 … R_K` of the abstract protocol. Returns `None` if fewer than
    /// `k` groups exist.
    pub fn select_route<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Option<Vec<GroupId>> {
        self.select_route_avoiding(k, &[], rng)
    }

    /// Selects `k` distinct onion groups uniformly at random among groups
    /// that contain at least one member outside `avoid` — used to keep
    /// the endpoints out of the relay path, matching the analysis (paths
    /// are permutations of `η` nodes *other than* `v_s` and `v_d`).
    /// Returns `None` if fewer than `k` such groups exist.
    pub fn select_route_avoiding<R: Rng + ?Sized>(
        &self,
        k: usize,
        avoid: &[NodeId],
        rng: &mut R,
    ) -> Option<Vec<GroupId>> {
        if k == 0 {
            return None;
        }
        let mut ids: Vec<GroupId> = self
            .group_ids()
            .filter(|&gid| self.members(gid).iter().any(|m| !avoid.contains(m)))
            .collect();
        if k > ids.len() {
            return None;
        }
        ids.shuffle(rng);
        ids.truncate(k);
        Some(ids)
    }

    /// Selects a route whose last group is the destination's group —
    /// ARDEN's destination-anonymity enhancement ("the last hop forms an
    /// onion group"). The first `k − 1` groups are uniform over the rest.
    /// Returns `None` if fewer than `k` groups exist.
    pub fn select_route_arden<R: Rng + ?Sized>(
        &self,
        k: usize,
        destination: NodeId,
        rng: &mut R,
    ) -> Option<Vec<GroupId>> {
        if k > self.group_count() || k == 0 {
            return None;
        }
        let last = self.group_of(destination);
        let mut ids: Vec<GroupId> = self.group_ids().filter(|&g| g != last).collect();
        ids.shuffle(rng);
        ids.truncate(k - 1);
        ids.push(last);
        Some(ids)
    }

    /// Group member lists for a route, as needed by
    /// [`analysis::onion_path_rates`].
    pub fn route_members(&self, route: &[GroupId]) -> Vec<Vec<NodeId>> {
        route.iter().map(|&g| self.members(g).to_vec()).collect()
    }
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
    fn partition_covers_all_nodes_once() {
        let g = OnionGroups::random_partition(100, 5, &mut rng(1));
        assert_eq!(g.group_count(), 20);
        assert_eq!(g.node_count(), 100);
        let mut seen = [false; 100];
        for gid in g.group_ids() {
            for &node in g.members(gid) {
                assert!(!seen[node.index()], "node {node} in two groups");
                seen[node.index()] = true;
                assert_eq!(g.group_of(node), gid);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uneven_tail_group() {
        // 100 nodes, g = 7: 14 groups of 7 and one of 2 (the paper's
        // "group with a smaller size" remark).
        let g = OnionGroups::random_partition(100, 7, &mut rng(2));
        assert_eq!(g.group_count(), 15);
        let sizes: Vec<usize> = g.group_ids().map(|gid| g.members(gid).len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert_eq!(*sizes.last().unwrap(), 2);
        assert!(sizes[..14].iter().all(|&s| s == 7));
    }

    #[test]
    fn group_size_one() {
        // g = 1 reduces to classic onion routing over individual relays.
        let g = OnionGroups::sequential_partition(10, 1);
        assert_eq!(g.group_count(), 10);
        for gid in g.group_ids() {
            assert_eq!(g.members(gid).len(), 1);
        }
    }

    #[test]
    fn sequential_partition_is_in_order() {
        let g = OnionGroups::sequential_partition(6, 2);
        assert_eq!(g.members(GroupId(0)), &[NodeId(0), NodeId(1)]);
        assert_eq!(g.members(GroupId(2)), &[NodeId(4), NodeId(5)]);
    }

    #[test]
    fn route_selection_distinct_groups() {
        let g = OnionGroups::random_partition(100, 5, &mut rng(3));
        let mut r = rng(4);
        for _ in 0..50 {
            let route = g.select_route(3, &mut r).unwrap();
            assert_eq!(route.len(), 3);
            let set: std::collections::HashSet<_> = route.iter().collect();
            assert_eq!(set.len(), 3, "groups must be distinct");
        }
    }

    #[test]
    fn route_selection_bounds() {
        let g = OnionGroups::sequential_partition(10, 5); // 2 groups
        assert!(g.select_route(3, &mut rng(0)).is_none());
        assert!(g.select_route(0, &mut rng(0)).is_none());
        assert_eq!(g.select_route(2, &mut rng(0)).unwrap().len(), 2);
    }

    #[test]
    fn arden_route_ends_at_destination_group() {
        let g = OnionGroups::random_partition(100, 5, &mut rng(5));
        let dest = NodeId(42);
        let mut r = rng(6);
        for _ in 0..20 {
            let route = g.select_route_arden(3, dest, &mut r).unwrap();
            assert_eq!(route.len(), 3);
            assert_eq!(*route.last().unwrap(), g.group_of(dest));
            let set: std::collections::HashSet<_> = route.iter().collect();
            assert_eq!(set.len(), 3);
        }
    }

    #[test]
    fn route_members_match_groups() {
        let g = OnionGroups::sequential_partition(10, 5);
        let members = g.route_members(&[GroupId(1), GroupId(0)]);
        assert_eq!(members[0], g.members(GroupId(1)));
        assert_eq!(members[1], g.members(GroupId(0)));
    }

    #[test]
    fn membership_query() {
        let g = OnionGroups::sequential_partition(4, 2);
        assert!(g.contains(GroupId(0), NodeId(1)));
        assert!(!g.contains(GroupId(1), NodeId(1)));
    }
}
