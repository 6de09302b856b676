//! The placement-policy interface and the stock HDFS random policy.
//!
//! The NameNode delegates the "which node gets this replica?" decision to
//! a [`PlacementPolicy`]. The stock behaviour the paper describes — "the
//! NameNode generates a random integer `r (0 ≤ r < n)` and selects the
//! corresponding data node with index `r` to hold the block" — is
//! [`RandomPolicy`]. The ADAPT policy (and the naive availability-
//! proportional baseline) implement the same trait in the `adapt-core`
//! crate, which is what makes ADAPT "an add-on feature … enabled/disabled
//! flexibly". Each decision picks from an [`Eligible`] set that the
//! placement session keeps up to date, so drawing the paper's `r` costs
//! O(log n) rather than a scan of the cluster.

use rand::Rng;

use crate::block::NodeId;
use crate::cluster::NodeAvailability;
use crate::DfsError;

/// A read-only snapshot of one node as exposed to placement policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeView {
    /// The node's identifier.
    pub id: NodeId,
    /// Interruption parameters from the heartbeat collector.
    pub availability: NodeAvailability,
    /// Whether the node is currently alive (heartbeating).
    pub alive: bool,
    /// Blocks currently stored on the node.
    pub stored_blocks: usize,
    /// Storage capacity in blocks, if limited.
    pub capacity_blocks: Option<usize>,
    /// The rack holding the node (0 on flat, single-rack clusters).
    pub rack: u32,
}

/// A read-only snapshot of the cluster taken at the start of a placement
/// session.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView {
    nodes: Vec<NodeView>,
}

impl ClusterView {
    /// Creates a view from per-node snapshots.
    pub fn new(nodes: Vec<NodeView>) -> Self {
        ClusterView { nodes }
    }

    /// Number of nodes in the cluster (alive or not).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All node snapshots, indexed by `NodeId` order.
    pub fn nodes(&self) -> &[NodeView] {
        &self.nodes
    }

    /// The snapshot for one node, if it exists.
    pub fn node(&self, id: NodeId) -> Option<&NodeView> {
        self.nodes.get(id.0 as usize)
    }

    /// Number of alive nodes.
    pub fn alive_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.alive).count()
    }

    /// The rack of `id`, or 0 for an unknown node (the flat default, so
    /// single-rack callers never need to care).
    pub fn rack_of(&self, id: NodeId) -> u32 {
        self.node(id).map_or(0, |n| n.rack)
    }

    /// Whether two nodes share a rack (unknown nodes default to rack 0).
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// The mutable snapshot of one node, for the NameNode that keeps the
    /// view current.
    pub(crate) fn node_mut(&mut self, id: NodeId) -> Option<&mut NodeView> {
        self.nodes.get_mut(id.0 as usize)
    }
}

/// A replica-placement decision procedure.
///
/// Implementations must be deterministic given the RNG: all randomness
/// flows through the `rng` argument, which keeps whole-cluster simulations
/// reproducible under a fixed seed.
pub trait PlacementPolicy: std::fmt::Debug {
    /// Short policy name used in experiment reports (e.g. `"random"`,
    /// `"adapt"`, `"naive"`).
    fn name(&self) -> &'static str;

    /// Called once at the start of a placement session (file ingest or
    /// rebalance) with the number of blocks about to be placed — the
    /// moment ADAPT builds its hash table.
    ///
    /// # Errors
    ///
    /// Implementations may fail if the cluster state is unusable (e.g. a
    /// node's interruption queue is unstable and has no finite expected
    /// task time; implementations typically degrade such nodes instead).
    fn prepare(&mut self, cluster: &ClusterView, num_blocks: usize) -> Result<(), DfsError> {
        let _ = (cluster, num_blocks);
        Ok(())
    }

    /// Selects an open node of `eligible` for the next replica, or `None`
    /// if none can be chosen. Every node of `eligible` is alive.
    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &Eligible,
        rng: &mut dyn Rng,
    ) -> Option<NodeId>;
}

/// The nodes a placement session may choose for the next replica.
///
/// A session fixes the set's *candidates* when it builds it: the alive
/// nodes of its cluster view that pass the session's filter, in ascending
/// id order. Each candidate is *open* or *closed*, and a policy may return
/// only an open node. The session closes a node once it holds a replica
/// of the current block, and reopens it after the block while the node is
/// under its capacity and the threshold.
///
/// A Fenwick tree over the open flags makes [`nth`](Eligible::nth) and
/// [`set`](Eligible::set) O(log n), so drawing one replica never scans
/// the cluster. A set built over the whole cluster
/// ([`from_fn`](Eligible::from_fn)) finds a node's position in O(1)
/// through a table sized to the cluster; one built over a subset of `k`
/// nodes ([`from_subset`](Eligible::from_subset)) binary-searches its
/// candidates instead, so nothing in it is sized to the cluster.
///
/// # Examples
///
/// ```
/// use adapt_dfs::placement::{ClusterView, Eligible, NodeView};
/// use adapt_dfs::{NodeAvailability, NodeId};
///
/// let view = ClusterView::new(
///     (0..6)
///         .map(|i| NodeView {
///             id: NodeId(i),
///             availability: NodeAvailability::reliable(),
///             alive: i != 1,
///             stored_blocks: 0,
///             capacity_blocks: None,
///             rack: 0,
///         })
///         .collect(),
/// );
/// let mut eligible = Eligible::from_fn(&view, |id| id.0 < 5);
/// eligible.set(NodeId(2), false);
/// assert_eq!(eligible.iter().collect::<Vec<_>>(), [NodeId(0), NodeId(3), NodeId(4)]);
/// assert_eq!(eligible.nth(1), Some(NodeId(3)));
/// assert!(!eligible.contains(NodeId(1))); // dead
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eligible {
    /// Candidate ids, ascending.
    ids: Vec<NodeId>,
    /// How a node's position in `ids` is found.
    index: Index,
    /// Whether each candidate is open, by position.
    open: Vec<bool>,
    /// Fenwick tree over `open`: `tree[i]` counts the open candidates at
    /// positions `i - lowbit(i) .. i` (1-based; `tree[0]` is unused).
    tree: Vec<usize>,
    /// Number of open candidates.
    len: usize,
}

/// How an [`Eligible`] set finds a node's position among its candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Index {
    /// Each cluster node's position, if it is a candidate: O(1).
    Dense(Vec<Option<usize>>),
    /// A binary search of the ascending candidates: O(log k).
    Sorted,
}

impl Eligible {
    /// The alive nodes of `cluster` for which `candidate` holds, all open.
    pub fn from_fn(cluster: &ClusterView, mut candidate: impl FnMut(NodeId) -> bool) -> Self {
        let mut slot = vec![None; cluster.len()];
        let mut ids = Vec::new();
        for (n, s) in cluster.nodes().iter().zip(&mut slot) {
            if n.alive && candidate(n.id) {
                *s = Some(ids.len());
                ids.push(n.id);
            }
        }
        Eligible::open_all(ids, Index::Dense(slot))
    }

    /// The alive nodes of `subset` for which `candidate` holds, all open.
    /// Ids outside `cluster` are never candidates.
    ///
    /// Building the set costs O(k) for an ascending subset of `k` nodes
    /// (O(k log k) otherwise), and nothing in it is sized to the cluster.
    pub fn from_subset(
        cluster: &ClusterView,
        subset: &[NodeId],
        mut candidate: impl FnMut(NodeId) -> bool,
    ) -> Self {
        let mut ids: Vec<NodeId> = subset
            .iter()
            .copied()
            .filter(|&id| cluster.node(id).is_some_and(|n| n.alive) && candidate(id))
            .collect();
        if !ids.is_sorted_by(|a, b| a < b) {
            ids.sort_unstable();
            ids.dedup();
        }
        Eligible::open_all(ids, Index::Sorted)
    }

    /// The set of candidates `ids` (ascending), every one open.
    fn open_all(ids: Vec<NodeId>, index: Index) -> Self {
        let len = ids.len();
        // Linear-time Fenwick build over all-ones: each node adds its own
        // count into its parent.
        let mut tree = vec![1; len + 1];
        tree[0] = 0;
        for i in 1..=len {
            let parent = i + (i & i.wrapping_neg());
            if parent <= len {
                tree[parent] += tree[i];
            }
        }
        Eligible {
            ids,
            index,
            open: vec![true; len],
            tree,
            len,
        }
    }

    /// Number of open nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no node is open.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is an open node (false for non-candidates and ids
    /// outside the cluster).
    pub fn contains(&self, id: NodeId) -> bool {
        self.position(id).is_some_and(|p| self.open[p])
    }

    /// The `k`-th open node in ascending id order (0-based), or `None` if
    /// `k >= len()`.
    pub fn nth(&self, k: usize) -> Option<NodeId> {
        if k >= self.len {
            return None;
        }
        // Descend the tree: `pos` is the longest prefix holding at most
        // `k` open nodes, so position `pos` (0-based) is the answer.
        let size = self.ids.len();
        let mut pos = 0;
        let mut rest = k;
        let mut step = 1 << size.ilog2();
        while step > 0 {
            let next = pos + step;
            if next <= size && self.tree[next] <= rest {
                pos = next;
                rest -= self.tree[next];
            }
            step >>= 1;
        }
        self.ids.get(pos).copied()
    }

    /// The open nodes in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids
            .iter()
            .zip(&self.open)
            .filter_map(|(&id, &open)| open.then_some(id))
    }

    /// Opens or closes `id`. Ignored for a node that is not a candidate.
    pub fn set(&mut self, id: NodeId, open: bool) {
        let Some(p) = self.position(id) else {
            return;
        };
        if self.open[p] == open {
            return;
        }
        self.open[p] = open;
        let mut i = p + 1;
        while i < self.tree.len() {
            if open {
                self.tree[i] += 1;
            } else {
                self.tree[i] -= 1;
            }
            i += i & i.wrapping_neg();
        }
        if open {
            self.len += 1;
        } else {
            self.len -= 1;
        }
    }

    fn position(&self, id: NodeId) -> Option<usize> {
        match &self.index {
            Index::Dense(slot) => slot.get(id.0 as usize).copied().flatten(),
            Index::Sorted => self.ids.binary_search(&id).ok(),
        }
    }
}

/// Draws a uniform index in `[0, n)` without modulo bias: values of the
/// `u64` stream at or above the largest multiple of `n` are redrawn.
pub fn uniform_index(rng: &mut dyn Rng, n: usize) -> usize {
    debug_assert!(n > 0);
    let n = n as u64;
    let zone = u64::MAX - (u64::MAX % n);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return (v % n) as usize;
        }
    }
}

/// The stock HDFS placement: uniformly random over eligible nodes.
///
/// # Examples
///
/// ```
/// use adapt_dfs::placement::{ClusterView, Eligible, NodeView, PlacementPolicy, RandomPolicy};
/// use adapt_dfs::{NodeAvailability, NodeId};
/// use rand::SeedableRng;
///
/// let view = ClusterView::new(
///     (0..4)
///         .map(|i| NodeView {
///             id: NodeId(i),
///             availability: NodeAvailability::reliable(),
///             alive: true,
///             stored_blocks: 0,
///             capacity_blocks: None,
///             rack: 0,
///         })
///         .collect(),
/// );
/// let mut policy = RandomPolicy::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let picked = policy
///     .select(&view, &Eligible::from_fn(&view, |_| true), &mut rng)
///     .unwrap();
/// assert!(picked.0 < 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomPolicy;

impl RandomPolicy {
    /// Creates the random policy.
    pub fn new() -> Self {
        RandomPolicy
    }
}

impl PlacementPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    fn select(
        &mut self,
        _cluster: &ClusterView,
        eligible: &Eligible,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        if eligible.is_empty() {
            return None;
        }
        eligible.nth(uniform_index(rng, eligible.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view(n: u32) -> ClusterView {
        ClusterView::new(
            (0..n)
                .map(|i| NodeView {
                    id: NodeId(i),
                    availability: NodeAvailability::reliable(),
                    alive: true,
                    stored_blocks: 0,
                    capacity_blocks: None,
                    rack: 0,
                })
                .collect(),
        )
    }

    fn all(v: &ClusterView) -> Eligible {
        Eligible::from_fn(v, |_| true)
    }

    #[test]
    fn cluster_view_accessors() {
        let v = view(4);
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(v.alive_count(), 4);
        assert_eq!(v.node(NodeId(2)).unwrap().id, NodeId(2));
        assert!(v.node(NodeId(9)).is_none());
    }

    #[test]
    fn cluster_view_rack_helpers() {
        // Unlabeled views are flat: everyone co-located.
        let flat = view(4);
        assert!(flat.same_rack(NodeId(0), NodeId(3)));

        // Modular labels, the whole-pipeline convention.
        let mut nodes: Vec<NodeView> = view(4).nodes().to_vec();
        for (i, n) in nodes.iter_mut().enumerate() {
            n.rack = (i % 2) as u32;
        }
        let v = ClusterView::new(nodes);
        assert_eq!(v.rack_of(NodeId(3)), 1);
        assert!(v.same_rack(NodeId(0), NodeId(2)));
        assert!(!v.same_rack(NodeId(0), NodeId(1)));
        // Unknown nodes default to rack 0.
        assert_eq!(v.rack_of(NodeId(42)), 0);
    }

    #[test]
    fn random_policy_respects_eligibility() {
        let v = view(8);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            let id = p
                .select(&v, &Eligible::from_fn(&v, |n| n.0 >= 4), &mut rng)
                .unwrap();
            assert!(id.0 >= 4);
        }
    }

    #[test]
    fn random_policy_skips_dead_nodes() {
        let mut nodes: Vec<NodeView> = view(4).nodes().to_vec();
        nodes[0].alive = false;
        nodes[1].alive = false;
        let v = ClusterView::new(nodes);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..32 {
            let id = p.select(&v, &all(&v), &mut rng).unwrap();
            assert!(id.0 >= 2);
        }
    }

    #[test]
    fn random_policy_returns_none_when_nothing_eligible() {
        let v = view(4);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(
            p.select(&v, &Eligible::from_fn(&v, |_| false), &mut rng),
            None
        );
    }

    #[test]
    fn random_policy_is_roughly_uniform() {
        let v = view(4);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 4];
        let trials = 40_000;
        for _ in 0..trials {
            let id = p.select(&v, &all(&v), &mut rng).unwrap();
            counts[id.0 as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / trials as f64;
            assert!(
                (frac - 0.25).abs() < 0.02,
                "node frequency {frac} deviates from uniform"
            );
        }
    }

    #[test]
    fn uniform_index_covers_range() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[uniform_index(&mut rng, 7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn eligible_agrees_with_a_sorted_vec(
            nodes in prop::collection::vec((0u8..4, 0u8..3), 0..160),
            ops in prop::collection::vec((0u32..180, 0u8..2), 0..240),
        ) {
            // Node i is dead when its first draw is 0 and outside the
            // subset when its second is 0; ops address ids past the end too.
            let v = ClusterView::new(
                nodes
                    .iter()
                    .enumerate()
                    .map(|(i, &(alive, _))| NodeView {
                        id: NodeId(i as u32),
                        availability: NodeAvailability::reliable(),
                        alive: alive != 0,
                        stored_blocks: 0,
                        capacity_blocks: None,
                        rack: 0,
                    })
                    .collect(),
            );
            let in_subset = |id: NodeId| nodes[id.0 as usize].1 != 0;
            let candidates: Vec<NodeId> = v
                .nodes()
                .iter()
                .filter(|n| n.alive && in_subset(n.id))
                .map(|n| n.id)
                .collect();
            // The same set built over the subset, listed in reverse and
            // twice over, with ids past the end of the cluster.
            let subset: Vec<NodeId> = (0..nodes.len() as u32 + 4)
                .rev()
                .map(NodeId)
                .filter(|id| nodes.get(id.0 as usize).is_none_or(|n| n.1 != 0))
                .flat_map(|id| [id, id])
                .collect();
            let mut sets = [
                Eligible::from_fn(&v, in_subset),
                Eligible::from_subset(&v, &subset, |_| true),
            ];
            let mut open = candidates.clone();
            let agree = |eligible: &Eligible, open: &[NodeId]| -> TestCaseResult {
                prop_assert_eq!(eligible.len(), open.len());
                prop_assert_eq!(eligible.is_empty(), open.is_empty());
                prop_assert_eq!(eligible.iter().collect::<Vec<_>>(), open.to_vec());
                for k in 0..=open.len() {
                    prop_assert_eq!(eligible.nth(k), open.get(k).copied());
                }
                for id in (0..180).map(NodeId) {
                    prop_assert_eq!(eligible.contains(id), open.binary_search(&id).is_ok());
                }
                Ok(())
            };
            for eligible in &sets {
                agree(eligible, &open)?;
            }
            for (id, flag) in ops {
                let id = NodeId(id);
                for eligible in &mut sets {
                    eligible.set(id, flag == 1);
                }
                if candidates.contains(&id) {
                    match (open.binary_search(&id), flag == 1) {
                        (Ok(p), false) => {
                            open.remove(p);
                        }
                        (Err(p), true) => open.insert(p, id),
                        _ => {}
                    }
                }
                for eligible in &sets {
                    agree(eligible, &open)?;
                }
            }
        }
    }

    #[test]
    fn policy_trait_is_object_safe() {
        let mut p: Box<dyn PlacementPolicy> = Box::new(RandomPolicy::new());
        assert_eq!(p.name(), "random");
        let mut rng = StdRng::seed_from_u64(6);
        let v = view(2);
        assert!(p.select(&v, &all(&v), &mut rng).is_some());
    }
}
