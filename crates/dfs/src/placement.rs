//! The placement-policy interface and the stock HDFS random policy.
//!
//! The NameNode delegates the "which node gets this replica?" decision to
//! a [`PlacementPolicy`]. The stock behaviour the paper describes — "the
//! NameNode generates a random integer `r (0 ≤ r < n)` and selects the
//! corresponding data node with index `r` to hold the block" — is
//! [`RandomPolicy`]. The ADAPT policy (and the naive availability-
//! proportional baseline) implement the same trait in the `adapt-core`
//! crate, which is what makes ADAPT "an add-on feature … enabled/disabled
//! flexibly".

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

    /// Selects a node for the next replica among those for which
    /// `eligible` returns `true`, or `None` if no eligible node can be
    /// chosen.
    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &dyn Fn(NodeId) -> bool,
        rng: &mut dyn Rng,
    ) -> Option<NodeId>;
}

/// Draws a uniform index in `[0, n)` without modulo bias.
pub(crate) fn uniform_index(rng: &mut dyn Rng, n: usize) -> usize {
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
/// use adapt_dfs::placement::{ClusterView, NodeView, PlacementPolicy, RandomPolicy};
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
/// let picked = policy.select(&view, &|_| true, &mut rng).unwrap();
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
        cluster: &ClusterView,
        eligible: &dyn Fn(NodeId) -> bool,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        let candidates: Vec<NodeId> = cluster
            .nodes()
            .iter()
            .filter(|n| n.alive && eligible(n.id))
            .map(|n| n.id)
            .collect();
        if candidates.is_empty() {
            None
        } else {
            Some(candidates[uniform_index(rng, candidates.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let id = p.select(&v, &|n| n.0 >= 4, &mut rng).unwrap();
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
            let id = p.select(&v, &|_| true, &mut rng).unwrap();
            assert!(id.0 >= 2);
        }
    }

    #[test]
    fn random_policy_returns_none_when_nothing_eligible() {
        let v = view(4);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(p.select(&v, &|_| false, &mut rng), None);
    }

    #[test]
    fn random_policy_is_roughly_uniform() {
        let v = view(4);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 4];
        let trials = 40_000;
        for _ in 0..trials {
            let id = p.select(&v, &|_| true, &mut rng).unwrap();
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

    #[test]
    fn policy_trait_is_object_safe() {
        let mut p: Box<dyn PlacementPolicy> = Box::new(RandomPolicy::new());
        assert_eq!(p.name(), "random");
        let mut rng = StdRng::seed_from_u64(6);
        assert!(p.select(&view(2), &|_| true, &mut rng).is_some());
    }
}
