//! Reducer-placement strategies.
//!
//! Map-input placement has one seam: the NameNode's
//! [`PlacementPolicy`](adapt_dfs::placement::PlacementPolicy), where
//! `adapt_core::AdaptPolicy` is the paper's Algorithm 1. This module
//! answers the JobTracker-level question of the reduce phase — "which
//! node should *run* this reduce task?" — given where the map outputs
//! landed.
//!
//! Every strategy here is **deterministic**: decisions are pure functions
//! of the [`ClusterView`] and the call arguments, with no RNG. That is
//! what lets the differential oracle in `adapt-verify` run the optimized
//! and reference reduce engines under each strategy and demand
//! bit-identical results.
//!
//! Three implementations mirror the repository's three placement camps:
//!
//! * [`NaiveStrategy`] — round-robin over alive nodes, availability- and
//!   rack-blind (the stock-Hadoop baseline).
//! * [`AdaptStrategy`] — reducers on the most reliable hosts first,
//!   ranked by equation-(5) completion rate.
//! * [`RackAwareStrategy`] — each reducer pulled toward the rack holding
//!   the plurality of its shuffle input, minimizing cross-rack bytes over
//!   the oversubscribed core.

use adapt_dfs::placement::ClusterView;
use adapt_dfs::NodeId;

use crate::SimError;

/// A deterministic reducer-placement strategy.
pub trait PlacementStrategy: std::fmt::Debug {
    /// Short strategy name used in reports (e.g. `"adapt"`, `"naive"`,
    /// `"rack-aware"`).
    fn name(&self) -> &'static str;

    /// Picks the host of reduce task `reducer` (of `reducers` total)
    /// given the map-output holders (`holders[t]` lists the nodes
    /// holding map task `t`'s output).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the view has no alive
    /// node or `reducer >= reducers`.
    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError>;
}

/// Ascending-id list of alive nodes, the shared candidate order.
fn alive_nodes(cluster: &ClusterView) -> Vec<NodeId> {
    cluster
        .nodes()
        .iter()
        .filter(|n| n.alive)
        .map(|n| n.id)
        .collect()
}

fn require_alive(cluster: &ClusterView) -> Result<Vec<NodeId>, SimError> {
    let alive = alive_nodes(cluster);
    if alive.is_empty() {
        return Err(SimError::InvalidConfig {
            name: "cluster",
            reason: "no alive node to place on".into(),
        });
    }
    Ok(alive)
}

fn validate_reduce_args(reducer: usize, reducers: usize) -> Result<(), SimError> {
    if reducer >= reducers {
        return Err(SimError::InvalidConfig {
            name: "reducer",
            reason: format!("reducer {reducer} out of range for {reducers} reducers"),
        });
    }
    Ok(())
}

/// Round-robin over alive nodes: availability- and rack-blind, the
/// stock-Hadoop baseline the paper compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NaiveStrategy;

impl NaiveStrategy {
    /// Creates the naive strategy.
    pub fn new() -> Self {
        NaiveStrategy
    }
}

impl PlacementStrategy for NaiveStrategy {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        _holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError> {
        validate_reduce_args(reducer, reducers)?;
        let alive = require_alive(cluster)?;
        Ok(alive[reducer % alive.len()])
    }
}

/// Availability-aware reducer placement: reduce task `r` runs on the
/// `r`-th most reliable alive host (wrapping past the last), ranked by
/// equation-(5) completion rate `γ / E[T] ∈ (0, 1]` (slowdown ascending;
/// a reliable host's rate is 1), ties to the lower node id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptStrategy {
    gamma: f64,
}

impl AdaptStrategy {
    /// Creates the strategy for tasks of failure-free length `gamma`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless `gamma` is finite and
    /// positive.
    pub fn new(gamma: f64) -> Result<Self, SimError> {
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "gamma",
                reason: format!("{gamma} must be finite and > 0"),
            });
        }
        Ok(AdaptStrategy { gamma })
    }

    /// Completion rate of one node: `γ / E[T]` from equation (5), or 0
    /// for a host whose recovery queue is unstable (ranked last).
    fn rate(&self, cluster: &ClusterView, id: NodeId) -> f64 {
        let Some(node) = cluster.node(id) else {
            return 0.0;
        };
        match node.availability.expected_completion(self.gamma) {
            Ok(expected) if expected > 0.0 => self.gamma / expected,
            _ => 0.0,
        }
    }

    /// Alive nodes ordered most-reliable first (rate descending, id
    /// ascending on ties). Each rate is evaluated once, then the
    /// `(rate, id)` pairs are sorted.
    fn by_reliability(&self, cluster: &ClusterView) -> Result<Vec<NodeId>, SimError> {
        let mut ranked: Vec<(f64, NodeId)> = require_alive(cluster)?
            .into_iter()
            .map(|id| (self.rate(cluster, id), id))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
        Ok(ranked.into_iter().map(|(_, id)| id).collect())
    }
}

impl PlacementStrategy for AdaptStrategy {
    fn name(&self) -> &'static str {
        "adapt"
    }

    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        _holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError> {
        validate_reduce_args(reducer, reducers)?;
        let ranked = self.by_reliability(cluster)?;
        Ok(ranked[reducer % ranked.len()])
    }
}

/// Rack-aware reducer placement: each reduce task runs inside the rack
/// holding the plurality of its shuffle input — cross-rack bytes over
/// the oversubscribed core are what this strategy minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RackAwareStrategy;

impl RackAwareStrategy {
    /// Creates the rack-aware strategy.
    pub fn new() -> Self {
        RackAwareStrategy
    }

    /// Ascending list of rack labels with at least one alive node.
    fn alive_racks(cluster: &ClusterView, alive: &[NodeId]) -> Vec<u32> {
        let mut racks: Vec<u32> = alive.iter().map(|&id| cluster.rack_of(id)).collect();
        racks.sort_unstable();
        racks.dedup();
        racks
    }
}

impl PlacementStrategy for RackAwareStrategy {
    fn name(&self) -> &'static str {
        "rack-aware"
    }

    fn place_reduce_task(
        &mut self,
        cluster: &ClusterView,
        holders: &[Vec<NodeId>],
        reducer: usize,
        reducers: usize,
    ) -> Result<NodeId, SimError> {
        validate_reduce_args(reducer, reducers)?;
        let alive = require_alive(cluster)?;
        let racks = Self::alive_racks(cluster, &alive);
        // One holder vote per map task: the first alive holder speaks
        // for the task's output (each map output has one primary copy).
        let mut votes = vec![0usize; racks.len()];
        for task_holders in holders {
            let Some(&h) = task_holders
                .iter()
                .find(|&&h| cluster.node(h).is_some_and(|n| n.alive))
            else {
                continue;
            };
            let rack = cluster.rack_of(h);
            if let Some(ri) = racks.iter().position(|&r| r == rack) {
                votes[ri] += 1;
            }
        }
        // Plurality rack; first (lowest-label) maximum wins. With no
        // votes at all (no alive holder anywhere) rack 0 of the list.
        let mut best = 0usize;
        for (ri, &v) in votes.iter().enumerate() {
            if v > votes[best] {
                best = ri;
            }
        }
        let rack_nodes: Vec<NodeId> = alive
            .iter()
            .copied()
            .filter(|&id| cluster.rack_of(id) == racks[best])
            .collect();
        // Spread this job's reducers over the chosen rack's members.
        Ok(rack_nodes[reducer % rack_nodes.len()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::cluster::NodeSpec;
    use adapt_dfs::placement::NodeView;
    use adapt_dfs::{NameNode, NodeAvailability};

    fn view(racks: u32, n: u32, volatile: &[u32], dead: &[u32]) -> ClusterView {
        ClusterView::new(
            (0..n)
                .map(|i| NodeView {
                    id: NodeId(i),
                    availability: if volatile.contains(&i) {
                        NodeAvailability::from_mtbi(20.0, 8.0).expect("valid availability")
                    } else {
                        NodeAvailability::reliable()
                    },
                    alive: !dead.contains(&i),
                    stored_blocks: 0,
                    capacity_blocks: None,
                    rack: i % racks,
                })
                .collect(),
        )
    }

    #[test]
    fn naive_round_robins_and_validates() {
        let v = view(1, 4, &[], &[]);
        let mut s = NaiveStrategy::new();
        let hosts: Vec<NodeId> = (0..8)
            .map(|r| s.place_reduce_task(&v, &[], r, 8).expect("places"))
            .collect();
        assert_eq!(hosts, [0, 1, 2, 3, 0, 1, 2, 3].map(NodeId));
        assert!(s.place_reduce_task(&v, &[], 3, 3).is_err());
        let empty = view(1, 2, &[], &[0, 1]);
        assert!(s.place_reduce_task(&empty, &[], 0, 1).is_err());
    }

    #[test]
    fn naive_skips_dead_nodes() {
        let v = view(1, 4, &[], &[1]);
        let mut s = NaiveStrategy::new();
        let hosts: Vec<NodeId> = (0..6)
            .map(|r| s.place_reduce_task(&v, &[], r, 6).expect("places"))
            .collect();
        assert_eq!(hosts, [0, 2, 3, 0, 2, 3].map(NodeId));
    }

    #[test]
    fn adapt_prefers_reliable_hosts() {
        // Node 1 is volatile: the reliable hosts come first, lowest id
        // first, and the volatile one last.
        let v = view(1, 3, &[1], &[]);
        let mut s = AdaptStrategy::new(12.0).expect("valid gamma");
        let hosts: Vec<NodeId> = (0..3)
            .map(|r| s.place_reduce_task(&v, &[], r, 3).expect("places"))
            .collect();
        assert_eq!(hosts, [0, 2, 1].map(NodeId));
        assert!(AdaptStrategy::new(0.0).is_err());
        assert!(s.place_reduce_task(&v, &[], 3, 3).is_err());
    }

    #[test]
    fn reliable_placement_picks_lowest_slowdown_hosts() {
        // Slowdowns E[T]/γ ordered like [3, 1, 1, 2]: the two reliable
        // hosts first (lower id on the tie), then node 3, then node 0.
        let gamma = 12.0;
        let availability = [
            NodeAvailability::from_mtbi(10.0, 8.0).expect("valid availability"),
            NodeAvailability::reliable(),
            NodeAvailability::reliable(),
            NodeAvailability::from_mtbi(40.0, 4.0).expect("valid availability"),
        ];
        let slowdown: Vec<f64> = availability
            .iter()
            .map(|a| a.expected_completion(gamma).expect("stable") / gamma)
            .collect();
        assert!(slowdown[0] > slowdown[3] && slowdown[3] > slowdown[1]);
        let specs = availability.iter().map(|&a| NodeSpec::new(a)).collect();
        let v = NameNode::new(specs).cluster_view();
        let mut s = AdaptStrategy::new(gamma).expect("valid gamma");
        let hosts: Vec<NodeId> = (0..4)
            .map(|r| s.place_reduce_task(&v, &[], r, 4).expect("places"))
            .collect();
        assert_eq!(hosts, [1, 2, 3, 0].map(NodeId));
    }

    #[test]
    fn rack_aware_reducer_follows_the_data() {
        let v = view(2, 4, &[], &[]);
        let mut s = RackAwareStrategy::new();
        // All map outputs on rack-0 members (nodes 0 and 2).
        let holders = vec![vec![NodeId(0)], vec![NodeId(2)], vec![NodeId(0)]];
        let host = s.place_reduce_task(&v, &holders, 0, 1).expect("places");
        assert_eq!(v.rack_of(host), 0);
        // Outputs on rack 1 pull the reducer there.
        let holders = vec![vec![NodeId(1)], vec![NodeId(3)], vec![NodeId(1)]];
        let host = s.place_reduce_task(&v, &holders, 0, 1).expect("places");
        assert_eq!(v.rack_of(host), 1);
        // Dead holders don't vote.
        let dead_heavy = view(2, 4, &[], &[1, 3]);
        let host = s
            .place_reduce_task(&dead_heavy, &holders, 0, 1)
            .expect("places");
        assert_eq!(dead_heavy.rack_of(host), 0);
    }

    #[test]
    fn strategies_are_deterministic() {
        let v = view(3, 9, &[4], &[2]);
        let holders = vec![vec![NodeId(0)], vec![NodeId(4)], vec![NodeId(8)]];
        let place_all = |s: &mut dyn PlacementStrategy| -> Vec<NodeId> {
            (0..12)
                .map(|r| s.place_reduce_task(&v, &holders, r, 12).expect("places"))
                .collect()
        };
        let mut a1 = AdaptStrategy::new(12.0).expect("valid gamma");
        let mut a2 = AdaptStrategy::new(12.0).expect("valid gamma");
        assert_eq!(place_all(&mut a1), place_all(&mut a2));
        let mut r1 = RackAwareStrategy::new();
        let mut r2 = RackAwareStrategy::new();
        assert_eq!(place_all(&mut r1), place_all(&mut r2));
    }

    #[test]
    fn trait_is_object_safe() {
        let v = view(1, 2, &[], &[]);
        let mut s: Box<dyn PlacementStrategy> = Box::new(NaiveStrategy::new());
        assert_eq!(s.name(), "naive");
        assert!(s.place_reduce_task(&v, &[], 0, 1).is_ok());
    }
}
