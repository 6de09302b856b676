//! A perfectly balanced, availability-blind baseline: round-robin
//! placement.
//!
//! The stock random policy balances *in expectation*; round-robin
//! balances exactly. Comparing ADAPT against it in the ablation suite
//! separates two effects that random placement mixes together: the cost
//! of placement *variance* (random vs spread) and the cost of ignoring
//! *availability* (spread vs ADAPT).

#![expect(
    clippy::as_conversions,
    reason = "node index usize -> u32 narrowing is bounded by the cluster size validated at construction"
)]

use rand::Rng;

use adapt_dfs::placement::{ClusterView, Eligible, PlacementPolicy};
use adapt_dfs::{DfsError, NodeId};

/// Deterministic round-robin over eligible alive nodes.
///
/// The cursor persists across blocks of a session, producing an exactly
/// balanced distribution whenever every node stays eligible.
#[derive(Debug, Clone, Default)]
pub struct SpreadPolicy {
    cursor: usize,
}

impl SpreadPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        SpreadPolicy { cursor: 0 }
    }
}

impl PlacementPolicy for SpreadPolicy {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn prepare(&mut self, _cluster: &ClusterView, _num_blocks: usize) -> Result<(), DfsError> {
        self.cursor = 0;
        Ok(())
    }

    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &Eligible,
        _rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        let n = cluster.len();
        if n == 0 {
            return None;
        }
        for offset in 0..n {
            let idx = (self.cursor + offset) % n;
            let id = NodeId(idx as u32);
            if eligible.contains(id) {
                self.cursor = idx + 1;
                return Some(id);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::cluster::NodeSpec;
    use adapt_dfs::namenode::{NameNode, Threshold};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distribution_is_exactly_balanced() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 8]);
        let mut p = SpreadPolicy::new();
        let mut rng = StdRng::seed_from_u64(0);
        let file = nn
            .create_file("f", 64, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        assert_eq!(dist, vec![8; 8]);
        nn.validate().unwrap();
    }

    #[test]
    fn skips_dead_and_ineligible_nodes() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
        nn.mark_down(adapt_dfs::NodeId(1)).unwrap();
        let mut p = SpreadPolicy::new();
        let mut rng = StdRng::seed_from_u64(1);
        let file = nn
            .create_file("f", 9, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        assert_eq!(dist[1], 0);
        assert_eq!(dist.iter().sum::<usize>(), 9);
    }

    #[test]
    fn replicas_stay_distinct() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 5]);
        let mut p = SpreadPolicy::new();
        let mut rng = StdRng::seed_from_u64(2);
        let file = nn
            .create_file("f", 20, 3, &mut p, Threshold::None, &mut rng)
            .unwrap();
        for block in nn.file(file).unwrap().blocks().to_vec() {
            let mut reps = nn.replicas(block).unwrap().to_vec();
            reps.sort();
            reps.dedup();
            assert_eq!(reps.len(), 3);
        }
        nn.validate().unwrap();
    }

    #[test]
    fn returns_none_when_nothing_eligible() {
        let nn = NameNode::new(vec![NodeSpec::default(); 3]);
        let mut p = SpreadPolicy::new();
        let mut rng = StdRng::seed_from_u64(3);
        let view = nn.cluster_view();
        assert_eq!(
            p.select(&view, &Eligible::from_fn(&view, |_| false), &mut rng),
            None
        );
    }

    #[test]
    fn prepare_resets_the_cursor() {
        let nn = NameNode::new(vec![NodeSpec::default(); 3]);
        let mut p = SpreadPolicy::new();
        let mut rng = StdRng::seed_from_u64(4);
        let view = nn.cluster_view();
        let all = Eligible::from_fn(&view, |_| true);
        let first = p.select(&view, &all, &mut rng).unwrap();
        p.prepare(&view, 10).unwrap();
        let after_reset = p.select(&view, &all, &mut rng).unwrap();
        assert_eq!(first, after_reset);
    }
}
