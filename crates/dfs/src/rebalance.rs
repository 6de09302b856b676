//! Re-placement of existing files — the paper's `adapt` shell command.
//!
//! The paper adds a Hadoop shell command `adapt <file>` that "redistributes
//! the data blocks of the file to become availability aware", analogous to
//! HDFS's native rebalancer. [`rebalance_file`] re-runs the placement
//! session for a file under a (typically different) policy and moves only
//! the replicas whose target differs from their current location,
//! reporting how much data had to travel.

use rand::Rng;

use crate::block::{FileId, NodeId};
use crate::namenode::{NameNode, Threshold};
use crate::placement::{Eligible, PlacementPolicy};
use crate::DfsError;

/// Outcome of one rebalance run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RebalanceReport {
    /// Blocks examined.
    pub blocks: usize,
    /// Replicas examined (`blocks × k`).
    pub replicas: usize,
    /// Replicas that had to move to a different node.
    pub moved: usize,
}

impl RebalanceReport {
    /// Fraction of replicas that moved, in `[0, 1]`.
    pub fn moved_fraction(&self) -> f64 {
        if self.replicas == 0 {
            0.0
        } else {
            self.moved as f64 / self.replicas as f64
        }
    }
}

/// Re-places every block of `file` through `policy`, keeping replicas that
/// already sit on a selected target node (minimal movement).
///
/// # Errors
///
/// Returns [`DfsError::UnknownFile`] for an unregistered file and
/// [`DfsError::InsufficientNodes`] if a replica has no eligible target.
///
/// # Examples
///
/// ```
/// use adapt_dfs::cluster::NodeSpec;
/// use adapt_dfs::namenode::{NameNode, Threshold};
/// use adapt_dfs::placement::RandomPolicy;
/// use adapt_dfs::rebalance::rebalance_file;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), adapt_dfs::DfsError> {
/// let mut nn = NameNode::new(vec![NodeSpec::default(); 8]);
/// let mut policy = RandomPolicy::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let file = nn.create_file("f", 32, 1, &mut policy, Threshold::None, &mut rng)?;
/// let report = rebalance_file(&mut nn, file, &mut policy, Threshold::None, &mut rng)?;
/// assert_eq!(report.blocks, 32);
/// nn.validate()?;
/// # Ok(())
/// # }
/// ```
pub fn rebalance_file(
    namenode: &mut NameNode,
    file: FileId,
    policy: &mut dyn PlacementPolicy,
    threshold: Threshold,
    rng: &mut dyn Rng,
) -> Result<RebalanceReport, DfsError> {
    let meta = namenode
        .file(file)
        .ok_or(DfsError::UnknownFile(file))?
        .clone();
    let num_blocks = meta.blocks().len();
    let replication = meta.replication();
    let n = namenode.node_count();

    let view = namenode.cluster_view();
    policy.prepare(&view, num_blocks)?;
    let cap = threshold.cap(num_blocks, replication, n);

    let mut session = vec![0usize; n];
    // Stored counts evolve as moves commit; start from live state.
    let mut stored: Vec<usize> = Vec::with_capacity(n);
    for i in 0..n {
        stored.push(namenode.node_block_count(NodeId(i as u32))?);
    }

    let mut report = RebalanceReport {
        blocks: num_blocks,
        replicas: num_blocks * replication,
        moved: 0,
    };

    for &block in meta.blocks() {
        let current: Vec<NodeId> = namenode.replicas(block)?.to_vec();
        // Select the target node set for this block.
        let mut targets: Vec<NodeId> = Vec::with_capacity(replication);
        for _ in 0..replication {
            let capacity_of = |id: NodeId| view.node(id).and_then(|nv| nv.capacity_blocks);
            let base_eligible = |id: NodeId| {
                let i = id.0 as usize;
                !targets.contains(&id)
                    // A node keeping its existing replica consumes no new
                    // capacity; only count capacity for true additions.
                    && (current.contains(&id)
                        || capacity_of(id).is_none_or(|c| stored[i] < c))
            };
            let with_threshold =
                |id: NodeId| base_eligible(id) && cap.is_none_or(|c| session[id.0 as usize] < c);
            let chosen = policy
                .select(&view, &Eligible::from_fn(&view, with_threshold), rng)
                .or_else(|| policy.select(&view, &Eligible::from_fn(&view, base_eligible), rng));
            match chosen {
                Some(node) => {
                    session[node.0 as usize] += 1;
                    targets.push(node);
                }
                None => {
                    return Err(DfsError::InsufficientNodes {
                        needed: replication,
                        eligible: targets.len(),
                    });
                }
            }
        }

        // Keep replicas already in place; move the rest pairwise.
        let keep: Vec<NodeId> = current
            .iter()
            .copied()
            .filter(|c| targets.contains(c))
            .collect();
        let from_list: Vec<NodeId> = current
            .iter()
            .copied()
            .filter(|c| !targets.contains(c))
            .collect();
        let to_list: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|t| !keep.contains(t))
            .collect();
        for (from, to) in from_list.into_iter().zip(to_list) {
            namenode.move_replica(block, from, to)?;
            stored[from.0 as usize] -= 1;
            stored[to.0 as usize] += 1;
            report.moved += 1;
            namenode.telemetry.rebalance_moves += 1;
        }
    }
    Ok(report)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use crate::placement::{ClusterView, RandomPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A policy that always targets node 0 (then 1, 2, ... for replica
    /// distinctness) — handy for forcing deterministic movement.
    #[derive(Debug)]
    struct PinToLowest;

    impl PlacementPolicy for PinToLowest {
        fn name(&self) -> &'static str {
            "pin-lowest"
        }

        fn select(
            &mut self,
            _cluster: &ClusterView,
            eligible: &Eligible,
            _rng: &mut dyn Rng,
        ) -> Option<NodeId> {
            eligible.nth(0)
        }
    }

    #[test]
    fn rebalance_unknown_file_errors() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 2]);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            rebalance_file(&mut nn, FileId(7), &mut p, Threshold::None, &mut rng),
            Err(DfsError::UnknownFile(_))
        ));
    }

    #[test]
    fn rebalance_to_same_policy_moves_little_or_nothing_when_pinned() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
        let mut pin = PinToLowest;
        let mut rng = StdRng::seed_from_u64(1);
        let file = nn
            .create_file("f", 10, 1, &mut pin, Threshold::None, &mut rng)
            .unwrap();
        // Everything already on node 0; re-running the same policy moves 0.
        let report = rebalance_file(&mut nn, file, &mut pin, Threshold::None, &mut rng).unwrap();
        assert_eq!(report.moved, 0);
        assert_eq!(report.blocks, 10);
        assert_eq!(report.moved_fraction(), 0.0);
        nn.validate().unwrap();
    }

    #[test]
    fn rebalance_moves_blocks_toward_new_policy() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
        let mut random = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(2);
        let file = nn
            .create_file("f", 40, 1, &mut random, Threshold::None, &mut rng)
            .unwrap();
        let mut pin = PinToLowest;
        let report = rebalance_file(&mut nn, file, &mut pin, Threshold::None, &mut rng).unwrap();
        // All blocks not already on node 0 must have moved there.
        let dist = nn.file_distribution(file).unwrap();
        assert_eq!(dist[0], 40, "distribution after pin rebalance: {dist:?}");
        assert!(report.moved > 0);
        assert!(report.moved_fraction() <= 1.0);
        nn.validate().unwrap();
    }

    #[test]
    fn rebalance_respects_threshold_via_session_caps() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
        let mut random = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(3);
        let file = nn
            .create_file("f", 40, 1, &mut random, Threshold::None, &mut rng)
            .unwrap();
        let mut pin = PinToLowest;
        // Cap 10: pinning everything to node 0 is blocked after 10 blocks;
        // the remainder spreads to nodes 1..3 in pin order.
        let _ = rebalance_file(&mut nn, file, &mut pin, Threshold::Blocks(10), &mut rng).unwrap();
        let dist = nn.file_distribution(file).unwrap();
        assert_eq!(dist, vec![10, 10, 10, 10]);
        nn.validate().unwrap();
    }

    #[test]
    fn rebalance_with_replication_keeps_distinct_replicas() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 6]);
        let mut random = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(4);
        let file = nn
            .create_file("f", 20, 2, &mut random, Threshold::None, &mut rng)
            .unwrap();
        let mut pin = PinToLowest;
        rebalance_file(&mut nn, file, &mut pin, Threshold::None, &mut rng).unwrap();
        for block in nn.file(file).unwrap().blocks().to_vec() {
            let reps = nn.replicas(block).unwrap();
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
        }
        nn.validate().unwrap();
    }

    #[test]
    fn moved_fraction_of_empty_report_is_zero() {
        assert_eq!(RebalanceReport::default().moved_fraction(), 0.0);
    }
}
