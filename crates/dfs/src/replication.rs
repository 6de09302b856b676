//! Under-replication detection and re-replication — HDFS's replication
//! monitor.
//!
//! When a DataNode misses heartbeats long enough to be declared dead,
//! HDFS's NameNode re-creates the replicas it held on other nodes so
//! every block returns to its target replication factor. The paper leans
//! on this substrate behaviour implicitly (its multi-replica series
//! assume replication is *maintained*); this module reproduces it:
//! [`under_replicated`] finds blocks with fewer than `k` *alive*
//! replicas, and [`re_replicate`] places the missing copies through any
//! placement policy, preferring sources that are still alive.
//!
//! A non-dedicated twist, faithful to the paper's Section II: a host that
//! merely *left temporarily* keeps its blocks on persistent storage, so
//! re-replication here adds copies without deleting the offline ones —
//! when the host returns, the block is simply over-replicated (HDFS would
//! later trim it; the trimming side is exposed as
//! [`trim_over_replicated`]).

use rand::Rng;

use crate::block::{BlockId, NodeId};
use crate::namenode::{NameNode, Threshold};
use crate::placement::{Eligible, PlacementPolicy};
use crate::DfsError;

/// One block that currently has fewer alive replicas than its target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnderReplicated {
    /// The block.
    pub block: BlockId,
    /// Alive replicas right now.
    pub alive: usize,
    /// The file's replication target.
    pub target: usize,
}

/// Scans all metadata for blocks whose *alive* replica count is below
/// their file's replication factor, in block order.
pub fn under_replicated(namenode: &NameNode) -> Vec<UnderReplicated> {
    let mut out = Vec::new();
    for (file, meta) in namenode.files() {
        let target = meta.replication();
        for &block in meta.blocks() {
            let alive = namenode
                .block(block)
                .map(|b| {
                    b.replicas()
                        .iter()
                        .filter(|&&r| namenode.is_alive(r).unwrap_or(false))
                        .count()
                })
                .unwrap_or(0);
            if alive < target {
                out.push(UnderReplicated {
                    block,
                    alive,
                    target,
                });
            }
        }
        let _ = file;
    }
    out
}

/// Outcome of one re-replication pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicationReport {
    /// Blocks that were under-replicated at scan time.
    pub under_replicated: usize,
    /// New replicas created.
    pub created: usize,
    /// Replicas that could not be created (no eligible node, or no alive
    /// source to copy from).
    pub failed: usize,
}

/// Restores every under-replicated block toward its target by placing
/// new replicas through `policy`.
///
/// A new replica needs an alive *source* holding the block (data must be
/// copied from somewhere); blocks whose every replica is on dead nodes
/// are counted in [`ReplicationReport::failed`] and retried on a later
/// pass, exactly like HDFS's pending-replication queue.
///
/// # Errors
///
/// Returns an error only for metadata-level failures; placement
/// shortfalls are reported in the result, not as errors.
pub fn re_replicate(
    namenode: &mut NameNode,
    policy: &mut dyn PlacementPolicy,
    threshold: Threshold,
    rng: &mut dyn Rng,
) -> Result<ReplicationReport, DfsError> {
    let needy = under_replicated(namenode);
    let mut report = ReplicationReport {
        under_replicated: needy.len(),
        ..ReplicationReport::default()
    };
    if needy.is_empty() {
        return Ok(report);
    }

    let view = namenode.cluster_view();
    policy.prepare(&view, needy.len())?;
    let n = namenode.node_count();
    let cap = threshold.cap(needy.len(), 1, n);
    let mut session = vec![0usize; n];

    for item in needy {
        let replicas: Vec<NodeId> = namenode.replicas(item.block)?.to_vec();
        // Data must come from an alive holder.
        let has_source = replicas
            .iter()
            .any(|&r| namenode.is_alive(r).unwrap_or(false));
        if !has_source {
            report.failed += item.target - item.alive;
            continue;
        }
        for _ in item.alive..item.target {
            let current: Vec<NodeId> = namenode.replicas(item.block)?.to_vec();
            // `Eligible` keeps only the nodes the view shows alive, and no
            // node changes liveness during the pass.
            let base_eligible = |id: NodeId| {
                !current.contains(&id)
                    && view.node(id).is_some_and(|nv| {
                        nv.capacity_blocks
                            .is_none_or(|c| namenode.node_block_count(id).unwrap_or(c) < c)
                    })
            };
            let with_threshold =
                |id: NodeId| base_eligible(id) && cap.is_none_or(|c| session[id.0 as usize] < c);
            let chosen = policy
                .select(&view, &Eligible::from_fn(&view, with_threshold), rng)
                .or_else(|| policy.select(&view, &Eligible::from_fn(&view, base_eligible), rng));
            match chosen {
                Some(node) => {
                    namenode.add_replica(item.block, node)?;
                    session[node.0 as usize] += 1;
                    report.created += 1;
                }
                None => {
                    report.failed += 1;
                }
            }
        }
    }
    Ok(report)
}

/// Removes replicas beyond each file's target, preferring to drop copies
/// on *dead* nodes first (they are the stalest), then the highest node
/// id. Returns the number of replicas removed.
///
/// # Errors
///
/// Returns an error only for metadata-level failures.
pub fn trim_over_replicated(namenode: &mut NameNode) -> Result<usize, DfsError> {
    let mut removed = 0;
    let files: Vec<_> = namenode
        .files()
        .map(|(id, meta)| (id, meta.replication(), meta.blocks().to_vec()))
        .collect();
    for (_, target, blocks) in files {
        for block in blocks {
            loop {
                let replicas: Vec<NodeId> = namenode.replicas(block)?.to_vec();
                if replicas.len() <= target {
                    break;
                }
                // Drop a dead holder first, else the highest-id holder.
                // (`replicas.len() > target >= 0`, so a victim always
                // exists; an empty list simply ends the loop.)
                let Some(victim) = replicas
                    .iter()
                    .copied()
                    .find(|&r| !namenode.is_alive(r).unwrap_or(true))
                    .or_else(|| replicas.iter().copied().max())
                else {
                    break;
                };
                namenode.remove_replica(block, victim)?;
                removed += 1;
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use crate::placement::RandomPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cluster(n: usize) -> NameNode {
        NameNode::new(vec![NodeSpec::default(); n])
    }

    fn ingest(nn: &mut NameNode, blocks: usize, k: usize, seed: u64) -> crate::FileId {
        let mut rng = StdRng::seed_from_u64(seed);
        nn.create_file(
            "f",
            blocks,
            k,
            &mut RandomPolicy::new(),
            Threshold::None,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn healthy_cluster_has_no_under_replicated_blocks() {
        let mut nn = cluster(6);
        ingest(&mut nn, 30, 2, 1);
        assert!(under_replicated(&nn).is_empty());
    }

    #[test]
    fn dead_node_surfaces_its_blocks() {
        let mut nn = cluster(4);
        let file = ingest(&mut nn, 20, 2, 2);
        nn.mark_down(NodeId(0)).unwrap();
        let needy = under_replicated(&nn);
        let expected = nn.node_blocks(NodeId(0)).unwrap().len();
        assert_eq!(needy.len(), expected);
        for item in &needy {
            assert_eq!(item.alive, 1);
            assert_eq!(item.target, 2);
        }
        let _ = file;
    }

    #[test]
    fn re_replicate_restores_targets() {
        let mut nn = cluster(6);
        ingest(&mut nn, 30, 2, 3);
        nn.mark_down(NodeId(0)).unwrap();
        let before = under_replicated(&nn).len();
        assert!(before > 0);
        let mut rng = StdRng::seed_from_u64(4);
        let report =
            re_replicate(&mut nn, &mut RandomPolicy::new(), Threshold::None, &mut rng).unwrap();
        assert_eq!(report.under_replicated, before);
        assert_eq!(report.created, before);
        assert_eq!(report.failed, 0);
        assert!(under_replicated(&nn).is_empty());
        nn.validate().unwrap();
    }

    #[test]
    fn re_replication_does_not_remove_offline_copies() {
        // The paper: blocks survive on persistent storage. After the dead
        // node returns, its copies make blocks over-replicated.
        let mut nn = cluster(6);
        ingest(&mut nn, 10, 2, 5);
        nn.mark_down(NodeId(1)).unwrap();
        let dead_copies = nn.node_blocks(NodeId(1)).unwrap().len();
        let mut rng = StdRng::seed_from_u64(6);
        re_replicate(&mut nn, &mut RandomPolicy::new(), Threshold::None, &mut rng).unwrap();
        nn.mark_up(NodeId(1)).unwrap();
        // All its blocks now have 3 replicas for a target of 2.
        let trimmed = trim_over_replicated(&mut nn).unwrap();
        assert_eq!(trimmed, dead_copies);
        assert!(under_replicated(&nn).is_empty());
        nn.validate().unwrap();
    }

    #[test]
    fn sole_replica_on_dead_node_cannot_be_recovered_yet() {
        let mut nn = cluster(3);
        let file = ingest(&mut nn, 9, 1, 7);
        // Raise the target by treating k=1 ingest then kill a holder:
        // blocks whose only copy is on node 0 have no alive source.
        nn.mark_down(NodeId(0)).unwrap();
        let stranded = nn.node_blocks(NodeId(0)).unwrap().len();
        let mut rng = StdRng::seed_from_u64(8);
        let report =
            re_replicate(&mut nn, &mut RandomPolicy::new(), Threshold::None, &mut rng).unwrap();
        assert_eq!(report.under_replicated, stranded);
        assert_eq!(report.created, 0);
        assert_eq!(report.failed, stranded);
        // Node returns: the next pass succeeds.
        nn.mark_up(NodeId(0)).unwrap();
        assert!(under_replicated(&nn).is_empty(), "copies are alive again");
        let _ = file;
    }

    #[test]
    fn trim_prefers_dead_holders() {
        let mut nn = cluster(4);
        let file = ingest(&mut nn, 1, 2, 9);
        let block = nn.file(file).unwrap().blocks()[0];
        let holders = nn.replicas(block).unwrap().to_vec();
        // Add a third replica manually, then kill one ORIGINAL holder.
        let spare = (0..4).map(NodeId).find(|id| !holders.contains(id)).unwrap();
        nn.add_replica(block, spare).unwrap();
        nn.mark_down(holders[0]).unwrap();
        let removed = trim_over_replicated(&mut nn).unwrap();
        assert_eq!(removed, 1);
        let remaining = nn.replicas(block).unwrap();
        assert!(
            !remaining.contains(&holders[0]),
            "dead holder should be trimmed first: {remaining:?}"
        );
        nn.validate().unwrap();
    }

    #[test]
    fn empty_namenode_reports_nothing() {
        let mut nn = cluster(2);
        let mut rng = StdRng::seed_from_u64(10);
        let report =
            re_replicate(&mut nn, &mut RandomPolicy::new(), Threshold::None, &mut rng).unwrap();
        assert_eq!(report, ReplicationReport::default());
        assert_eq!(trim_over_replicated(&mut nn).unwrap(), 0);
    }
}
