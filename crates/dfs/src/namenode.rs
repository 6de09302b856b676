//! The NameNode: centralized file/block/replica metadata and the
//! placement session.
//!
//! Mirrors the paper's description of HDFS 0.20.2: one NameNode holds all
//! metadata in memory; files are split into equal-sized blocks; each block
//! has `k` replicas on *distinct* DataNodes; placement is delegated to a
//! policy. The ADAPT-specific threshold of Section IV-C — no node may
//! receive more than `m(k+1)/n` blocks of one file — is enforced here so
//! that every policy competes under the same storage-fairness rule.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::block::{BlockId, FileId, NodeId};
use crate::cluster::{NodeAvailability, NodeSpec};
use crate::placement::{ClusterView, Eligible, NodeView, PlacementPolicy};
use crate::telemetry::NameNodeTelemetrySnapshot;
use crate::DfsError;
use adapt_metrics::MetricsHub;
use adapt_trace::{TraceEvent, TraceRecorder};
use rand::Rng;

/// Per-node block cap for one file's placement session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threshold {
    /// No cap: a policy may pile arbitrarily many blocks on one node.
    None,
    /// The paper's rule (Section IV-C): at most `⌈m(k+1)/n⌉` blocks of a
    /// file of `m` blocks with `k` replicas on an `n`-node cluster —
    /// "the data blocks allocated to each node do not exceed its expected
    /// number with one more replica".
    #[default]
    PaperDefault,
    /// An explicit per-node cap in blocks.
    Blocks(usize),
}

impl Threshold {
    /// The concrete cap for a session of `m` blocks, `k` replicas, `n`
    /// nodes, or `None` if uncapped.
    ///
    /// The paper's formula is rounded up and floored at 1 so that a valid
    /// placement always exists when `m·k ≤ cap·n`.
    pub fn cap(&self, m: usize, k: usize, n: usize) -> Option<usize> {
        match self {
            Threshold::None => None,
            Threshold::PaperDefault => {
                if n == 0 {
                    return Some(0);
                }
                Some(((m * (k + 1)).div_ceil(n)).max(1))
            }
            Threshold::Blocks(cap) => Some(*cap),
        }
    }
}

/// Metadata of one file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileMeta {
    name: String,
    replication: usize,
    blocks: Vec<BlockId>,
}

impl FileMeta {
    /// The file's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replication factor `k`.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The file's blocks, in order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }
}

/// Metadata of one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockMeta {
    file: FileId,
    index: usize,
    replicas: Vec<NodeId>,
}

impl BlockMeta {
    /// The file the block belongs to.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// The block's position within its file.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The nodes holding a replica, in placement order.
    pub fn replicas(&self) -> &[NodeId] {
        &self.replicas
    }
}

/// The nodes one placement session may place on, ascending.
enum Members {
    /// Every node of an `n`-node cluster; a node's index is its id.
    Cluster(usize),
    /// A validated subset of the cluster (ascending and distinct); a
    /// node's index is its position.
    Subset(Vec<NodeId>),
}

impl Members {
    /// Validates `allowed` as a subset of an `n`-node cluster in
    /// O(k log k). The error names the first member, in input order, that
    /// is out of range or repeats an earlier one.
    fn subset(allowed: &[NodeId], n: usize) -> Result<Members, DfsError> {
        let mut sorted: Vec<(NodeId, usize)> = allowed.iter().copied().zip(0..).collect();
        sorted.sort_unstable();
        // The second occurrence of each repeated id, and every id out of
        // range, are offending positions; report the earliest.
        let repeats = sorted
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| w[1].1);
        let out_of_range = sorted
            .iter()
            .filter(|(id, _)| id.0 as usize >= n)
            .map(|&(_, at)| at);
        if let Some(at) = repeats.chain(out_of_range).min() {
            let id = allowed[at];
            let reason = if id.0 as usize >= n {
                format!("node {} is outside the {n}-node cluster", id.0)
            } else {
                format!("node {} appears twice in the subset", id.0)
            };
            return Err(DfsError::InvalidArgument {
                name: "allowed",
                reason,
            });
        }
        Ok(Members::Subset(
            sorted.into_iter().map(|(id, _)| id).collect(),
        ))
    }

    fn len(&self) -> usize {
        match self {
            Members::Cluster(n) => *n,
            Members::Subset(ids) => ids.len(),
        }
    }

    /// The id of the member at `index`.
    fn id(&self, index: usize) -> NodeId {
        match self {
            Members::Cluster(_) => NodeId(index as u32),
            Members::Subset(ids) => ids[index],
        }
    }

    /// The index of member `id`, or `None` if `id` is not a member.
    fn index(&self, id: NodeId) -> Option<usize> {
        match self {
            Members::Cluster(n) => Some(id.0 as usize).filter(|&i| i < *n),
            Members::Subset(ids) => ids.binary_search(&id).ok(),
        }
    }

    /// The alive members of `view` for which `candidate` holds, all open.
    fn eligible(&self, view: &ClusterView, candidate: impl FnMut(NodeId) -> bool) -> Eligible {
        match self {
            Members::Cluster(_) => Eligible::from_fn(view, candidate),
            Members::Subset(ids) => Eligible::from_subset(view, ids, candidate),
        }
    }
}

/// The centralized metadata manager.
///
/// See the crate-level example for typical use.
#[derive(Debug, Clone)]
pub struct NameNode {
    /// Every node as placement sees it. Each call that changes a node's
    /// liveness, availability or stored blocks updates it, and each
    /// placement session borrows it instead of taking a snapshot.
    view: ClusterView,
    /// The blocks stored on each node, ascending. One vector per node:
    /// block ids grow as files are created, so placement appends, and a
    /// namespace of 10⁵ blocks frees in thousands of deallocations, not a
    /// B-tree node per dozen blocks.
    stored: Vec<Vec<BlockId>>,
    files: BTreeMap<FileId, FileMeta>,
    blocks: BTreeMap<BlockId, BlockMeta>,
    next_file: u64,
    next_block: u64,
    /// Placement counters; the rebalancer counts its moves here too.
    pub(crate) telemetry: NameNodeTelemetrySnapshot,
    trace: Option<TraceRecorder>,
    metrics: Option<MetricsHub>,
}

impl NameNode {
    /// Creates a NameNode managing the given DataNodes. `NodeId`s are
    /// assigned by position.
    pub fn new(specs: Vec<NodeSpec>) -> Self {
        let stored = vec![Vec::new(); specs.len()];
        let view = ClusterView::new(
            specs
                .into_iter()
                .enumerate()
                .map(|(i, spec)| NodeView {
                    id: NodeId(i as u32),
                    availability: spec.availability(),
                    alive: true,
                    stored_blocks: 0,
                    capacity_blocks: spec.capacity_blocks(),
                    rack: 0,
                })
                .collect(),
        );
        NameNode {
            view,
            stored,
            files: BTreeMap::new(),
            blocks: BTreeMap::new(),
            next_file: 0,
            next_block: 0,
            telemetry: NameNodeTelemetrySnapshot::default(),
            trace: None,
            metrics: None,
        }
    }

    /// Attaches a trace recorder: placement decisions (`BlockPlaced`,
    /// `BlockRebalanced`) are appended to it from now on. Hand the
    /// recorder back with [`take_trace`](NameNode::take_trace) so the
    /// simulator can continue the same sequence.
    pub fn attach_trace(&mut self, recorder: TraceRecorder) {
        self.trace = Some(recorder);
    }

    /// Detaches and returns the trace recorder, if one was attached.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trace.take()
    }

    /// Attaches a metrics hub: placement, rebalance, and replica
    /// maintenance counters are recorded into it from now on. Hand it
    /// back with [`take_metrics`](NameNode::take_metrics) so the
    /// simulation harness can continue the same scrape cadence.
    pub fn attach_metrics(&mut self, hub: MetricsHub) {
        self.metrics = Some(hub);
    }

    /// Detaches and returns the metrics hub, if one was attached.
    pub fn take_metrics(&mut self) -> Option<MetricsHub> {
        self.metrics.take()
    }

    /// Samples the replication state (block/replica totals, alive nodes,
    /// under-replicated blocks) into the attached metrics hub at sim time
    /// `t_us`, forcing a scrape so the sample lands even off-cadence.
    ///
    /// A no-op when no hub is attached.
    pub fn scrape_replication_state(&mut self, t_us: u64) {
        if self.metrics.is_none() {
            return;
        }
        let blocks = self.blocks.len() as u64;
        let replicas = self.total_stored() as u64;
        let alive = self.alive_count() as u64;
        let under = crate::replication::under_replicated(self).len() as u64;
        if let Some(hub) = self.metrics.as_mut() {
            hub.registry.set_gauge("dfs.blocks", blocks);
            hub.registry.set_gauge("dfs.replicas", replicas);
            hub.registry.set_gauge("dfs.alive_nodes", alive);
            hub.registry.set_gauge("dfs.under_replicated", under);
            hub.registry.force_scrape(t_us);
        }
    }

    /// A copy of the placement counters.
    pub fn telemetry_snapshot(&self) -> NameNodeTelemetrySnapshot {
        self.telemetry.clone()
    }

    /// Number of registered DataNodes.
    pub fn node_count(&self) -> usize {
        self.view.len()
    }

    /// Number of currently alive DataNodes.
    pub fn alive_count(&self) -> usize {
        self.view.alive_count()
    }

    /// The interruption parameters recorded for a node.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn availability(&self, node: NodeId) -> Result<NodeAvailability, DfsError> {
        Ok(self.entry(node)?.availability)
    }

    /// Updates a node's interruption parameters (the heartbeat-collector
    /// path feeding ADAPT's Performance Predictor).
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn set_availability(
        &mut self,
        node: NodeId,
        availability: NodeAvailability,
    ) -> Result<(), DfsError> {
        self.entry_mut(node)?.availability = availability;
        Ok(())
    }

    /// Marks a node as down (heartbeat timeout). Its blocks remain on
    /// persistent storage and become readable again when it returns.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn mark_down(&mut self, node: NodeId) -> Result<(), DfsError> {
        self.entry_mut(node)?.alive = false;
        Ok(())
    }

    /// Marks a node as alive again.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn mark_up(&mut self, node: NodeId) -> Result<(), DfsError> {
        self.entry_mut(node)?.alive = true;
        Ok(())
    }

    /// Whether a node is currently alive.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn is_alive(&self, node: NodeId) -> Result<bool, DfsError> {
        Ok(self.entry(node)?.alive)
    }

    /// A snapshot of the cluster as placement sessions see it.
    pub fn cluster_view(&self) -> ClusterView {
        self.view.clone()
    }

    /// Creates a file of `num_blocks` blocks with `replication` replicas
    /// each, placing every replica through `policy` under the given
    /// `threshold`.
    ///
    /// If the threshold makes a replica unplaceable the cap is relaxed for
    /// that replica (the paper's threshold "tunes" placement; it must not
    /// wedge ingestion), and if even the relaxed search fails the whole
    /// creation is rolled back.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::InvalidArgument`] for zero blocks/replicas or a
    /// replication factor exceeding the cluster size, and
    /// [`DfsError::InsufficientNodes`] if a replica cannot be placed on
    /// any alive node with free capacity.
    pub fn create_file(
        &mut self,
        name: &str,
        num_blocks: usize,
        replication: usize,
        policy: &mut dyn PlacementPolicy,
        threshold: Threshold,
        rng: &mut dyn Rng,
    ) -> Result<FileId, DfsError> {
        let members = Members::Cluster(self.view.len());
        self.create_file_inner(
            name,
            num_blocks,
            replication,
            policy,
            threshold,
            rng,
            &members,
        )
    }

    /// Like [`create_file`](NameNode::create_file) but every replica is
    /// restricted to the `allowed` node subset — the per-job block
    /// namespace a multi-job tracker carves out of the shared cluster.
    /// The threshold cap is computed over the subset size (the subset
    /// *is* the job's cluster). The policy still sees the whole cluster:
    /// ADAPT rejection-samples its whole-cluster table up to 64 times per
    /// replica, then falls back to weighted selection over the subset's
    /// open nodes.
    ///
    /// The session is sized to the subset, not the cluster: for `k`
    /// nodes in `allowed`, in any order, its setup costs O(k log k), each
    /// replica O(log k) beyond the policy's own draw, and it allocates
    /// nothing of the cluster's length. The policy's open nodes are the
    /// subset's in ascending id order, as for a whole-cluster session.
    ///
    /// # Errors
    ///
    /// Everything [`create_file`](NameNode::create_file) returns, plus
    /// [`DfsError::InvalidArgument`] for an empty subset, an
    /// out-of-range or repeated subset member (naming the first, in the
    /// order of `allowed`), or `replication` exceeding the subset size.
    #[expect(clippy::too_many_arguments, reason = "create_file plus a node subset")]
    pub fn create_file_on(
        &mut self,
        name: &str,
        num_blocks: usize,
        replication: usize,
        policy: &mut dyn PlacementPolicy,
        threshold: Threshold,
        rng: &mut dyn Rng,
        allowed: &[NodeId],
    ) -> Result<FileId, DfsError> {
        if allowed.is_empty() {
            return Err(DfsError::InvalidArgument {
                name: "allowed",
                reason: "node subset must not be empty".into(),
            });
        }
        let members = Members::subset(allowed, self.view.len())?;
        if replication > allowed.len() {
            return Err(DfsError::InvalidArgument {
                name: "replication",
                reason: format!(
                    "replication {replication} exceeds subset size {}",
                    allowed.len()
                ),
            });
        }
        self.create_file_inner(
            name,
            num_blocks,
            replication,
            policy,
            threshold,
            rng,
            &members,
        )
    }

    /// Shared placement loop behind [`create_file`](NameNode::create_file)
    /// and [`create_file_on`](NameNode::create_file_on). Its per-node
    /// state is indexed by member, so a subset session is sized to the
    /// subset.
    #[expect(clippy::too_many_arguments, reason = "both callers' arguments")]
    fn create_file_inner(
        &mut self,
        name: &str,
        num_blocks: usize,
        replication: usize,
        policy: &mut dyn PlacementPolicy,
        threshold: Threshold,
        rng: &mut dyn Rng,
        members: &Members,
    ) -> Result<FileId, DfsError> {
        if num_blocks == 0 {
            return Err(DfsError::InvalidArgument {
                name: "num_blocks",
                reason: "file must have at least one block".into(),
            });
        }
        if replication == 0 {
            return Err(DfsError::InvalidArgument {
                name: "replication",
                reason: "replication factor must be at least 1".into(),
            });
        }
        if replication > self.view.len() {
            return Err(DfsError::InvalidArgument {
                name: "replication",
                reason: format!(
                    "replication {replication} exceeds cluster size {}",
                    self.view.len()
                ),
            });
        }

        let policy_name = policy.name();
        let view = &self.view;
        policy.prepare(view, num_blocks)?;
        // The threshold cap spreads the file over the nodes it may
        // actually use: the subset when one is given, else the cluster.
        let cap = threshold.cap(num_blocks, replication, members.len());

        // Live per-member counts: stored blocks (capacity) and blocks of
        // this file placed so far (threshold).
        let nodes = view.nodes();
        let mut stored: Vec<usize> = (0..members.len())
            .map(|i| nodes[members.id(i).0 as usize].stored_blocks)
            .collect();
        let mut session: Vec<usize> = vec![0; members.len()];
        let capacity = |id: NodeId| nodes[id.0 as usize].capacity_blocks;
        let has_room =
            |i: usize, stored: &[usize]| capacity(members.id(i)).is_none_or(|c| stored[i] < c);
        let under_cap = |i: usize, session: &[usize]| cap.is_none_or(|c| session[i] < c);
        let index = |node: NodeId| {
            members
                .index(node)
                .ok_or_else(|| DfsError::InvalidArgument {
                    name: "policy",
                    reason: format!("{policy_name} chose {node}, which the session did not offer"),
                })
        };

        // The open nodes are those a replica of the current block may go
        // to: maintained incrementally, so a draw never scans the cluster.
        // No block of this file is placed yet, so every member is under
        // the cap unless the cap is zero.
        let mut eligible = members.eligible(view, |id| {
            capacity(id).is_none_or(|c| nodes[id.0 as usize].stored_blocks < c)
                && cap.is_none_or(|c| c > 0)
        });
        let mut placements: Vec<Vec<NodeId>> = Vec::with_capacity(num_blocks);
        for _ in 0..num_blocks {
            let mut replicas: Vec<NodeId> = Vec::with_capacity(replication);
            for _ in 0..replication {
                let chosen = match policy.select(view, &eligible, rng) {
                    Some(node) => Some(node),
                    // Threshold made placement impossible: relax it
                    // rather than fail ingestion.
                    None => {
                        self.telemetry.threshold_rejections += 1;
                        let relaxed = members.eligible(view, |id| {
                            !replicas.contains(&id)
                                && members.index(id).is_some_and(|i| has_room(i, &stored))
                        });
                        policy.select(view, &relaxed, rng)
                    }
                };
                match chosen {
                    Some(node) => {
                        let i = index(node)?;
                        stored[i] += 1;
                        session[i] += 1;
                        eligible.set(node, false);
                        replicas.push(node);
                    }
                    None => {
                        self.telemetry.placement_failures += 1;
                        return Err(DfsError::InsufficientNodes {
                            needed: replication,
                            eligible: replicas.len(),
                        });
                    }
                }
            }
            for &node in &replicas {
                let i = index(node)?;
                eligible.set(node, has_room(i, &stored) && under_cap(i, &session));
            }
            placements.push(replicas);
        }

        // Commit.
        self.telemetry.files_created += 1;
        self.telemetry.blocks_placed += num_blocks as u64;
        self.telemetry.replicas_placed += (num_blocks * replication) as u64;
        self.telemetry
            .session_max_per_node
            .record(session.iter().copied().max().unwrap_or(0) as u64);
        if let Some(hub) = self.metrics.as_mut() {
            hub.registry.incr("dfs.files_created", 1);
            hub.registry.incr("dfs.blocks_placed", num_blocks as u64);
            hub.registry
                .incr("dfs.replicas_placed", (num_blocks * replication) as u64);
            hub.profiler
                .add_placements((num_blocks * replication) as u64);
        }
        let file_id = FileId(self.next_file);
        self.next_file += 1;
        let mut block_ids = Vec::with_capacity(num_blocks);
        for (index, replicas) in placements.into_iter().enumerate() {
            let block_id = BlockId(self.next_block);
            self.next_block += 1;
            for &node in &replicas {
                // The new block's id is the largest yet, so it goes last.
                let list = &mut self.stored[node.0 as usize];
                if list.last() != Some(&block_id) {
                    list.push(block_id);
                }
                if let Some(recorder) = self.trace.as_mut() {
                    recorder.record(TraceEvent::BlockPlaced {
                        block: block_id.0,
                        node: node.0,
                    });
                }
            }
            self.blocks.insert(
                block_id,
                BlockMeta {
                    file: file_id,
                    index,
                    replicas,
                },
            );
            block_ids.push(block_id);
        }
        // Bring the view's counts in step once per member, not once per
        // replica: a pass over the members costs less than a scattered
        // write per replica.
        for i in 0..members.len() {
            let id = members.id(i);
            let count = self.stored[id.0 as usize].len();
            if let Some(view) = self.view.node_mut(id) {
                view.stored_blocks = count;
            }
        }
        self.files.insert(
            file_id,
            FileMeta {
                name: name.to_owned(),
                replication,
                blocks: block_ids,
            },
        );
        Ok(file_id)
    }

    /// Deletes a file and releases its blocks from every DataNode.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownFile`] for an unregistered file.
    pub fn delete_file(&mut self, file: FileId) -> Result<(), DfsError> {
        let meta = self
            .files
            .remove(&file)
            .ok_or(DfsError::UnknownFile(file))?;
        for block in meta.blocks {
            if let Some(bm) = self.blocks.remove(&block) {
                for node in bm.replicas {
                    self.unstore(node, block);
                }
            }
        }
        Ok(())
    }

    /// The metadata of a file.
    pub fn file(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(&id)
    }

    /// The metadata of a block.
    pub fn block(&self, id: BlockId) -> Option<&BlockMeta> {
        self.blocks.get(&id)
    }

    /// The replica locations of a block.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownBlock`] for an unregistered block.
    pub fn replicas(&self, block: BlockId) -> Result<&[NodeId], DfsError> {
        Ok(self
            .blocks
            .get(&block)
            .ok_or(DfsError::UnknownBlock(block))?
            .replicas())
    }

    /// Number of blocks stored on a node.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn node_block_count(&self, node: NodeId) -> Result<usize, DfsError> {
        Ok(self.entry(node)?.stored_blocks)
    }

    /// The blocks stored on a node, ascending.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownNode`] for an unregistered node.
    pub fn node_blocks(&self, node: NodeId) -> Result<&[BlockId], DfsError> {
        self.stored
            .get(node.0 as usize)
            .map(Vec::as_slice)
            .ok_or(DfsError::UnknownNode(node))
    }

    /// Per-node replica counts for one file (a length-`n` histogram).
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownFile`] for an unregistered file.
    pub fn file_distribution(&self, file: FileId) -> Result<Vec<usize>, DfsError> {
        let meta = self.files.get(&file).ok_or(DfsError::UnknownFile(file))?;
        let mut counts = vec![0usize; self.view.len()];
        for block in &meta.blocks {
            for node in self.blocks[block].replicas() {
                counts[node.0 as usize] += 1;
            }
        }
        Ok(counts)
    }

    /// Total replicas stored across the cluster.
    pub fn total_stored(&self) -> usize {
        self.stored.iter().map(Vec::len).sum()
    }

    /// Moves one replica of `block` from `from` to `to`, keeping metadata
    /// consistent. Used by the rebalancer.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownBlock`]/[`DfsError::UnknownNode`] for
    /// unregistered ids, and [`DfsError::InvalidArgument`] if `from` does
    /// not hold the block or `to` already does.
    pub fn move_replica(
        &mut self,
        block: BlockId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), DfsError> {
        if from.0 as usize >= self.view.len() {
            return Err(DfsError::UnknownNode(from));
        }
        if to.0 as usize >= self.view.len() {
            return Err(DfsError::UnknownNode(to));
        }
        let meta = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::UnknownBlock(block))?;
        let Some(pos) = meta.replicas.iter().position(|&r| r == from) else {
            return Err(DfsError::InvalidArgument {
                name: "from",
                reason: format!("{from} holds no replica of {block}"),
            });
        };
        if meta.replicas.contains(&to) {
            return Err(DfsError::InvalidArgument {
                name: "to",
                reason: format!("{to} already holds a replica of {block}"),
            });
        }
        meta.replicas[pos] = to;
        self.unstore(from, block);
        self.store(to, block);
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(TraceEvent::BlockRebalanced {
                block: block.0,
                from: from.0,
                to: to.0,
            });
        }
        if let Some(hub) = self.metrics.as_mut() {
            hub.registry.incr("dfs.rebalance_moves", 1);
            hub.profiler.add_placements(1);
        }
        Ok(())
    }

    /// Adds a replica of `block` on `node` (the re-replication path).
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownBlock`]/[`DfsError::UnknownNode`] for
    /// unregistered ids and [`DfsError::InvalidArgument`] if the node
    /// already holds the block or is at capacity.
    pub fn add_replica(&mut self, block: BlockId, node: NodeId) -> Result<(), DfsError> {
        let entry = self.entry(node)?;
        if entry
            .capacity_blocks
            .is_some_and(|c| entry.stored_blocks >= c)
        {
            return Err(DfsError::InvalidArgument {
                name: "node",
                reason: format!("{node} is at storage capacity"),
            });
        }
        let meta = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::UnknownBlock(block))?;
        if meta.replicas.contains(&node) {
            return Err(DfsError::InvalidArgument {
                name: "node",
                reason: format!("{node} already holds a replica of {block}"),
            });
        }
        meta.replicas.push(node);
        self.store(node, block);
        if let Some(hub) = self.metrics.as_mut() {
            hub.registry.incr("dfs.replicas_rereplicated", 1);
            hub.profiler.add_placements(1);
        }
        Ok(())
    }

    /// Removes the replica of `block` held by `node` (the trim path).
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::UnknownBlock`]/[`DfsError::UnknownNode`] for
    /// unregistered ids, [`DfsError::InvalidArgument`] if the node holds
    /// no replica or it is the block's last replica (metadata must never
    /// lose a block entirely).
    pub fn remove_replica(&mut self, block: BlockId, node: NodeId) -> Result<(), DfsError> {
        if node.0 as usize >= self.view.len() {
            return Err(DfsError::UnknownNode(node));
        }
        let meta = self
            .blocks
            .get_mut(&block)
            .ok_or(DfsError::UnknownBlock(block))?;
        let Some(pos) = meta.replicas.iter().position(|&r| r == node) else {
            return Err(DfsError::InvalidArgument {
                name: "node",
                reason: format!("{node} holds no replica of {block}"),
            });
        };
        if meta.replicas.len() == 1 {
            return Err(DfsError::InvalidArgument {
                name: "node",
                reason: format!("{node} holds the last replica of {block}"),
            });
        }
        meta.replicas.remove(pos);
        self.unstore(node, block);
        if let Some(hub) = self.metrics.as_mut() {
            hub.registry.incr("dfs.replicas_trimmed", 1);
        }
        Ok(())
    }

    /// Iterates over all files with their metadata, in id order.
    pub fn files(&self) -> impl Iterator<Item = (FileId, &FileMeta)> {
        self.files.iter().map(|(&id, meta)| (id, meta))
    }

    /// Checks every metadata invariant: replica distinctness, block↔node
    /// cross-references, file↔block membership, and capacity limits.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::CorruptMetadata`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), DfsError> {
        for (id, meta) in &self.blocks {
            let mut seen = BTreeSet::new();
            for node in meta.replicas() {
                if node.0 as usize >= self.view.len() {
                    return Err(DfsError::CorruptMetadata {
                        reason: format!("{id} references unregistered {node}"),
                    });
                }
                if !seen.insert(*node) {
                    return Err(DfsError::CorruptMetadata {
                        reason: format!("{id} has duplicate replica on {node}"),
                    });
                }
                if self.stored[node.0 as usize].binary_search(id).is_err() {
                    return Err(DfsError::CorruptMetadata {
                        reason: format!("{id} lists {node} but node does not store it"),
                    });
                }
            }
            if !self
                .files
                .get(&meta.file)
                .is_some_and(|f| f.blocks.contains(id))
            {
                return Err(DfsError::CorruptMetadata {
                    reason: format!("{id} references missing or inconsistent {}", meta.file),
                });
            }
        }
        for (i, (node, stored)) in self.view.nodes().iter().zip(&self.stored).enumerate() {
            if node.id != NodeId(i as u32) || node.stored_blocks != stored.len() {
                return Err(DfsError::CorruptMetadata {
                    reason: format!(
                        "node{i}'s view is {} holding {} blocks, but it stores {}",
                        node.id,
                        node.stored_blocks,
                        stored.len()
                    ),
                });
            }
            for block in stored {
                if !self
                    .blocks
                    .get(block)
                    .is_some_and(|b| b.replicas.contains(&NodeId(i as u32)))
                {
                    return Err(DfsError::CorruptMetadata {
                        reason: format!(
                            "node{i} stores {block} but block does not list it as replica"
                        ),
                    });
                }
            }
            if let Some(cap) = node.capacity_blocks {
                if stored.len() > cap {
                    return Err(DfsError::CorruptMetadata {
                        reason: format!(
                            "node{i} stores {} blocks above capacity {cap}",
                            stored.len()
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    fn entry(&self, node: NodeId) -> Result<&NodeView, DfsError> {
        self.view.node(node).ok_or(DfsError::UnknownNode(node))
    }

    fn entry_mut(&mut self, node: NodeId) -> Result<&mut NodeView, DfsError> {
        self.view.node_mut(node).ok_or(DfsError::UnknownNode(node))
    }

    /// Records `block` on `node` (a registered node), keeping the view's
    /// count in step.
    fn store(&mut self, node: NodeId, block: BlockId) {
        let i = node.0 as usize;
        if let Err(at) = self.stored[i].binary_search(&block) {
            self.stored[i].insert(at, block);
            if let Some(view) = self.view.node_mut(node) {
                view.stored_blocks += 1;
            }
        }
    }

    /// Removes `block` from `node` (a registered node), keeping the
    /// view's count in step.
    fn unstore(&mut self, node: NodeId, block: BlockId) {
        let i = node.0 as usize;
        if let Ok(at) = self.stored[i].binary_search(&block) {
            self.stored[i].remove(at);
            if let Some(view) = self.view.node_mut(node) {
                view.stored_blocks -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RandomPolicy;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reliable_cluster(n: usize) -> NameNode {
        NameNode::new(vec![NodeSpec::default(); n])
    }

    fn create(
        nn: &mut NameNode,
        blocks: usize,
        replication: usize,
        threshold: Threshold,
        seed: u64,
    ) -> FileId {
        let mut policy = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(seed);
        nn.create_file("f", blocks, replication, &mut policy, threshold, &mut rng)
            .unwrap()
    }

    #[test]
    fn threshold_cap_matches_paper_formula() {
        // m = 2560 blocks, k = 1 replica, n = 128 nodes: 2560*2/128 = 40.
        assert_eq!(Threshold::PaperDefault.cap(2_560, 1, 128), Some(40));
        // Rounds up: m = 10, k = 1, n = 3 -> ceil(20/3) = 7.
        assert_eq!(Threshold::PaperDefault.cap(10, 1, 3), Some(7));
        // Floors at 1.
        assert_eq!(Threshold::PaperDefault.cap(1, 0, 100), Some(1));
        assert_eq!(Threshold::None.cap(10, 1, 3), None);
        assert_eq!(Threshold::Blocks(5).cap(10, 1, 3), Some(5));
    }

    #[test]
    fn trace_records_placements_and_rebalances() {
        let mut nn = reliable_cluster(4);
        nn.attach_trace(TraceRecorder::new());
        let file = create(&mut nn, 6, 2, Threshold::None, 9);
        let block = nn.file(file).unwrap().blocks()[0];
        let from = nn.replicas(block).unwrap()[0];
        let to = (0..4)
            .map(NodeId)
            .find(|n| !nn.replicas(block).unwrap().contains(n))
            .unwrap();
        nn.move_replica(block, from, to).unwrap();
        let recorder = nn.take_trace().unwrap();
        assert!(nn.take_trace().is_none());
        let placed = recorder
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::BlockPlaced { .. }))
            .count();
        assert_eq!(placed, 12); // 6 blocks x 2 replicas
        assert_eq!(
            recorder.events().last(),
            Some(&TraceEvent::BlockRebalanced {
                block: block.0,
                from: from.0,
                to: to.0,
            })
        );
    }

    #[test]
    fn metrics_hub_counts_placements_and_scrapes_replication_state() {
        use adapt_metrics::SampleValue;
        let mut nn = reliable_cluster(4);
        nn.attach_metrics(MetricsHub::new(1_000_000));
        let file = create(&mut nn, 6, 2, Threshold::None, 9);
        let block = nn.file(file).unwrap().blocks()[0];
        let from = nn.replicas(block).unwrap()[0];
        let to = (0..4)
            .map(NodeId)
            .find(|n| !nn.replicas(block).unwrap().contains(n))
            .unwrap();
        nn.move_replica(block, from, to).unwrap();
        nn.mark_down(NodeId(0)).unwrap();
        // With target 2 and only node 0 down, a block is under-replicated
        // exactly when one of its replicas sits on node 0.
        let expected_under = nn
            .file(file)
            .unwrap()
            .blocks()
            .iter()
            .filter(|b| nn.replicas(**b).unwrap().contains(&NodeId(0)))
            .count() as u64;
        nn.scrape_replication_state(0);
        let hub = nn.take_metrics().unwrap();
        assert!(nn.take_metrics().is_none());
        let last = |name: &str| match hub.registry.series()[name].last().unwrap().value {
            SampleValue::U64(v) => v,
            SampleValue::F64(_) => panic!("expected integer sample for {name}"),
        };
        assert_eq!(last("dfs.files_created"), 1);
        assert_eq!(last("dfs.blocks_placed"), 6);
        assert_eq!(last("dfs.replicas_placed"), 12);
        assert_eq!(last("dfs.rebalance_moves"), 1);
        assert_eq!(last("dfs.blocks"), 6);
        assert_eq!(last("dfs.replicas"), 12);
        assert_eq!(last("dfs.alive_nodes"), 3);
        assert_eq!(last("dfs.under_replicated"), expected_under);
        // Placement work: 12 initial replicas + 1 rebalance move.
        assert_eq!(hub.profiler.to_spans()[0].counts.placements, 13);
    }

    #[test]
    fn create_file_places_all_blocks_and_replicas() {
        let mut nn = reliable_cluster(8);
        let file = create(&mut nn, 40, 2, Threshold::PaperDefault, 1);
        let meta = nn.file(file).unwrap();
        assert_eq!(meta.blocks().len(), 40);
        assert_eq!(meta.replication(), 2);
        assert_eq!(nn.total_stored(), 80);
        for block in meta.blocks() {
            assert_eq!(nn.replicas(*block).unwrap().len(), 2);
        }
        nn.validate().unwrap();
    }

    #[test]
    fn replicas_are_on_distinct_nodes() {
        let mut nn = reliable_cluster(4);
        let file = create(&mut nn, 30, 3, Threshold::None, 2);
        for block in nn.file(file).unwrap().blocks().to_vec() {
            let reps = nn.replicas(block).unwrap();
            let mut set: Vec<NodeId> = reps.to_vec();
            set.sort();
            set.dedup();
            assert_eq!(set.len(), reps.len());
        }
    }

    #[test]
    fn create_rejects_degenerate_arguments() {
        let mut nn = reliable_cluster(4);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(nn
            .create_file("f", 0, 1, &mut p, Threshold::None, &mut rng)
            .is_err());
        assert!(nn
            .create_file("f", 1, 0, &mut p, Threshold::None, &mut rng)
            .is_err());
        assert!(nn
            .create_file("f", 1, 5, &mut p, Threshold::None, &mut rng)
            .is_err());
    }

    #[test]
    fn create_file_on_confines_replicas_to_the_subset() {
        let mut nn = reliable_cluster(8);
        let allowed = [NodeId(1), NodeId(4), NodeId(6)];
        let mut policy = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(7);
        let file = nn
            .create_file_on(
                "job0",
                12,
                2,
                &mut policy,
                Threshold::None,
                &mut rng,
                &allowed,
            )
            .unwrap();
        for block in nn.file(file).unwrap().blocks().to_vec() {
            for replica in nn.replicas(block).unwrap() {
                assert!(allowed.contains(replica), "replica off-subset: {replica:?}");
            }
        }
        nn.validate().unwrap();
        // The rest of the cluster stayed empty.
        for id in [0u32, 2, 3, 5, 7] {
            assert_eq!(nn.node_block_count(NodeId(id)).unwrap(), 0);
        }
    }

    #[test]
    fn create_file_on_computes_the_threshold_over_the_subset() {
        let mut nn = reliable_cluster(64);
        let allowed: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut policy = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(3);
        // m=8, k=1 over a 4-node subset: cap = ceil(8*2/4) = 4 per node.
        let file = nn
            .create_file_on(
                "job1",
                8,
                1,
                &mut policy,
                Threshold::PaperDefault,
                &mut rng,
                &allowed,
            )
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        assert!(dist.iter().all(|&c| c <= 4), "{dist:?}");
        assert_eq!(dist.iter().sum::<usize>(), 8);
    }

    #[test]
    fn create_file_on_rejects_bad_subsets() {
        let mut nn = reliable_cluster(4);
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(0);
        // Empty subset.
        assert!(nn
            .create_file_on("f", 1, 1, &mut p, Threshold::None, &mut rng, &[])
            .is_err());
        // Out-of-range member.
        assert!(nn
            .create_file_on("f", 1, 1, &mut p, Threshold::None, &mut rng, &[NodeId(9)])
            .is_err());
        // The error names the first offending member in input order.
        for (allowed, reason) in [
            (&[3, 9, 3, 7][..], "node 9 is outside the 4-node cluster"),
            (&[3, 3, 9], "node 3 appears twice in the subset"),
            (&[2, 1, 2, 1], "node 2 appears twice in the subset"),
            (&[1, 2, 2, 1], "node 2 appears twice in the subset"),
            (&[9, 9], "node 9 is outside the 4-node cluster"),
            (&[0, 1, 9, 8], "node 9 is outside the 4-node cluster"),
        ] {
            let allowed: Vec<NodeId> = allowed.iter().map(|&i| NodeId(i)).collect();
            let err = nn
                .create_file_on("f", 1, 1, &mut p, Threshold::None, &mut rng, &allowed)
                .unwrap_err();
            assert_eq!(
                err,
                DfsError::InvalidArgument {
                    name: "allowed",
                    reason: reason.into()
                },
                "{allowed:?}"
            );
        }
        // Duplicate member.
        assert!(nn
            .create_file_on(
                "f",
                1,
                1,
                &mut p,
                Threshold::None,
                &mut rng,
                &[NodeId(1), NodeId(1)],
            )
            .is_err());
        // Replication exceeding the subset (but not the cluster).
        assert!(nn
            .create_file_on(
                "f",
                1,
                3,
                &mut p,
                Threshold::None,
                &mut rng,
                &[NodeId(0), NodeId(2)],
            )
            .is_err());
    }

    #[test]
    fn per_job_namespaces_create_and_delete_independently() {
        let mut nn = reliable_cluster(6);
        let mut policy = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(5);
        let a = nn
            .create_file_on(
                "job-a",
                5,
                1,
                &mut policy,
                Threshold::None,
                &mut rng,
                &[NodeId(0), NodeId(1), NodeId(2)],
            )
            .unwrap();
        let b = nn
            .create_file_on(
                "job-b",
                4,
                1,
                &mut policy,
                Threshold::None,
                &mut rng,
                &[NodeId(3), NodeId(4), NodeId(5)],
            )
            .unwrap();
        assert_eq!(nn.total_stored(), 9);
        nn.delete_file(a).unwrap();
        assert_eq!(nn.total_stored(), 4);
        assert!(nn.file(a).is_none());
        assert!(nn.file(b).is_some());
        // Job A's nodes are free again for a new tenant.
        let c = nn
            .create_file_on(
                "job-c",
                2,
                2,
                &mut policy,
                Threshold::None,
                &mut rng,
                &[NodeId(0), NodeId(1)],
            )
            .unwrap();
        assert_eq!(nn.file(c).unwrap().blocks().len(), 2);
        nn.validate().unwrap();
    }

    #[test]
    fn threshold_bounds_per_node_blocks() {
        let mut nn = reliable_cluster(16);
        // m = 160, k = 1, n = 16: cap = 20.
        let file = create(&mut nn, 160, 1, Threshold::PaperDefault, 3);
        let dist = nn.file_distribution(file).unwrap();
        for &c in &dist {
            assert!(c <= 20, "distribution {dist:?} violates threshold");
        }
    }

    #[test]
    fn threshold_relaxes_rather_than_wedging() {
        // Explicit cap 1 with m=8 blocks on 4 nodes: impossible under the
        // cap (needs 8 slots, cap gives 4); ingestion must still succeed.
        let mut nn = reliable_cluster(4);
        let file = create(&mut nn, 8, 1, Threshold::Blocks(1), 4);
        assert_eq!(nn.file(file).unwrap().blocks().len(), 8);
        nn.validate().unwrap();
    }

    #[test]
    fn capacity_limits_are_respected() {
        let mut nn = NameNode::new(vec![NodeSpec::default().with_capacity(6); 4]);
        let file = create(&mut nn, 10, 2, Threshold::None, 5);
        let dist = nn.file_distribution(file).unwrap();
        for &c in &dist {
            assert!(c <= 6, "distribution {dist:?} exceeds capacity");
        }
        nn.validate().unwrap();
        // A second file cannot fit: 24 slots total, 20 taken, 6 needed.
        let mut p = RandomPolicy::new();
        let mut rng = StdRng::seed_from_u64(6);
        let err = nn
            .create_file("g", 3, 2, &mut p, Threshold::None, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DfsError::InsufficientNodes { .. }));
        // The failed creation rolled back: storage unchanged, metadata valid.
        assert_eq!(nn.total_stored(), 20);
        nn.validate().unwrap();
        let _ = file;
    }

    #[test]
    fn dead_nodes_receive_no_replicas() {
        let mut nn = reliable_cluster(6);
        nn.mark_down(NodeId(0)).unwrap();
        nn.mark_down(NodeId(1)).unwrap();
        let file = create(&mut nn, 20, 2, Threshold::None, 7);
        let dist = nn.file_distribution(file).unwrap();
        assert_eq!(dist[0], 0);
        assert_eq!(dist[1], 0);
        assert!(nn.alive_count() == 4);
    }

    #[test]
    fn mark_up_restores_eligibility() {
        let mut nn = reliable_cluster(2);
        nn.mark_down(NodeId(0)).unwrap();
        nn.mark_up(NodeId(0)).unwrap();
        assert!(nn.is_alive(NodeId(0)).unwrap());
        let file = create(&mut nn, 10, 2, Threshold::None, 8);
        let dist = nn.file_distribution(file).unwrap();
        assert_eq!(dist[0], 10); // both nodes needed for 2 replicas
    }

    #[test]
    fn delete_file_releases_storage() {
        let mut nn = reliable_cluster(4);
        let file = create(&mut nn, 12, 2, Threshold::None, 9);
        assert_eq!(nn.total_stored(), 24);
        nn.delete_file(file).unwrap();
        assert_eq!(nn.total_stored(), 0);
        assert!(nn.file(file).is_none());
        nn.validate().unwrap();
        assert!(nn.delete_file(file).is_err());
    }

    #[test]
    fn move_replica_keeps_consistency() {
        let mut nn = reliable_cluster(4);
        let file = create(&mut nn, 1, 1, Threshold::None, 10);
        let block = nn.file(file).unwrap().blocks()[0];
        let from = nn.replicas(block).unwrap()[0];
        let to = NodeId((from.0 + 1) % 4);
        nn.move_replica(block, from, to).unwrap();
        assert_eq!(nn.replicas(block).unwrap(), &[to]);
        nn.validate().unwrap();
        // Moving from a node that no longer holds it fails.
        assert!(nn.move_replica(block, from, to).is_err());
        // Moving onto a node that already holds it fails.
        assert!(nn.move_replica(block, to, to).is_err());
    }

    #[test]
    fn set_availability_updates_view() {
        let mut nn = reliable_cluster(2);
        let avail = NodeAvailability::from_mtbi(10.0, 4.0).unwrap();
        nn.set_availability(NodeId(1), avail).unwrap();
        assert_eq!(nn.availability(NodeId(1)).unwrap(), avail);
        let view = nn.cluster_view();
        assert_eq!(view.node(NodeId(1)).unwrap().availability, avail);
        assert!(nn.set_availability(NodeId(9), avail).is_err());
    }

    #[test]
    fn unknown_ids_error() {
        let nn = reliable_cluster(1);
        assert!(nn.replicas(BlockId(99)).is_err());
        assert!(nn.node_block_count(NodeId(9)).is_err());
        assert!(nn.file_distribution(FileId(9)).is_err());
    }

    #[test]
    fn random_placement_is_roughly_balanced() {
        // The paper: random dispatch gives "balanced data distribution".
        let mut nn = reliable_cluster(16);
        let file = create(&mut nn, 16 * 100, 1, Threshold::None, 11);
        let dist = nn.file_distribution(file).unwrap();
        let mean = 100.0;
        for &c in &dist {
            assert!(
                (c as f64 - mean).abs() < 40.0,
                "distribution {dist:?} too skewed for random placement"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn metadata_invariants_hold_after_arbitrary_sessions(
            n in 2usize..12,
            files in prop::collection::vec((1usize..30, 1usize..3), 1..5),
            seed in 0u64..1000,
        ) {
            let mut nn = reliable_cluster(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut p = RandomPolicy::new();
            let mut created = Vec::new();
            for (blocks, reps) in files {
                let reps = reps.min(n);
                let f = nn.create_file("f", blocks, reps, &mut p, Threshold::PaperDefault, &mut rng).unwrap();
                created.push(f);
            }
            nn.validate().unwrap();
            // Delete every other file and re-validate.
            for (i, f) in created.iter().enumerate() {
                if i % 2 == 0 {
                    nn.delete_file(*f).unwrap();
                }
            }
            nn.validate().unwrap();
        }
    }
}
