//! Lockstep check of the NameNode placement session against the session
//! it replaced.
//!
//! The session keeps an [`Eligible`](adapt_dfs::placement::Eligible) set
//! up to date and each policy draws from it. The reference below is the
//! earlier session: eligibility as a predicate over node ids, and every
//! policy, prepared afresh for the session, scanning the whole cluster
//! view with it on each replica. Both must choose the same nodes, count
//! the same threshold relaxations, fail the same way, and leave the RNG
//! at the same next draw. The second test keeps one policy of each kind
//! across a sequence of sessions while nodes go down, come back, change
//! availability and lose files, so a policy that reuses state from an
//! earlier session must still place as a fresh one does.

use adapt_availability::dist::uniform_open01;
use adapt_core::{AdaptPolicy, ChainWeighting, NaivePolicy, PlacementHashTable, SpreadPolicy};
use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_dfs::placement::{uniform_index, ClusterView, PlacementPolicy, RandomPolicy};
use adapt_dfs::{DfsError, FileId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A policy as it selected when eligibility was a predicate.
enum Reference {
    Random,
    Naive(Vec<f64>),
    Adapt {
        table: PlacementHashTable,
        rates: Vec<f64>,
    },
    Spread {
        cursor: usize,
    },
}

impl Reference {
    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: impl Fn(NodeId) -> bool,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        match self {
            Reference::Random => {
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
            Reference::Naive(weights) => weighted_scan(cluster, weights, &eligible, rng),
            Reference::Adapt { table, rates } => {
                for _ in 0..64 {
                    let node = NodeId(table.sample(rng) as u32);
                    if cluster.node(node).is_some_and(|n| n.alive) && eligible(node) {
                        return Some(node);
                    }
                }
                weighted_scan(cluster, rates, &eligible, rng)
            }
            Reference::Spread { cursor } => {
                let n = cluster.len();
                for offset in 0..n {
                    let idx = (*cursor + offset) % n;
                    let id = NodeId(idx as u32);
                    if cluster.node(id).is_some_and(|nv| nv.alive) && eligible(id) {
                        *cursor = idx + 1;
                        return Some(id);
                    }
                }
                None
            }
        }
    }
}

/// Weighted selection over every alive node passing `eligible`.
fn weighted_scan(
    cluster: &ClusterView,
    weights: &[f64],
    eligible: &impl Fn(NodeId) -> bool,
    rng: &mut dyn Rng,
) -> Option<NodeId> {
    let candidates: Vec<(NodeId, f64)> = cluster
        .nodes()
        .iter()
        .filter(|n| n.alive && eligible(n.id))
        .map(|n| {
            let w = weights
                .get(n.id.0 as usize)
                .copied()
                .filter(|w| w.is_finite() && *w > 0.0)
                .unwrap_or(0.0);
            (n.id, w)
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let total: f64 = candidates.iter().map(|(_, w)| w).sum();
    if total <= 0.0 {
        let idx = (rng.next_u64() % candidates.len() as u64) as usize;
        return Some(candidates[idx].0);
    }
    let draw = uniform_open01(rng) * total;
    let mut acc = 0.0;
    for (id, w) in &candidates {
        acc += w;
        if draw < acc {
            return Some(*id);
        }
    }
    candidates.last().map(|(id, _)| *id)
}

/// What one placement session produced.
#[derive(Debug, PartialEq)]
struct Session {
    placements: Result<Vec<Vec<NodeId>>, DfsError>,
    relaxed: u64,
}

/// The earlier `create_file_inner` placement loop, over a cluster view.
fn reference_session(
    view: &ClusterView,
    num_blocks: usize,
    replication: usize,
    policy: &mut Reference,
    threshold: Threshold,
    rng: &mut dyn Rng,
    allowed: Option<&[NodeId]>,
) -> Session {
    let n = view.len();
    let member = allowed.map(|a| {
        let mut m = vec![false; n];
        for id in a {
            m[id.0 as usize] = true;
        }
        m
    });
    let span = allowed.map_or(n, <[NodeId]>::len);
    let cap = threshold.cap(num_blocks, replication, span);
    let mut stored: Vec<usize> = view.nodes().iter().map(|v| v.stored_blocks).collect();
    let mut session = vec![0usize; n];
    let mut relaxed = 0;
    let mut placements = Vec::with_capacity(num_blocks);
    for _ in 0..num_blocks {
        let mut replicas: Vec<NodeId> = Vec::with_capacity(replication);
        for _ in 0..replication {
            let chosen = {
                let base = |id: NodeId| {
                    let i = id.0 as usize;
                    let v = &view.nodes()[i];
                    member.as_ref().is_none_or(|m| m[i])
                        && v.alive
                        && !replicas.contains(&id)
                        && v.capacity_blocks.is_none_or(|c| stored[i] < c)
                };
                let with_threshold =
                    |id: NodeId| base(id) && cap.is_none_or(|c| session[id.0 as usize] < c);
                match policy.select(view, with_threshold, rng) {
                    Some(node) => Some(node),
                    None => {
                        relaxed += 1;
                        policy.select(view, base, rng)
                    }
                }
            };
            let Some(node) = chosen else {
                return Session {
                    placements: Err(DfsError::InsufficientNodes {
                        needed: replication,
                        eligible: replicas.len(),
                    }),
                    relaxed,
                };
            };
            stored[node.0 as usize] += 1;
            session[node.0 as usize] += 1;
            replicas.push(node);
        }
        placements.push(replicas);
    }
    Session {
        placements: Ok(placements),
        relaxed,
    }
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Random,
    Naive,
    Adapt(ChainWeighting),
    Spread,
}

const KINDS: [Kind; 5] = [
    Kind::Random,
    Kind::Naive,
    Kind::Adapt(ChainWeighting::Rate),
    Kind::Adapt(ChainWeighting::Overlap),
    Kind::Spread,
];

/// A fresh policy of `kind`.
fn fresh(kind: Kind) -> Box<dyn PlacementPolicy> {
    match kind {
        Kind::Random => Box::new(RandomPolicy::new()),
        Kind::Naive => Box::new(NaivePolicy::new()),
        Kind::Adapt(weighting) => {
            Box::new(AdaptPolicy::new(12.0).unwrap().with_weighting(weighting))
        }
        Kind::Spread => Box::new(SpreadPolicy::new()),
    }
}

/// The reference of `kind`, prepared on `view` the way a fresh policy is
/// prepared for a session of `num_blocks` blocks (`None` if `prepare`
/// fails).
fn reference(kind: Kind, view: &ClusterView, num_blocks: usize) -> Option<Reference> {
    match kind {
        Kind::Random => Some(Reference::Random),
        Kind::Naive => {
            let mut p = NaivePolicy::new();
            p.prepare(view, num_blocks).ok().map(|()| {
                let weights = view.nodes().iter().map(|n| {
                    let rho = n.availability.lambda * n.availability.mu;
                    if n.alive {
                        (1.0 - rho).max(0.0)
                    } else {
                        0.0
                    }
                });
                Reference::Naive(weights.collect())
            })
        }
        Kind::Adapt(weighting) => {
            let mut p = AdaptPolicy::new(12.0).unwrap().with_weighting(weighting);
            p.prepare(view, num_blocks).ok().map(|()| Reference::Adapt {
                table: p.table().unwrap().clone(),
                rates: p.rates().unwrap().rates().to_vec(),
            })
        }
        Kind::Spread => Some(Reference::Spread { cursor: 0 }),
    }
}

fn placements_of(nn: &NameNode, file: FileId) -> Vec<Vec<NodeId>> {
    nn.file(file)
        .unwrap()
        .blocks()
        .iter()
        .map(|&b| nn.replicas(b).unwrap().to_vec())
        .collect()
}

/// A random cluster: mixed availability (a few unstable nodes), some
/// capacity-limited nodes, some dead, and a first file already stored.
fn cluster(rng: &mut StdRng) -> NameNode {
    let n = 2 + uniform_index(rng, 40);
    let specs: Vec<NodeSpec> = (0..n)
        .map(|_| {
            let availability = match uniform_index(rng, 6) {
                0 | 1 => NodeAvailability::reliable(),
                2 => NodeAvailability::from_mtbi(4.0, 8.0).unwrap(), // unstable: rate 0
                k => NodeAvailability::from_mtbi(10.0 * k as f64, 1.0 + k as f64).unwrap(),
            };
            let spec = NodeSpec::new(availability);
            if uniform_index(rng, 3) == 0 {
                spec.with_capacity(1 + uniform_index(rng, 8))
            } else {
                spec
            }
        })
        .collect();
    let mut nn = NameNode::new(specs);
    for i in 0..n {
        if uniform_index(rng, 5) == 0 {
            nn.mark_down(NodeId(i as u32)).unwrap();
        }
    }
    // May fail for lack of room; a failed creation leaves no trace.
    let _ = nn.create_file(
        "prefill",
        1 + uniform_index(rng, 2 * n),
        1,
        &mut RandomPolicy::new(),
        Threshold::None,
        rng,
    );
    nn
}

/// One session's parameters.
struct Params {
    num_blocks: usize,
    replication: usize,
    threshold: Threshold,
    subset: Option<Vec<NodeId>>,
    seed: u64,
}

/// A threshold of each kind, the paper's among them.
fn threshold(rng: &mut StdRng) -> Threshold {
    match uniform_index(rng, 4) {
        0 => Threshold::None,
        1 => Threshold::PaperDefault,
        2 => Threshold::Blocks(1),
        _ => Threshold::Blocks(1 + uniform_index(rng, 4)),
    }
}

/// Half the time, an unsorted subset of at least `replication` distinct
/// nodes of an `n`-node cluster.
fn subset(rng: &mut StdRng, n: usize, replication: usize) -> Option<Vec<NodeId>> {
    (uniform_index(rng, 2) == 0).then(|| {
        let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        for i in (1..n).rev() {
            ids.swap(i, uniform_index(rng, i + 1));
        }
        ids.truncate(replication + uniform_index(rng, n - replication + 1));
        ids
    })
}

/// Runs one session with `policy` on `nn` and its reference, prepared
/// afresh, on the same cluster view; asserts they agree and returns the
/// session with the file created, if any, or `None` if the reference
/// could not be prepared (the session must then fail).
fn compare(
    nn: &mut NameNode,
    kind: Kind,
    policy: &mut dyn PlacementPolicy,
    p: &Params,
    what: &str,
) -> Option<(Session, Option<FileId>)> {
    let view = nn.cluster_view();
    let reference = reference(kind, &view, p.num_blocks);
    let mut real_rng = StdRng::seed_from_u64(p.seed);
    let before = nn.telemetry_snapshot().threshold_rejections;
    let created = match &p.subset {
        Some(allowed) => nn.create_file_on(
            "f",
            p.num_blocks,
            p.replication,
            policy,
            p.threshold,
            &mut real_rng,
            allowed,
        ),
        None => nn.create_file(
            "f",
            p.num_blocks,
            p.replication,
            policy,
            p.threshold,
            &mut real_rng,
        ),
    };
    let what = format!(
        "{what} ({kind:?}), {:?}, subset {:?}",
        p.threshold, p.subset
    );
    let Some(mut reference) = reference else {
        assert!(
            created.is_err(),
            "{what}: prepare failed only in the reference"
        );
        return None;
    };
    let mut ref_rng = StdRng::seed_from_u64(p.seed);
    let expected = reference_session(
        &view,
        p.num_blocks,
        p.replication,
        &mut reference,
        p.threshold,
        &mut ref_rng,
        p.subset.as_deref(),
    );
    let file = created.as_ref().ok().copied();
    let got = Session {
        placements: created.map(|f| placements_of(nn, f)),
        relaxed: nn.telemetry_snapshot().threshold_rejections - before,
    };
    assert_eq!(got, expected, "{what}");
    assert_eq!(
        real_rng.next_u64(),
        ref_rng.next_u64(),
        "{what}: RNG diverged"
    );
    nn.validate().unwrap();
    Some((got, file))
}

#[test]
fn eligible_sessions_match_the_predicate_scan() {
    let mut rng = StdRng::seed_from_u64(2012);
    let (mut sessions, mut relaxed, mut failed, mut subsets) = (0, 0, 0, 0);
    for case in 0..120 {
        let mut nn = cluster(&mut rng);
        let n = nn.node_count();
        for (k, &kind) in KINDS.iter().enumerate() {
            let num_blocks = 1 + uniform_index(&mut rng, 60);
            let replication = 1 + uniform_index(&mut rng, n.min(3));
            let threshold = threshold(&mut rng);
            let subset = subset(&mut rng, n, replication);
            let params = Params {
                num_blocks,
                replication,
                threshold,
                subset,
                seed: rng.next_u64(),
            };
            let what = format!("case {case}, policy {k}");
            let Some((got, _)) = compare(&mut nn, kind, fresh(kind).as_mut(), &params, &what)
            else {
                continue;
            };
            sessions += 1;
            relaxed += got.relaxed;
            failed += u64::from(got.placements.is_err());
            subsets += u64::from(params.subset.is_some());
        }
    }
    // The cases reach every path: relaxation, failure, and subsets.
    assert!(sessions > 400, "{sessions} sessions compared");
    assert!(
        relaxed > 0 && failed > 0 && subsets > 0,
        "{relaxed} {failed} {subsets}"
    );
}

#[test]
fn kept_policies_place_as_fresh_ones_across_sessions() {
    let mut rng = StdRng::seed_from_u64(2013);
    let (mut sessions, mut repeated, mut sorted, mut unsorted) = (0, 0, 0, 0);
    let mut changes = [0u32; 5];
    for case in 0..40 {
        let mut nn = cluster(&mut rng);
        let n = nn.node_count();
        let mut kept: Vec<Box<dyn PlacementPolicy>> = KINDS.iter().map(|&k| fresh(k)).collect();
        let mut sizes: Vec<usize> = Vec::new();
        let mut files: Vec<FileId> = Vec::new();
        for step in 0..24 {
            // Change the cluster between sessions; a change may leave a
            // node as it was (down again, or the same availability).
            let node = NodeId(uniform_index(&mut rng, n) as u32);
            let change = uniform_index(&mut rng, 8);
            match change {
                0 => nn.mark_down(node).unwrap(),
                1 => nn.mark_up(node).unwrap(),
                2 => {
                    let availability = match uniform_index(&mut rng, 3) {
                        0 => nn.availability(node).unwrap(),
                        1 => NodeAvailability::reliable(),
                        _ => NodeAvailability::from_mtbi(
                            5.0 + uniform_index(&mut rng, 40) as f64,
                            4.0,
                        )
                        .unwrap(),
                    };
                    nn.set_availability(node, availability).unwrap();
                }
                3 if !files.is_empty() => {
                    let file = files.swap_remove(uniform_index(&mut rng, files.len()));
                    nn.delete_file(file).unwrap();
                }
                _ => {}
            }
            changes[change.min(4)] += 1;
            for (k, &kind) in KINDS.iter().enumerate() {
                // Half the sessions repeat an earlier block count.
                let num_blocks = if !sizes.is_empty() && uniform_index(&mut rng, 2) == 0 {
                    repeated += 1;
                    sizes[uniform_index(&mut rng, sizes.len())]
                } else {
                    let size = 1 + uniform_index(&mut rng, 30);
                    sizes.push(size);
                    size
                };
                let replication = 1 + uniform_index(&mut rng, n.min(3));
                let threshold = threshold(&mut rng);
                let mut subset = subset(&mut rng, n, replication);
                if let Some(ids) = subset.as_mut() {
                    if uniform_index(&mut rng, 2) == 0 {
                        ids.sort();
                        sorted += 1;
                    } else {
                        unsorted += u32::from(!ids.is_sorted());
                    }
                }
                let params = Params {
                    num_blocks,
                    replication,
                    threshold,
                    subset,
                    seed: rng.next_u64(),
                };
                let what = format!("case {case}, step {step}, policy {k}");
                let created = compare(&mut nn, kind, kept[k].as_mut(), &params, &what);
                files.extend(created.and_then(|(_, file)| file));
                sessions += 1;
            }
        }
    }
    // Every kind of change happened, and sessions repeated block counts
    // on both sorted and unsorted subsets.
    assert!(sessions > 4_000, "{sessions} sessions compared");
    assert!(changes.iter().all(|&c| c > 20), "{changes:?}");
    assert!(
        repeated > 1_000 && sorted > 500 && unsorted > 500,
        "{repeated} {sorted} {unsorted}"
    );
}
