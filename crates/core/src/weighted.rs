//! Weighted node selection shared by the ADAPT and naive policies.

#![expect(
    clippy::as_conversions,
    reason = "cumulative-weight binary search converts bounded indices between usize and u64"
)]

use rand::Rng;

use adapt_dfs::placement::ClusterView;
use adapt_dfs::NodeId;

/// Selects one eligible node with probability proportional to its weight.
///
/// Nodes whose weight is zero, non-finite, or whose `eligible` check fails
/// are excluded. If every eligible node has zero weight, selection falls
/// back to uniform among the eligible (the cluster is unusable by the
/// model but ingestion must still make progress). Returns `None` only when
/// no node is eligible at all.
pub fn weighted_select(
    cluster: &ClusterView,
    weights: &[f64],
    eligible: &dyn Fn(NodeId) -> bool,
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
        // Degenerate: uniform over the eligible set.
        let idx = (rng.next_u64() % candidates.len() as u64) as usize;
        return Some(candidates[idx].0);
    }
    let draw = adapt_availability::dist::uniform_open01(rng) * total;
    let mut acc = 0.0;
    for (id, w) in &candidates {
        acc += w;
        if draw < acc {
            return Some(*id);
        }
    }
    candidates.last().map(|(id, _)| *id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::placement::NodeView;
    use adapt_dfs::NodeAvailability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn view(n: u32, dead: &[u32]) -> ClusterView {
        ClusterView::new(
            (0..n)
                .map(|i| NodeView {
                    id: NodeId(i),
                    availability: NodeAvailability::reliable(),
                    alive: !dead.contains(&i),
                    stored_blocks: 0,
                    capacity_blocks: None,
                    rack: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn returns_none_when_nothing_eligible() {
        let v = view(3, &[]);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            weighted_select(&v, &[1.0, 1.0, 1.0], &|_| false, &mut rng),
            None
        );
    }

    #[test]
    fn respects_weights_statistically() {
        let v = view(3, &[]);
        let weights = [6.0, 3.0, 1.0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let trials = 50_000;
        for _ in 0..trials {
            let id = weighted_select(&v, &weights, &|_| true, &mut rng).unwrap();
            counts[id.0 as usize] += 1;
        }
        let expected = [0.6, 0.3, 0.1];
        for i in 0..3 {
            let frac = counts[i] as f64 / trials as f64;
            assert!(
                (frac - expected[i]).abs() < 0.01,
                "node {i}: {frac} vs {}",
                expected[i]
            );
        }
    }

    #[test]
    fn dead_nodes_are_never_selected() {
        let v = view(3, &[0]);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let id = weighted_select(&v, &[100.0, 1.0, 1.0], &|_| true, &mut rng).unwrap();
            assert_ne!(id, NodeId(0));
        }
    }

    #[test]
    fn zero_weight_eligible_set_falls_back_to_uniform() {
        let v = view(4, &[]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let id = weighted_select(&v, &[0.0; 4], &|_| true, &mut rng).unwrap();
            seen[id.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform fallback covers all nodes");
    }

    #[test]
    fn conditioning_renormalizes_weights() {
        // Excluding the heavy node splits its mass among the rest.
        let v = view(3, &[]);
        let weights = [100.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            let id = weighted_select(&v, &weights, &|id| id != NodeId(0), &mut rng).unwrap();
            counts[id.0 as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac1 = counts[1] as f64 / 20_000.0;
        assert!((frac1 - 0.5).abs() < 0.02);
    }

    #[test]
    fn missing_or_invalid_weights_count_as_zero() {
        let v = view(3, &[]);
        let mut rng = StdRng::seed_from_u64(5);
        // Short weight vector: node 2 has no weight; NaN treated as zero.
        for _ in 0..100 {
            let id = weighted_select(&v, &[f64::NAN, 1.0], &|_| true, &mut rng).unwrap();
            assert_eq!(id, NodeId(1));
        }
    }
}
