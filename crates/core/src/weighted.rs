//! Weighted node selection shared by the ADAPT and naive policies.

#![expect(
    clippy::as_conversions,
    reason = "cumulative-weight binary search converts bounded indices between usize and u64"
)]

use rand::Rng;

use adapt_dfs::placement::Eligible;
use adapt_dfs::NodeId;

/// Selects one open node of `eligible` with probability proportional to
/// its weight, `weight(id)`, which is asked only about open nodes.
///
/// Nodes whose weight is not finite and positive count as weight zero.
/// If every open node has zero weight, selection falls back to uniform
/// among them (the cluster is unusable by the model but ingestion must
/// still make progress). Returns `None` only when no node is open at all.
pub fn weighted_select(
    weight: impl Fn(NodeId) -> f64,
    eligible: &Eligible,
    rng: &mut dyn Rng,
) -> Option<NodeId> {
    let weight = |id: NodeId| {
        let w = weight(id);
        if w.is_finite() && w > 0.0 {
            w
        } else {
            0.0
        }
    };
    if eligible.is_empty() {
        return None;
    }
    let total: f64 = eligible.iter().map(weight).sum();
    if total <= 0.0 {
        // Degenerate: uniform over the eligible set.
        let idx = (rng.next_u64() % eligible.len() as u64) as usize;
        return eligible.nth(idx);
    }
    let draw = adapt_availability::dist::uniform_open01(rng) * total;
    let mut acc = 0.0;
    let mut last = None;
    for id in eligible.iter() {
        acc += weight(id);
        if draw < acc {
            return Some(id);
        }
        last = Some(id);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::placement::{ClusterView, NodeView};
    use adapt_dfs::NodeAvailability;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Node `i`'s entry of `weights`, NaN when it has none.
    fn by_index(weights: &[f64]) -> impl Fn(NodeId) -> f64 + '_ {
        |id| weights.get(id.0 as usize).copied().unwrap_or(f64::NAN)
    }

    /// The alive nodes of an `n`-node cluster with `dead` down, filtered
    /// by `open`.
    fn eligible(n: u32, dead: &[u32], open: impl FnMut(NodeId) -> bool) -> Eligible {
        Eligible::from_fn(&view(n, dead), open)
    }

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
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            weighted_select(by_index(&[1.0; 3]), &eligible(3, &[], |_| false), &mut rng),
            None
        );
    }

    #[test]
    fn respects_weights_statistically() {
        let all = eligible(3, &[], |_| true);
        let weights = [6.0, 3.0, 1.0];
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let trials = 50_000;
        for _ in 0..trials {
            let id = weighted_select(by_index(&weights), &all, &mut rng).unwrap();
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
        let alive = eligible(3, &[0], |_| true);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let id = weighted_select(by_index(&[100.0, 1.0, 1.0]), &alive, &mut rng).unwrap();
            assert_ne!(id, NodeId(0));
        }
    }

    #[test]
    fn zero_weight_eligible_set_falls_back_to_uniform() {
        let all = eligible(4, &[], |_| true);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let id = weighted_select(by_index(&[0.0; 4]), &all, &mut rng).unwrap();
            seen[id.0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "uniform fallback covers all nodes");
    }

    #[test]
    fn conditioning_renormalizes_weights() {
        // Excluding the heavy node splits its mass among the rest.
        let rest = eligible(3, &[], |id| id != NodeId(0));
        let weights = [100.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            let id = weighted_select(by_index(&weights), &rest, &mut rng).unwrap();
            counts[id.0 as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        let frac1 = counts[1] as f64 / 20_000.0;
        assert!((frac1 - 0.5).abs() < 0.02);
    }

    #[test]
    fn missing_or_invalid_weights_count_as_zero() {
        let all = eligible(3, &[], |_| true);
        let mut rng = StdRng::seed_from_u64(5);
        // Node 0's weight is NaN and node 2 has none (NaN too): both
        // count as zero.
        for _ in 0..100 {
            let id = weighted_select(by_index(&[f64::NAN, 1.0]), &all, &mut rng).unwrap();
            assert_eq!(id, NodeId(1));
        }
    }
}
