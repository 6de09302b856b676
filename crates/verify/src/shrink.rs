//! Greedy scenario reduction: given a failing scenario, find a smaller
//! one that still fails, so the artifact a human debugs is minimal.
//!
//! The reducer repeatedly proposes simplifications — drop task ranges,
//! drop nodes (remapping the placement), replace failure processes with
//! reliable nodes, drop outage windows, switch off scheduler features —
//! and keeps any proposal the caller's predicate still marks as failing.
//! It stops at a fixed point (no proposal keeps failing) or after a
//! bounded number of predicate evaluations, so shrinking always
//! terminates even on pathological predicates.

use crate::scenario::{NodeKind, Scenario};

/// Upper bound on predicate evaluations per [`shrink`] call.
const MAX_EVALS: usize = 2_000;

/// Complexity measure used to confirm progress: shrinking only ever
/// moves to scenarios with strictly smaller size.
pub fn size(s: &Scenario) -> usize {
    let outages: usize = s
        .nodes
        .iter()
        .map(|n| match n {
            // A non-reliable kind costs 1 plus its windows, so replacing
            // any failure process with `Reliable` strictly shrinks.
            NodeKind::Scheduled { outages } => 1 + outages.len(),
            NodeKind::Synthetic { .. } => 1,
            NodeKind::Reliable => 0,
        })
        .sum();
    let flags = usize::from(s.speculation)
        + usize::from(s.availability_aware)
        + usize::from(s.detection_delay > 0.0)
        + s.max_copies;
    let reduce = s.reducers
        + usize::from(s.shuffle_skew > 1)
        + s.racks as usize
        + usize::from(s.oversubscription > 1.0)
        + s.output_holders;
    s.placement.len() + s.nodes.len() + outages + flags + reduce
}

fn remove_task_range(s: &Scenario, start: usize, len: usize) -> Option<Scenario> {
    if len == 0 || start + len > s.placement.len() || s.placement.len() - len == 0 {
        return None;
    }
    let mut out = s.clone();
    out.placement.drain(start..start + len);
    Some(out)
}

fn remove_node(s: &Scenario, ni: usize) -> Option<Scenario> {
    if s.nodes.len() <= 1 || ni >= s.nodes.len() {
        return None;
    }
    let mut out = s.clone();
    out.nodes.remove(ni);
    let mut placement = Vec::new();
    for replicas in &s.placement {
        let remapped: Vec<u32> = replicas
            .iter()
            .filter(|&&r| r as usize != ni)
            .map(|&r| if (r as usize) > ni { r - 1 } else { r })
            .collect();
        if !remapped.is_empty() {
            placement.push(remapped);
        }
    }
    if placement.is_empty() {
        return None;
    }
    out.placement = placement;
    Some(out)
}

fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // 1. Drop task ranges, largest chunks first (delta-debugging style).
    let mut chunk = s.placement.len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < s.placement.len() {
            if let Some(c) = remove_task_range(s, start, chunk.min(s.placement.len() - start)) {
                out.push(c);
            }
            start += chunk;
        }
        chunk /= 2;
    }
    // 2. Drop nodes.
    for ni in 0..s.nodes.len() {
        if let Some(c) = remove_node(s, ni) {
            out.push(c);
        }
    }
    // 3. Simplify node failure behaviour.
    for (ni, kind) in s.nodes.iter().enumerate() {
        match kind {
            NodeKind::Reliable => {}
            NodeKind::Synthetic { .. } => {
                let mut c = s.clone();
                c.nodes[ni] = NodeKind::Reliable;
                out.push(c);
            }
            NodeKind::Scheduled { outages } => {
                if outages.is_empty() {
                    let mut c = s.clone();
                    c.nodes[ni] = NodeKind::Reliable;
                    out.push(c);
                } else {
                    for w in 0..outages.len() {
                        let mut c = s.clone();
                        if let NodeKind::Scheduled { outages } = &mut c.nodes[ni] {
                            outages.remove(w);
                        }
                        out.push(c);
                    }
                }
            }
        }
    }
    // 4. Switch off scheduler features.
    if s.speculation {
        let mut c = s.clone();
        c.speculation = false;
        out.push(c);
    }
    if s.availability_aware {
        let mut c = s.clone();
        c.availability_aware = false;
        out.push(c);
    }
    if s.detection_delay > 0.0 {
        let mut c = s.clone();
        c.detection_delay = 0.0;
        out.push(c);
    }
    if s.max_copies > 1 {
        let mut c = s.clone();
        c.max_copies = 1;
        out.push(c);
    }
    // 5. Simplify the reduce/shuffle dimensions: halve the reducer
    //    count, drop the output skew, collapse the topology, keep one
    //    holder per map output. Flattening to one rack also clears the
    //    oversubscription ratio (it is meaningless without a core link),
    //    which keeps the size measure strictly decreasing.
    if s.reducers > 1 {
        let mut c = s.clone();
        c.reducers = 1;
        out.push(c);
        if s.reducers > 2 {
            let mut c = s.clone();
            c.reducers = (s.reducers / 2).max(2);
            out.push(c);
        }
    }
    if s.shuffle_skew > 1 {
        let mut c = s.clone();
        c.shuffle_skew = 1;
        out.push(c);
    }
    if s.racks > 1 {
        let mut c = s.clone();
        c.racks = 1;
        c.oversubscription = 1.0;
        out.push(c);
    }
    if s.racks > 2 {
        // Two racks is the smallest topology with a core link at all.
        let mut c = s.clone();
        c.racks = 2;
        out.push(c);
    }
    if s.oversubscription > 1.0 {
        let mut c = s.clone();
        c.oversubscription = 1.0;
        out.push(c);
    }
    if s.output_holders > 1 {
        let mut c = s.clone();
        c.output_holders = 1;
        out.push(c);
        if s.output_holders > 2 {
            let mut c = s.clone();
            c.output_holders = 2;
            out.push(c);
        }
    }
    out
}

/// Greedily reduces `scenario` while `still_fails` holds, returning the
/// smallest failing scenario found. The input itself is returned when no
/// simplification preserves the failure.
pub fn shrink<F>(mut scenario: Scenario, still_fails: F) -> Scenario
where
    F: Fn(&Scenario) -> bool,
{
    let mut budget = MAX_EVALS;
    loop {
        let mut improved = false;
        for candidate in candidates(&scenario) {
            if budget == 0 {
                return scenario;
            }
            budget -= 1;
            debug_assert!(size(&candidate) < size(&scenario));
            if still_fails(&candidate) {
                scenario = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return scenario;
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::generator::generate;

    #[test]
    fn shrinks_to_the_failure_kernel() {
        // Synthetic failure: "fails whenever any task is placed on node 0
        // with speculation on". The minimum is 1 task, 1 node,
        // speculation on.
        let s = generate(5);
        let fails = |c: &Scenario| {
            c.speculation && c.placement.iter().any(|replicas| replicas.contains(&0))
        };
        if !fails(&s) {
            return; // this seed never triggers the synthetic bug
        }
        let min = shrink(s, fails);
        assert!(fails(&min));
        assert_eq!(min.placement.len(), 1);
        assert_eq!(min.nodes.len(), 1);
        assert!(matches!(min.nodes[0], NodeKind::Reliable));
        assert_eq!(min.max_copies, 1);
        // Reduce dimensions irrelevant to the predicate collapse too.
        assert_eq!(min.reducers, 1);
        assert_eq!(min.shuffle_skew, 1);
        assert_eq!(min.racks, 1);
        assert_eq!(min.oversubscription, 1.0);
        assert_eq!(min.output_holders, 1);
    }

    #[test]
    fn shrinks_the_reduce_dimensions_to_their_kernel() {
        // Synthetic failure: "fails whenever at least two reducers pull
        // skewed output across an oversubscribed core". The minimum
        // keeps exactly those ingredients and nothing else.
        let s = crate::generator::generate_reduce_heavy(2);
        let fails = |c: &Scenario| {
            c.reducers >= 2 && c.shuffle_skew > 1 && c.racks > 1 && c.oversubscription > 1.0
        };
        assert!(fails(&s), "heavy corpus must trigger the synthetic bug");
        let min = shrink(s, fails);
        assert!(fails(&min));
        assert_eq!(min.reducers, 2);
        assert_eq!(min.racks, 2);
        assert_eq!(min.placement.len(), 1);
        assert!(min.nodes.iter().all(|n| matches!(n, NodeKind::Reliable)));
    }

    #[test]
    fn shrinks_the_holder_count_to_its_kernel() {
        // Synthetic failure: "fails whenever a map output has at least
        // two holders". The minimum keeps exactly two.
        let s = Scenario {
            output_holders: 3,
            ..crate::generator::generate_wide_reduce(1)
        };
        let fails = |c: &Scenario| c.output_holders >= 2;
        let min = shrink(s, fails);
        assert_eq!(min.output_holders, 2);
        assert_eq!(min.reducers, 1);
        assert_eq!(min.racks, 1);
        assert_eq!(min.placement.len(), 1);
    }

    #[test]
    fn returns_input_when_nothing_shrinks() {
        let s = generate(6);
        let min = shrink(s.clone(), |_| false);
        assert_eq!(min, s);
    }

    #[test]
    fn every_candidate_strictly_shrinks() {
        for seed in 0..32 {
            for s in [
                generate(seed),
                crate::generator::generate_reduce_heavy(seed),
                crate::generator::generate_wide_reduce(seed),
            ] {
                let base = size(&s);
                for c in candidates(&s) {
                    assert!(size(&c) < base, "candidate did not shrink (seed {seed})");
                }
            }
        }
    }
}
