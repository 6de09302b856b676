//! Algorithm 1: the weighted placement hash table.
//!
//! `buildHashTable` lays the nodes' normalized rates end-to-end over the
//! key space `[0, m)` (`m` = number of blocks): node `i` covers an
//! interval of length `wᵢ = m · rateᵢ`. Integer keys whose unit interval
//! is covered by more than one node form a *collision chain*;
//! `dataPlacement` first draws a uniform key `r ∈ [0, m)` and then, on a
//! collision, draws again among the chain members.
//!
//! The paper resolves chains weighting each member by its full `rateᵢ`
//! (normalized over the chain, `rateᵢ/Ω`). Because a chain member may only
//! *partially* overlap the key's unit interval, this slightly biases
//! placement toward wide-interval nodes; the exact resolution weights each
//! member by its overlap length with the key's interval. Both are
//! implemented — [`ChainWeighting::Rate`] (paper-faithful, the default)
//! and [`ChainWeighting::Overlap`] (exact) — and the difference is one of
//! the reproduction's ablations.

#![expect(
    clippy::as_conversions,
    reason = "hash-slot arithmetic: u32 node ids and slot counts converted for Algorithm 1 range mapping, all values bounded by the table size"
)]

use adapt_dfs::placement::uniform_index;
use adapt_dfs::DfsError;
use rand::Rng;

/// How a collision chain distributes probability among its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChainWeighting {
    /// The paper's rule: member `i` is chosen with probability
    /// `rateᵢ / Σ_chain rate`.
    #[default]
    Rate,
    /// Exact rule: member `i` is chosen with probability proportional to
    /// the length of its overlap with the key's unit interval, making the
    /// table's marginal distribution exactly proportional to the rates.
    Overlap,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct ChainEntry {
    node: usize,
    /// The member's chain weight: its rate under [`ChainWeighting::Rate`],
    /// its overlap with the key's unit interval under
    /// [`ChainWeighting::Overlap`].
    weight: f64,
    /// The running sum of `weight / Ω` over the chain up to and including
    /// this member (`Ω` = the chain's total weight): the secondary draw
    /// picks the first member whose `high` exceeds it.
    high: f64,
}

/// The block-key → node placement table of Algorithm 1.
///
/// The chains are stored flat, key after key, each member with its
/// cumulative threshold precomputed, so a lookup is a binary search over
/// one chain.
///
/// # Examples
///
/// ```
/// use adapt_core::{ChainWeighting, PlacementHashTable};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), adapt_dfs::DfsError> {
/// // Node 0 twice as fast as node 1.
/// let table = PlacementHashTable::build(&[2.0, 1.0], 9, ChainWeighting::Rate)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let node = table.sample(&mut rng);
/// assert!(node < 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementHashTable {
    /// Every key's chain, in key order.
    entries: Vec<ChainEntry>,
    /// Key `r`'s chain is `entries[offsets[r]..offsets[r + 1]]`.
    offsets: Vec<usize>,
    nodes: usize,
}

impl PlacementHashTable {
    /// Builds the table for `m` keys from per-node rates (any non-negative
    /// weights; they are normalized internally). Nodes with zero rate
    /// receive no keys.
    ///
    /// # Errors
    ///
    /// Returns [`DfsError::InvalidArgument`] if `m == 0`, `rates` is
    /// empty, any rate is negative or non-finite, or all rates are zero.
    pub fn build(rates: &[f64], m: usize, weighting: ChainWeighting) -> Result<Self, DfsError> {
        if m == 0 {
            return Err(DfsError::InvalidArgument {
                name: "m",
                reason: "hash table needs at least one key".into(),
            });
        }
        if rates.is_empty() {
            return Err(DfsError::InvalidArgument {
                name: "rates",
                reason: "at least one node required".into(),
            });
        }
        if rates.iter().any(|r| !r.is_finite() || *r < 0.0) {
            return Err(DfsError::InvalidArgument {
                name: "rates",
                reason: "rates must be finite and non-negative".into(),
            });
        }
        let phi: f64 = rates.iter().sum();
        if phi <= 0.0 {
            return Err(DfsError::InvalidArgument {
                name: "rates",
                reason: "all rates are zero; no node can accept data".into(),
            });
        }

        // Intervals are laid out in node order and `a` only grows, so the
        // members come out in key order: chain after chain, each chain in
        // node order. `offsets[j + 1]` counts key j's members until the
        // prefix sum below turns the counts into offsets.
        let mut entries: Vec<ChainEntry> = Vec::with_capacity(m + rates.len());
        let mut offsets = vec![0usize; m + 1];
        let mut a = 0.0_f64;
        for (node, &raw) in rates.iter().enumerate() {
            let rate = raw / phi;
            if rate == 0.0 {
                continue;
            }
            let w = m as f64 * rate;
            let b = (a + w).min(m as f64);
            // Every key j whose unit interval [j, j+1) overlaps [a, b).
            let first = a.floor() as usize;
            let last = (b.ceil() as usize).min(m);
            for j in first..last {
                let overlap = (b.min((j + 1) as f64) - a.max(j as f64)).max(0.0);
                if overlap > 1e-12 {
                    let weight = match weighting {
                        ChainWeighting::Rate => rate,
                        ChainWeighting::Overlap => overlap,
                    };
                    entries.push(ChainEntry {
                        node,
                        weight,
                        high: 0.0,
                    });
                    offsets[j + 1] += 1;
                }
            }
            a += w;
        }
        // Float drift can leave the last key uncovered; extend the final
        // node to the end of the key space.
        let last_covered = (0..m).rev().find(|&j| offsets[j + 1] > 0);
        if let (Some(covered), Some(&entry)) = (last_covered, entries.last()) {
            let weight = match weighting {
                ChainWeighting::Rate => entry.weight,
                ChainWeighting::Overlap => 1.0,
            };
            for j in covered + 1..m {
                entries.push(ChainEntry { weight, ..entry });
                offsets[j + 1] += 1;
            }
        }
        for j in 0..m {
            offsets[j + 1] += offsets[j];
        }
        for span in offsets.windows(2) {
            let chain = &mut entries[span[0]..span[1]];
            let omega: f64 = chain.iter().map(|e| e.weight).sum();
            let mut low = 0.0;
            for e in chain {
                e.high = low + e.weight / omega;
                low = e.high;
            }
        }
        Ok(PlacementHashTable {
            entries,
            offsets,
            nodes: rates.len(),
        })
    }

    /// Number of keys (`m`).
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the table has no keys (never true for a built table).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of nodes the table was built over.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The longest collision chain — a measure of the table's memory
    /// overhead on the NameNode.
    pub fn max_chain_len(&self) -> usize {
        self.chain_lengths().max().unwrap_or(0)
    }

    /// The collision-chain length of every slot, in key order (feeds the
    /// policy's chain-length telemetry histogram).
    pub fn chain_lengths(&self) -> impl Iterator<Item = usize> + '_ {
        self.offsets.windows(2).map(|span| span[1] - span[0])
    }

    /// Resolves key `r` using secondary draw `r1 ∈ [0, 1)`
    /// (`dataPlacement` in Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `r >= len()` (keys come from
    /// [`sample`](PlacementHashTable::sample) or a bounded generator).
    pub fn lookup(&self, r: usize, r1: f64) -> usize {
        let chain = &self.entries[self.offsets[r]..self.offsets[r + 1]];
        // The final entry absorbs any floating-point shortfall in the
        // cumulative weights, so `r1` close to 1 still resolves.
        let Some((last, rest)) = chain.split_last() else {
            debug_assert!(false, "every key must be covered (guaranteed by build)");
            return 0;
        };
        // The thresholds never decrease, so the first member whose
        // threshold exceeds `r1` is a binary search away. The test is
        // written negated so that a NaN `r1` passes every member and
        // lands on the last one.
        #[expect(
            clippy::neg_cmp_op_on_partial_ord,
            reason = "a NaN r1 must fall through to the last member"
        )]
        let at = rest.partition_point(|e| !(r1 < e.high));
        rest.get(at).unwrap_or(last).node
    }

    /// Draws one placement: uniform key, then chain resolution.
    pub fn sample(&self, rng: &mut dyn Rng) -> usize {
        let r = uniform_index(rng, self.len());
        let r1 = adapt_availability::dist::uniform_open01(rng);
        self.lookup(r, r1)
    }

    /// The marginal probability that a sample lands on `node` — exact
    /// arithmetic over the table, used by tests and the ablation bench.
    pub fn node_probability(&self, node: usize) -> f64 {
        let m = self.len() as f64;
        self.offsets
            .windows(2)
            .map(|span| {
                let chain = &self.entries[span[0]..span[1]];
                if chain.is_empty() {
                    return 0.0;
                }
                let omega: f64 = chain.iter().map(|e| e.weight).sum();
                chain
                    .iter()
                    .filter(|e| e.node == node)
                    .map(|e| e.weight / omega)
                    .sum::<f64>()
                    / m
            })
            .sum()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn build_rejects_degenerate_inputs() {
        assert!(PlacementHashTable::build(&[], 4, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[1.0], 0, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[0.0, 0.0], 4, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[-1.0, 2.0], 4, ChainWeighting::Rate).is_err());
        assert!(PlacementHashTable::build(&[f64::NAN], 4, ChainWeighting::Rate).is_err());
    }

    #[test]
    fn every_key_is_covered() {
        for &m in &[1usize, 2, 7, 64, 1000] {
            let t = PlacementHashTable::build(&[3.0, 1.0, 2.0], m, ChainWeighting::Rate).unwrap();
            assert_eq!(t.len(), m);
            for r in 0..m {
                let node = t.lookup(r, 0.5);
                assert!(node < 3);
            }
        }
    }

    #[test]
    fn single_node_gets_everything() {
        let t = PlacementHashTable::build(&[5.0], 16, ChainWeighting::Rate).unwrap();
        for r in 0..16 {
            assert_eq!(t.lookup(r, 0.3), 0);
        }
        assert!((t.node_probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_rate_node_receives_nothing() {
        let t = PlacementHashTable::build(&[1.0, 0.0, 1.0], 100, ChainWeighting::Rate).unwrap();
        assert_eq!(t.node_probability(1), 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..500 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn overlap_weighting_is_exactly_proportional() {
        let rates = [0.37, 0.13, 0.29, 0.21];
        let t = PlacementHashTable::build(&rates, 53, ChainWeighting::Overlap).unwrap();
        for (i, &r) in rates.iter().enumerate() {
            let p = t.node_probability(i);
            assert!(
                (p - r).abs() < 1e-9,
                "node {i}: probability {p} vs rate {r}"
            );
        }
    }

    #[test]
    fn rate_weighting_is_approximately_proportional() {
        // With m >> n the chain bias is tiny.
        let rates = [0.4, 0.1, 0.3, 0.2];
        let t = PlacementHashTable::build(&rates, 1_000, ChainWeighting::Rate).unwrap();
        for (i, &r) in rates.iter().enumerate() {
            let p = t.node_probability(i);
            assert!(
                (p - r).abs() < 0.01,
                "node {i}: probability {p} vs rate {r}"
            );
        }
    }

    #[test]
    fn uniform_rates_give_uniform_probabilities() {
        // The Section III-C equivalence at the table level.
        let t = PlacementHashTable::build(&[1.0; 8], 64, ChainWeighting::Rate).unwrap();
        for i in 0..8 {
            assert!((t.node_probability(i) - 0.125).abs() < 1e-9);
        }
        assert_eq!(t.max_chain_len(), 1); // perfectly aligned intervals
    }

    #[test]
    fn empirical_sampling_matches_marginals() {
        let rates = [2.0, 1.0, 1.0];
        let t = PlacementHashTable::build(&rates, 40, ChainWeighting::Overlap).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 3];
        let trials = 60_000;
        for _ in 0..trials {
            counts[t.sample(&mut rng)] += 1;
        }
        let expect = [0.5, 0.25, 0.25];
        for i in 0..3 {
            let frac = counts[i] as f64 / trials as f64;
            assert!(
                (frac - expect[i]).abs() < 0.01,
                "node {i}: sampled {frac} vs expected {}",
                expect[i]
            );
        }
    }

    #[test]
    fn chains_are_short_when_m_large() {
        let t = PlacementHashTable::build(&[1.0; 16], 320, ChainWeighting::Rate).unwrap();
        assert!(t.max_chain_len() <= 2);
        assert_eq!(t.node_count(), 16);
        assert!(!t.is_empty());
    }

    /// Algorithm 1's chains as nested vectors of `(node, weight)`, built
    /// member by member the way the table was before it was stored flat.
    fn reference_chains(
        rates: &[f64],
        m: usize,
        weighting: ChainWeighting,
    ) -> Vec<Vec<(usize, f64)>> {
        let phi: f64 = rates.iter().sum();
        let mut slots: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); m];
        let mut a = 0.0_f64;
        for (node, &raw) in rates.iter().enumerate() {
            let rate = raw / phi;
            if rate == 0.0 {
                continue;
            }
            let w = m as f64 * rate;
            let b = (a + w).min(m as f64);
            let first = a.floor() as usize;
            let last = (b.ceil() as usize).min(m);
            for (j, slot) in slots.iter_mut().enumerate().take(last).skip(first) {
                let overlap = (b.min((j + 1) as f64) - a.max(j as f64)).max(0.0);
                if overlap > 1e-12 {
                    slot.push((node, rate, overlap));
                }
            }
            a += w;
        }
        if let Some((last_covered, entry)) = slots
            .iter()
            .enumerate()
            .rev()
            .find_map(|(j, s)| s.last().map(|e| (j, *e)))
        {
            for slot in slots.iter_mut().skip(last_covered + 1) {
                slot.push((entry.0, entry.1, 1.0));
            }
        }
        slots
            .into_iter()
            .map(|chain| {
                chain
                    .into_iter()
                    .map(|(node, rate, overlap)| match weighting {
                        ChainWeighting::Rate => (node, rate),
                        ChainWeighting::Overlap => (node, overlap),
                    })
                    .collect()
            })
            .collect()
    }

    /// The linear chain resolution: re-sum the chain's weights, then walk
    /// it until the running share exceeds `r1`.
    fn reference_lookup(chain: &[(usize, f64)], r1: f64) -> usize {
        let (last, rest) = chain.split_last().unwrap();
        let omega: f64 = chain.iter().map(|e| e.1).sum();
        let mut low = 0.0;
        for &(node, w) in rest {
            let high = low + w / omega;
            if r1 < high {
                return node;
            }
            low = high;
        }
        last.0
    }

    #[test]
    fn binary_search_lookup_matches_the_linear_scan() {
        let mut rng = StdRng::seed_from_u64(2012);
        let sizes = [1usize, 2, 3, 7, 10, 64, 100, 999, 1_000, 4_097, 10_000];
        for case in 0..66 {
            let n = 1 + uniform_index(&mut rng, 64);
            let mut rates: Vec<f64> = (0..n)
                .map(|_| match uniform_index(&mut rng, 4) {
                    0 => 0.0,
                    _ => 10.0 * adapt_availability::dist::uniform_open01(&mut rng),
                })
                .collect();
            if rates.iter().all(|&r| r == 0.0) {
                rates[n - 1] = 1.0;
            }
            let m = sizes[case % sizes.len()];
            for weighting in [ChainWeighting::Rate, ChainWeighting::Overlap] {
                let table = PlacementHashTable::build(&rates, m, weighting).unwrap();
                let chains = reference_chains(&rates, m, weighting);
                assert!(table.chain_lengths().eq(chains.iter().map(Vec::len)));
                for node in 0..n {
                    let reference: f64 = chains
                        .iter()
                        .map(|chain| {
                            let omega: f64 = chain.iter().map(|e| e.1).sum();
                            chain
                                .iter()
                                .filter(|e| e.0 == node)
                                .map(|e| e.1 / omega)
                                .sum::<f64>()
                                / m as f64
                        })
                        .sum();
                    assert_eq!(table.node_probability(node).to_bits(), reference.to_bits());
                }
                for (r, chain) in chains.iter().enumerate() {
                    // Every threshold the linear scan compares against,
                    // its float neighbours, and the ends of [0, 1].
                    let omega: f64 = chain.iter().map(|e| e.1).sum();
                    let mut probes = vec![0.0, 1.0, f64::NAN];
                    let mut low = 0.0;
                    for &(_, w) in chain {
                        let high = low + w / omega;
                        probes.extend([high, high.next_down(), high.next_up()]);
                        low = high;
                    }
                    for r1 in probes {
                        assert_eq!(
                            table.lookup(r, r1),
                            reference_lookup(chain, r1),
                            "rates {rates:?}, m {m}, {weighting:?}, key {r}, r1 {r1}"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn probabilities_sum_to_one(
            rates in prop::collection::vec(0.0f64..10.0, 1..20),
            m in 1usize..200,
        ) {
            prop_assume!(rates.iter().sum::<f64>() > 0.0);
            for weighting in [ChainWeighting::Rate, ChainWeighting::Overlap] {
                let t = PlacementHashTable::build(&rates, m, weighting).unwrap();
                let total: f64 = (0..rates.len()).map(|i| t.node_probability(i)).sum();
                prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
            }
        }

        #[test]
        fn overlap_marginals_match_rates(
            rates in prop::collection::vec(0.01f64..10.0, 1..12),
            m in 1usize..100,
        ) {
            let t = PlacementHashTable::build(&rates, m, ChainWeighting::Overlap).unwrap();
            let phi: f64 = rates.iter().sum();
            for (i, &r) in rates.iter().enumerate() {
                prop_assert!((t.node_probability(i) - r / phi).abs() < 1e-9);
            }
        }

        #[test]
        fn lookup_never_returns_zero_rate_node(
            m in 1usize..100,
            r1 in 0.0f64..1.0,
        ) {
            let rates = [1.0, 0.0, 3.0];
            let t = PlacementHashTable::build(&rates, m, ChainWeighting::Rate).unwrap();
            for r in 0..m {
                prop_assert_ne!(t.lookup(r, r1), 1);
            }
        }
    }
}
