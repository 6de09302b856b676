//! [`AdaptPolicy`]: the availability-aware placement policy.
//!
//! Wires the Performance Predictor and the weighted hash table into the
//! `adapt-dfs` [`PlacementPolicy`] interface. At `prepare` time (once per
//! file ingest — "the hash table … is created when ADAPT is called by the
//! client, and deleted when the corresponding data blocks have been
//! distributed") the policy obtains per-node rates and the table for the
//! file's block count; each `select` samples the table, retrying when the
//! sampled node is ineligible (already a replica of the block, at
//! capacity, or over the session threshold) and falling back to
//! renormalized weighted selection if rejection sampling runs long.
//!
//! The rates depend only on each node's `(λ, μ)` and liveness, and a
//! table only on the rates and its number of keys, so the policy keeps
//! both across sessions. It reuses its rates while every node's inputs
//! are bit for bit those they were computed from, and recomputes them,
//! dropping every table, as soon as one differs. A reused rate or table
//! is therefore exactly the one a fresh policy would compute.

#![expect(
    clippy::as_conversions,
    reason = "weight quantisation to u64 hash-table slots is clamped to the table range before casting"
)]

use rand::Rng;

use adapt_availability::AvailabilityError;
use adapt_dfs::placement::{ClusterView, Eligible, NodeView, PlacementPolicy};
use adapt_dfs::{DfsError, NodeId};

use crate::hash_table::{ChainWeighting, PlacementHashTable};
use crate::predictor::{NodeRates, PerformancePredictor};
use crate::telemetry::PolicyTelemetrySnapshot;
use crate::weighted::weighted_select;

/// Rejection-sampling budget before falling back to direct weighted
/// selection over the eligible set.
const MAX_REJECTIONS: usize = 64;

/// Tables kept for reuse, one per block count. Small files dominate a job
/// stream (most jobs have at most 8 blocks), and one table over 2,048
/// nodes takes ~50 KB.
const TABLES_KEPT: usize = 16;

/// The per-node inputs of equation (5), compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Inputs {
    lambda: u64,
    mu: u64,
    alive: bool,
}

impl Inputs {
    fn of(node: &NodeView) -> Self {
        Inputs {
            lambda: node.availability.lambda.to_bits(),
            mu: node.availability.mu.to_bits(),
            alive: node.alive,
        }
    }
}

/// The ADAPT availability-aware placement policy (Algorithm 1).
///
/// See the crate-level example for end-to-end use with a NameNode.
#[derive(Debug, Clone)]
pub struct AdaptPolicy {
    predictor: PerformancePredictor,
    weighting: ChainWeighting,
    /// The rates, and each node's inputs they were computed from.
    rates: Option<Kept>,
    /// Tables built from `rates`, at most [`TABLES_KEPT`], least recently
    /// used first: the last is the one the last `prepare` chose.
    tables: Vec<PlacementHashTable>,
    /// Hash-table and selection counters; `predictor_evaluations` is
    /// filled from the predictor when a snapshot is taken.
    telemetry: PolicyTelemetrySnapshot,
}

impl AdaptPolicy {
    /// Creates the policy for map tasks of failure-free length `gamma`
    /// seconds per block.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `gamma` is not
    /// finite and positive.
    pub fn new(gamma: f64) -> Result<Self, AvailabilityError> {
        Ok(AdaptPolicy {
            predictor: PerformancePredictor::new(gamma)?,
            weighting: ChainWeighting::default(),
            rates: None,
            tables: Vec::new(),
            telemetry: PolicyTelemetrySnapshot::default(),
        })
    }

    /// A copy of the policy's counters, including the predictor's
    /// `E[T]` evaluation total.
    pub fn telemetry_snapshot(&self) -> PolicyTelemetrySnapshot {
        PolicyTelemetrySnapshot {
            predictor_evaluations: self.predictor.evaluations(),
            ..self.telemetry.clone()
        }
    }

    /// Selects the collision-chain weighting (see [`ChainWeighting`]).
    pub fn with_weighting(mut self, weighting: ChainWeighting) -> Self {
        self.weighting = weighting;
        self.tables.clear();
        self
    }

    /// The predictor in use.
    pub fn predictor(&self) -> &PerformancePredictor {
        &self.predictor
    }

    /// The rates the last `prepare` used, if any.
    pub fn rates(&self) -> Option<&NodeRates> {
        self.rates.as_ref().map(|(rates, _)| rates)
    }

    /// The hash table the last `prepare` used, if any.
    pub fn table(&self) -> Option<&PlacementHashTable> {
        self.tables.last()
    }
}

/// The rates of `cluster` with the inputs they come from.
fn computed(predictor: &mut PerformancePredictor, cluster: &ClusterView) -> Kept {
    let inputs = cluster.nodes().iter().map(Inputs::of).collect();
    (predictor.rates(cluster), inputs)
}

/// Rates and the per-node inputs they were computed from.
type Kept = (NodeRates, Vec<Inputs>);

impl PlacementPolicy for AdaptPolicy {
    fn name(&self) -> &'static str {
        "adapt"
    }

    fn prepare(&mut self, cluster: &ClusterView, num_blocks: usize) -> Result<(), DfsError> {
        let current = self.rates.as_ref().is_some_and(|(_, inputs)| {
            inputs.len() == cluster.len()
                && inputs
                    .iter()
                    .zip(cluster.nodes())
                    .all(|(kept, node)| *kept == Inputs::of(node))
        });
        if !current {
            self.rates = None;
            self.tables.clear();
        }
        let predictor = &mut self.predictor;
        let (rates, _) = self
            .rates
            .get_or_insert_with(|| computed(predictor, cluster));
        if !rates.any_usable() {
            return Err(DfsError::InsufficientNodes {
                needed: 1,
                eligible: 0,
            });
        }
        // A table's number of keys is its block count.
        if let Some(at) = self.tables.iter().position(|t| t.len() == num_blocks) {
            let table = self.tables.remove(at);
            self.tables.push(table);
            return Ok(());
        }
        let table = PlacementHashTable::build(rates.rates(), num_blocks, self.weighting)?;
        self.telemetry.tables_built += 1;
        for len in table.chain_lengths() {
            self.telemetry.chain_lengths.record(len as u64);
        }
        self.telemetry.max_chain_len = self
            .telemetry
            .max_chain_len
            .max(table.max_chain_len() as u64);
        if self.tables.len() == TABLES_KEPT {
            self.tables.remove(0);
        }
        self.tables.push(table);
        Ok(())
    }

    fn select(
        &mut self,
        cluster: &ClusterView,
        eligible: &Eligible,
        rng: &mut dyn Rng,
    ) -> Option<NodeId> {
        // Fast path: rejection-sample the hash table.
        if let Some(table) = self.tables.last() {
            for _ in 0..MAX_REJECTIONS {
                let node = NodeId(table.sample(rng) as u32);
                if eligible.contains(node) {
                    return Some(node);
                }
            }
        }
        // Slow path (crowded exclusions or no prepared table): weighted
        // selection renormalized over the eligible set.
        self.telemetry.select_fallbacks += 1;
        let predictor = &mut self.predictor;
        let (rates, _) = self
            .rates
            .get_or_insert_with(|| computed(predictor, cluster));
        let rates = rates.rates();
        weighted_select(
            |id| rates.get(id.0 as usize).copied().unwrap_or(0.0),
            eligible,
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
    use adapt_dfs::namenode::{NameNode, Threshold};
    use adapt_dfs::placement::RandomPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Table 2 emulation mix on `n` nodes: half reliable, half
    /// split evenly into the four interrupted groups.
    fn emulated_cluster(n: usize) -> NameNode {
        let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
        let specs: Vec<NodeSpec> = (0..n)
            .map(|i| {
                if i < n / 2 {
                    NodeSpec::new(NodeAvailability::reliable())
                } else {
                    let (mtbi, mu) = groups[(i - n / 2) % 4];
                    NodeSpec::new(NodeAvailability::from_mtbi(mtbi, mu).unwrap())
                }
            })
            .collect();
        NameNode::new(specs)
    }

    #[test]
    fn rejects_invalid_gamma() {
        assert!(AdaptPolicy::new(0.0).is_err());
        assert!(AdaptPolicy::new(f64::INFINITY).is_err());
    }

    #[test]
    fn prepare_builds_table_sized_to_blocks() {
        let nn = emulated_cluster(8);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        p.prepare(&nn.cluster_view(), 160).unwrap();
        assert_eq!(p.table().unwrap().len(), 160);
        assert!(p.rates().unwrap().any_usable());
    }

    #[test]
    fn kept_rates_and_tables_are_those_of_a_fresh_policy() {
        let mut nn = emulated_cluster(12);
        let fresh = |nn: &NameNode, weighting, m| {
            let mut p = AdaptPolicy::new(12.0).unwrap().with_weighting(weighting);
            p.prepare(&nn.cluster_view(), m).unwrap();
            (p.rates().unwrap().clone(), p.table().unwrap().clone())
        };
        let mut kept = AdaptPolicy::new(12.0).unwrap();
        let check = |kept: &mut AdaptPolicy, nn: &NameNode, m| {
            kept.prepare(&nn.cluster_view(), m).unwrap();
            let (rates, table) = fresh(nn, kept.weighting, m);
            assert_eq!(kept.rates(), Some(&rates), "m = {m}");
            assert_eq!(kept.table(), Some(&table), "m = {m}");
        };
        // Twenty block counts, twice over: more than the policy keeps, so
        // the least recently used table goes each time and the second
        // round builds every table again. Then one hit.
        for m in (1..=20).chain(1..=20).chain([3, 3]) {
            check(&mut kept, &nn, m);
        }
        let counters = kept.telemetry_snapshot();
        assert_eq!(
            (counters.tables_built, counters.predictor_evaluations),
            (41, 12)
        );
        // New availability: new rates, and the kept table of 3 blocks goes.
        let availability = NodeAvailability::from_mtbi(30.0, 2.0).unwrap();
        nn.set_availability(NodeId(0), availability).unwrap();
        check(&mut kept, &nn, 3);
        // The same availability again changes nothing.
        nn.set_availability(NodeId(0), availability).unwrap();
        check(&mut kept, &nn, 3);
        let counters = kept.telemetry_snapshot();
        assert_eq!(
            (counters.tables_built, counters.predictor_evaluations),
            (42, 24)
        );
        // A new weighting keeps the rates but not the tables.
        let mut kept = kept.with_weighting(ChainWeighting::Overlap);
        check(&mut kept, &nn, 3);
        let counters = kept.telemetry_snapshot();
        assert_eq!(
            (counters.tables_built, counters.predictor_evaluations),
            (43, 24)
        );
    }

    #[test]
    fn prepare_fails_on_all_dead_cluster() {
        let mut nn = emulated_cluster(4);
        for i in 0..4 {
            nn.mark_down(NodeId(i)).unwrap();
        }
        let mut p = AdaptPolicy::new(12.0).unwrap();
        assert!(matches!(
            p.prepare(&nn.cluster_view(), 10),
            Err(DfsError::InsufficientNodes { .. })
        ));
    }

    #[test]
    fn reliable_nodes_receive_more_blocks() {
        let mut nn = emulated_cluster(8);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let file = nn
            .create_file("f", 800, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        let reliable: usize = dist[..4].iter().sum();
        let flaky: usize = dist[4..].iter().sum();
        assert!(
            reliable > flaky,
            "reliable {reliable} vs flaky {flaky}: {dist:?}"
        );
        nn.validate().unwrap();
    }

    #[test]
    fn block_share_tracks_expected_time_ratios() {
        // Two-node cluster: node 1's E[T] is r times node 0's, so node 0
        // should receive ~r times the blocks.
        let specs = vec![
            NodeSpec::new(NodeAvailability::reliable()),
            NodeSpec::new(NodeAvailability::from_mtbi(10.0, 4.0).unwrap()),
        ];
        let mut nn = NameNode::new(specs);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let m = 4_000;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();

        let t1 = NodeAvailability::from_mtbi(10.0, 4.0)
            .unwrap()
            .expected_completion(12.0)
            .unwrap();
        let expected_share0 = t1 / (t1 + 12.0); // rate0/(rate0+rate1)
        let actual_share0 = dist[0] as f64 / m as f64;
        assert!(
            (actual_share0 - expected_share0).abs() < 0.03,
            "share {actual_share0} vs expected {expected_share0}"
        );
    }

    #[test]
    fn homogeneous_cluster_degenerates_to_uniform() {
        // Section III-C: with identical availability ADAPT behaves like
        // the existing random placement.
        let a = NodeAvailability::from_mtbi(10.0, 4.0).unwrap();
        let mut nn = NameNode::new(vec![NodeSpec::new(a); 8]);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let m = 8 * 500;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::None, &mut rng)
            .unwrap();
        let dist = nn.file_distribution(file).unwrap();
        for &c in &dist {
            let frac = c as f64 / m as f64;
            assert!(
                (frac - 0.125).abs() < 0.025,
                "node share {frac} deviates from uniform: {dist:?}"
            );
        }
    }

    #[test]
    fn select_respects_exclusions_for_replication() {
        let mut nn = emulated_cluster(4);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let file = nn
            .create_file("f", 40, 3, &mut p, Threshold::None, &mut rng)
            .unwrap();
        for block in nn.file(file).unwrap().blocks().to_vec() {
            let reps = nn.replicas(block).unwrap();
            let mut sorted = reps.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3);
        }
        nn.validate().unwrap();
    }

    #[test]
    fn select_without_prepare_still_works() {
        // Defensive path: a caller that skips prepare gets weighted
        // selection from freshly computed rates.
        let nn = emulated_cluster(4);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let view = nn.cluster_view();
        let node = p.select(&view, &Eligible::from_fn(&view, |_| true), &mut rng);
        assert!(node.is_some());
    }

    #[test]
    fn threshold_keeps_adapt_distribution_capped() {
        let mut nn = emulated_cluster(8);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let m = 160;
        let file = nn
            .create_file("f", m, 1, &mut p, Threshold::PaperDefault, &mut rng)
            .unwrap();
        let cap = Threshold::PaperDefault.cap(m, 1, 8).unwrap();
        let dist = nn.file_distribution(file).unwrap();
        for &c in &dist {
            assert!(c <= cap, "distribution {dist:?} above cap {cap}");
        }
    }

    #[test]
    fn adapt_beats_random_on_expected_makespan() {
        // The core promise: weighting by 1/E[T] equalizes per-node
        // expected finish times, so the *max* over nodes of
        // (blocks × E[T]) is lower than under random placement.
        let mut nn_adapt = emulated_cluster(16);
        let mut nn_random = emulated_cluster(16);
        let m = 16 * 20;
        let mut rng = StdRng::seed_from_u64(7);
        let fa = nn_adapt
            .create_file(
                "f",
                m,
                1,
                &mut AdaptPolicy::new(12.0).unwrap(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let fr = nn_random
            .create_file(
                "f",
                m,
                1,
                &mut RandomPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();

        let makespan = |nn: &NameNode, f| -> f64 {
            let dist = nn.file_distribution(f).unwrap();
            dist.iter()
                .enumerate()
                .map(|(i, &blocks)| {
                    let et = nn
                        .availability(NodeId(i as u32))
                        .unwrap()
                        .expected_completion(12.0)
                        .unwrap();
                    blocks as f64 * et
                })
                .fold(0.0, f64::max)
        };
        let adapt_makespan = makespan(&nn_adapt, fa);
        let random_makespan = makespan(&nn_random, fr);
        assert!(
            adapt_makespan < random_makespan,
            "adapt {adapt_makespan} vs random {random_makespan}"
        );
    }
}
