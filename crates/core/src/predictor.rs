//! The Performance Predictor (paper Section IV-A).
//!
//! Implemented on the NameNode, the predictor combines each node's
//! heartbeat-derived interruption parameters with the failure-free task
//! length `γ` (from Hadoop's logging services) to produce the expected
//! task execution time `E[Tᵢ]` of equation (5), and from it the placement
//! rate `rateᵢ = (1/E[Tᵢ])/Φ` with `Φ = Σ 1/E[Tᵢ]` that Algorithm 1
//! consumes.

#![expect(
    clippy::as_conversions,
    reason = "node index u32 -> usize widening for rate vector indexing; lossless on supported targets"
)]

use adapt_availability::AvailabilityError;
use adapt_dfs::placement::ClusterView;
use adapt_dfs::NodeId;
use adapt_metrics::MetricsRegistry;

/// Per-node expected task times and normalized placement rates.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRates {
    expected: Vec<f64>,
    rates: Vec<f64>,
}

impl NodeRates {
    /// Expected task completion time `E[Tᵢ]` per node (`f64::INFINITY`
    /// for nodes that can never finish: dead, or unstable `λμ ≥ 1`).
    pub fn expected_times(&self) -> &[f64] {
        &self.expected
    }

    /// Normalized placement rates per node; they sum to 1 unless every
    /// node is unusable.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The rate of one node, or `None` if out of range.
    pub fn rate(&self, node: NodeId) -> Option<f64> {
        self.rates.get(node.0 as usize).copied()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether there are no nodes.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Whether at least one node has a positive rate.
    pub fn any_usable(&self) -> bool {
        self.rates.iter().any(|&r| r > 0.0)
    }

    /// Records this rate vector's shape as `predictor.*` gauges: the
    /// count of usable nodes, the normalization constant
    /// `Φ = Σ 1/E[Tᵢ]`, and the min/max placement rate among usable
    /// nodes. Call at placement time, before the registry's next scrape.
    pub fn record_gauges(&self, registry: &mut MetricsRegistry) {
        let usable = self.rates.iter().filter(|&&r| r > 0.0).count();
        let phi: f64 = self
            .expected
            .iter()
            .filter(|t| t.is_finite() && **t > 0.0)
            .map(|t| 1.0 / *t)
            .sum();
        registry.set_gauge(
            "predictor.usable_nodes",
            u64::try_from(usable).unwrap_or(u64::MAX),
        );
        registry.set_gauge("predictor.phi", phi);
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for &r in &self.rates {
            if r > 0.0 {
                min = min.min(r);
                max = max.max(r);
            }
        }
        if usable > 0 {
            registry.set_gauge("predictor.rate_min", min);
            registry.set_gauge("predictor.rate_max", max);
        }
    }
}

/// Computes expected task times per node from the heartbeat-collected
/// availability parameters, counting every equation-(5) evaluation.
#[derive(Debug, Clone)]
pub struct PerformancePredictor {
    gamma: f64,
    evals: u64,
}

impl PartialEq for PerformancePredictor {
    fn eq(&self, other: &Self) -> bool {
        self.gamma == other.gamma
    }
}

impl PerformancePredictor {
    /// Creates a predictor for tasks of failure-free length `gamma`
    /// seconds.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `gamma` is not
    /// finite and positive.
    pub fn new(gamma: f64) -> Result<Self, AvailabilityError> {
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(AvailabilityError::InvalidParameter {
                name: "gamma",
                value: gamma,
                requirement: "must be finite and > 0",
            });
        }
        Ok(PerformancePredictor { gamma, evals: 0 })
    }

    /// The failure-free task length.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Number of `E[T]` evaluations performed through this predictor.
    pub fn evaluations(&self) -> u64 {
        self.evals
    }

    /// Expected completion time for one node's parameters, following the
    /// paper's conventions:
    ///
    /// * a reliable node (`λ = 0`) completes in exactly `γ`;
    /// * an unstable node (`λμ ≥ 1`) never completes (`+∞`), so its
    ///   placement weight is zero;
    /// * a dead node never completes (`+∞`).
    pub fn expected_time(&mut self, availability: adapt_dfs::NodeAvailability, alive: bool) -> f64 {
        self.evals += 1;
        if !alive {
            return f64::INFINITY;
        }
        availability
            .expected_completion(self.gamma)
            .unwrap_or(f64::INFINITY)
    }

    /// Records the predictor's own state as `predictor.*` gauges: the
    /// failure-free task length `γ` and the cumulative equation-(5)
    /// evaluation count.
    pub fn record_gauges(&self, registry: &mut MetricsRegistry) {
        registry.set_gauge("predictor.gamma", self.gamma);
        registry.set_gauge("predictor.evaluations", self.evaluations());
    }

    /// Computes `E[Tᵢ]` and normalized rates for every node in the view.
    pub fn rates(&mut self, cluster: &ClusterView) -> NodeRates {
        let expected: Vec<f64> = cluster
            .nodes()
            .iter()
            .map(|n| self.expected_time(n.availability, n.alive))
            .collect();
        let inverse: Vec<f64> = expected
            .iter()
            .map(|&t| {
                if t.is_finite() && t > 0.0 {
                    1.0 / t
                } else {
                    0.0
                }
            })
            .collect();
        let phi: f64 = inverse.iter().sum();
        let rates = if phi > 0.0 {
            inverse.iter().map(|&r| r / phi).collect()
        } else {
            inverse
        };
        NodeRates { expected, rates }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use adapt_dfs::placement::NodeView;
    use adapt_dfs::NodeAvailability;
    use proptest::prelude::*;

    fn view(avails: Vec<(NodeAvailability, bool)>) -> ClusterView {
        ClusterView::new(
            avails
                .into_iter()
                .enumerate()
                .map(|(i, (availability, alive))| NodeView {
                    id: NodeId(i as u32),
                    availability,
                    alive,
                    stored_blocks: 0,
                    capacity_blocks: None,
                    rack: 0,
                })
                .collect(),
        )
    }

    #[test]
    fn rejects_bad_gamma() {
        assert!(PerformancePredictor::new(0.0).is_err());
        assert!(PerformancePredictor::new(-1.0).is_err());
        assert!(PerformancePredictor::new(f64::NAN).is_err());
        assert_eq!(PerformancePredictor::new(12.0).unwrap().gamma(), 12.0);
    }

    #[test]
    fn reliable_node_rate_dominates_flaky_node() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let v = view(vec![
            (NodeAvailability::reliable(), true),
            (NodeAvailability::from_mtbi(10.0, 4.0).unwrap(), true),
        ]);
        let r = p.rates(&v);
        assert_eq!(r.len(), 2);
        assert!(r.rate(NodeId(0)).unwrap() > r.rate(NodeId(1)).unwrap());
        assert_eq!(r.expected_times()[0], 12.0);
        assert!(r.expected_times()[1] > 12.0);
    }

    #[test]
    fn rates_are_normalized() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let v = view(vec![
            (NodeAvailability::from_mtbi(10.0, 4.0).unwrap(), true),
            (NodeAvailability::from_mtbi(10.0, 8.0).unwrap(), true),
            (NodeAvailability::from_mtbi(20.0, 4.0).unwrap(), true),
            (NodeAvailability::from_mtbi(20.0, 8.0).unwrap(), true),
        ]);
        let r = p.rates(&v);
        let sum: f64 = r.rates().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(r.any_usable());
    }

    #[test]
    fn rates_are_proportional_to_inverse_expected_time() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let a = NodeAvailability::from_mtbi(10.0, 4.0).unwrap();
        let b = NodeAvailability::from_mtbi(20.0, 4.0).unwrap();
        let v = view(vec![(a, true), (b, true)]);
        let r = p.rates(&v);
        let ta = r.expected_times()[0];
        let tb = r.expected_times()[1];
        let ratio_rates = r.rates()[0] / r.rates()[1];
        let ratio_times = tb / ta;
        assert!((ratio_rates - ratio_times).abs() < 1e-9);
    }

    #[test]
    fn dead_node_gets_zero_rate() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let v = view(vec![
            (NodeAvailability::reliable(), true),
            (NodeAvailability::reliable(), false),
        ]);
        let r = p.rates(&v);
        assert_eq!(r.rate(NodeId(1)), Some(0.0));
        assert!(r.expected_times()[1].is_infinite());
        assert!((r.rate(NodeId(0)).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unstable_node_gets_zero_rate() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        // MTBI 5 s, recovery 10 s: rho = 2 — never completes.
        let v = view(vec![
            (NodeAvailability::from_mtbi(5.0, 10.0).unwrap(), true),
            (NodeAvailability::reliable(), true),
        ]);
        let r = p.rates(&v);
        assert_eq!(r.rate(NodeId(0)), Some(0.0));
        assert!(r.any_usable());
    }

    #[test]
    fn all_unusable_cluster_reports_no_usable_rates() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let v = view(vec![(NodeAvailability::reliable(), false)]);
        let r = p.rates(&v);
        assert!(!r.any_usable());
        assert!(!r.is_empty());
        assert!(r.rate(NodeId(5)).is_none());
    }

    #[test]
    fn homogeneous_cluster_gets_equal_rates() {
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let a = NodeAvailability::from_mtbi(10.0, 4.0).unwrap();
        let v = view(vec![(a, true); 8]);
        let r = p.rates(&v);
        for &rate in r.rates() {
            assert!((rate - 0.125).abs() < 1e-12);
        }
    }

    #[test]
    fn record_gauges_exports_predictor_state() {
        use adapt_metrics::SampleValue;
        let mut p = PerformancePredictor::new(12.0).unwrap();
        let v = view(vec![
            (NodeAvailability::reliable(), true),
            (NodeAvailability::from_mtbi(10.0, 4.0).unwrap(), true),
            (NodeAvailability::reliable(), false),
        ]);
        let r = p.rates(&v);
        let mut registry = MetricsRegistry::new(1_000_000, 64);
        r.record_gauges(&mut registry);
        p.record_gauges(&mut registry);
        registry.force_scrape(0);
        let last = |name: &str| registry.series()[name].last().unwrap().value;
        assert_eq!(last("predictor.usable_nodes"), SampleValue::U64(2));
        assert_eq!(last("predictor.gamma"), SampleValue::F64(12.0));
        // Three E[T] evaluations happened through `rates`.
        assert_eq!(last("predictor.evaluations"), SampleValue::U64(3));
        let phi = match last("predictor.phi") {
            SampleValue::F64(x) => x,
            SampleValue::U64(_) => panic!("phi must be a float gauge"),
        };
        let expected_phi: f64 = r
            .expected_times()
            .iter()
            .filter(|t| t.is_finite())
            .map(|t| 1.0 / t)
            .sum();
        assert!((phi - expected_phi).abs() < 1e-12);
        let min = match last("predictor.rate_min") {
            SampleValue::F64(x) => x,
            SampleValue::U64(_) => panic!("rate_min must be a float gauge"),
        };
        let max = match last("predictor.rate_max") {
            SampleValue::F64(x) => x,
            SampleValue::U64(_) => panic!("rate_max must be a float gauge"),
        };
        assert!(min <= max);
        assert!((max - r.rate(NodeId(0)).unwrap()).abs() < 1e-12);
        assert!((min - r.rate(NodeId(1)).unwrap()).abs() < 1e-12);
    }

    proptest! {
        // Paper equation (5): more observed uptime (a larger mean time
        // between interruptions) never makes a node look slower.
        #[test]
        fn expected_time_is_monotone_in_observed_uptime(
            gamma in 1.0f64..100.0,
            mtbi in 5.0f64..500.0,
            bump in 1.0f64..500.0,
            mu in 0.5f64..4.0,
        ) {
            let mut p = PerformancePredictor::new(gamma).unwrap();
            let worse = NodeAvailability::from_mtbi(mtbi, mu).unwrap();
            let better = NodeAvailability::from_mtbi(mtbi + bump, mu).unwrap();
            let t_worse = p.expected_time(worse, true);
            let t_better = p.expected_time(better, true);
            // mu/mtbi <= 4/5 < 1 keeps both nodes stable, hence finite.
            prop_assert!(t_worse.is_finite() && t_better.is_finite());
            prop_assert!(t_better <= t_worse + 1e-9 * t_worse.abs());
            // And never faster than the failure-free length itself.
            prop_assert!(t_better >= gamma - 1e-9 * gamma);
        }

        // Longer recovery after an interruption never makes a node look
        // faster.
        #[test]
        fn expected_time_is_monotone_in_recovery_time(
            gamma in 1.0f64..100.0,
            mtbi in 10.0f64..500.0,
            mu in 0.5f64..4.0,
            bump in 0.1f64..4.0,
        ) {
            let mut p = PerformancePredictor::new(gamma).unwrap();
            let quick = NodeAvailability::from_mtbi(mtbi, mu).unwrap();
            let slow = NodeAvailability::from_mtbi(mtbi, mu + bump).unwrap();
            let t_quick = p.expected_time(quick, true);
            let t_slow = p.expected_time(slow, true);
            prop_assert!(t_quick.is_finite() && t_slow.is_finite());
            prop_assert!(t_slow >= t_quick - 1e-9 * t_quick.abs());
        }

        // Seed purity: the predictor consumes no randomness, so the same
        // cluster view yields bit-identical rates every time.
        #[test]
        fn rates_are_a_pure_function_of_the_view(
            gamma in 1.0f64..50.0,
            params in prop::collection::vec(
                (5.0f64..500.0, 0.5f64..4.0, 0u32..2),
                1..16,
            ),
        ) {
            let mut p = PerformancePredictor::new(gamma).unwrap();
            let v = view(
                params
                    .iter()
                    .map(|&(mtbi, mu, alive)| {
                        (NodeAvailability::from_mtbi(mtbi, mu).unwrap(), alive == 1)
                    })
                    .collect(),
            );
            let a = p.rates(&v);
            let b = p.rates(&v);
            prop_assert_eq!(a.len(), b.len());
            for i in 0..a.len() {
                prop_assert_eq!(a.rates()[i].to_bits(), b.rates()[i].to_bits());
                prop_assert_eq!(
                    a.expected_times()[i].to_bits(),
                    b.expected_times()[i].to_bits()
                );
            }
        }
    }
}
