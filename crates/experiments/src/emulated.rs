//! The emulated non-dedicated cluster harness — Figures 3 and 4.
//!
//! Reproduces the paper's Magellan setup: `n` VM-like nodes, a fraction
//! of them interrupted (split evenly into the four Table 2 groups),
//! Terasort-like input of 20 blocks per node, throttled bandwidth, map
//! phase measured. Each scenario is run `runs` times and averaged, as in
//! the paper ("we had 10 runs for each scenario and derived their
//! means").

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_sim::engine::{MapPhaseSim, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::runner::{aggregate, placement_from_namenode, AggregateReport};

use crate::config::{EmulatedConfig, TABLE2_GROUPS};
use crate::parallel::map_parallel;
use crate::policies::PolicyKind;
use crate::ExperimentError;

/// One sweep measurement: a policy/replication series at one x value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value (ratio, Mb/s, or node count).
    pub x: f64,
    /// Placement policy of this series.
    pub policy: PolicyKind,
    /// Replication factor of this series.
    pub replication: usize,
    /// Aggregated results over the configured runs.
    pub agg: AggregateReport,
}

impl SweepPoint {
    /// Series label in the paper's style, e.g. `"ADAPT-1rep"`.
    pub fn series(&self) -> String {
        format!("{}-{}rep", self.policy.label(), self.replication)
    }
}

/// The per-node availability layout of an emulated cluster: the first
/// `n − interrupted` nodes are reliable, the rest cycle through the four
/// Table 2 groups ("the interrupted nodes were further divided evenly
/// into four groups").
#[expect(clippy::expect_used, reason = "the Table 2 constants are valid")]
pub fn availability_layout(config: &EmulatedConfig) -> Vec<NodeAvailability> {
    let interrupted = config.interrupted_nodes();
    let reliable = config.nodes - interrupted;
    (0..config.nodes)
        .map(|i| {
            if i < reliable {
                NodeAvailability::reliable()
            } else {
                let g = TABLE2_GROUPS[(i - reliable) % TABLE2_GROUPS.len()];
                NodeAvailability::from_mtbi(g.mtbi, g.service)
                    .expect("Table 2 parameters are valid")
            }
        })
        .collect()
}

/// Runs one emulated scenario (`runs` seeds in parallel) and aggregates.
///
/// # Errors
///
/// Returns [`ExperimentError`] for invalid configuration or a substrate
/// failure (placement impossible, simulation horizon exceeded, …).
pub fn run_emulated(
    config: &EmulatedConfig,
    policy: PolicyKind,
) -> Result<AggregateReport, ExperimentError> {
    let gamma = config.gamma;
    run_emulated_custom(
        config,
        &|| policy.build(gamma),
        Threshold::PaperDefault,
        &|cfg| cfg,
    )
}

/// Like [`run_emulated`] but with a caller-supplied policy factory,
/// threshold, and simulator-config tweak — the entry point the ablation
/// suite uses (e.g. speculation off, custom scheduling mode, threshold
/// variants, non-registry policies).
///
/// # Errors
///
/// Same as [`run_emulated`].
pub fn run_emulated_custom(
    config: &EmulatedConfig,
    make_policy: &(dyn Fn() -> Box<dyn adapt_dfs::PlacementPolicy> + Sync),
    threshold: Threshold,
    tweak: &(dyn Fn(SimConfig) -> SimConfig + Sync),
) -> Result<AggregateReport, ExperimentError> {
    if config.runs == 0 {
        return Err(ExperimentError::InvalidConfig {
            name: "runs",
            reason: "at least one run required".into(),
        });
    }
    if !(0.0..=1.0).contains(&config.interrupted_ratio) {
        return Err(ExperimentError::InvalidConfig {
            name: "interrupted_ratio",
            reason: format!("{} must be within [0, 1]", config.interrupted_ratio),
        });
    }
    let layout = availability_layout(config);
    let seeds: Vec<u64> = (0..config.runs).map(|i| config.seed + i as u64).collect();
    let reports = map_parallel(&seeds, |&seed| {
        run_once(config, make_policy, threshold, tweak, &layout, seed)
    });
    let mut ok = Vec::with_capacity(reports.len());
    for r in reports {
        ok.push(r?);
    }
    Ok(aggregate(ok))
}

fn run_once(
    config: &EmulatedConfig,
    make_policy: &(dyn Fn() -> Box<dyn adapt_dfs::PlacementPolicy> + Sync),
    threshold: Threshold,
    tweak: &(dyn Fn(SimConfig) -> SimConfig + Sync),
    layout: &[NodeAvailability],
    seed: u64,
) -> Result<adapt_sim::SimReport, ExperimentError> {
    let mut rng = StdRng::seed_from_u64(seed);

    // Placement through the NameNode.
    let specs: Vec<NodeSpec> = layout.iter().map(|&a| NodeSpec::new(a)).collect();
    let mut namenode = NameNode::new(specs);
    let mut placement_policy = make_policy();
    let file = namenode.create_file(
        "terasort-input",
        config.total_blocks(),
        config.replication,
        placement_policy.as_mut(),
        threshold,
        &mut rng,
    )?;
    let placement = placement_from_namenode(&namenode, file)?;

    // Interruption injection per Table 2.
    let processes = layout
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a))
        .collect::<Result<_, _>>()?;

    let cfg = tweak(SimConfig::new(
        config.bandwidth_mbps,
        config.block_size,
        config.gamma,
    )?);
    Ok(MapPhaseSim::new(processes, placement, cfg)?.run(seed)?)
}

/// The policy/replication series of Figures 3 and 4.
pub const FIGURE3_SERIES: [(PolicyKind, usize); 4] = [
    (PolicyKind::Random, 1),
    (PolicyKind::Random, 2),
    (PolicyKind::Adapt, 1),
    (PolicyKind::Adapt, 2),
];

/// Figure 3(a)/4(a): sweep the interrupted-node ratio.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn sweep_interrupted_ratio(
    base: &EmulatedConfig,
    ratios: &[f64],
    series: &[(PolicyKind, usize)],
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let mut out = Vec::new();
    for &ratio in ratios {
        for &(policy, replication) in series {
            let config = EmulatedConfig {
                interrupted_ratio: ratio,
                replication,
                ..*base
            };
            out.push(SweepPoint {
                x: ratio,
                policy,
                replication,
                agg: run_emulated(&config, policy)?,
            });
        }
    }
    Ok(out)
}

/// Figure 3(b)/4(b): sweep the network bandwidth (Mb/s).
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn sweep_bandwidth(
    base: &EmulatedConfig,
    bandwidths: &[f64],
    series: &[(PolicyKind, usize)],
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let mut out = Vec::new();
    for &bw in bandwidths {
        for &(policy, replication) in series {
            let config = EmulatedConfig {
                bandwidth_mbps: bw,
                replication,
                ..*base
            };
            out.push(SweepPoint {
                x: bw,
                policy,
                replication,
                agg: run_emulated(&config, policy)?,
            });
        }
    }
    Ok(out)
}

/// Figure 3(c)/4(c): sweep the cluster size.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn sweep_nodes(
    base: &EmulatedConfig,
    node_counts: &[usize],
    series: &[(PolicyKind, usize)],
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let mut out = Vec::new();
    for &nodes in node_counts {
        for &(policy, replication) in series {
            let config = EmulatedConfig {
                nodes,
                replication,
                ..*base
            };
            out.push(SweepPoint {
                x: nodes as f64,
                policy,
                replication,
                agg: run_emulated(&config, policy)?,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    /// A small, fast configuration for tests.
    fn small() -> EmulatedConfig {
        EmulatedConfig {
            nodes: 16,
            blocks_per_node: 5,
            runs: 3,
            ..EmulatedConfig::default()
        }
    }

    #[test]
    fn layout_splits_interrupted_nodes_into_groups() {
        let layout = availability_layout(&small());
        assert_eq!(layout.len(), 16);
        assert!(layout[..8].iter().all(|a| a.is_reliable()));
        assert!(layout[8..].iter().all(|a| !a.is_reliable()));
        // Two full cycles through the four groups.
        assert_eq!(layout[8], layout[12]);
        assert_ne!(layout[8], layout[9]);
    }

    #[test]
    fn zero_runs_is_rejected() {
        let config = EmulatedConfig { runs: 0, ..small() };
        assert!(run_emulated(&config, PolicyKind::Random).is_err());
    }

    #[test]
    fn bad_ratio_is_rejected() {
        let config = EmulatedConfig {
            interrupted_ratio: 1.5,
            ..small()
        };
        assert!(run_emulated(&config, PolicyKind::Random).is_err());
    }

    #[test]
    fn emulated_run_completes_and_aggregates() {
        let agg = run_emulated(&small(), PolicyKind::Adapt).unwrap();
        assert_eq!(agg.runs, 3);
        assert!(agg.all_completed);
        assert!(agg.elapsed.mean() > 0.0);
        let loc = agg.locality.mean();
        assert!((0.0..=1.0).contains(&loc));
    }

    #[test]
    fn adapt_beats_random_at_default_ratio() {
        // The paper's headline (Figure 3(a) at ratio 1/2): ADAPT-1rep
        // finishes well before existing-1rep.
        let config = EmulatedConfig {
            runs: 3,
            nodes: 32,
            blocks_per_node: 10,
            ..EmulatedConfig::default()
        };
        let adapt = run_emulated(&config, PolicyKind::Adapt).unwrap();
        let random = run_emulated(&config, PolicyKind::Random).unwrap();
        assert!(
            adapt.elapsed.mean() < random.elapsed.mean(),
            "ADAPT {} vs existing {}",
            adapt.elapsed.mean(),
            random.elapsed.mean()
        );
        assert!(
            adapt.locality.mean() >= random.locality.mean(),
            "ADAPT locality {} vs existing {}",
            adapt.locality.mean(),
            random.locality.mean()
        );
    }

    #[test]
    fn sweep_produces_every_series_point() {
        let points = sweep_bandwidth(&small(), &[8.0, 32.0], &[(PolicyKind::Random, 1)]).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].x, 8.0);
        assert_eq!(points[0].series(), "existing-1rep");
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_emulated(&small(), PolicyKind::Adapt).unwrap();
        let b = run_emulated(&small(), PolicyKind::Adapt).unwrap();
        assert_eq!(a.elapsed.mean(), b.elapsed.mean());
        assert_eq!(a.locality.mean(), b.locality.mean());
    }
}
