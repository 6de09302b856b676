//! Property-based whole-pipeline invariants: random small clusters and
//! workloads through placement and simulation must always satisfy the
//! system's conservation laws, for every policy.

use adapt::availability::dist::Dist;
use adapt::core::{AdaptPolicy, NaivePolicy, SpreadPolicy};
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::placement::{PlacementPolicy, RandomPolicy};
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A randomly generated small scenario.
#[derive(Debug, Clone)]
struct Scenario {
    /// Per node: `None` = reliable, `Some((mtbi, mu))` = flaky.
    nodes: Vec<Option<(f64, f64)>>,
    blocks: usize,
    replication: usize,
    bandwidth: f64,
    gamma: f64,
    policy_idx: usize,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        prop::collection::vec(
            prop::option::weighted(
                0.5,
                (10.0f64..200.0, 1.0f64..20.0).prop_filter("stable", |(mtbi, mu)| mu / mtbi < 0.8),
            ),
            2..10,
        ),
        2usize..40,
        1usize..3,
        1.0f64..64.0,
        1.0f64..20.0,
        0usize..4,
        0u64..10_000,
    )
        .prop_map(
            |(nodes, blocks, replication, bandwidth, gamma, policy_idx, seed)| Scenario {
                nodes,
                blocks,
                replication,
                bandwidth,
                gamma,
                policy_idx,
                seed,
            },
        )
}

fn build_policy(idx: usize, gamma: f64) -> Box<dyn PlacementPolicy> {
    match idx {
        0 => Box::new(RandomPolicy::new()),
        1 => Box::new(NaivePolicy::new()),
        2 => Box::new(SpreadPolicy::new()),
        _ => Box::new(AdaptPolicy::new(gamma).expect("gamma validated by strategy")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_invariants_hold(sc in scenario_strategy()) {
        let replication = sc.replication.min(sc.nodes.len());
        let availability: Vec<NodeAvailability> = sc
            .nodes
            .iter()
            .map(|spec| match spec {
                None => NodeAvailability::reliable(),
                Some((mtbi, mu)) => NodeAvailability::from_mtbi(*mtbi, *mu).expect("valid"),
            })
            .collect();

        // Placement.
        let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
        let mut nn = NameNode::new(specs);
        let mut policy = build_policy(sc.policy_idx, sc.gamma);
        let mut rng = StdRng::seed_from_u64(sc.seed);
        let file = nn
            .create_file("f", sc.blocks, replication, policy.as_mut(),
                         Threshold::PaperDefault, &mut rng)
            .expect("placement on an all-alive cluster succeeds");
        nn.validate().expect("metadata invariants");
        let placement = placement_from_namenode(&nn, file).expect("file exists");
        prop_assert_eq!(placement.len(), sc.blocks);
        for reps in &placement {
            prop_assert_eq!(reps.len(), replication);
        }
        prop_assert_eq!(nn.total_stored(), sc.blocks * replication);

        // Simulation.
        let processes: Vec<InterruptionProcess> = availability
            .iter()
            .map(|&a| InterruptionProcess::from_availability(a).unwrap())
            .collect();
        let cfg = SimConfig::new(sc.bandwidth, adapt::dfs::BlockSize::DEFAULT, sc.gamma)
            .expect("valid config")
            .with_horizon(1e7);
        let detailed = MapPhaseSim::new(processes, placement, cfg)
            .expect("valid sim")
            .run_detailed(sc.seed)
            .expect("run returns");
        let r = &detailed.report;

        // Conservation and bounds.
        prop_assert!(r.completed, "stable hosts must finish within 1e7 s");
        prop_assert_eq!(r.tasks, sc.blocks);
        prop_assert!(r.local_tasks <= r.tasks);
        prop_assert!((0.0..=1.0).contains(&r.locality()));
        prop_assert!(r.attempts >= r.tasks);
        prop_assert!(r.elapsed >= sc.gamma - 1e-9, "at least one task time");
        prop_assert!(r.rework >= 0.0 && r.recovery >= 0.0);
        prop_assert!(r.migration >= 0.0 && r.misc >= -1e-6);
        prop_assert!((r.base_work - sc.blocks as f64 * sc.gamma).abs() < 1e-9);

        // Per-node stats reconcile with aggregates.
        let completed: usize = detailed.node_stats.iter().map(|s| s.completed_tasks).sum();
        prop_assert_eq!(completed, r.tasks);
        let local: usize = detailed.node_stats.iter().map(|s| s.local_completed).sum();
        prop_assert_eq!(local, r.local_tasks);
        for stat in &detailed.node_stats {
            prop_assert!(stat.busy <= r.elapsed + 1e-6);
            prop_assert!(stat.downtime <= r.elapsed + 1e-6);
            prop_assert!(stat.recovery <= stat.downtime + 1e-9);
        }

        // Winners are recorded and point at real nodes.
        for w in &detailed.winners {
            let node = w.expect("completed run has winners");
            prop_assert!((node.0 as usize) < sc.nodes.len());
        }
    }

    #[test]
    fn same_seed_same_everything(
        seed in 0u64..1000,
        blocks in 2usize..20,
    ) {
        let availability = [
            NodeAvailability::reliable(),
            NodeAvailability::from_mtbi(30.0, 5.0).expect("valid"),
            NodeAvailability::from_mtbi(60.0, 10.0).expect("valid"),
        ];
        let run = || {
            let specs: Vec<NodeSpec> =
                availability.iter().map(|&a| NodeSpec::new(a)).collect();
            let mut nn = NameNode::new(specs);
            let mut policy = AdaptPolicy::new(8.0).expect("valid");
            let mut rng = StdRng::seed_from_u64(seed);
            let file = nn
                .create_file("f", blocks, 1, &mut policy, Threshold::PaperDefault, &mut rng)
                .expect("placement succeeds");
            let placement = placement_from_namenode(&nn, file).expect("file exists");
            let processes = vec![
                InterruptionProcess::none(),
                InterruptionProcess::synthetic(
                    30.0,
                    Dist::exponential_from_mean(5.0).expect("valid"),
                ).unwrap(),
                InterruptionProcess::synthetic(
                    60.0,
                    Dist::exponential_from_mean(10.0).expect("valid"),
                ).unwrap(),
            ];
            let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 8.0)
                .expect("valid");
            MapPhaseSim::new(processes, placement, cfg)
                .expect("valid")
                .run(seed)
                .expect("runs")
        };
        prop_assert_eq!(run(), run());
    }
}

/// Runs a small Figure-3-style emulated scenario under the test (debug)
/// profile, so the sim engine's `debug_assert`s — in particular the
/// event-queue time-monotonicity check in the event loop — are active
/// while a realistic schedule (interruptions, steals, speculation,
/// re-replication pressure) executes.
#[test]
fn fig3_style_run_passes_debug_assertions() {
    use adapt::experiments::emulated::run_emulated;
    use adapt::experiments::{EmulatedConfig, PolicyKind};

    let cfg = EmulatedConfig {
        nodes: 32,
        blocks_per_node: 5,
        runs: 2,
        ..EmulatedConfig::default()
    };
    for policy in [PolicyKind::Random, PolicyKind::Adapt] {
        let agg = run_emulated(&cfg, policy).expect("emulated run succeeds");
        assert!(agg.all_completed, "{policy:?} run hit the horizon");
        assert_eq!(agg.runs, 2);
    }
}
