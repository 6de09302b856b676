//! End-to-end pipeline integration: traces → estimation → placement →
//! simulation → reporting, across crate boundaries.

#![expect(clippy::float_cmp, reason = "exact reruns and representable values")]

use adapt::core::{AdaptPolicy, NaivePolicy};
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::placement::{PlacementPolicy, RandomPolicy};
use adapt::experiments::config::{EmulatedConfig, LargeScaleConfig};
use adapt::experiments::emulated::run_emulated;
use adapt::experiments::largescale::{run_largescale_in, World};
use adapt::experiments::PolicyKind;
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use adapt::traces::stats::summarize;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The Table 2 emulated layout used by several tests.
fn emulated_availability(nodes: usize) -> Vec<NodeAvailability> {
    let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
    (0..nodes)
        .map(|i| {
            if i < nodes / 2 {
                NodeAvailability::reliable()
            } else {
                let (mtbi, mu) = groups[(i - nodes / 2) % 4];
                NodeAvailability::from_mtbi(mtbi, mu).unwrap()
            }
        })
        .collect()
}

fn simulate_policy(
    policy: &mut dyn PlacementPolicy,
    availability: &[NodeAvailability],
    blocks: usize,
    replication: usize,
    seed: u64,
) -> adapt::sim::SimReport {
    let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
    let mut namenode = NameNode::new(specs);
    let mut rng = StdRng::seed_from_u64(seed);
    let file = namenode
        .create_file(
            "f",
            blocks,
            replication,
            policy,
            Threshold::PaperDefault,
            &mut rng,
        )
        .unwrap();
    namenode.validate().unwrap();
    let placement = placement_from_namenode(&namenode, file).unwrap();
    let processes: Vec<InterruptionProcess> = availability
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a).unwrap())
        .collect();
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0).unwrap();
    MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(seed)
        .unwrap()
}

#[test]
fn adapt_beats_random_under_heterogeneity_end_to_end() {
    let availability = emulated_availability(32);
    let mut elapsed_adapt = 0.0;
    let mut elapsed_random = 0.0;
    for seed in 0..3 {
        elapsed_adapt += simulate_policy(
            &mut AdaptPolicy::new(10.0).unwrap(),
            &availability,
            320,
            1,
            seed,
        )
        .elapsed;
        elapsed_random +=
            simulate_policy(&mut RandomPolicy::new(), &availability, 320, 1, seed).elapsed;
    }
    assert!(
        elapsed_adapt < elapsed_random * 0.8,
        "ADAPT {elapsed_adapt} vs random {elapsed_random}: expected >20% gain"
    );
}

#[test]
fn naive_sits_between_random_and_adapt_on_average() {
    // The Section V-C ordering, averaged across seeds to damp noise.
    let availability = emulated_availability(32);
    let mut total = [0.0f64; 3];
    for seed in 0..4 {
        total[0] += simulate_policy(&mut RandomPolicy::new(), &availability, 320, 1, seed).elapsed;
        total[1] += simulate_policy(&mut NaivePolicy::new(), &availability, 320, 1, seed).elapsed;
        total[2] += simulate_policy(
            &mut AdaptPolicy::new(10.0).unwrap(),
            &availability,
            320,
            1,
            seed,
        )
        .elapsed;
    }
    assert!(
        total[1] < total[0],
        "naive {} vs random {}",
        total[1],
        total[0]
    );
    assert!(
        total[2] < total[0],
        "adapt {} vs random {}",
        total[2],
        total[0]
    );
}

#[test]
fn replication_improves_elapsed_for_random_placement() {
    // Figure 3: existing-2rep is far better than existing-1rep.
    let availability = emulated_availability(32);
    let mut one = 0.0;
    let mut two = 0.0;
    for seed in 0..3 {
        one += simulate_policy(&mut RandomPolicy::new(), &availability, 320, 1, seed).elapsed;
        two += simulate_policy(&mut RandomPolicy::new(), &availability, 320, 2, seed).elapsed;
    }
    assert!(two < one, "2 replicas {two} vs 1 replica {one}");
}

#[test]
fn homogeneous_cluster_makes_policies_equivalent() {
    // Section III-C: with identical availability patterns ADAPT
    // degenerates to the existing placement; elapsed times should be
    // statistically close.
    let availability: Vec<NodeAvailability> = (0..16)
        .map(|_| NodeAvailability::from_mtbi(20.0, 4.0).unwrap())
        .collect();
    let mut adapt = 0.0;
    let mut random = 0.0;
    for seed in 0..5 {
        adapt += simulate_policy(
            &mut AdaptPolicy::new(10.0).unwrap(),
            &availability,
            160,
            1,
            seed,
        )
        .elapsed;
        random += simulate_policy(&mut RandomPolicy::new(), &availability, 160, 1, seed).elapsed;
    }
    let ratio = adapt / random;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "homogeneous ADAPT/random elapsed ratio {ratio}"
    );
}

#[test]
fn emulated_harness_matches_manual_pipeline_metrics() {
    let config = EmulatedConfig {
        nodes: 16,
        blocks_per_node: 10,
        runs: 2,
        ..EmulatedConfig::default()
    };
    let agg = run_emulated(&config, PolicyKind::Adapt).unwrap();
    assert!(agg.all_completed);
    assert!(agg.elapsed.mean() > 0.0);
    assert!(agg.locality.mean() > 0.5);
    assert!(agg.total_overhead_ratio.mean() >= 0.0);
}

#[test]
fn largescale_world_statistics_feed_the_simulation() {
    let config = LargeScaleConfig {
        nodes: 96,
        tasks_per_node: 10,
        runs: 2,
        ..LargeScaleConfig::default()
    };
    let world = World::generate(&config).unwrap();
    let summary = summarize(&world.as_trace());
    assert_eq!(summary.hosts, 96);
    assert!(summary.events > 0);
    // Estimates must reflect the trace heterogeneity.
    let reliable = world
        .availability()
        .iter()
        .filter(|a| a.is_reliable())
        .count();
    assert!(reliable < 96, "some hosts must have observed failures");

    let agg = run_largescale_in(&config, PolicyKind::Adapt, &world).unwrap();
    assert!(agg.all_completed);
    assert!(agg.locality.mean() > 0.5);
}

#[test]
fn overhead_components_are_consistent_across_the_stack() {
    let availability = emulated_availability(16);
    let report = simulate_policy(
        &mut AdaptPolicy::new(10.0).unwrap(),
        &availability,
        160,
        1,
        9,
    );
    assert!(report.completed);
    assert!(report.rework >= 0.0);
    assert!(report.recovery >= 0.0);
    assert!(report.migration >= 0.0);
    assert!(report.misc >= -1e-6);
    assert_eq!(report.base_work, 160.0 * 10.0);
    assert!(report.local_tasks <= report.tasks);
    assert!(report.attempts >= report.tasks);
    // Elapsed must cover at least the per-node serial work of the most
    // loaded node under perfect conditions.
    assert!(report.elapsed >= 10.0);
}
