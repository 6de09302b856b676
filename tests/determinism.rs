//! Reproducibility integration tests: every layer of the stack must be a
//! pure function of its seed.

#![expect(clippy::float_cmp, reason = "exact reruns and representable values")]

use adapt::core::AdaptPolicy;
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::experiments::config::{EmulatedConfig, LargeScaleConfig};
use adapt::experiments::emulated::run_emulated;
use adapt::experiments::largescale::{run_largescale_in, World};
use adapt::experiments::PolicyKind;
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use adapt::traces::synthetic::SyntheticPopulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn placement_is_deterministic_per_seed() {
    let build = |seed: u64| {
        let specs: Vec<NodeSpec> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    NodeSpec::new(NodeAvailability::reliable())
                } else {
                    NodeSpec::new(NodeAvailability::from_mtbi(12.0, 4.0).unwrap())
                }
            })
            .collect();
        let mut nn = NameNode::new(specs);
        let mut policy = AdaptPolicy::new(10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let file = nn
            .create_file("f", 64, 2, &mut policy, Threshold::PaperDefault, &mut rng)
            .unwrap();
        placement_from_namenode(&nn, file).unwrap()
    };
    assert_eq!(build(5), build(5));
    assert_ne!(build(5), build(6));
}

#[test]
fn simulation_failure_realization_is_independent_of_placement() {
    // The per-node RNG streams mean two different placements on the same
    // cluster and seed face identical interruption schedules. Observable
    // consequence: on an otherwise idle, task-free-equivalent setup the
    // recovery accounting of a node with no data is zero, and flipping
    // which node holds the single block flips which node's outages show
    // up as recovery — with *identical* outage timing.
    use adapt::availability::dist::Dist;
    use adapt::dfs::NodeId;
    let processes = || {
        vec![
            InterruptionProcess::synthetic(40.0, Dist::exponential_from_mean(10.0).unwrap())
                .unwrap(),
            InterruptionProcess::synthetic(40.0, Dist::exponential_from_mean(10.0).unwrap())
                .unwrap(),
        ]
    };
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 200.0)
        .unwrap()
        .with_speculation(false);
    // Long single task on node 0 vs on node 1.
    let on0 = MapPhaseSim::new(processes(), vec![vec![NodeId(0)]], cfg)
        .unwrap()
        .run(77)
        .unwrap();
    let on0_again = MapPhaseSim::new(processes(), vec![vec![NodeId(0)]], cfg)
        .unwrap()
        .run(77)
        .unwrap();
    assert_eq!(on0, on0_again, "bitwise reproducible");
    let on1 = MapPhaseSim::new(processes(), vec![vec![NodeId(1)]], cfg)
        .unwrap()
        .run(77)
        .unwrap();
    // Same seed, different placement: both complete, and the elapsed
    // times differ only because the two nodes' independent streams
    // differ — not because placement perturbed the failure processes.
    assert!(on0.completed && on1.completed);
}

#[test]
fn trace_generation_and_world_are_reproducible() {
    let pop = SyntheticPopulation::seti_like().unwrap().hosts(64);
    assert_eq!(pop.generate(3).unwrap(), pop.generate(3).unwrap());

    let config = LargeScaleConfig {
        nodes: 64,
        tasks_per_node: 5,
        runs: 2,
        ..LargeScaleConfig::default()
    };
    let w1 = World::generate(&config).unwrap();
    let w2 = World::generate(&config).unwrap();
    assert_eq!(w1.availability(), w2.availability());

    let a1 = run_largescale_in(&config, PolicyKind::Adapt, &w1).unwrap();
    let a2 = run_largescale_in(&config, PolicyKind::Adapt, &w2).unwrap();
    assert_eq!(a1.elapsed.mean(), a2.elapsed.mean());
    assert_eq!(a1.migration_ratio.mean(), a2.migration_ratio.mean());
}

#[test]
fn emulated_harness_is_reproducible_and_seed_sensitive() {
    let config = EmulatedConfig {
        nodes: 16,
        blocks_per_node: 5,
        runs: 2,
        ..EmulatedConfig::default()
    };
    let a = run_emulated(&config, PolicyKind::Adapt).unwrap();
    let b = run_emulated(&config, PolicyKind::Adapt).unwrap();
    assert_eq!(a.elapsed.mean(), b.elapsed.mean());

    let reseeded = EmulatedConfig {
        seed: 999,
        ..config
    };
    let c = run_emulated(&reseeded, PolicyKind::Adapt).unwrap();
    assert_ne!(
        a.elapsed.mean(),
        c.elapsed.mean(),
        "different seeds should explore different realizations"
    );
}
