//! The differential gate: the naive reference engine and the optimized
//! engine must produce identical `DetailedReport`s — aggregate metrics,
//! per-node stats, speculation winners, telemetry snapshot, and full
//! event trace — on every generated scenario, and the two reduce engines
//! identical `ReduceDetailed`s on the wide reduce corpus.
//!
//! This is the acceptance bar from DESIGN.md §13: at least 100
//! generated scenarios checked in CI, zero divergence. Any failure here
//! means an optimization changed observable behaviour; reproduce with
//! `adapt_verify::generate(seed)` and shrink with
//! `adapt_verify::shrink`.

use adapt_verify::oracle::check_reduce_scenario;
use adapt_verify::{
    check_scenario, generate, generate_wide, generate_wide_reduce, shrink, Scenario,
};

/// How many generated scenarios the gate sweeps. The acceptance
/// criterion requires at least 100.
const CORPUS: u64 = 128;

/// How many wide scenarios the gate sweeps; `verify` runs one per seed
/// of its corpus.
const WIDE_CORPUS: u64 = 64;

fn explain(seed: u64, scenario: Scenario) -> String {
    let minimized = shrink(scenario, |c| matches!(check_scenario(c), Ok(Some(_))));
    let divergence = check_scenario(&minimized)
        .ok()
        .flatten()
        .map(|d| d.to_value().to_json())
        .unwrap_or_else(|| "divergence vanished while shrinking".to_string());
    format!(
        "seed {seed} diverged: {divergence}\nminimized scenario: {}",
        minimized.to_value().to_json()
    )
}

#[test]
fn engines_agree_on_the_full_corpus() {
    for seed in 0..CORPUS {
        let scenario = generate(seed);
        match check_scenario(&scenario) {
            Ok(None) => {}
            Ok(Some(_)) => panic!("{}", explain(seed, generate(seed))),
            Err(e) => panic!("seed {seed}: oracle error: {e}"),
        }
    }
}

/// Hundreds of tasks on dozens of nodes: every engine set spans several
/// 64-id words, sources saturate and free up mid-run, and some hosts
/// carry a +∞ slowdown — the speculation index's edge cases.
#[test]
fn engines_agree_on_the_wide_corpus() {
    for seed in 0..WIDE_CORPUS {
        let scenario = generate_wide(seed);
        match check_scenario(&scenario) {
            Ok(None) => {}
            Ok(Some(_)) => panic!("{}", explain(seed, scenario)),
            Err(e) => panic!("seed {seed}: wide oracle error: {e}"),
        }
    }
}

/// Dozens of reducers per host, source and uplink on 2–8 racks, with
/// one to three holders per map output: re-sourcing, blocking on several
/// holders and stale wait entries, under each reducer-placement strategy.
#[test]
fn engines_agree_on_the_wide_reduce_corpus() {
    for seed in 0..WIDE_CORPUS {
        let scenario = generate_wide_reduce(seed);
        match check_reduce_scenario(&scenario) {
            Ok(None) => {}
            Ok(Some(_)) => {
                let minimized = shrink(scenario, |c| {
                    matches!(check_reduce_scenario(c), Ok(Some(_)))
                });
                panic!(
                    "seed {seed} diverged: {:?}\nminimized scenario: {}",
                    check_reduce_scenario(&minimized),
                    minimized.to_value().to_json()
                );
            }
            Err(e) => panic!("seed {seed}: wide reduce oracle error: {e}"),
        }
    }
}

#[test]
fn engines_agree_on_handpicked_edge_cases() {
    use adapt_verify::NodeKind;

    // Every node down at t = 0 for longer than the horizon: nothing can
    // ever run, both engines must agree on the all-stranded report.
    let stranded = Scenario {
        seed: 42,
        nodes: vec![
            NodeKind::Scheduled {
                outages: vec![(0.0, 2_000.0)],
            };
            3
        ],
        placement: vec![vec![0, 1], vec![1, 2], vec![2, 0]],
        bandwidth_mbps: 8.0,
        block_bytes: 64 << 20,
        gamma: 12.0,
        speculation: true,
        max_copies: 2,
        max_source_streams: 2,
        availability_aware: true,
        detection_delay: 5.0,
        horizon: 1_000.0,
        reducers: 2,
        reduce_gamma: 10.0,
        shuffle_skew: 1,
        racks: 1,
        oversubscription: 1.0,
        output_holders: 1,
    };
    assert_eq!(check_scenario(&stranded).unwrap(), None);

    // Zero-length outage exactly at a task boundary: the down and up
    // events tie in time and must resolve in the same FIFO order.
    let tie = Scenario {
        seed: 7,
        nodes: vec![
            NodeKind::Scheduled {
                outages: vec![(12.0, 0.0), (24.0, 6.0)],
            },
            NodeKind::Reliable,
        ],
        placement: vec![vec![0], vec![0], vec![1]],
        bandwidth_mbps: 8.0,
        block_bytes: 64 << 20,
        gamma: 12.0,
        speculation: false,
        max_copies: 1,
        max_source_streams: 1,
        availability_aware: false,
        detection_delay: 0.0,
        horizon: 10_000.0,
        reducers: 2,
        reduce_gamma: 10.0,
        shuffle_skew: 1,
        racks: 1,
        oversubscription: 1.0,
        output_holders: 1,
    };
    assert_eq!(check_scenario(&tie).unwrap(), None);
}

/// A synthetic node whose mean recovery exceeds its MTBI (ρ = 2) never
/// drains its recovery queue: the scenario is rejected with an error
/// rather than run.
#[test]
fn unstable_synthetic_node_is_rejected() {
    use adapt_verify::{NodeKind, VerifyError};

    let unstable = Scenario {
        nodes: vec![
            NodeKind::Synthetic {
                mtbi: 10.0,
                mean_recovery: 20.0,
            },
            NodeKind::Reliable,
        ],
        placement: vec![vec![0], vec![1]],
        ..generate(1)
    };
    assert!(matches!(
        check_scenario(&unstable),
        Err(VerifyError::InvalidScenario { .. })
    ));
}
