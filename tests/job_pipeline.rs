//! Integration: map phase → event-driven shuffle/reduce phase, including
//! the future-work levers (availability-aware reducer placement and
//! steal ordering).

use adapt::core::AdaptPolicy;
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::{BlockSize, NodeId};
use adapt::sim::engine::{MapPhaseSim, SchedulingMode, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use adapt::sim::{AdaptStrategy, PlacementStrategy, ReducePhaseSim, ReduceReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Intermediate output of one map task: 8 MiB.
const MAP_OUTPUT_BYTES: u64 = 8 * 1_048_576;

fn half_flaky(nodes: usize) -> Vec<NodeAvailability> {
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

fn run_map(
    availability: &[NodeAvailability],
    blocks: usize,
    mode: SchedulingMode,
    seed: u64,
) -> adapt::sim::DetailedReport {
    let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
    let mut nn = NameNode::new(specs);
    let mut policy = AdaptPolicy::new(10.0).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let file = nn
        .create_file(
            "f",
            blocks,
            1,
            &mut policy,
            Threshold::PaperDefault,
            &mut rng,
        )
        .unwrap();
    let placement = placement_from_namenode(&nn, file).unwrap();
    let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 10.0)
        .unwrap()
        .with_scheduling(mode);
    MapPhaseSim::new(processes(availability), placement, cfg)
        .unwrap()
        .run_detailed(seed)
        .unwrap()
}

fn processes(availability: &[NodeAvailability]) -> Vec<InterruptionProcess> {
    availability
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a).unwrap())
        .collect()
}

/// The reducers `AdaptStrategy` ranks first: the most reliable hosts.
fn adapt_reducers(availability: &[NodeAvailability], reducers: usize) -> Vec<NodeId> {
    let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
    let cluster = NameNode::new(specs).cluster_view();
    let mut strategy = AdaptStrategy::new(10.0).unwrap();
    (0..reducers)
        .map(|r| {
            strategy
                .place_reduce_task(&cluster, &[], r, reducers)
                .unwrap()
        })
        .collect()
}

/// Shuffles every map winner's 8 MiB output into `reducer_nodes` over
/// gigabit links, under the same outage processes as the map phase.
fn run_reduce(
    availability: &[NodeAvailability],
    detailed: &adapt::sim::DetailedReport,
    reducer_nodes: Vec<NodeId>,
    seed: u64,
) -> ReduceReport {
    let holders: Vec<Vec<NodeId>> = detailed.winners.iter().map(|w| vec![w.unwrap()]).collect();
    let output_bytes = vec![MAP_OUTPUT_BYTES; holders.len()];
    let cfg = SimConfig::new(1_000.0, BlockSize::DEFAULT, 10.0)
        .unwrap()
        .with_horizon(1e5);
    ReducePhaseSim::new(
        processes(availability),
        holders,
        output_bytes,
        reducer_nodes,
        cfg,
        20.0,
    )
    .unwrap()
    .run(seed)
    .unwrap()
    .report
}

#[test]
fn map_winners_feed_the_shuffle_model() {
    let availability = half_flaky(16);
    let detailed = run_map(&availability, 160, SchedulingMode::Fifo, 1);
    assert!(detailed.report.completed);
    assert!(detailed.winners.iter().all(|w| w.is_some()));

    let reducers = adapt_reducers(&availability, 4);
    // All picks must be reliable hosts.
    assert!(reducers.iter().all(|r| (r.0 as usize) < 8), "{reducers:?}");

    let report = run_reduce(&availability, &detailed, reducers, 1);
    assert!(report.completed);
    assert!(report.elapsed > 20.0, "must include reduce compute");
    assert_eq!(
        report.local_bytes + report.network_bytes,
        160 * MAP_OUTPUT_BYTES,
        "volume conserved"
    );
}

#[test]
fn reducer_placement_on_winners_beats_arbitrary_placement() {
    // Reducers on the reliable hosts ADAPT ranks first finish sooner and
    // move less data than reducers on the flaky tail, which lose their
    // shuffled bytes with every outage and fetch them again.
    let availability = half_flaky(16);
    let detailed = run_map(&availability, 160, SchedulingMode::Fifo, 2);
    let good = run_reduce(
        &availability,
        &detailed,
        adapt_reducers(&availability, 4),
        2,
    );
    let bad = run_reduce(
        &availability,
        &detailed,
        vec![NodeId(12), NodeId(13), NodeId(14), NodeId(15)],
        2,
    );
    assert!(good.completed && bad.completed);
    assert!(good.network_bytes <= bad.network_bytes);
    assert!(good.elapsed <= bad.elapsed);
    assert!(good.attempts <= bad.attempts);
}

#[test]
fn both_steal_orderings_complete_with_same_failure_realization() {
    let availability = half_flaky(16);
    let fifo = run_map(&availability, 160, SchedulingMode::Fifo, 3);
    let aware = run_map(&availability, 160, SchedulingMode::AvailabilityAware, 3);
    assert!(fifo.report.completed && aware.report.completed);
    assert_eq!(fifo.report.tasks, aware.report.tasks);
    // Same seed, same cluster: failure realizations are identical (per-
    // node RNG streams), so differences come from scheduling alone.
    // Both must be within a sane band of each other.
    let ratio = fifo.report.elapsed / aware.report.elapsed;
    assert!((0.3..=3.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn node_stats_are_consistent_with_aggregates() {
    let availability = half_flaky(16);
    let detailed = run_map(&availability, 160, SchedulingMode::Fifo, 4);
    let total: usize = detailed.node_stats.iter().map(|s| s.completed_tasks).sum();
    assert_eq!(total, detailed.report.tasks);
    let local: usize = detailed.node_stats.iter().map(|s| s.local_completed).sum();
    assert_eq!(local, detailed.report.local_tasks);
    let recovery: f64 = detailed.node_stats.iter().map(|s| s.recovery).sum();
    assert!((recovery - detailed.report.recovery).abs() < 1e-6);
    for stat in &detailed.node_stats {
        assert!(stat.local_completed <= stat.completed_tasks);
        assert!(stat.recovery <= stat.downtime + 1e-9);
        assert!(stat.busy >= 0.0 && stat.downtime >= 0.0);
    }
}
