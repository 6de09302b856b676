//! Failure-injection and boundary-condition integration tests: the
//! system must stay correct at the edges of its operating envelope.

#![expect(clippy::float_cmp, reason = "exact reruns and representable values")]

use adapt::availability::dist::Dist;
use adapt::core::AdaptPolicy;
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::placement::RandomPolicy;
use adapt::dfs::{DfsError, NodeId};
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use adapt::traces::record::{HostId, HostTrace, Interruption};
use adapt::traces::replay::InterruptionSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn single_node_cluster_completes_despite_interruptions() {
    let specs = vec![NodeSpec::new(
        NodeAvailability::from_mtbi(30.0, 5.0).unwrap(),
    )];
    let mut nn = NameNode::new(specs);
    let mut rng = StdRng::seed_from_u64(1);
    let file = nn
        .create_file(
            "f",
            20,
            1,
            &mut RandomPolicy::new(),
            Threshold::None,
            &mut rng,
        )
        .unwrap();
    let placement = placement_from_namenode(&nn, file).unwrap();
    let processes =
        vec![
            InterruptionProcess::synthetic(30.0, Dist::exponential_from_mean(5.0).unwrap())
                .unwrap(),
        ];
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 5.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(1)
        .unwrap();
    assert!(report.completed);
    assert_eq!(report.locality(), 1.0);
    assert_eq!(report.transfers, 0);
    assert!(report.rework > 0.0, "interruptions must cost rework");
}

#[test]
fn every_node_flaky_still_completes() {
    let n = 8;
    let specs: Vec<NodeSpec> = (0..n)
        .map(|_| NodeSpec::new(NodeAvailability::from_mtbi(15.0, 5.0).unwrap()))
        .collect();
    let mut nn = NameNode::new(specs);
    let mut rng = StdRng::seed_from_u64(2);
    let mut policy = AdaptPolicy::new(5.0).unwrap();
    let file = nn
        .create_file("f", 80, 1, &mut policy, Threshold::PaperDefault, &mut rng)
        .unwrap();
    let placement = placement_from_namenode(&nn, file).unwrap();
    let processes: Vec<InterruptionProcess> = (0..n)
        .map(|_| {
            InterruptionProcess::synthetic(15.0, Dist::exponential_from_mean(5.0).unwrap()).unwrap()
        })
        .collect();
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 5.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(2)
        .unwrap();
    assert!(report.completed);
    assert!(report.rework > 0.0);
    assert!(report.total_overhead_ratio() > 0.0);
}

#[test]
fn unstable_hosts_get_no_data_but_cluster_functions() {
    // Two hosts are down more than up (rho >= 1): ADAPT must route all
    // data to the stable hosts.
    let mut specs = vec![NodeSpec::new(NodeAvailability::reliable()); 2];
    specs.push(NodeSpec::new(
        NodeAvailability::from_mtbi(5.0, 10.0).unwrap(),
    ));
    specs.push(NodeSpec::new(
        NodeAvailability::from_mtbi(4.0, 20.0).unwrap(),
    ));
    let mut nn = NameNode::new(specs);
    let mut rng = StdRng::seed_from_u64(3);
    let mut policy = AdaptPolicy::new(10.0).unwrap();
    let file = nn
        .create_file("f", 40, 1, &mut policy, Threshold::None, &mut rng)
        .unwrap();
    let dist = nn.file_distribution(file).unwrap();
    assert_eq!(dist[2], 0, "unstable host received data: {dist:?}");
    assert_eq!(dist[3], 0, "unstable host received data: {dist:?}");
    assert_eq!(dist[0] + dist[1], 40);
}

#[test]
fn replication_exceeding_alive_nodes_fails_cleanly() {
    let mut nn = NameNode::new(vec![NodeSpec::default(); 3]);
    nn.mark_down(NodeId(0)).unwrap();
    nn.mark_down(NodeId(1)).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let err = nn
        .create_file(
            "f",
            4,
            2,
            &mut RandomPolicy::new(),
            Threshold::None,
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, DfsError::InsufficientNodes { .. }));
    // Rollback: nothing stored, metadata valid.
    assert_eq!(nn.total_stored(), 0);
    nn.validate().unwrap();
}

#[test]
fn permanently_dead_replica_holder_bounds_progress_at_horizon() {
    // The sole holder never comes back within the horizon; the run must
    // stop at the horizon and say so.
    let host = HostTrace::new(
        HostId(0),
        1e9,
        vec![Interruption {
            start: 0.0,
            duration: 1e8,
        }],
    )
    .unwrap();
    let processes = vec![
        InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host)),
        InterruptionProcess::none(),
    ];
    let placement = vec![vec![NodeId(0)], vec![NodeId(1)]];
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0)
        .unwrap()
        .with_horizon(500.0);
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(5)
        .unwrap();
    assert!(!report.completed);
    assert_eq!(report.elapsed, 500.0);
    // Node 1's task completed; node 0's could not.
    assert_eq!(report.local_tasks, 1);
}

#[test]
fn replication_saves_the_job_when_a_holder_dies() {
    // Same dead holder, but the block has a second replica: the job
    // completes quickly via node 1.
    let host = HostTrace::new(
        HostId(0),
        1e9,
        vec![Interruption {
            start: 0.0,
            duration: 1e8,
        }],
    )
    .unwrap();
    let processes = vec![
        InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host)),
        InterruptionProcess::none(),
    ];
    let placement = vec![vec![NodeId(0), NodeId(1)]];
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0)
        .unwrap()
        .with_horizon(500.0);
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(6)
        .unwrap();
    assert!(report.completed);
    assert!((report.elapsed - 10.0).abs() < 1e-9);
}

#[test]
fn tiny_bandwidth_makes_migration_prohibitive_but_run_finishes() {
    // 0.1 Mb/s: one 64 MB block takes 5 120 s to move. All blocks on
    // node 0; node 1 should effectively never win a steal.
    let placement: Vec<Vec<NodeId>> = (0..6).map(|_| vec![NodeId(0)]).collect();
    let processes = vec![InterruptionProcess::none(), InterruptionProcess::none()];
    let cfg = SimConfig::new(0.1, adapt::dfs::BlockSize::DEFAULT, 10.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(7)
        .unwrap();
    assert!(report.completed);
    // All six tasks run locally on node 0: 60 s.
    assert!(report.elapsed <= 60.0 + 1e-9, "elapsed {}", report.elapsed);
}

#[test]
fn zero_capacity_cluster_rejects_ingestion() {
    let mut nn = NameNode::new(vec![NodeSpec::default().with_capacity(0); 2]);
    let mut rng = StdRng::seed_from_u64(8);
    let err = nn
        .create_file(
            "f",
            1,
            1,
            &mut RandomPolicy::new(),
            Threshold::None,
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, DfsError::InsufficientNodes { .. }));
}

#[test]
fn mtbi_shorter_than_block_compute_time_still_completes() {
    // MTBI 2 s against a 10 s block: on average every attempt is
    // interrupted five times before it can finish, so completion relies
    // entirely on the memoryless restart race. The run must still
    // terminate (rho = 0.25 is stable) and the rework must dwarf the
    // useful work.
    let processes =
        vec![
            InterruptionProcess::synthetic(2.0, Dist::exponential_from_mean(0.5).unwrap()).unwrap(),
        ];
    let placement: Vec<Vec<NodeId>> = (0..5).map(|_| vec![NodeId(0)]).collect();
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(11)
        .unwrap();
    assert!(report.completed);
    assert!(
        report.rework > 5.0 * 10.0,
        "rework {} should exceed the useful work in this regime",
        report.rework
    );
    // The optimized and reference engines must agree byte-for-byte on
    // this adversarial regime too.
    let scenario = adapt::verify::Scenario {
        seed: 11,
        nodes: vec![adapt::verify::NodeKind::Synthetic {
            mtbi: 2.0,
            mean_recovery: 0.5,
        }],
        placement: (0..5).map(|_| vec![0]).collect(),
        bandwidth_mbps: 8.0,
        block_bytes: adapt::dfs::BlockSize::DEFAULT.bytes(),
        gamma: 10.0,
        speculation: true,
        max_copies: 2,
        max_source_streams: 4,
        availability_aware: true,
        detection_delay: 0.0,
        horizon: 1e6,
        reducers: 2,
        reduce_gamma: 10.0,
        shuffle_skew: 1,
        racks: 1,
        oversubscription: 1.0,
        output_holders: 1,
    };
    assert_eq!(adapt::verify::check_scenario(&scenario).unwrap(), None);
}

#[test]
fn all_nodes_down_window_strands_and_resumes_every_task() {
    // Every node shares one outage window 5..55: at t = 5 the whole
    // cluster is down at once, all in-flight work is lost, and nothing
    // can steal or speculate around it. Each node then restarts its own
    // 10 s task from scratch at t = 55.
    let n: u32 = 3;
    let processes: Vec<InterruptionProcess> = (0..n)
        .map(|i| {
            let host = HostTrace::new(
                HostId(u64::from(i)),
                1e6,
                vec![Interruption {
                    start: 5.0,
                    duration: 50.0,
                }],
            )
            .unwrap();
            InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host))
        })
        .collect();
    let placement: Vec<Vec<NodeId>> = (0..n).map(|i| vec![NodeId(i)]).collect();
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(12)
        .unwrap();
    assert!(report.completed);
    assert!(
        (report.elapsed - 65.0).abs() < 1e-9,
        "elapsed {}: 5 s lost work + 50 s blackout + 10 s rerun",
        report.elapsed
    );
    assert!(report.rework > 0.0, "the blackout must cost rework");
    assert!(
        report.recovery > 0.0,
        "the blackout must cost recovery time"
    );
    // The same blackout expressed as a verify scenario: both engines
    // must agree on the stranded-and-resumed schedule.
    let scenario = adapt::verify::Scenario {
        seed: 12,
        nodes: vec![
            adapt::verify::NodeKind::Scheduled {
                outages: vec![(5.0, 50.0)],
            };
            n as usize
        ],
        placement: (0..n).map(|i| vec![i]).collect(),
        bandwidth_mbps: 8.0,
        block_bytes: adapt::dfs::BlockSize::DEFAULT.bytes(),
        gamma: 10.0,
        speculation: true,
        max_copies: 2,
        max_source_streams: 4,
        availability_aware: false,
        detection_delay: 0.0,
        horizon: 1e6,
        reducers: 2,
        reduce_gamma: 10.0,
        shuffle_skew: 1,
        racks: 1,
        oversubscription: 1.0,
        output_holders: 1,
    };
    assert_eq!(adapt::verify::check_scenario(&scenario).unwrap(), None);
}

#[test]
fn node_down_at_time_zero_loses_the_dispatch_race() {
    // Node 0 is down before the job starts and its only block is also
    // replicated on node 1: the scheduler must dispatch to node 1
    // immediately instead of waiting out the outage.
    let host = HostTrace::new(
        HostId(0),
        1e6,
        vec![Interruption {
            start: 0.0,
            duration: 300.0,
        }],
    )
    .unwrap();
    let processes = vec![
        InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host)),
        InterruptionProcess::none(),
    ];
    let placement = vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1)]];
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(13)
        .unwrap();
    assert!(report.completed);
    assert!(
        (report.elapsed - 20.0).abs() < 1e-9,
        "elapsed {}: node 1 must run both tasks back-to-back",
        report.elapsed
    );
}

#[test]
fn trace_driven_node_down_at_time_zero_is_handled() {
    let host = HostTrace::new(
        HostId(0),
        1e6,
        vec![Interruption {
            start: 0.0,
            duration: 40.0,
        }],
    )
    .unwrap();
    let processes = vec![InterruptionProcess::trace(
        InterruptionSchedule::from_host_trace(&host),
    )];
    let placement = vec![vec![NodeId(0)]];
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, 10.0).unwrap();
    let report = MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .run(9)
        .unwrap();
    assert!(report.completed);
    // Down 0..40, then 10 s of work.
    assert!(
        (report.elapsed - 50.0).abs() < 1e-9,
        "elapsed {}",
        report.elapsed
    );
    assert!((report.recovery - 40.0).abs() < 1e-9);
}
