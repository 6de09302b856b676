//! Failure-injection tests for the reduce phase, each cross-checked
//! against the naive lockstep reference: the optimized
//! [`ReducePhaseSim`] and [`ReferenceReduce`] must agree *exactly* —
//! report and full event trace — while the scenario exercises one
//! specific failure mode (source death mid-fetch, reducer death after
//! the shuffle, a whole-rack outage).

#![expect(clippy::float_cmp, reason = "exact reruns and representable values")]
#![expect(clippy::wildcard_enum_match_arm, reason = "picks one event kind")]

use adapt_dfs::{BlockSize, NodeId};
use adapt_sim::engine::SimConfig;
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::{ReduceDetailed, ReducePhaseSim, Topology};
use adapt_trace::{TraceEvent, TraceRecorder};
use adapt_traces::record::{HostId, HostTrace, Interruption};
use adapt_traces::replay::InterruptionSchedule;
use adapt_verify::ReferenceReduce;

const MB: u64 = 1_048_576;

/// 8 Mb/s, 64 MB blocks, gamma 12 s: an 8 MB slice moves in 8 s flat.
fn cfg() -> SimConfig {
    SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
}

fn outage(start: f64, duration: f64) -> InterruptionProcess {
    let host = HostTrace::new(
        HostId(0),
        1_000_000.0,
        vec![Interruption { start, duration }],
    )
    .unwrap();
    InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host))
}

/// Runs both reduce engines traced on identical inputs and checks the
/// lockstep contract before handing the (shared) outcome back.
fn run_both_locked(
    processes: Vec<InterruptionProcess>,
    holders: Vec<Vec<NodeId>>,
    output_bytes: Vec<u64>,
    reducer_nodes: Vec<NodeId>,
    cfg: SimConfig,
    reduce_gamma: f64,
    seed: u64,
) -> ReduceDetailed {
    let optimized = ReducePhaseSim::new(
        processes.clone(),
        holders.clone(),
        output_bytes.clone(),
        reducer_nodes.clone(),
        cfg,
        reduce_gamma,
    )
    .unwrap()
    .with_trace(TraceRecorder::new())
    .run(seed)
    .unwrap();
    let reference = ReferenceReduce::new(
        processes,
        holders,
        output_bytes,
        reducer_nodes,
        cfg,
        reduce_gamma,
    )
    .unwrap()
    .with_trace(TraceRecorder::new())
    .run(seed)
    .unwrap();
    assert_eq!(
        optimized, reference,
        "optimized and reference reduce engines diverged"
    );
    optimized
}

fn shuffle_fetches(detailed: &ReduceDetailed) -> Vec<(u32, u32, bool)> {
    detailed
        .trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ShuffleFetch {
                source,
                dest,
                aborted,
                ..
            } => Some((*source, *dest, *aborted)),
            _ => None,
        })
        .collect()
}

#[test]
fn source_death_mid_fetch_resources_from_a_replica() {
    // Node 0 starts serving an 8 MB slice to the reducer on node 1 and
    // dies at t = 4, mid-flight. The output is replicated on node 2, so
    // the fetch aborts and re-sources there: abort at 4, refetch 4..12,
    // compute 12..22.
    let detailed = run_both_locked(
        vec![
            outage(4.0, 1_000.0),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
        ],
        vec![vec![NodeId(0), NodeId(2)]],
        vec![8 * MB],
        vec![NodeId(1)],
        cfg(),
        10.0,
        7,
    );
    let report = &detailed.report;
    assert!(report.completed);
    assert_eq!(report.elapsed, 22.0);
    assert_eq!(report.fetches, 2);
    assert_eq!(report.fetches_aborted, 1);
    assert_eq!(report.network_bytes, 8 * MB);
    assert_eq!(report.interruptions, 1);
    // The trace shows the aborted pull from node 0 and the successful
    // re-source from the replica on node 2.
    let fetches = shuffle_fetches(&detailed);
    assert_eq!(fetches, vec![(0, 1, true), (2, 1, false)]);
}

#[test]
fn reducer_death_after_shuffle_reworks_per_equation_2() {
    // The reducer on node 1 finishes its only fetch at t = 8 and is two
    // seconds into the 10 s compute when its host dies at t = 10. Under
    // the paper's equation (2) restart-from-scratch semantics the whole
    // attempt is lost: the recovery at t = 20 refetches all 8 MB
    // (20..28) and recomputes from zero (28..38). Exactly the two
    // interrupted compute seconds count as rework.
    let detailed = run_both_locked(
        vec![InterruptionProcess::none(), outage(10.0, 10.0)],
        vec![vec![NodeId(0)]],
        vec![8 * MB],
        vec![NodeId(1)],
        cfg(),
        10.0,
        7,
    );
    let report = &detailed.report;
    assert!(report.completed);
    assert_eq!(report.elapsed, 38.0);
    assert_eq!(report.attempts, 2);
    assert_eq!(report.fetches, 2);
    assert_eq!(report.fetches_aborted, 0);
    // Both fetches completed, so the consumed output moves twice.
    assert_eq!(report.network_bytes, 16 * MB);
    assert_eq!(report.rework, 2.0);
    assert_eq!(report.base_work, 10.0);
    // Two attempts appear in the trace with monotone attempt numbers.
    let attempts: Vec<u64> = detailed
        .trace
        .as_ref()
        .unwrap()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ReduceStarted { attempt, .. } => Some(*attempt),
            _ => None,
        })
        .collect();
    assert_eq!(attempts, vec![0, 1]);
}

#[test]
fn whole_rack_outage_mid_shuffle_recovers_and_completes() {
    // Two racks (node % 2): holders on nodes 0 (rack 0) and 1 (rack 1),
    // reducers on nodes 2 (rack 0) and 3 (rack 1). All of rack 1 —
    // nodes 1 and 3 — goes dark at t = 4 for 30 s, killing one reducer
    // host and one map-output holder mid-shuffle. Both reducers must
    // still finish: the rack-0 reducer blocks on the dead holder and
    // resumes when rack 1 returns; the rack-1 reducer restarts its
    // attempt from scratch.
    let detailed = run_both_locked(
        vec![
            InterruptionProcess::none(),
            outage(4.0, 30.0),
            InterruptionProcess::none(),
            outage(4.0, 30.0),
        ],
        vec![vec![NodeId(0)], vec![NodeId(1)]],
        vec![8 * MB, 8 * MB],
        vec![NodeId(2), NodeId(3)],
        cfg().with_topology(Topology::new(2, 2.0).unwrap()),
        10.0,
        7,
    );
    let report = &detailed.report;
    assert!(report.completed, "both reducers recover from the outage");
    assert_eq!(report.reducers, 2);
    assert_eq!(report.interruptions, 2);
    assert!(report.fetches_aborted >= 1, "{report:?}");
    assert!(report.attempts >= 3, "the rack-1 reducer restarts");
    // Each reducer pulls one slice from the other rack.
    assert!(report.cross_rack_bytes > 0);
    assert!(report.cross_rack_bytes < report.network_bytes);
    // No byte is lost to the outage: every slice of both outputs lands,
    // with the rack-1 reducer's pre-outage progress re-fetched.
    let consumed: u64 = 16 * MB;
    assert!(report.local_bytes + report.network_bytes >= consumed);
}
