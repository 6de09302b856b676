//! End-to-end cross-check of the event-tracing contract: for a full
//! NameNode-placement + map-phase pipeline, the trace must re-derive the
//! engine's overhead decomposition (paper Figure 5) and attempt/transfer
//! counts *exactly* — same integers, not approximately — under both the
//! ADAPT policy and the naive baseline, across several seeds.

use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_dfs::BlockSize;
use adapt_experiments::PolicyKind;
use adapt_sim::engine::{DetailedReport, MapPhaseSim, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::runner::placement_from_namenode;
use adapt_trace::{derive_totals, parse_jsonl, write_jsonl, TraceRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 24;
const GAMMA: f64 = 12.0;

/// Half the cluster volatile (MTBI 150 s, 40 s recoveries), half
/// reliable — enough churn to exercise kills, requeues, speculation, and
/// remote transfers within a ~1-minute simulated run.
fn availabilities() -> Vec<NodeAvailability> {
    (0..NODES)
        .map(|i| {
            if i % 2 == 0 {
                NodeAvailability {
                    lambda: 1.0 / 150.0,
                    mu: 40.0,
                }
            } else {
                NodeAvailability::reliable()
            }
        })
        .collect()
}

fn traced_run(policy: PolicyKind, seed: u64) -> DetailedReport {
    let avail = availabilities();
    let mut namenode = NameNode::new(avail.iter().map(|&a| NodeSpec::new(a)).collect());
    namenode.attach_trace(TraceRecorder::new());
    let mut placement_policy = policy.build(GAMMA);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_A5A5);
    let file = namenode
        .create_file(
            "input",
            NODES * 4,
            2,
            placement_policy.as_mut(),
            Threshold::PaperDefault,
            &mut rng,
        )
        .unwrap();
    let placement = placement_from_namenode(&namenode, file).unwrap();
    let processes: Vec<InterruptionProcess> = avail
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a).unwrap())
        .collect();
    let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, GAMMA)
        .unwrap()
        .with_detection_delay(5.0)
        .unwrap();
    MapPhaseSim::new(processes, placement, cfg)
        .unwrap()
        .with_trace(namenode.take_trace().unwrap())
        .run_detailed(seed)
        .unwrap()
}

#[test]
fn trace_rederives_overheads_exactly_for_adapt_and_naive() {
    let mut saw_interruption = false;
    for policy in [PolicyKind::Adapt, PolicyKind::Naive] {
        for seed in [1u64, 2, 3] {
            let detailed = traced_run(policy, seed);
            let trace = detailed.trace.as_ref().unwrap();
            let derived = derive_totals(trace);
            let snap = &detailed.telemetry;
            let label = format!("{policy:?} seed {seed}");
            assert_eq!(derived.rework_us, snap.rework_us, "rework {label}");
            assert_eq!(derived.recovery_us, snap.recovery_us, "recovery {label}");
            assert_eq!(derived.migration_us, snap.migration_us, "migration {label}");
            assert_eq!(derived.misc_us, snap.misc_us, "misc {label}");
            assert_eq!(derived.elapsed_us, snap.elapsed_us, "elapsed {label}");
            assert_eq!(derived.attempts_started, snap.attempts_started, "{label}");
            assert_eq!(derived.transfers_started, snap.transfers_started, "{label}");
            assert_eq!(derived.interruptions, snap.interruptions, "{label}");
            assert_eq!(
                derived.kills_interruption, snap.kills_interruption,
                "{label}"
            );
            assert_eq!(derived.kills_source_lost, snap.kills_source_lost, "{label}");
            assert_eq!(
                derived.speculative_losses, snap.speculative_losses,
                "{label}"
            );
            assert_eq!(derived.requeues, snap.requeues, "{label}");
            // Placement events cover every replica: m blocks x k replicas.
            assert_eq!(derived.blocks_placed, (NODES * 4 * 2) as u64, "{label}");
            saw_interruption |= derived.interruptions > 0;
        }
    }
    // The scenario must actually exercise the failure paths, or the
    // equalities above prove nothing.
    assert!(saw_interruption, "no seed produced an interruption");
}

#[test]
fn pipeline_trace_roundtrips_through_jsonl() {
    let detailed = traced_run(PolicyKind::Adapt, 2);
    let trace = detailed.trace.unwrap();
    let text = write_jsonl(&trace);
    let reparsed = parse_jsonl(&text).unwrap();
    assert_eq!(reparsed, trace);
    // Re-serializing the parsed trace is byte-identical.
    assert_eq!(write_jsonl(&reparsed), text);
    // A different seed yields a different trace (the recorder is not
    // somehow frozen).
    let other = traced_run(PolicyKind::Adapt, 3).trace.unwrap();
    assert_ne!(write_jsonl(&other), text);
}
