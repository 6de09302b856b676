//! Records a full event trace of one small volatile-cluster map phase,
//! then explores it: exact overhead re-derivation, the critical path
//! with a reason for every hop, and a Chrome `trace_event` file you can
//! open in `about://tracing` or Perfetto.
//!
//! Run with: `cargo run --example trace_explore`

use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::BlockSize;
use adapt::experiments::PolicyKind;
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use adapt::trace::{critical_path, derive_totals, write_chrome, TraceRecorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 16;
const GAMMA: f64 = 12.0;
const SEED: u64 = 2012;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small cluster where every other host is volatile: MTBI 150 s,
    // 40 s mean recoveries — enough churn for kills, requeues, and
    // remote re-execution within a minute of simulated time.
    let avail: Vec<NodeAvailability> = (0..NODES)
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
        .collect();

    // ADAPT placement through the NameNode, with placement events
    // (BlockPlaced per replica) recorded into the same trace the
    // simulator will append to.
    let mut namenode = NameNode::new(avail.iter().map(|&a| NodeSpec::new(a)).collect());
    namenode.attach_trace(TraceRecorder::new());
    let mut policy = PolicyKind::Adapt.build(GAMMA);
    let mut rng = StdRng::seed_from_u64(SEED);
    let file = namenode.create_file(
        "input",
        NODES * 4,
        2,
        policy.as_mut(),
        Threshold::PaperDefault,
        &mut rng,
    )?;
    let placement = placement_from_namenode(&namenode, file)?;

    let processes: Vec<InterruptionProcess> = avail
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a))
        .collect::<Result<_, _>>()?;

    let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, GAMMA)?.with_detection_delay(5.0)?;
    let detailed = MapPhaseSim::new(processes, placement, cfg)?
        .with_trace(namenode.take_trace().expect("trace attached above"))
        .run_detailed(SEED)?;
    let trace = detailed.trace.as_ref().expect("run was traced");

    println!(
        "Traced {} events over {:.3} s simulated ({} nodes, {} tasks).\n",
        trace.events.len(),
        trace.meta.elapsed,
        trace.meta.nodes,
        trace.meta.tasks
    );

    // The trace alone re-derives the engine's Figure-5 overhead
    // decomposition — the same integers the telemetry counted.
    let derived = derive_totals(trace);
    let snap = &detailed.telemetry;
    println!("overhead (µs)   trace-derived   engine telemetry");
    for (name, a, b) in [
        ("rework", derived.rework_us, snap.rework_us),
        ("recovery", derived.recovery_us, snap.recovery_us),
        ("migration", derived.migration_us, snap.migration_us),
        ("misc", derived.misc_us, snap.misc_us),
    ] {
        assert_eq!(a, b, "{name} must match exactly, not approximately");
        println!("  {name:<12} {a:>14} {b:>18}");
    }

    // Why did the job take this long? Walk the dependency chain ending
    // at the last task completion back to t = 0.
    let hops = critical_path(trace);
    let chain: f64 = hops.iter().map(|h| h.end - h.start).sum();
    println!(
        "\ncritical path: {} hops, {chain:.3} s on the chain",
        hops.len()
    );
    for hop in &hops {
        println!(
            "  [{:>9.3} .. {:>9.3}] {:>10} {:>8.3}s  {}",
            hop.start,
            hop.end,
            hop.kind.as_str(),
            hop.end - hop.start,
            hop.detail
        );
    }

    // Chrome trace_event export: one timeline row per node.
    let out = std::env::temp_dir().join("adapt_trace_explore.json");
    std::fs::write(&out, write_chrome(trace))?;
    println!(
        "\nChrome trace written to {} — open it in about://tracing or Perfetto.",
        out.display()
    );
    Ok(())
}
