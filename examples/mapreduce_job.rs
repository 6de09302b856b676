//! A full MapReduce job: map phase simulation plus the event-driven
//! shuffle/reduce phase — including the paper's future-work lever,
//! availability-aware reducer placement.
//!
//! Run with: `cargo run --example mapreduce_job`

use adapt::core::AdaptPolicy;
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::{BlockSize, NodeId};
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use adapt::sim::{AdaptStrategy, PlacementStrategy, ReducePhaseSim};
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 16;
const BLOCKS: usize = 160;
const GAMMA: f64 = 10.0;
const REDUCERS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Cluster: half reliable, half Table-2 flaky.
    let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
    let availability: Vec<NodeAvailability> = (0..NODES)
        .map(|i| {
            if i < NODES / 2 {
                Ok(NodeAvailability::reliable())
            } else {
                let (mtbi, mu) = groups[(i - NODES / 2) % 4];
                NodeAvailability::from_mtbi(mtbi, mu)
            }
        })
        .collect::<Result<_, _>>()?;

    // Map phase under ADAPT placement.
    let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
    let mut namenode = NameNode::new(specs);
    let mut policy = AdaptPolicy::new(GAMMA)?;
    let mut rng = StdRng::seed_from_u64(5);
    let file = namenode.create_file(
        "job-input",
        BLOCKS,
        1,
        &mut policy,
        Threshold::PaperDefault,
        &mut rng,
    )?;
    let placement = placement_from_namenode(&namenode, file)?;
    let processes: Vec<InterruptionProcess> = availability
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a))
        .collect::<Result<_, _>>()?;
    let map_cfg = SimConfig::new(8.0, BlockSize::DEFAULT, GAMMA)?;
    let detailed = MapPhaseSim::new(processes.clone(), placement, map_cfg)?.run_detailed(17)?;
    println!("map phase:");
    println!("  elapsed  : {:8.1} s", detailed.report.elapsed);
    println!("  locality : {:8.3}", detailed.report.locality());

    // Per-node view: where did the outputs land?
    let outputs_per_node: Vec<usize> = detailed
        .node_stats
        .iter()
        .map(|s| s.completed_tasks)
        .collect();
    println!("  map outputs per node: {outputs_per_node:?}");

    // Shuffle/reduce: each map task emits 8 MB of intermediate data,
    // fetched over gigabit links under the same outage processes.
    let holders: Vec<Vec<NodeId>> = detailed
        .winners
        .iter()
        .flatten()
        .map(|&w| vec![w])
        .collect();
    let output_bytes = vec![8 * 1_048_576; holders.len()];
    let reduce_cfg = SimConfig::new(1_000.0, BlockSize::DEFAULT, GAMMA)?.with_horizon(1e5);

    // Future-work lever: AdaptStrategy ranks every host by equation-(5)
    // slowdown. Reducers on the hosts it ranks first, versus reducers on
    // the flakiest hosts, the last it ranks.
    let cluster = namenode.cluster_view();
    let mut strategy = AdaptStrategy::new(GAMMA)?;
    let ranked: Vec<NodeId> = (0..NODES)
        .map(|r| strategy.place_reduce_task(&cluster, &holders, r, NODES))
        .collect::<Result<_, _>>()?;
    let reliable_nodes = ranked[..REDUCERS].to_vec();
    let volatile_nodes = ranked[NODES - REDUCERS..].to_vec();

    let run_reduce = |reducer_nodes: Vec<NodeId>| {
        ReducePhaseSim::new(
            processes.clone(),
            holders.clone(),
            output_bytes.clone(),
            reducer_nodes,
            reduce_cfg,
            30.0,
        )?
        .run(17)
        .map(|detailed| detailed.report)
    };
    let good = run_reduce(reliable_nodes)?;
    let bad = run_reduce(volatile_nodes)?;

    println!("\nshuffle + reduce (event-driven, outages included):");
    for (label, report) in [("reliable", &good), ("volatile", &bad)] {
        println!(
            "  reducers on {label} hosts {:?}: elapsed {:7.1} s, {:3} attempts, \
             {:6.2} GB fetched, shuffle locality {:.3}",
            report.reducer_nodes,
            report.elapsed,
            report.attempts,
            report.network_bytes as f64 / 1e9,
            report.shuffle_locality()
        );
    }
    println!(
        "\ntotal job: {:.1} s (map) + {:.1} s (shuffle/reduce) = {:.1} s",
        detailed.report.elapsed,
        good.elapsed,
        detailed.report.elapsed + good.elapsed
    );
    Ok(())
}
