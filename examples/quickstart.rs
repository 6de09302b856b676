//! Quickstart: predict, place, simulate.
//!
//! Builds a small non-dedicated cluster (half reliable, half flaky),
//! predicts per-node task times with the paper's equation (5), ingests a
//! file under both the stock random placement and ADAPT, and simulates
//! the map phase under both placements on identical failure realizations.
//!
//! Run with: `cargo run --example quickstart`

use adapt::core::AdaptPolicy;
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::placement::{PlacementPolicy, RandomPolicy};
use adapt::dfs::NodeId;
use adapt::sim::engine::{MapPhaseSim, SimConfig};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 16;
const BLOCKS: usize = 160; // 10 blocks per node on average
const GAMMA: f64 = 10.0; // failure-free seconds per 64 MB map task

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Half the hosts are dedicated; the rest are interrupted every
    // 10–20 s and take 4–8 s to recover (the paper's Table 2 groups).
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

    // The Performance Predictor's view (equation (5)).
    println!("Expected time for a {GAMMA} s map task per node:");
    for (i, a) in availability.iter().enumerate() {
        println!(
            "  node{i:<2} λ={:<6.3} μ={:<4.1}  E[T] = {:>6.2} s",
            a.lambda,
            a.mu,
            a.expected_completion(GAMMA)?
        );
    }

    for (name, mut policy) in [
        (
            "existing (random)",
            Box::new(RandomPolicy::new()) as Box<dyn PlacementPolicy>,
        ),
        ("ADAPT", Box::new(AdaptPolicy::new(GAMMA)?)),
    ] {
        // Ingest through the NameNode.
        let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
        let mut namenode = NameNode::new(specs);
        let mut rng = StdRng::seed_from_u64(42);
        let file = namenode.create_file(
            "input",
            BLOCKS,
            1,
            policy.as_mut(),
            Threshold::PaperDefault,
            &mut rng,
        )?;
        let dist = namenode.file_distribution(file)?;

        // Simulate the map phase. The engine gives every node its own
        // RNG stream derived from the seed, so both policies see the
        // same interruption realization.
        let processes: Vec<InterruptionProcess> = availability
            .iter()
            .map(|&a| InterruptionProcess::from_availability(a))
            .collect::<Result<_, _>>()?;
        let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, GAMMA)?;
        let placement = placement_from_namenode(&namenode, file)?;
        let report = MapPhaseSim::new(processes, placement, cfg)?.run(7)?;

        println!("\n== {name} ==");
        println!(
            "  blocks on reliable half : {}",
            dist[..NODES / 2].iter().sum::<usize>()
        );
        println!(
            "  blocks on flaky half    : {}",
            dist[NODES / 2..].iter().sum::<usize>()
        );
        println!("  map phase elapsed       : {:8.1} s", report.elapsed);
        println!("  data locality           : {:8.3}", report.locality());
        println!(
            "  rework / recovery       : {:8.1} / {:.1} s",
            report.rework, report.recovery
        );
        println!("  block transfers         : {:8}", report.transfers);
        let _ = namenode.node_blocks(NodeId(0))?; // metadata stays queryable
    }
    Ok(())
}
