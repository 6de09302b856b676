//! The `adapt` shell command, reproduced: re-place an existing file so
//! its distribution becomes availability-aware.
//!
//! Ingests a file under the stock random placement, runs the rebalancer
//! with the ADAPT policy (the paper's new `hadoop adapt <file>` command),
//! and shows how many replicas moved and what the re-placement buys in
//! expected and simulated map-phase time.
//!
//! Run with: `cargo run --example rebalance`

use adapt::core::AdaptPolicy;
use adapt::dfs::cluster::{NodeAvailability, NodeSpec};
use adapt::dfs::namenode::{NameNode, Threshold};
use adapt::dfs::placement::RandomPolicy;
use adapt::dfs::rebalance::rebalance_file;
use adapt::dfs::{FileId, NodeId};
use adapt::sim::engine::{MapPhaseSim, SimConfig, SimReport};
use adapt::sim::interrupt::InterruptionProcess;
use adapt::sim::runner::placement_from_namenode;
use rand::rngs::StdRng;
use rand::SeedableRng;

const GAMMA: f64 = 10.0;

fn expected_makespan(namenode: &NameNode, file: FileId) -> Result<f64, Box<dyn std::error::Error>> {
    let dist = namenode.file_distribution(file)?;
    let mut worst: f64 = 0.0;
    for (i, &blocks) in dist.iter().enumerate() {
        let et = namenode
            .availability(NodeId(i as u32))?
            .expected_completion(GAMMA)?;
        worst = worst.max(blocks as f64 * et);
    }
    Ok(worst)
}

fn simulate(
    namenode: &NameNode,
    file: FileId,
    availability: &[NodeAvailability],
) -> Result<SimReport, Box<dyn std::error::Error>> {
    let placement = placement_from_namenode(namenode, file)?;
    let processes: Vec<InterruptionProcess> = availability
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a))
        .collect::<Result<_, _>>()?;
    let cfg = SimConfig::new(8.0, adapt::dfs::BlockSize::DEFAULT, GAMMA)?;
    Ok(MapPhaseSim::new(processes, placement, cfg)?.run(11)?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
    let availability: Vec<NodeAvailability> = (0..16)
        .map(|i| {
            if i < 8 {
                Ok(NodeAvailability::reliable())
            } else {
                let (mtbi, mu) = groups[(i - 8) % 4];
                NodeAvailability::from_mtbi(mtbi, mu)
            }
        })
        .collect::<Result<_, _>>()?;
    let specs: Vec<NodeSpec> = availability.iter().map(|&a| NodeSpec::new(a)).collect();
    let mut namenode = NameNode::new(specs);
    let mut rng = StdRng::seed_from_u64(3);

    // 1. `copyFromLocal` without ADAPT: stock random placement.
    let file = namenode.create_file(
        "dataset",
        160,
        1,
        &mut RandomPolicy::new(),
        Threshold::PaperDefault,
        &mut rng,
    )?;
    println!("after random ingest:");
    println!(
        "  distribution       : {:?}",
        namenode.file_distribution(file)?
    );
    println!(
        "  expected makespan  : {:8.1} s",
        expected_makespan(&namenode, file)?
    );
    let before = simulate(&namenode, file, &availability)?;
    println!("  simulated map time : {:8.1} s", before.elapsed);

    // 2. `hadoop adapt dataset`: redistribute availability-aware.
    let mut adapt_policy = AdaptPolicy::new(GAMMA)?;
    let report = rebalance_file(
        &mut namenode,
        file,
        &mut adapt_policy,
        Threshold::PaperDefault,
        &mut rng,
    )?;
    namenode.validate()?;
    println!("\nafter `adapt` rebalance:");
    println!(
        "  moved {}/{} replicas ({:.0}% of the data)",
        report.moved,
        report.replicas,
        report.moved_fraction() * 100.0
    );
    println!(
        "  distribution       : {:?}",
        namenode.file_distribution(file)?
    );
    println!(
        "  expected makespan  : {:8.1} s",
        expected_makespan(&namenode, file)?
    );
    let after = simulate(&namenode, file, &availability)?;
    println!("  simulated map time : {:8.1} s", after.elapsed);
    println!(
        "\nimprovement: {:.0}% (simulated, same failure realization)",
        (1.0 - after.elapsed / before.elapsed) * 100.0
    );
    Ok(())
}
