//! High-level simulation helpers: NameNode → placement bridging and
//! multi-seed aggregation.
//!
//! The paper reports means over 10 runs per scenario; [`aggregate`] folds
//! any number of [`SimReport`]s into per-metric [`Moments`] so experiment
//! harnesses can report means and dispersion.

use adapt_availability::Moments;
use adapt_dfs::{DfsError, FileId, NameNode, NodeId};

use crate::engine::SimReport;

/// Extracts the task→replica-nodes placement of a file from a NameNode,
/// in block order — the simulator's input.
///
/// # Errors
///
/// Returns [`DfsError::UnknownFile`] if the file does not exist.
///
/// # Examples
///
/// ```
/// use adapt_dfs::cluster::NodeSpec;
/// use adapt_dfs::namenode::{NameNode, Threshold};
/// use adapt_dfs::placement::RandomPolicy;
/// use adapt_sim::runner::placement_from_namenode;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), adapt_dfs::DfsError> {
/// let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let file = nn.create_file("f", 8, 2, &mut RandomPolicy::new(), Threshold::None, &mut rng)?;
/// let placement = placement_from_namenode(&nn, file)?;
/// assert_eq!(placement.len(), 8);
/// assert!(placement.iter().all(|reps| reps.len() == 2));
/// # Ok(())
/// # }
/// ```
pub fn placement_from_namenode(
    namenode: &NameNode,
    file: FileId,
) -> Result<Vec<Vec<NodeId>>, DfsError> {
    let meta = namenode.file(file).ok_or(DfsError::UnknownFile(file))?;
    meta.blocks()
        .iter()
        .map(|&b| namenode.replicas(b).map(|r| r.to_vec()))
        .collect()
}

/// Aggregated statistics over repeated simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregateReport {
    /// Map-phase elapsed time (seconds).
    pub elapsed: Moments,
    /// Data locality in `[0, 1]`.
    pub locality: Moments,
    /// Rework overhead ratio.
    pub rework_ratio: Moments,
    /// Recovery overhead ratio.
    pub recovery_ratio: Moments,
    /// Migration overhead ratio.
    pub migration_ratio: Moments,
    /// Misc overhead ratio.
    pub misc_ratio: Moments,
    /// Sum of all overhead ratios.
    pub total_overhead_ratio: Moments,
    /// Block transfers per run.
    pub transfers: Moments,
    /// Runs aggregated.
    pub runs: usize,
    /// Whether every aggregated run completed within its horizon.
    pub all_completed: bool,
}

/// Folds reports into aggregate statistics.
pub fn aggregate(reports: impl IntoIterator<Item = SimReport>) -> AggregateReport {
    let mut agg = AggregateReport {
        all_completed: true,
        ..AggregateReport::default()
    };
    for r in reports {
        agg.elapsed.push(r.elapsed);
        agg.locality.push(r.locality());
        agg.rework_ratio.push(r.rework_ratio());
        agg.recovery_ratio.push(r.recovery_ratio());
        agg.migration_ratio.push(r.migration_ratio());
        agg.misc_ratio.push(r.misc_ratio());
        agg.total_overhead_ratio.push(r.total_overhead_ratio());
        agg.transfers.push(r.transfers as f64);
        agg.runs += 1;
        agg.all_completed &= r.completed;
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{MapPhaseSim, SimConfig};
    use crate::interrupt::InterruptionProcess;
    use adapt_dfs::cluster::NodeSpec;
    use adapt_dfs::namenode::Threshold;
    use adapt_dfs::placement::RandomPolicy;
    use adapt_dfs::BlockSize;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn placement_bridge_matches_namenode_metadata() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
        let mut rng = StdRng::seed_from_u64(1);
        let file = nn
            .create_file(
                "f",
                10,
                2,
                &mut RandomPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let placement = placement_from_namenode(&nn, file).unwrap();
        assert_eq!(placement.len(), 10);
        for (i, block) in nn.file(file).unwrap().blocks().iter().enumerate() {
            assert_eq!(placement[i], nn.replicas(*block).unwrap());
        }
        assert!(placement_from_namenode(&nn, FileId(99)).is_err());
    }

    #[test]
    fn end_to_end_namenode_to_simulation() {
        let mut nn = NameNode::new(vec![NodeSpec::default(); 4]);
        let mut rng = StdRng::seed_from_u64(2);
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
        let processes = (0..4).map(|_| InterruptionProcess::none()).collect();
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap();
        let report = MapPhaseSim::new(processes, placement, cfg)
            .unwrap()
            .run(3)
            .unwrap();
        assert!(report.completed);
        assert_eq!(report.tasks, 20);
    }

    #[test]
    fn aggregate_collects_means() {
        let mk = |elapsed: f64, local: usize| SimReport {
            elapsed,
            tasks: 10,
            local_tasks: local,
            base_work: 120.0,
            rework: 12.0,
            recovery: 0.0,
            migration: 24.0,
            misc: 0.0,
            completed: true,
            ..SimReport::default()
        };
        let agg = aggregate([mk(100.0, 10), mk(200.0, 5)]);
        assert_eq!(agg.runs, 2);
        assert!((agg.elapsed.mean() - 150.0).abs() < 1e-12);
        assert!((agg.locality.mean() - 0.75).abs() < 1e-12);
        assert!((agg.rework_ratio.mean() - 0.1).abs() < 1e-12);
        assert!((agg.migration_ratio.mean() - 0.2).abs() < 1e-12);
        assert!(agg.all_completed);
    }

    #[test]
    fn aggregate_flags_incomplete_runs() {
        let incomplete = SimReport {
            tasks: 1,
            base_work: 12.0,
            completed: false,
            ..SimReport::default()
        };
        let agg = aggregate([incomplete]);
        assert!(!agg.all_completed);
    }

    #[test]
    fn aggregate_of_nothing_is_empty() {
        let agg = aggregate([]);
        assert_eq!(agg.runs, 0);
        assert!(agg.elapsed.is_empty());
        assert!(agg.all_completed);
    }
}
