//! Placement-quality analysis: the quantities that explain *why* a
//! placement is good before any simulation runs.
//!
//! ADAPT's objective (Section III-C) is that "all nodes complete their
//! assigned blocks at the same time". For a concrete placement this
//! module computes the analytic per-node finish times
//! `blocksᵢ × E[Tᵢ]`, their spread, and the resulting expected makespan —
//! plus storage-skew measures (the §IV-C concern the threshold exists
//! for). The experiment harnesses use these to sanity-check placements
//! and the ablation suite uses them to attribute wins.

#![expect(
    clippy::as_conversions,
    reason = "block counts widened to f64 for distribution ratios; counts stay far below 2^53"
)]

use serde::{Deserialize, Serialize};

use adapt_availability::Moments;
use adapt_dfs::placement::ClusterView;
use adapt_dfs::{DfsError, FileId, NameNode};

use crate::predictor::PerformancePredictor;

/// Analytic quality metrics of one file's placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementAnalysis {
    /// Per-node replica counts.
    pub blocks_per_node: Vec<usize>,
    /// Per-node expected finish time `blocksᵢ · E[Tᵢ]` (seconds);
    /// infinite entries (unusable hosts holding data) are kept as such.
    pub expected_finish: Vec<f64>,
    /// The expected makespan: `max_i blocksᵢ · E[Tᵢ]`.
    pub expected_makespan: f64,
    /// Moments of the finite per-node finish times — ADAPT's objective is
    /// to shrink this distribution's spread.
    pub finish_spread: Moments,
    /// Storage skew: largest per-node share over the fair share `m·k/n`.
    pub storage_skew: f64,
}

impl PlacementAnalysis {
    /// Coefficient of variation of per-node finish times (0 = perfectly
    /// simultaneous completion, ADAPT's stated objective).
    pub fn finish_cov(&self) -> f64 {
        self.finish_spread.cov()
    }
}

/// Analyzes one file's placement under the given per-block task length.
///
/// # Errors
///
/// Returns [`DfsError::UnknownFile`] if the file does not exist and
/// propagates metadata errors.
///
/// # Examples
///
/// ```
/// use adapt_core::{analysis::analyze_placement, AdaptPolicy};
/// use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
/// use adapt_dfs::namenode::{NameNode, Threshold};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut specs = vec![NodeSpec::new(NodeAvailability::reliable()); 3];
/// specs.push(NodeSpec::new(NodeAvailability::from_mtbi(10.0, 4.0)?));
/// let mut nn = NameNode::new(specs);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let file = nn.create_file("f", 400, 1, &mut AdaptPolicy::new(10.0)?,
///                           Threshold::PaperDefault, &mut rng)?;
/// let a = analyze_placement(&nn, file, 10.0)?;
/// // ADAPT's goal: near-simultaneous expected completion.
/// assert!(a.finish_cov() < 0.2);
/// # Ok(())
/// # }
/// ```
pub fn analyze_placement(
    namenode: &NameNode,
    file: FileId,
    gamma: f64,
) -> Result<PlacementAnalysis, DfsError> {
    let blocks_per_node = namenode.file_distribution(file)?;
    let view = namenode.cluster_view();
    let meta = namenode.file(file).ok_or(DfsError::UnknownFile(file))?;
    let m = meta.blocks().len();
    let k = meta.replication();
    analyze_distribution(&view, &blocks_per_node, m, k, gamma)
}

/// Like [`analyze_placement`] from a raw distribution (testing and
/// what-if analysis without a NameNode).
///
/// # Errors
///
/// Returns [`DfsError::InvalidArgument`] if `gamma` is not finite and
/// positive or the distribution length does not match the view.
pub fn analyze_distribution(
    cluster: &ClusterView,
    blocks_per_node: &[usize],
    total_blocks: usize,
    replication: usize,
    gamma: f64,
) -> Result<PlacementAnalysis, DfsError> {
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(DfsError::InvalidArgument {
            name: "gamma",
            reason: format!("{gamma} must be finite and > 0"),
        });
    }
    if blocks_per_node.len() != cluster.len() {
        return Err(DfsError::InvalidArgument {
            name: "blocks_per_node",
            reason: format!(
                "{} entries for {} nodes",
                blocks_per_node.len(),
                cluster.len()
            ),
        });
    }
    let predictor = PerformancePredictor::new(gamma).map_err(|e| DfsError::InvalidArgument {
        name: "gamma",
        reason: e.to_string(),
    })?;
    let rates = predictor.rates(cluster);

    let expected_finish: Vec<f64> = blocks_per_node
        .iter()
        .zip(rates.expected_times())
        .map(|(&b, &et)| if b == 0 { 0.0 } else { b as f64 * et })
        .collect();
    let expected_makespan = expected_finish.iter().copied().fold(0.0, f64::max);
    // Spread over nodes that actually hold data and can finish.
    let finish_spread: Moments = expected_finish
        .iter()
        .copied()
        .filter(|f| *f > 0.0 && f.is_finite())
        .collect();

    let n = cluster.len().max(1);
    let fair = (total_blocks * replication) as f64 / n as f64;
    let max_share = blocks_per_node.iter().copied().max().unwrap_or(0) as f64;
    let storage_skew = if fair > 0.0 { max_share / fair } else { 0.0 };

    Ok(PlacementAnalysis {
        blocks_per_node: blocks_per_node.to_vec(),
        expected_finish,
        expected_makespan,
        finish_spread,
        storage_skew,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdaptPolicy, SpreadPolicy};
    use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
    use adapt_dfs::namenode::Threshold;
    use adapt_dfs::placement::RandomPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mixed_cluster() -> NameNode {
        let mut specs = vec![NodeSpec::new(NodeAvailability::reliable()); 4];
        for (mtbi, mu) in [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)] {
            specs.push(NodeSpec::new(
                NodeAvailability::from_mtbi(mtbi, mu).unwrap(),
            ));
        }
        NameNode::new(specs)
    }

    #[test]
    fn adapt_placement_has_lower_finish_cov_than_balanced() {
        let gamma = 10.0;
        let mut rng = StdRng::seed_from_u64(1);

        let mut nn_adapt = mixed_cluster();
        let fa = nn_adapt
            .create_file(
                "f",
                800,
                1,
                &mut AdaptPolicy::new(gamma).unwrap(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let a = analyze_placement(&nn_adapt, fa, gamma).unwrap();

        let mut nn_spread = mixed_cluster();
        let fs = nn_spread
            .create_file(
                "f",
                800,
                1,
                &mut SpreadPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let s = analyze_placement(&nn_spread, fs, gamma).unwrap();

        assert!(
            a.finish_cov() < s.finish_cov(),
            "adapt CoV {} vs spread CoV {}",
            a.finish_cov(),
            s.finish_cov()
        );
        assert!(a.expected_makespan < s.expected_makespan);
    }

    #[test]
    fn spread_minimizes_storage_skew() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut nn = mixed_cluster();
        let f = nn
            .create_file(
                "f",
                80,
                1,
                &mut SpreadPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let s = analyze_placement(&nn, f, 10.0).unwrap();
        assert!(
            (s.storage_skew - 1.0).abs() < 1e-9,
            "skew {}",
            s.storage_skew
        );
    }

    #[test]
    fn adapt_storage_skew_is_bounded_by_threshold() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut nn = mixed_cluster();
        let m = 160;
        let f = nn
            .create_file(
                "f",
                m,
                1,
                &mut AdaptPolicy::new(10.0).unwrap(),
                Threshold::PaperDefault,
                &mut rng,
            )
            .unwrap();
        let a = analyze_placement(&nn, f, 10.0).unwrap();
        // The paper's cap: no node exceeds its fair share with one more
        // replica, i.e. skew <= (k+1)/k = 2 for k = 1 (plus ceil slack).
        assert!(a.storage_skew <= 2.1, "skew {}", a.storage_skew);
    }

    #[test]
    fn distribution_length_mismatch_is_rejected() {
        let nn = mixed_cluster();
        let view = nn.cluster_view();
        assert!(analyze_distribution(&view, &[1, 2], 3, 1, 10.0).is_err());
        assert!(analyze_distribution(&view, &[0; 8], 0, 1, 0.0).is_err());
    }

    #[test]
    fn empty_nodes_contribute_zero_finish() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut nn = mixed_cluster();
        // Tiny file: some nodes inevitably hold nothing.
        let f = nn
            .create_file(
                "f",
                3,
                1,
                &mut RandomPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        let a = analyze_placement(&nn, f, 10.0).unwrap();
        let zero_nodes = a.blocks_per_node.iter().filter(|&&b| b == 0).count();
        let zero_finish = a.expected_finish.iter().filter(|&&f| f == 0.0).count();
        assert_eq!(zero_nodes, zero_finish);
        assert!(a.expected_makespan > 0.0);
    }
}
