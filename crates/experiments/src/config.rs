//! Typed experiment parameters — the paper's Tables 2, 3, and 4.

use adapt_dfs::BlockSize;

/// One row of Table 2: an interrupted-node group's injection parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterruptionGroup {
    /// Mean time between interruptions (seconds).
    pub mtbi: f64,
    /// Mean interruption service (recovery) time (seconds).
    pub service: f64,
}

/// Table 2: the four availability groups the interrupted half of the
/// emulated cluster is split into.
pub const TABLE2_GROUPS: [InterruptionGroup; 4] = [
    InterruptionGroup {
        mtbi: 10.0,
        service: 4.0,
    },
    InterruptionGroup {
        mtbi: 10.0,
        service: 8.0,
    },
    InterruptionGroup {
        mtbi: 20.0,
        service: 4.0,
    },
    InterruptionGroup {
        mtbi: 20.0,
        service: 8.0,
    },
];

/// Configuration of one emulated-cluster experiment (Figures 3 and 4).
///
/// Defaults reproduce Table 3: 64 MB blocks, half the nodes interrupted,
/// 8 Mb/s, 128 nodes, 20 blocks per node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmulatedConfig {
    /// Total cluster size.
    pub nodes: usize,
    /// Fraction of nodes that are interrupted (Table 3 default ½).
    pub interrupted_ratio: f64,
    /// Per-node network bandwidth in Mb/s.
    pub bandwidth_mbps: f64,
    /// HDFS block size.
    pub block_size: BlockSize,
    /// Average blocks per node ("each node had 20 blocks on average").
    pub blocks_per_node: usize,
    /// Failure-free map-task time per block (seconds). The paper does not
    /// report its Terasort per-task time; 10 s per 64 MB block is in the
    /// range of its measured elapsed times (20 blocks × ~10 s ≈ the
    /// 200-odd-second ADAPT runs of Figure 3).
    pub gamma: f64,
    /// Replication factor.
    pub replication: usize,
    /// Independent runs to average (the paper uses 10).
    pub runs: usize,
    /// Base RNG seed; run `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for EmulatedConfig {
    fn default() -> Self {
        EmulatedConfig {
            nodes: 128,
            interrupted_ratio: 0.5,
            bandwidth_mbps: 8.0,
            block_size: BlockSize::DEFAULT,
            blocks_per_node: 20,
            gamma: 5.0,
            replication: 1,
            runs: 10,
            seed: 2012,
        }
    }
}

impl EmulatedConfig {
    /// Total number of blocks / map tasks.
    pub fn total_blocks(&self) -> usize {
        self.nodes * self.blocks_per_node
    }

    /// Number of interrupted nodes.
    pub fn interrupted_nodes(&self) -> usize {
        (self.nodes as f64 * self.interrupted_ratio).round() as usize
    }
}

/// Configuration of one large-scale trace-driven simulation (Figure 5).
///
/// Defaults reproduce Table 4: 8 Mb/s, 64 MB blocks, 8 196 nodes, 100
/// tasks per node, 12 s failure-free task time.
///
/// # Trace calibration
///
/// The defaults keep Table 1's *heterogeneity* (the MTBI coefficient of
/// variation, 4.376) but scale the absolute time constants to
/// preemption timescale — the volatility the paper's introduction
/// motivates with SETI@home screensavers and Condor's keyboard/mouse
/// preemptions, and the regime its own emulation injects (MTBI 10–20 s
/// against 10-second tasks). With the archive's raw pooled statistics
/// (MTBI 160 290 s, outage 109 380 s) a ~1 200 s job would either see
/// essentially no failures (if outages were short) or find two thirds of
/// all hosts down for the entire run (with the reported outage
/// durations) — neither is compatible with the ~172 % worst-case
/// overhead the paper reports for its simulations. The defaults (pooled
/// MTBI mean 150 s, outage mean 30 s, both heavy-tailed, ≈14 % of
/// up-at-ingest hosts failing within a job) land every Figure 5 series
/// in the paper's overhead range while preserving the availability
/// heterogeneity that ADAPT exploits; `EXPERIMENTS.md` documents the
/// choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LargeScaleConfig {
    /// Cluster size (Table 4 default 8 196).
    pub nodes: usize,
    /// Average map tasks per node (Table 4 default 100).
    pub tasks_per_node: usize,
    /// Per-node network bandwidth in Mb/s.
    pub bandwidth_mbps: f64,
    /// HDFS block size.
    pub block_size: BlockSize,
    /// Failure-free task time for a 64 MB block (Table 4 default 12 s);
    /// other block sizes scale proportionally.
    pub gamma_64mb: f64,
    /// Replication factor.
    pub replication: usize,
    /// Pooled MTBI mean of the host population (seconds).
    pub mtbi_mean: f64,
    /// Pooled MTBI coefficient of variation.
    pub mtbi_cov: f64,
    /// Pooled outage-duration mean (seconds).
    pub duration_mean: f64,
    /// Pooled outage-duration coefficient of variation.
    pub duration_cov: f64,
    /// Independent runs to average.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for LargeScaleConfig {
    fn default() -> Self {
        LargeScaleConfig {
            nodes: 8_196,
            tasks_per_node: 100,
            bandwidth_mbps: 8.0,
            block_size: BlockSize::DEFAULT,
            gamma_64mb: 12.0,
            replication: 1,
            mtbi_mean: 150.0,
            mtbi_cov: adapt_traces::synthetic::SETI_MTBI_COV,
            duration_mean: 30.0,
            duration_cov: 3.0,
            runs: 5,
            seed: 2012,
        }
    }
}

impl LargeScaleConfig {
    /// Total number of blocks / map tasks.
    pub fn total_blocks(&self) -> usize {
        self.nodes * self.tasks_per_node
    }

    /// Failure-free task time for the configured block size (scales
    /// linearly from the 64 MB reference: map work is proportional to
    /// input bytes).
    pub fn gamma(&self) -> f64 {
        self.gamma_64mb * self.block_size.as_mb() / 64.0
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        assert_eq!(TABLE2_GROUPS.len(), 4);
        assert_eq!(TABLE2_GROUPS[0].mtbi, 10.0);
        assert_eq!(TABLE2_GROUPS[0].service, 4.0);
        assert_eq!(TABLE2_GROUPS[1].service, 8.0);
        assert_eq!(TABLE2_GROUPS[2].mtbi, 20.0);
        assert_eq!(TABLE2_GROUPS[3].service, 8.0);
    }

    #[test]
    fn table3_defaults_match_paper() {
        let c = EmulatedConfig::default();
        assert_eq!(c.nodes, 128);
        assert_eq!(c.interrupted_ratio, 0.5);
        assert_eq!(c.bandwidth_mbps, 8.0);
        assert_eq!(c.block_size, BlockSize::from_mb(64));
        assert_eq!(c.blocks_per_node, 20);
        assert_eq!(c.total_blocks(), 2_560);
        assert_eq!(c.interrupted_nodes(), 64);
    }

    #[test]
    fn table4_defaults_match_paper() {
        let c = LargeScaleConfig::default();
        assert_eq!(c.nodes, 8_196);
        assert_eq!(c.tasks_per_node, 100);
        assert_eq!(c.bandwidth_mbps, 8.0);
        assert_eq!(c.gamma_64mb, 12.0);
        assert_eq!(c.total_blocks(), 819_600);
        assert!((c.gamma() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_scales_with_block_size() {
        let c = LargeScaleConfig {
            block_size: BlockSize::from_mb(128),
            ..LargeScaleConfig::default()
        };
        assert!((c.gamma() - 24.0).abs() < 1e-12);
        let c = LargeScaleConfig {
            block_size: BlockSize::from_mb(32),
            ..LargeScaleConfig::default()
        };
        assert!((c.gamma() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn default_trace_regime_is_volatile_but_mostly_available() {
        let c = LargeScaleConfig::default();
        let unavailability = c.duration_mean / c.mtbi_mean;
        assert!(unavailability > 0.02 && unavailability < 0.3);
        // Heterogeneity preserved from Table 1.
        assert_eq!(c.mtbi_cov, adapt_traces::synthetic::SETI_MTBI_COV);
    }

    #[test]
    fn interrupted_nodes_rounds() {
        let c = EmulatedConfig {
            nodes: 32,
            interrupted_ratio: 0.75,
            ..EmulatedConfig::default()
        };
        assert_eq!(c.interrupted_nodes(), 24);
    }
}
