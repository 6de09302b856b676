//! NameNode observability: placement-session counters.
//!
//! [`NameNode`] owns one [`NameNodeTelemetrySnapshot`] (cloned with it)
//! and updates it in place on every placement session, threshold
//! relaxation, and rebalance move; reports serialize it.
//!
//! [`NameNode`]: crate::namenode::NameNode

use adapt_telemetry::{HistogramSnapshot, Value};

/// The NameNode's placement counters, in plain integers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NameNodeTelemetrySnapshot {
    /// Files successfully created.
    pub files_created: u64,
    /// Blocks committed across all created files.
    pub blocks_placed: u64,
    /// Replicas committed (blocks × replication, summed over files).
    pub replicas_placed: u64,
    /// Replica selections where the Section IV-C threshold left no
    /// eligible node and the cap was relaxed for that replica.
    pub threshold_rejections: u64,
    /// File creations rolled back because even the relaxed search failed.
    pub placement_failures: u64,
    /// Replicas moved by the rebalancer (`adapt <file>` path).
    pub rebalance_moves: u64,
    /// Per-file-session distribution of blocks landing on the most-loaded
    /// node (one observation per created file).
    pub session_max_per_node: HistogramSnapshot,
}

impl NameNodeTelemetrySnapshot {
    /// Serializes with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("blocks_placed", self.blocks_placed);
        v.insert("files_created", self.files_created);
        v.insert("placement_failures", self.placement_failures);
        v.insert("rebalance_moves", self.rebalance_moves);
        v.insert("replicas_placed", self.replicas_placed);
        v.insert("session_max_per_node", self.session_max_per_node.to_value());
        v.insert("threshold_rejections", self.threshold_rejections);
        v
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::{NodeAvailability, NodeSpec};
    use crate::namenode::{NameNode, Threshold};
    use crate::placement::RandomPolicy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn snapshot_and_merge_round_trip() {
        // Two sessions accumulate in place, as merging two one-file
        // snapshots did.
        let mut nn = NameNode::new(vec![NodeSpec::new(NodeAvailability::reliable()); 4]);
        let mut rng = StdRng::seed_from_u64(7);
        for name in ["a", "b"] {
            nn.create_file(
                name,
                40,
                2,
                &mut RandomPolicy::new(),
                Threshold::None,
                &mut rng,
            )
            .unwrap();
        }
        let sum = nn.telemetry_snapshot();
        assert_eq!(sum.files_created, 2);
        assert_eq!(sum.blocks_placed, 80);
        assert_eq!(sum.replicas_placed, 160);
        assert_eq!(sum.session_max_per_node.count, 2);
        // A cloned NameNode carries its counters along.
        assert_eq!(nn.clone().telemetry_snapshot(), sum);
        let json = sum.to_value().to_json();
        assert!(json.contains("\"blocks_placed\":80"));
    }
}
