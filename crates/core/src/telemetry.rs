//! ADAPT-policy observability: predictor and hash-table counters.
//!
//! [`AdaptPolicy`] owns one [`PolicyTelemetrySnapshot`] and updates it at
//! each `prepare` (one per file-ingest session, when the weighted hash
//! table is built) and on every slow-path selection; the predictor
//! counts its own evaluations.
//!
//! [`AdaptPolicy`]: crate::policy::AdaptPolicy

use adapt_telemetry::{HistogramSnapshot, Value};

/// The ADAPT policy's counters, in plain integers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyTelemetrySnapshot {
    /// Equation-(5) `E[T]` evaluations by the Performance Predictor
    /// (read from the predictor when the snapshot is taken).
    pub predictor_evaluations: u64,
    /// Placement hash tables built (one per `prepare`).
    pub tables_built: u64,
    /// Collision-chain length of every slot of every table built.
    pub chain_lengths: HistogramSnapshot,
    /// Longest collision chain seen across all builds.
    pub max_chain_len: u64,
    /// Rejection-sampling retries that fell through to the renormalized
    /// weighted-selection slow path.
    pub select_fallbacks: u64,
}

impl PolicyTelemetrySnapshot {
    /// Serializes with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("chain_lengths", self.chain_lengths.to_value());
        v.insert("max_chain_len", self.max_chain_len);
        v.insert("predictor_evaluations", self.predictor_evaluations);
        v.insert("select_fallbacks", self.select_fallbacks);
        v.insert("tables_built", self.tables_built);
        v
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::AdaptPolicy;
    use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
    use adapt_dfs::namenode::NameNode;
    use adapt_dfs::placement::PlacementPolicy;

    #[test]
    fn snapshot_merge_and_serialize() {
        // Two sessions accumulate in place, as merging two one-session
        // snapshots did.
        let nn = NameNode::new(vec![NodeSpec::new(NodeAvailability::reliable()); 5]);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        let sum = p.telemetry_snapshot();
        assert_eq!(sum.predictor_evaluations, 10);
        assert_eq!(sum.tables_built, 2);
        assert_eq!(sum.chain_lengths.count, 20);
        assert!(sum.max_chain_len >= 1);
        assert!(sum.to_value().to_json().contains("\"tables_built\":2"));
    }
}
