//! ADAPT-policy observability: predictor and hash-table counters.
//!
//! [`AdaptPolicy`] owns one [`PolicyTelemetrySnapshot`] and updates it
//! whenever a `prepare` builds a weighted hash table (a session whose
//! block count has no kept table) and on every slow-path selection; the
//! predictor counts its own evaluations. The counters count work done: a
//! session that reuses kept rates and a kept table adds nothing.
//!
//! [`AdaptPolicy`]: crate::policy::AdaptPolicy

use adapt_telemetry::{HistogramSnapshot, Value};

/// The ADAPT policy's counters, in plain integers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PolicyTelemetrySnapshot {
    /// Equation-(5) `E[T]` evaluations performed by the Performance
    /// Predictor (read from the predictor when the snapshot is taken):
    /// one per node each time the rates are computed, none when a session
    /// reuses them.
    pub predictor_evaluations: u64,
    /// Placement hash tables built: one per `prepare` that found no kept
    /// table for its block count.
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
    use adapt_dfs::NodeId;

    #[test]
    fn snapshot_merge_and_serialize() {
        // Sessions accumulate in place. The second session on the
        // unchanged cluster reuses the rates and the table, so it counts
        // no work; after a node goes down the third computes both again.
        let mut nn = NameNode::new(vec![NodeSpec::new(NodeAvailability::reliable()); 5]);
        let mut p = AdaptPolicy::new(12.0).unwrap();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        let sum = p.telemetry_snapshot();
        assert_eq!(sum.predictor_evaluations, 5);
        assert_eq!(sum.tables_built, 1);
        assert_eq!(sum.chain_lengths.count, 10);
        assert!(sum.max_chain_len >= 1);
        assert!(sum.to_value().to_json().contains("\"tables_built\":1"));

        nn.mark_down(NodeId(3)).unwrap();
        p.prepare(&nn.cluster_view(), 10).unwrap();
        let sum = p.telemetry_snapshot();
        assert_eq!(sum.predictor_evaluations, 10);
        assert_eq!(sum.tables_built, 2);
        assert_eq!(sum.chain_lengths.count, 20);
        assert!(sum.to_value().to_json().contains("\"tables_built\":2"));
    }
}
