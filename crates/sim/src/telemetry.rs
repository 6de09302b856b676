//! Engine observability: the counters and histograms the map-phase
//! simulator updates in place while it runs.
//!
//! [`MapPhaseSim`] owns one [`EngineTelemetrySnapshot`] and hands it out
//! in [`DetailedReport`] when the run finishes. Snapshots from repeated
//! runs [`merge`] exactly (integer sums / max), so aggregating many seeds
//! is deterministic regardless of the order threads finish.
//!
//! [`MapPhaseSim`]: crate::engine::MapPhaseSim
//! [`DetailedReport`]: crate::engine::DetailedReport
//! [`merge`]: EngineTelemetrySnapshot::merge

use adapt_telemetry::{HistogramSnapshot, Value};

/// Plain-integer engine telemetry: one run's worth, or the exact sum of
/// several runs after [`merge`](EngineTelemetrySnapshot::merge).
///
/// The engine counts into it directly; the map-phase [`SimReport`]'s
/// `attempts` and `transfers` are read from `attempts_started` and
/// `transfers_started`.
///
/// [`SimReport`]: crate::engine::SimReport
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineTelemetrySnapshot {
    /// `Kick` events dispatched.
    pub events_kick: u64,
    /// `Down` events dispatched.
    pub events_down: u64,
    /// `Up` events dispatched.
    pub events_up: u64,
    /// `AttemptDone` events dispatched (including stale epochs).
    pub events_attempt_done: u64,
    /// `Requeue` events dispatched.
    pub events_requeue: u64,
    /// Peak event-queue depth, sampled at every dispatch (max across
    /// merged runs).
    pub queue_depth_hwm: u64,
    /// Non-local task starts (straggler steals, case 2 of `try_assign`).
    pub steals: u64,
    /// Speculative duplicate attempts started (case 3 of `try_assign`).
    pub speculative_attempts: u64,
    /// Completions that raced at least one concurrent duplicate and won.
    pub speculative_wins: u64,
    /// Attempts killed because another copy of the task finished first.
    pub speculative_losses: u64,
    /// Node outages that began during the run(s) (`Down` handled).
    pub interruptions: u64,
    /// Attempts killed by an interruption of their host.
    pub kills_interruption: u64,
    /// Attempts killed because the block fetch's source host died. The
    /// engine no longer produces such kills (a fetch outlives its
    /// source's outage), so this stays 0; the field keeps the report
    /// layout.
    pub kills_source_lost: u64,
    /// Tasks returned to the pending pool after losing every attempt.
    pub requeues: u64,
    /// Attempts started, including killed and duplicate attempts.
    pub attempts_started: u64,
    /// Block transfers started.
    pub transfers_started: u64,
    /// Of the transfers started, how many crossed a rack boundary
    /// (always zero under the flat topology).
    pub transfers_cross_rack: u64,
    /// Peak concurrent cross-rack flows on any one rack uplink, sampled
    /// at each cross-rack commit including the committing flow (max
    /// across merged runs).
    pub link_streams_hwm: u64,
    /// Wall (simulated) duration of each completed attempt, µs.
    pub attempt_duration_us: HistogramSnapshot,
    /// Bytes moved per block transfer.
    pub transfer_bytes: HistogramSnapshot,
    /// Per-node busy time at the end of the run, µs (one observation
    /// per node; `sum` is cluster-total busy time).
    pub node_busy_us: HistogramSnapshot,
    /// Per-node down time, µs.
    pub node_down_us: HistogramSnapshot,
    /// Per-node up-idle time, µs.
    pub node_idle_us: HistogramSnapshot,
    /// Rework overhead (paper Figure 5), µs.
    pub rework_us: u64,
    /// Recovery overhead (down while holding pending local work), µs.
    pub recovery_us: u64,
    /// Migration overhead (assignment-to-compute gap of remote
    /// attempts), µs.
    pub migration_us: u64,
    /// Misc overhead (up-idle plus losing-duplicate compute), µs.
    pub misc_us: u64,
    /// Elapsed simulated time, µs (summed across merged runs).
    pub elapsed_us: u64,
    /// Number of runs merged into this snapshot.
    pub runs: u64,
}

impl EngineTelemetrySnapshot {
    /// Events dispatched, over all five event kinds.
    pub fn events(&self) -> u64 {
        self.events_kick
            + self.events_down
            + self.events_up
            + self.events_attempt_done
            + self.events_requeue
    }

    /// Adds `other`'s run(s) into `self`. Pure integer sums (max for the
    /// queue high-water mark), so merge order cannot change the result.
    pub fn merge(&mut self, other: &EngineTelemetrySnapshot) {
        self.events_kick += other.events_kick;
        self.events_down += other.events_down;
        self.events_up += other.events_up;
        self.events_attempt_done += other.events_attempt_done;
        self.events_requeue += other.events_requeue;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
        self.steals += other.steals;
        self.speculative_attempts += other.speculative_attempts;
        self.speculative_wins += other.speculative_wins;
        self.speculative_losses += other.speculative_losses;
        self.interruptions += other.interruptions;
        self.kills_interruption += other.kills_interruption;
        self.kills_source_lost += other.kills_source_lost;
        self.requeues += other.requeues;
        self.attempts_started += other.attempts_started;
        self.transfers_started += other.transfers_started;
        self.transfers_cross_rack += other.transfers_cross_rack;
        self.link_streams_hwm = self.link_streams_hwm.max(other.link_streams_hwm);
        self.attempt_duration_us.merge(&other.attempt_duration_us);
        self.transfer_bytes.merge(&other.transfer_bytes);
        self.node_busy_us.merge(&other.node_busy_us);
        self.node_down_us.merge(&other.node_down_us);
        self.node_idle_us.merge(&other.node_idle_us);
        self.rework_us += other.rework_us;
        self.recovery_us += other.recovery_us;
        self.migration_us += other.migration_us;
        self.misc_us += other.misc_us;
        self.elapsed_us += other.elapsed_us;
        self.runs += other.runs;
    }

    /// Serializes the snapshot as a JSON object with stable keys.
    pub fn to_value(&self) -> Value {
        let mut events = Value::object();
        events.insert("attempt_done", self.events_attempt_done);
        events.insert("down", self.events_down);
        events.insert("kick", self.events_kick);
        events.insert("requeue", self.events_requeue);
        events.insert("up", self.events_up);

        let mut overhead = Value::object();
        overhead.insert("migration_us", self.migration_us);
        overhead.insert("misc_us", self.misc_us);
        overhead.insert("recovery_us", self.recovery_us);
        overhead.insert("rework_us", self.rework_us);

        let mut v = Value::object();
        v.insert("attempt_duration_us", self.attempt_duration_us.to_value());
        v.insert("attempts_started", self.attempts_started);
        v.insert("elapsed_us", self.elapsed_us);
        v.insert("events_dispatched", events);
        v.insert("interruptions", self.interruptions);
        v.insert("kills_interruption", self.kills_interruption);
        v.insert("kills_source_lost", self.kills_source_lost);
        // Sparse: flat-network runs keep the exact report shape (and
        // bytes) they had before the rack topology existed.
        if self.transfers_cross_rack > 0 {
            let mut network = Value::object();
            network.insert("link_streams_hwm", self.link_streams_hwm);
            network.insert("transfers_cross_rack", self.transfers_cross_rack);
            v.insert("network", network);
        }
        v.insert("node_busy_us", self.node_busy_us.to_value());
        v.insert("node_down_us", self.node_down_us.to_value());
        v.insert("node_idle_us", self.node_idle_us.to_value());
        v.insert("overhead", overhead);
        v.insert("queue_depth_hwm", self.queue_depth_hwm);
        v.insert("requeues", self.requeues);
        v.insert("runs", self.runs);
        v.insert("speculative_attempts", self.speculative_attempts);
        v.insert("speculative_losses", self.speculative_losses);
        v.insert("speculative_wins", self.speculative_wins);
        v.insert("steals", self.steals);
        v.insert("transfer_bytes", self.transfer_bytes.to_value());
        v.insert("transfers_started", self.transfers_started);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_maxes_hwm() {
        let mut a = EngineTelemetrySnapshot {
            steals: 3,
            queue_depth_hwm: 10,
            rework_us: 1_500_000,
            runs: 1,
            ..EngineTelemetrySnapshot::default()
        };
        a.attempt_duration_us.record(100);
        let b = EngineTelemetrySnapshot {
            steals: 4,
            queue_depth_hwm: 7,
            rework_us: 250_000,
            runs: 1,
            ..EngineTelemetrySnapshot::default()
        };

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.steals, 7);
        assert_eq!(ab.queue_depth_hwm, 10);
        assert_eq!(ab.rework_us, 1_750_000);
        assert_eq!(ab.runs, 2);
        assert_eq!(ab.attempt_duration_us.count, 1);
    }

    #[test]
    fn events_sums_every_kind() {
        let t = EngineTelemetrySnapshot {
            events_kick: 1,
            events_down: 2,
            events_up: 4,
            events_attempt_done: 8,
            events_requeue: 16,
            ..EngineTelemetrySnapshot::default()
        };
        assert_eq!(t.events(), 31);
    }

    #[test]
    fn to_value_is_deterministic() {
        let snap = EngineTelemetrySnapshot {
            events_kick: 1,
            interruptions: 2,
            ..EngineTelemetrySnapshot::default()
        };
        assert_eq!(snap.to_value().to_json(), snap.to_value().to_json());
        let json = snap.to_value().to_json();
        assert!(json.contains("\"interruptions\":2"));
        assert!(json.contains("\"kick\":1"));
    }
}
