//! Online estimation of interruption parameters from heartbeat data.
//!
//! ADAPT's Performance Predictor (Section IV-A) lives on the NameNode and
//! is deliberately cheap: the paper stresses that it keeps just "a data
//! structure with two double data types" per node — the interruption
//! arrival rate and the mean recovery time — updated as heartbeats arrive
//! or go missing. This module reproduces that path:
//!
//! * [`IntervalEstimator`] — exact running averages over observed up/down
//!   intervals (what an offline trace analysis would compute).
//! * [`HeartbeatMonitor`] — converts a stream of heartbeat arrivals and
//!   timeouts into up/down intervals feeding the estimator.

/// Exact running estimates of `(λ, μ)` from observed intervals.
///
/// `λ` is estimated as `interruptions / total observed uptime` (the MLE for
/// an exponential inter-arrival process) and `μ` as the mean of observed
/// recovery durations.
///
/// # Examples
///
/// ```
/// use adapt_availability::estimator::IntervalEstimator;
///
/// let mut est = IntervalEstimator::new();
/// est.record_uptime(90.0);
/// est.record_interruption(10.0);
/// est.record_uptime(110.0);
/// est.record_interruption(30.0);
/// assert_eq!(est.interruptions(), 2);
/// assert!((est.lambda().unwrap() - 2.0 / 200.0).abs() < 1e-12);
/// assert!((est.mu().unwrap() - 20.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IntervalEstimator {
    total_uptime: f64,
    total_downtime: f64,
    interruptions: u64,
}

impl IntervalEstimator {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        IntervalEstimator::default()
    }

    /// Records `delta` seconds of observed availability. Non-positive or
    /// non-finite deltas are ignored.
    pub fn record_uptime(&mut self, delta: f64) {
        if delta.is_finite() && delta > 0.0 {
            self.total_uptime += delta;
        }
    }

    /// Records one interruption with the given recovery duration.
    /// Non-finite or negative durations are ignored.
    pub fn record_interruption(&mut self, duration: f64) {
        if duration.is_finite() && duration >= 0.0 {
            self.total_downtime += duration;
            self.interruptions += 1;
        }
    }

    /// Number of interruptions recorded.
    pub fn interruptions(&self) -> u64 {
        self.interruptions
    }

    /// Total uptime observed.
    pub fn total_uptime(&self) -> f64 {
        self.total_uptime
    }

    /// Total downtime observed.
    pub fn total_downtime(&self) -> f64 {
        self.total_downtime
    }

    /// Estimated interruption arrival rate, or `None` before any complete
    /// uptime interval has been observed.
    pub fn lambda(&self) -> Option<f64> {
        if self.total_uptime > 0.0 && self.interruptions > 0 {
            Some(crate::num::widen_u64(self.interruptions) / self.total_uptime)
        } else {
            None
        }
    }

    /// Estimated MTBI (`1/λ`), or `None` when `λ` is unavailable.
    pub fn mtbi(&self) -> Option<f64> {
        self.lambda().map(|l| 1.0 / l)
    }

    /// Estimated mean recovery time, or `None` before any interruption.
    pub fn mu(&self) -> Option<f64> {
        if self.interruptions > 0 {
            Some(self.total_downtime / crate::num::widen_u64(self.interruptions))
        } else {
            None
        }
    }

    /// Merges observations from another estimator.
    pub fn merge(&mut self, other: &IntervalEstimator) {
        self.total_uptime += other.total_uptime;
        self.total_downtime += other.total_downtime;
        self.interruptions += other.interruptions;
    }
}

/// The state of a monitored node as inferred from heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Heartbeats arriving on schedule.
    Up,
    /// Heartbeats missing beyond the timeout.
    Down,
}

/// Converts heartbeat arrivals and timeout detections into up/down
/// intervals, feeding an [`IntervalEstimator`].
///
/// The NameNode calls [`heartbeat`](HeartbeatMonitor::heartbeat) whenever a
/// node checks in and [`timeout`](HeartbeatMonitor::timeout) when the
/// heartbeat collector declares the node missing. Down-time is measured
/// from the *last seen* heartbeat, which is the only information the
/// NameNode actually has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatMonitor {
    state: NodeState,
    last_transition: f64,
    last_seen: f64,
    estimator: IntervalEstimator,
}

impl HeartbeatMonitor {
    /// Creates a monitor for a node first seen up at time `now`.
    pub fn new(now: f64) -> Self {
        HeartbeatMonitor {
            state: NodeState::Up,
            last_transition: now,
            last_seen: now,
            estimator: IntervalEstimator::new(),
        }
    }

    /// Current inferred state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// The underlying estimator with all completed intervals.
    pub fn estimator(&self) -> &IntervalEstimator {
        &self.estimator
    }

    /// Processes a heartbeat arrival at time `now`.
    ///
    /// If the node was considered down, this closes the down interval
    /// (recovery complete) and opens a new up interval.
    pub fn heartbeat(&mut self, now: f64) {
        if now < self.last_seen {
            return; // stale/reordered heartbeat; ignore
        }
        if self.state == NodeState::Down {
            self.estimator
                .record_interruption(now - self.last_transition);
            self.state = NodeState::Up;
            self.last_transition = now;
        }
        self.last_seen = now;
    }

    /// Declares the node missing at time `now` (heartbeat timeout fired).
    ///
    /// Closes the up interval measured from the last state transition to
    /// the last successful heartbeat.
    pub fn timeout(&mut self, now: f64) {
        if self.state == NodeState::Down || now < self.last_seen {
            return;
        }
        self.estimator
            .record_uptime(self.last_seen - self.last_transition);
        self.state = NodeState::Down;
        // The interruption began somewhere after last_seen; attribute it to
        // the last successful heartbeat, the NameNode's best information.
        self.last_transition = self.last_seen;
        self.last_seen = now;
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interval_estimator_empty_returns_none() {
        let est = IntervalEstimator::new();
        assert_eq!(est.lambda(), None);
        assert_eq!(est.mu(), None);
        assert_eq!(est.mtbi(), None);
    }

    #[test]
    fn interval_estimator_basic_averages() {
        let mut est = IntervalEstimator::new();
        est.record_uptime(50.0);
        est.record_interruption(4.0);
        est.record_uptime(150.0);
        est.record_interruption(8.0);
        assert!((est.lambda().unwrap() - 0.01).abs() < 1e-12);
        assert!((est.mtbi().unwrap() - 100.0).abs() < 1e-12);
        assert!((est.mu().unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn interval_estimator_ignores_garbage() {
        let mut est = IntervalEstimator::new();
        est.record_uptime(-5.0);
        est.record_uptime(f64::NAN);
        est.record_interruption(-1.0);
        est.record_interruption(f64::INFINITY);
        assert_eq!(est.interruptions(), 0);
        assert_eq!(est.total_uptime(), 0.0);
    }

    #[test]
    fn interval_estimator_merge_combines() {
        let mut a = IntervalEstimator::new();
        a.record_uptime(100.0);
        a.record_interruption(10.0);
        let mut b = IntervalEstimator::new();
        b.record_uptime(300.0);
        b.record_interruption(30.0);
        a.merge(&b);
        assert_eq!(a.interruptions(), 2);
        assert!((a.lambda().unwrap() - 2.0 / 400.0).abs() < 1e-12);
        assert!((a.mu().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn interval_estimator_recovers_synthetic_parameters() {
        // Generate intervals from known distributions and check recovery.
        let mut rng = StdRng::seed_from_u64(99);
        let up = Exponential::from_mean(100.0).unwrap();
        let down = Exponential::from_mean(20.0).unwrap();
        let mut est = IntervalEstimator::new();
        for _ in 0..20_000 {
            est.record_uptime(up.sample(&mut rng));
            est.record_interruption(down.sample(&mut rng));
        }
        assert!((est.mtbi().unwrap() - 100.0).abs() / 100.0 < 0.03);
        assert!((est.mu().unwrap() - 20.0).abs() / 20.0 < 0.03);
    }

    #[test]
    fn heartbeat_monitor_infers_intervals() {
        let mut mon = HeartbeatMonitor::new(0.0);
        // Heartbeats at 10, 20, 30; timeout detected at 45 (last seen 30).
        mon.heartbeat(10.0);
        mon.heartbeat(20.0);
        mon.heartbeat(30.0);
        mon.timeout(45.0);
        assert_eq!(mon.state(), NodeState::Down);
        // Node returns at 60: downtime recorded as 60 - 30 = 30.
        mon.heartbeat(60.0);
        assert_eq!(mon.state(), NodeState::Up);
        let est = mon.estimator();
        assert_eq!(est.interruptions(), 1);
        assert!((est.total_uptime() - 30.0).abs() < 1e-12);
        assert!((est.mu().unwrap() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn heartbeat_monitor_ignores_duplicate_timeouts_and_stale_beats() {
        let mut mon = HeartbeatMonitor::new(0.0);
        mon.heartbeat(10.0);
        mon.timeout(20.0);
        mon.timeout(25.0); // duplicate: no extra interval
        mon.heartbeat(5.0); // stale: ignored
        assert_eq!(mon.state(), NodeState::Down);
        mon.heartbeat(30.0);
        assert_eq!(mon.estimator().interruptions(), 1);
        assert!((mon.estimator().mu().unwrap() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn heartbeat_monitor_multiple_cycles() {
        let mut mon = HeartbeatMonitor::new(0.0);
        let mut t = 0.0;
        for _ in 0..10 {
            t += 100.0;
            mon.heartbeat(t);
            t += 5.0;
            mon.timeout(t);
            t += 15.0;
            mon.heartbeat(t);
        }
        let est = mon.estimator();
        assert_eq!(est.interruptions(), 10);
        assert!(est.mu().unwrap() > 0.0);
        assert!(est.lambda().unwrap() > 0.0);
    }
}
