//! The trace data model: hosts, interruptions, and validated host traces.
//!
//! A [`HostTrace`] is the observed interruption history of one host over a
//! fixed observation window: a time-ordered sequence of
//! `(start, duration)` interruption events. The trace invariants (sorted
//! starts, no overlap, everything inside the window) are enforced at
//! construction so every downstream consumer — statistics, replay, the
//! simulator — can rely on them.

use crate::TraceError;

/// Identifier of a traced host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u64);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// One interruption: the host became unavailable at `start` and recovered
/// after `duration` seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interruption {
    /// Time the interruption began (seconds since trace origin).
    pub start: f64,
    /// How long the host stayed unavailable (seconds).
    pub duration: f64,
}

impl Interruption {
    /// Time the host became available again.
    pub fn end(&self) -> f64 {
        self.start + self.duration
    }
}

/// The validated interruption history of one host.
///
/// # Examples
///
/// ```
/// use adapt_traces::{HostId, HostTrace, Interruption};
///
/// # fn main() -> Result<(), adapt_traces::TraceError> {
/// let trace = HostTrace::new(
///     HostId(0),
///     86_400.0,
///     vec![
///         Interruption { start: 1_000.0, duration: 50.0 },
///         Interruption { start: 40_000.0, duration: 600.0 },
///     ],
/// )?;
/// assert_eq!(trace.interruptions().len(), 2);
/// assert!(trace.availability() > 0.99);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HostTrace {
    host: HostId,
    window: f64,
    interruptions: Vec<Interruption>,
}

impl HostTrace {
    /// Creates a validated host trace over `[0, window)`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidRecord`] if the window is not positive
    /// and finite, any event has a non-finite or negative field, events are
    /// not sorted by start time, events overlap, or an event extends past
    /// the observation window.
    pub fn new(
        host: HostId,
        window: f64,
        interruptions: Vec<Interruption>,
    ) -> Result<Self, TraceError> {
        if !(window.is_finite() && window > 0.0) {
            return Err(TraceError::InvalidRecord {
                host: host.0,
                reason: format!("observation window {window} must be finite and > 0"),
            });
        }
        let mut prev_end = 0.0_f64;
        for (i, ev) in interruptions.iter().enumerate() {
            if !(ev.start.is_finite() && ev.start >= 0.0) {
                return Err(TraceError::InvalidRecord {
                    host: host.0,
                    reason: format!("event {i} start {} out of domain", ev.start),
                });
            }
            if !(ev.duration.is_finite() && ev.duration >= 0.0) {
                return Err(TraceError::InvalidRecord {
                    host: host.0,
                    reason: format!("event {i} duration {} out of domain", ev.duration),
                });
            }
            if ev.start < prev_end {
                return Err(TraceError::InvalidRecord {
                    host: host.0,
                    reason: format!(
                        "event {i} at {} overlaps previous interruption ending at {prev_end}",
                        ev.start
                    ),
                });
            }
            if ev.end() > window {
                return Err(TraceError::InvalidRecord {
                    host: host.0,
                    reason: format!(
                        "event {i} ends at {} past observation window {window}",
                        ev.end()
                    ),
                });
            }
            prev_end = ev.end();
        }
        Ok(HostTrace {
            host,
            window,
            interruptions,
        })
    }

    /// The host this trace belongs to.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Length of the observation window in seconds.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// The interruption events, in time order.
    pub fn interruptions(&self) -> &[Interruption] {
        &self.interruptions
    }

    /// Inter-arrival times between consecutive interruption *starts* — the
    /// samples whose population mean is the MTBI of Table 1.
    ///
    /// A trace with fewer than two events yields nothing.
    pub fn interarrival_times(&self) -> impl Iterator<Item = f64> + '_ {
        self.interruptions
            .windows(2)
            .map(|w| w[1].start - w[0].start)
    }

    /// Interruption durations.
    pub fn durations(&self) -> impl Iterator<Item = f64> + '_ {
        self.interruptions.iter().map(|ev| ev.duration)
    }

    /// Total downtime over the window.
    pub fn total_downtime(&self) -> f64 {
        self.durations().sum()
    }

    /// Fraction of the window the host was available, in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        (1.0 - self.total_downtime() / self.window).clamp(0.0, 1.0)
    }

    /// Empirical MTBI (mean inter-arrival time), or `None` with fewer than
    /// two events.
    pub fn mtbi(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for dt in self.interarrival_times() {
            sum += dt;
            n += 1;
        }
        (n > 0).then(|| sum / n as f64)
    }

    /// Empirical mean interruption duration, or `None` with no events.
    pub fn mean_duration(&self) -> Option<f64> {
        if self.interruptions.is_empty() {
            None
        } else {
            Some(self.total_downtime() / self.interruptions.len() as f64)
        }
    }
}

/// A population of host traces sharing one observation window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    hosts: Vec<HostTrace>,
}

impl Trace {
    /// Creates a trace from a collection of host traces.
    pub fn new(hosts: Vec<HostTrace>) -> Self {
        Trace { hosts }
    }

    /// The host traces.
    pub fn hosts(&self) -> &[HostTrace] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the trace contains no hosts.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Total number of interruption events across all hosts.
    pub fn event_count(&self) -> usize {
        self.hosts.iter().map(|h| h.interruptions().len()).sum()
    }

    /// Iterates over the host traces.
    pub fn iter(&self) -> std::slice::Iter<'_, HostTrace> {
        self.hosts.iter()
    }

    /// Merges two traces into one population (host ids are expected to be
    /// disjoint; this is not checked — ids only matter for reporting).
    pub fn merge(mut self, other: Trace) -> Trace {
        self.hosts.extend(other.hosts);
        self
    }
}

impl FromIterator<HostTrace> for Trace {
    fn from_iter<I: IntoIterator<Item = HostTrace>>(iter: I) -> Self {
        Trace {
            hosts: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Trace {
    type Item = HostTrace;
    type IntoIter = std::vec::IntoIter<HostTrace>;

    fn into_iter(self) -> Self::IntoIter {
        self.hosts.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a HostTrace;
    type IntoIter = std::slice::Iter<'a, HostTrace>;

    fn into_iter(self) -> Self::IntoIter {
        self.hosts.iter()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ev(start: f64, duration: f64) -> Interruption {
        Interruption { start, duration }
    }

    #[test]
    fn empty_trace_is_valid_and_fully_available() {
        let t = HostTrace::new(HostId(1), 100.0, vec![]).unwrap();
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.mtbi(), None);
        assert_eq!(t.mean_duration(), None);
        assert_eq!(t.total_downtime(), 0.0);
    }

    #[test]
    fn rejects_unsorted_events() {
        let r = HostTrace::new(HostId(1), 100.0, vec![ev(50.0, 5.0), ev(10.0, 5.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_overlapping_events() {
        let r = HostTrace::new(HostId(1), 100.0, vec![ev(10.0, 20.0), ev(25.0, 5.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_event_past_window() {
        let r = HostTrace::new(HostId(1), 100.0, vec![ev(90.0, 20.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_bad_window_and_fields() {
        assert!(HostTrace::new(HostId(1), 0.0, vec![]).is_err());
        assert!(HostTrace::new(HostId(1), f64::NAN, vec![]).is_err());
        assert!(HostTrace::new(HostId(1), 100.0, vec![ev(-1.0, 1.0)]).is_err());
        assert!(HostTrace::new(HostId(1), 100.0, vec![ev(1.0, f64::NAN)]).is_err());
    }

    #[test]
    fn allows_back_to_back_events() {
        // An interruption may begin exactly when the previous one ends.
        let t = HostTrace::new(HostId(1), 100.0, vec![ev(10.0, 5.0), ev(15.0, 5.0)]).unwrap();
        assert_eq!(t.interruptions().len(), 2);
    }

    #[test]
    fn interval_accessors_compute_expected_values() {
        let t = HostTrace::new(
            HostId(0),
            1_000.0,
            vec![ev(100.0, 10.0), ev(300.0, 20.0), ev(700.0, 30.0)],
        )
        .unwrap();
        let inter: Vec<f64> = t.interarrival_times().collect();
        assert_eq!(inter, vec![200.0, 400.0]);
        assert_eq!(t.mtbi(), Some(300.0));
        assert_eq!(t.mean_duration(), Some(20.0));
        assert_eq!(t.total_downtime(), 60.0);
        assert!((t.availability() - 0.94).abs() < 1e-12);
    }

    #[test]
    fn trace_counts_events_across_hosts() {
        let t: Trace = (0..4)
            .map(|i| HostTrace::new(HostId(i), 100.0, vec![ev(10.0, 1.0), ev(50.0, 2.0)]).unwrap())
            .collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.event_count(), 8);
        assert!(!t.is_empty());
    }

    #[test]
    fn merge_concatenates_populations() {
        let a: Trace = vec![HostTrace::new(HostId(0), 10.0, vec![]).unwrap()]
            .into_iter()
            .collect();
        let b: Trace = vec![
            HostTrace::new(HostId(1), 10.0, vec![]).unwrap(),
            HostTrace::new(HostId(2), 10.0, vec![]).unwrap(),
        ]
        .into_iter()
        .collect();
        let merged = a.merge(b);
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn host_id_displays_readably() {
        assert_eq!(HostId(3).to_string(), "host3");
    }

    proptest! {
        #[test]
        fn construction_invariants_hold_for_generated_events(
            window in 100.0f64..1e6,
            raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..50),
        ) {
            // Build events guaranteed valid by construction, then assert the
            // validator accepts them and accessors are consistent.
            let mut t = 0.0;
            let mut events = Vec::new();
            for (gap_frac, dur_frac) in raw {
                let gap = gap_frac * window / 100.0;
                let dur = dur_frac * window / 200.0;
                t += gap;
                if t + dur > window { break; }
                events.push(ev(t, dur));
                t += dur;
            }
            let n = events.len();
            let trace = HostTrace::new(HostId(0), window, events).unwrap();
            prop_assert_eq!(trace.interruptions().len(), n);
            prop_assert!(trace.availability() >= 0.0 && trace.availability() <= 1.0);
        }
    }
}
