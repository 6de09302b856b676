//! Conversion from host traces to simulator-consumable interruption
//! schedules.
//!
//! The discrete-event simulator drives each node from an
//! [`InterruptionSchedule`]: a fixed, time-ordered list of
//! `(start, duration)` pairs. This module builds such schedules from
//! recorded/synthetic [`HostTrace`]s, including the *random-rotation*
//! trick: a simulated job is much shorter than the 1.5-year trace window,
//! so each run starts the trace at a random offset (wrapping around),
//! which samples the trace's stationary behaviour instead of always
//! replaying its first hours.

use crate::record::{HostTrace, Interruption};
use rand::Rng;

/// A time-ordered interruption schedule for one simulated node.
///
/// # Examples
///
/// ```
/// use adapt_traces::{HostId, HostTrace, Interruption};
/// use adapt_traces::replay::InterruptionSchedule;
///
/// # fn main() -> Result<(), adapt_traces::TraceError> {
/// let trace = HostTrace::new(
///     HostId(0),
///     1_000.0,
///     vec![Interruption { start: 100.0, duration: 10.0 }],
/// )?;
/// let schedule = InterruptionSchedule::from_host_trace(&trace);
/// assert!(schedule.is_down_at(105.0));
/// assert!(!schedule.is_down_at(110.0)); // the end is exclusive
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InterruptionSchedule {
    events: Vec<Interruption>,
    horizon: f64,
}

impl InterruptionSchedule {
    /// Builds a schedule replaying a host trace from its beginning.
    pub fn from_host_trace(trace: &HostTrace) -> Self {
        InterruptionSchedule {
            events: trace.interruptions().to_vec(),
            horizon: trace.window(),
        }
    }

    /// Builds a schedule from raw events (assumed valid: sorted and
    /// non-overlapping — typically produced by a generator).
    pub fn from_events(events: Vec<Interruption>, horizon: f64) -> Self {
        InterruptionSchedule { events, horizon }
    }

    /// Builds a schedule that replays the trace starting at `offset`
    /// seconds into its window, wrapping around to the beginning, so that
    /// the full window's behaviour is reachable from a short simulation.
    ///
    /// An interruption in progress at the offset is clipped to its
    /// remaining duration and becomes an interruption at time 0.
    pub fn rotated(trace: &HostTrace, offset: f64) -> Self {
        let window = trace.window();
        let offset = offset.rem_euclid(window);
        let mut events = Vec::with_capacity(trace.interruptions().len());
        // Events at or after the offset come first, shifted left.
        for ev in trace.interruptions() {
            if ev.start >= offset {
                events.push(Interruption {
                    start: ev.start - offset,
                    duration: ev.duration,
                });
            } else if ev.end() > offset {
                // In progress at the cut: its remainder starts immediately,
                // and the portion already served wraps to the tail so no
                // downtime is lost.
                events.insert(
                    0,
                    Interruption {
                        start: 0.0,
                        duration: ev.end() - offset,
                    },
                );
                events.push(Interruption {
                    start: ev.start + window - offset,
                    duration: offset - ev.start,
                });
            }
        }
        // Events entirely before the offset wrap to the tail.
        for ev in trace.interruptions() {
            if ev.end() <= offset {
                events.push(Interruption {
                    start: ev.start + window - offset,
                    duration: ev.duration,
                });
            }
        }
        events.sort_by(|a, b| a.start.total_cmp(&b.start));
        InterruptionSchedule {
            events,
            horizon: window,
        }
    }

    /// Builds a schedule rotated by a uniformly random offset.
    pub fn rotated_random(trace: &HostTrace, rng: &mut dyn Rng) -> Self {
        let offset = adapt_availability::dist::uniform_open01(rng) * trace.window();
        InterruptionSchedule::rotated(trace, offset)
    }

    /// The scheduled events in time order.
    pub fn events(&self) -> &[Interruption] {
        &self.events
    }

    /// The schedule horizon: no events are defined past this time.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Whether the node is down (inside an interruption) at time `t`.
    pub fn is_down_at(&self, t: f64) -> bool {
        let idx = self.events.partition_point(|ev| ev.start <= t);
        idx > 0 && self.events[idx - 1].end() > t
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::record::HostId;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ev(start: f64, duration: f64) -> Interruption {
        Interruption { start, duration }
    }

    fn trace() -> HostTrace {
        HostTrace::new(
            HostId(0),
            1_000.0,
            vec![ev(100.0, 50.0), ev(400.0, 100.0), ev(900.0, 50.0)],
        )
        .unwrap()
    }

    #[test]
    fn from_host_trace_preserves_events() {
        let s = InterruptionSchedule::from_host_trace(&trace());
        assert_eq!(s.events().len(), 3);
        assert_eq!(s.horizon(), 1_000.0);
    }

    #[test]
    fn is_down_at_tracks_intervals() {
        let s = InterruptionSchedule::from_host_trace(&trace());
        assert!(!s.is_down_at(50.0));
        assert!(s.is_down_at(120.0));
        assert!(!s.is_down_at(150.0)); // end is exclusive
        assert!(s.is_down_at(450.0));
        assert!(!s.is_down_at(999.0));
    }

    #[test]
    fn rotation_by_zero_is_identity() {
        let s = InterruptionSchedule::rotated(&trace(), 0.0);
        assert_eq!(s.events(), trace().interruptions());
    }

    #[test]
    fn rotation_shifts_and_wraps() {
        // Offset 200: event at 400 -> 200, event at 900 -> 700,
        // event at 100 (fully before cut) wraps to 100 + 1000 - 200 = 900.
        let s = InterruptionSchedule::rotated(&trace(), 200.0);
        let starts: Vec<f64> = s.events().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![200.0, 700.0, 900.0]);
    }

    #[test]
    fn rotation_clips_in_progress_event() {
        // Offset 425 lands inside the 400..500 interruption: its remaining
        // 75 s become an event at t = 0.
        let s = InterruptionSchedule::rotated(&trace(), 425.0);
        let first = s.events()[0];
        assert_eq!(first.start, 0.0);
        assert!((first.duration - 75.0).abs() < 1e-9);
    }

    #[test]
    fn rotation_preserves_total_downtime() {
        for offset in [0.0, 1.0, 135.0, 425.0, 640.0, 999.0] {
            let s = InterruptionSchedule::rotated(&trace(), offset);
            let total: f64 = s.events().iter().map(|e| e.duration).sum();
            assert!(
                (total - 200.0).abs() < 1e-9,
                "offset {offset}: total downtime {total}"
            );
        }
    }

    #[test]
    fn random_rotation_is_deterministic_per_seed() {
        let t = trace();
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        assert_eq!(
            InterruptionSchedule::rotated_random(&t, &mut a),
            InterruptionSchedule::rotated_random(&t, &mut b)
        );
    }

    proptest! {
        #[test]
        fn rotated_events_are_sorted_and_within_horizon(offset in 0.0f64..3000.0) {
            let s = InterruptionSchedule::rotated(&trace(), offset);
            let evs = s.events();
            for w in evs.windows(2) {
                prop_assert!(w[0].start <= w[1].start);
            }
            for e in evs {
                prop_assert!(e.start >= 0.0);
                prop_assert!(e.start <= s.horizon());
            }
        }
    }
}
