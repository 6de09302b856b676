//! Pooled trace statistics — the Table 1 reproduction.
//!
//! The paper summarizes the SETI@home data by pooling, across all hosts,
//! the inter-arrival times between interruptions (MTBI) and the
//! interruption durations, reporting mean, standard deviation, and
//! coefficient of variation for each. [`summarize`] computes exactly that
//! from any [`Trace`].

use adapt_availability::Moments;

use crate::record::Trace;

/// Pooled population statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TraceSummary {
    /// Pooled inter-arrival times between interruption starts.
    pub mtbi: Moments,
    /// Pooled interruption durations.
    pub duration: Moments,
    /// Pooled per-host availability fractions.
    pub availability: Moments,
    /// Number of hosts in the trace.
    pub hosts: usize,
    /// Total interruption events.
    pub events: usize,
}

/// Computes pooled statistics over every host in the trace.
///
/// # Examples
///
/// ```
/// use adapt_traces::{HostId, HostTrace, Interruption, Trace};
/// use adapt_traces::stats::summarize;
///
/// # fn main() -> Result<(), adapt_traces::TraceError> {
/// let host = HostTrace::new(
///     HostId(0),
///     1_000.0,
///     vec![
///         Interruption { start: 100.0, duration: 10.0 },
///         Interruption { start: 400.0, duration: 20.0 },
///     ],
/// )?;
/// let summary = summarize(&Trace::new(vec![host]));
/// assert_eq!(summary.events, 2);
/// assert_eq!(summary.mtbi.count(), 1); // one inter-arrival sample
/// # Ok(())
/// # }
/// ```
pub fn summarize(trace: &Trace) -> TraceSummary {
    let mut mtbi = Moments::new();
    let mut duration = Moments::new();
    let mut availability = Moments::new();
    let mut events = 0usize;
    for host in trace {
        for dt in host.interarrival_times() {
            mtbi.push(dt);
        }
        for d in host.durations() {
            duration.push(d);
        }
        availability.push(host.availability());
        events += host.interruptions().len();
    }
    TraceSummary {
        mtbi,
        duration,
        availability,
        hosts: trace.len(),
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{HostId, HostTrace, Interruption};

    fn ev(start: f64, duration: f64) -> Interruption {
        Interruption { start, duration }
    }

    fn two_host_trace() -> Trace {
        Trace::new(vec![
            HostTrace::new(HostId(0), 1_000.0, vec![ev(100.0, 10.0), ev(300.0, 30.0)]).unwrap(),
            HostTrace::new(HostId(1), 1_000.0, vec![ev(500.0, 20.0)]).unwrap(),
        ])
    }

    #[test]
    fn summarize_counts_hosts_and_events() {
        let s = summarize(&two_host_trace());
        assert_eq!(s.hosts, 2);
        assert_eq!(s.events, 3);
        assert_eq!(s.duration.count(), 3);
        assert!((s.duration.mean() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_pools_interarrivals_across_hosts() {
        // Only host 0 has two events: exactly one inter-arrival of 200 s.
        let s = summarize(&two_host_trace());
        assert_eq!(s.mtbi.count(), 1);
        assert!((s.mtbi.mean() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn summarize_empty_trace_is_all_zero() {
        let s = summarize(&Trace::default());
        assert_eq!(s.hosts, 0);
        assert_eq!(s.events, 0);
        assert!(s.mtbi.is_empty());
    }

    #[test]
    fn availability_is_tracked_per_host() {
        let s = summarize(&two_host_trace());
        assert_eq!(s.availability.count(), 2);
        // Host 0: 40/1000 down, host 1: 20/1000 down.
        assert!((s.availability.mean() - (0.96 + 0.98) / 2.0).abs() < 1e-12);
    }
}
