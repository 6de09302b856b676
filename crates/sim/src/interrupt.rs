//! Per-node interruption processes.
//!
//! Three flavours drive the same engine:
//!
//! * [`InterruptionProcess::none`] — a dedicated/reliable host.
//! * [`InterruptionProcess::synthetic`] — the emulated-cluster injection
//!   (paper Table 2): exponential inter-arrivals with a given MTBI and a
//!   sampled recovery distribution. Interruptions arriving during a
//!   recovery queue FCFS (the paper's M/G/1 assumption); the process
//!   collapses each cascade into one busy-period outage.
//! * [`InterruptionProcess::trace`] — replays a recorded/synthetic
//!   failure-trace schedule (the paper's SETI@home simulations), usually
//!   rotated to a random offset for stationarity.

use rand::Rng;

use adapt_availability::dist::{uniform_open01, Dist, Sample};
use adapt_dfs::cluster::NodeAvailability;
use adapt_traces::replay::InterruptionSchedule;

use crate::SimError;

/// One scheduled outage: the node goes down at `down_at` and returns at
/// `up_at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Time the node becomes unavailable.
    pub down_at: f64,
    /// Time the node becomes available again.
    pub up_at: f64,
}

#[derive(Debug, Clone)]
enum Kind {
    None,
    Synthetic {
        /// Mean time between interruption arrivals.
        mtbi: f64,
        /// Recovery-time distribution.
        service: Dist,
    },
    Trace {
        schedule: InterruptionSchedule,
        cursor: usize,
    },
}

/// A generator of successive outages for one node.
#[derive(Debug, Clone)]
pub struct InterruptionProcess {
    kind: Kind,
}

impl InterruptionProcess {
    /// A node that is never interrupted.
    pub fn none() -> Self {
        InterruptionProcess { kind: Kind::None }
    }

    /// Synthetic injection: Poisson arrivals with the given MTBI and
    /// recovery times drawn from `service`; overlapping interruptions
    /// queue FCFS and are emitted as a single busy-period outage.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] unless `mtbi` is finite and positive
    /// and the mean recovery is shorter than it (ρ = λμ < 1). At ρ ≥ 1
    /// recoveries queue up faster than they clear, so a busy period, and
    /// with it [`next_outage`](InterruptionProcess::next_outage), need
    /// never end.
    pub fn synthetic(mtbi: f64, service: Dist) -> Result<Self, SimError> {
        let mean = service.mean();
        if !(mtbi.is_finite() && mtbi > 0.0 && mean < mtbi) {
            return Err(SimError::InvalidConfig {
                name: "mtbi",
                reason: format!("{mtbi} must be finite, > 0 and > the mean recovery {mean}"),
            });
        }
        Ok(InterruptionProcess {
            kind: Kind::Synthetic { mtbi, service },
        })
    }

    /// The process a node's availability estimate describes: none for a
    /// reliable node, else [`synthetic`](InterruptionProcess::synthetic)
    /// injection every `1/λ` seconds with exponential recoveries of mean
    /// `μ` (the emulated cluster's, paper Table 2).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a recovery mean that is not finite
    /// and positive, or as [`synthetic`](InterruptionProcess::synthetic).
    pub fn from_availability(availability: NodeAvailability) -> Result<Self, SimError> {
        if availability.is_reliable() {
            return Ok(InterruptionProcess::none());
        }
        let service =
            Dist::exponential_from_mean(availability.mu).map_err(|e| SimError::InvalidConfig {
                name: "mu",
                reason: e.to_string(),
            })?;
        InterruptionProcess::synthetic(1.0 / availability.lambda, service)
    }

    /// Replay of a fixed schedule (trace-driven simulation).
    pub fn trace(schedule: InterruptionSchedule) -> Self {
        InterruptionProcess {
            kind: Kind::Trace {
                schedule,
                cursor: 0,
            },
        }
    }

    /// Whether this process can ever interrupt the node.
    pub fn is_reliable(&self) -> bool {
        matches!(self.kind, Kind::None)
    }

    /// The `(λ, μ)` interruption parameters this process exhibits, as the
    /// JobTracker's heartbeat collector would know them: exact for
    /// synthetic processes, estimated from the schedule for trace replay,
    /// `None` for reliable nodes (or traces too sparse to estimate).
    ///
    /// The scheduler uses these for availability-aware speculation ETAs.
    pub fn mean_params(&self) -> Option<(f64, f64)> {
        match &self.kind {
            Kind::None => None,
            Kind::Synthetic { mtbi, service } => Some((1.0 / mtbi, service.mean())),
            Kind::Trace { schedule, .. } => {
                let events = schedule.events();
                if events.len() < 2 {
                    return None;
                }
                let n = events.len() as f64;
                let interarrival = (events[events.len() - 1].start - events[0].start) / (n - 1.0);
                if interarrival <= 0.0 {
                    return None;
                }
                let mu = events.iter().map(|e| e.duration).sum::<f64>() / n;
                Some((1.0 / interarrival, mu))
            }
        }
    }

    /// The next outage beginning strictly after `now`, or `None` if the
    /// node will never go down again.
    ///
    /// Consumes internal state: each call advances the process.
    pub fn next_outage(&mut self, now: f64, rng: &mut dyn Rng) -> Option<Outage> {
        match &mut self.kind {
            Kind::None => None,
            Kind::Synthetic { mtbi, service } => {
                let down_at = now + sample_exp(*mtbi, rng);
                // Busy period: the first recovery plus recoveries of
                // interruptions that arrive while still down (FCFS).
                let mut backlog = service.sample(rng);
                let mut downtime = 0.0;
                loop {
                    let gap = sample_exp(*mtbi, rng);
                    if gap >= backlog {
                        downtime += backlog;
                        break;
                    }
                    downtime += gap;
                    backlog = backlog - gap + service.sample(rng);
                }
                Some(Outage {
                    down_at,
                    up_at: down_at + downtime,
                })
            }
            Kind::Trace { schedule, cursor } => {
                while let Some(ev) = schedule.events().get(*cursor) {
                    *cursor += 1;
                    if ev.start > now || (ev.start <= now && ev.end() > now) {
                        // An event already in progress at `now` is emitted
                        // as starting now (the node is down immediately).
                        let down_at = ev.start.max(now);
                        return Some(Outage {
                            down_at,
                            up_at: ev.end().max(down_at),
                        });
                    }
                }
                None
            }
        }
    }
}

fn sample_exp(mean: f64, rng: &mut dyn Rng) -> f64 {
    -uniform_open01(rng).ln() * mean
}

/// A trace replay with one outage, `[start, start + duration)`.
#[cfg(test)]
pub(crate) fn outage(start: f64, duration: f64) -> InterruptionProcess {
    let outage = adapt_traces::record::Interruption { start, duration };
    InterruptionProcess::trace(InterruptionSchedule::from_events(vec![outage], 1e9))
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use adapt_availability::Moments;
    use adapt_traces::record::{HostId, HostTrace, Interruption};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_process_never_fires() {
        let mut p = InterruptionProcess::none();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(p.is_reliable());
        assert_eq!(p.next_outage(0.0, &mut rng), None);
    }

    #[test]
    fn synthetic_rejects_an_unstable_or_invalid_process() {
        let service = |mean: f64| Dist::exponential_from_mean(mean).unwrap();
        // ρ = λμ = 2 and ρ = 1 never drain the recovery queue; the rest
        // have no usable MTBI.
        for (mtbi, mean) in [(10.0, 20.0), (10.0, 10.0), (0.0, 1.0), (f64::NAN, 1.0)] {
            assert!(matches!(
                InterruptionProcess::synthetic(mtbi, service(mean)),
                Err(SimError::InvalidConfig { name: "mtbi", .. })
            ));
        }
        // ρ = 0.95, the verify generator's highest load, still returns.
        let mut p = InterruptionProcess::synthetic(20.0, service(19.0)).unwrap();
        let outage = p.next_outage(0.0, &mut StdRng::seed_from_u64(11)).unwrap();
        assert!(outage.up_at > outage.down_at);
    }

    #[test]
    fn synthetic_outages_advance_in_time() {
        let mut p = InterruptionProcess::synthetic(10.0, Dist::exponential_from_mean(4.0).unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut now = 0.0;
        for _ in 0..100 {
            let o = p.next_outage(now, &mut rng).unwrap();
            assert!(o.down_at > now);
            assert!(o.up_at > o.down_at);
            now = o.up_at;
        }
    }

    #[test]
    fn synthetic_mean_downtime_matches_busy_period() {
        // Table 2 group 1: MTBI 10 s, service mean 4 s. Busy period mean
        // mu/(1 - lambda mu) = 4 / 0.6 = 6.667 s.
        let mut p = InterruptionProcess::synthetic(10.0, Dist::exponential_from_mean(4.0).unwrap())
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut now = 0.0;
        let mut downtimes = Moments::new();
        let mut gaps = Moments::new();
        for _ in 0..40_000 {
            let o = p.next_outage(now, &mut rng).unwrap();
            gaps.push(o.down_at - now);
            downtimes.push(o.up_at - o.down_at);
            now = o.up_at;
        }
        let busy = 4.0 / (1.0 - 0.4);
        assert!(
            (downtimes.mean() - busy).abs() / busy < 0.03,
            "mean downtime {} vs busy period {busy}",
            downtimes.mean()
        );
        assert!((gaps.mean() - 10.0).abs() / 10.0 < 0.03);
    }

    #[test]
    fn trace_replays_schedule_in_order() {
        let host = HostTrace::new(
            HostId(0),
            1_000.0,
            vec![
                Interruption {
                    start: 100.0,
                    duration: 10.0,
                },
                Interruption {
                    start: 500.0,
                    duration: 50.0,
                },
            ],
        )
        .unwrap();
        let mut p = InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host));
        let mut rng = StdRng::seed_from_u64(3);
        let o1 = p.next_outage(0.0, &mut rng).unwrap();
        assert_eq!(o1.down_at, 100.0);
        assert_eq!(o1.up_at, 110.0);
        let o2 = p.next_outage(o1.up_at, &mut rng).unwrap();
        assert_eq!(o2.down_at, 500.0);
        assert_eq!(p.next_outage(o2.up_at, &mut rng), None);
    }

    #[test]
    fn trace_event_in_progress_fires_immediately() {
        // A rotated schedule can start mid-outage: the first event begins
        // at time 0 relative to the node.
        let host = HostTrace::new(
            HostId(0),
            100.0,
            vec![Interruption {
                start: 0.0,
                duration: 25.0,
            }],
        )
        .unwrap();
        let mut p = InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host));
        let mut rng = StdRng::seed_from_u64(4);
        let o = p.next_outage(0.0, &mut rng).unwrap();
        assert_eq!(o.down_at, 0.0);
        assert_eq!(o.up_at, 25.0);
    }

    #[test]
    fn trace_skips_fully_past_events() {
        let host = HostTrace::new(
            HostId(0),
            1_000.0,
            vec![
                Interruption {
                    start: 10.0,
                    duration: 5.0,
                },
                Interruption {
                    start: 200.0,
                    duration: 5.0,
                },
            ],
        )
        .unwrap();
        let mut p = InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host));
        let mut rng = StdRng::seed_from_u64(5);
        // Starting the query at t = 50 skips the first event entirely.
        let o = p.next_outage(50.0, &mut rng).unwrap();
        assert_eq!(o.down_at, 200.0);
    }

    #[test]
    fn synthetic_is_deterministic_per_seed() {
        let build = || {
            InterruptionProcess::synthetic(20.0, Dist::exponential_from_mean(8.0).unwrap()).unwrap()
        };
        let mut a = build();
        let mut b = build();
        let mut ra = StdRng::seed_from_u64(7);
        let mut rb = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            assert_eq!(a.next_outage(0.0, &mut ra), b.next_outage(0.0, &mut rb));
        }
    }
}
