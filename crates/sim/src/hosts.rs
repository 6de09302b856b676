//! The cluster both phase engines run on: host outages and rack uplinks.
//!
//! [`Hosts`] is every host's outage timeline, drawn from its
//! [`InterruptionProcess`] on an RNG stream of its own, so the map and
//! reduce engines see the same outages for the same processes and seed.
//! [`Uplinks`] is the per-rack ledger of committed cross-rack transfer
//! windows that both engines fair-share the oversubscribed core over.
//! Each engine keeps its own trace emission, accounting and event
//! queue; these types only answer when hosts go down and come back and
//! how long a transfer takes.

use adapt_net::Topology;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::event::EventQueue;
use crate::interrupt::InterruptionProcess;
use crate::SimError;

/// Derives a per-node RNG seed from the run seed (splitmix64 finalizer —
/// adjacent node ids decorrelate fully).
fn mix_seed(seed: u64, node: u64) -> u64 {
    let mut z = seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug)]
struct Host {
    process: InterruptionProcess,
    /// The host's interruption randomness, reseeded by [`Hosts::start`].
    rng: StdRng,
    /// When the current, or else the next, outage ends.
    up_at: f64,
    /// When the current outage began; `None` while the host is up.
    down_since: Option<f64>,
}

/// Every host's outage timeline: up or down, and when that changes.
#[derive(Debug)]
pub(crate) struct Hosts {
    hosts: Vec<Host>,
}

impl Hosts {
    /// One up host per process.
    pub(crate) fn new(processes: Vec<InterruptionProcess>) -> Self {
        let unseeded = StdRng::seed_from_u64(0);
        let hosts = processes
            .into_iter()
            .map(|process| Host {
                process,
                rng: unseeded.clone(),
                up_at: 0.0,
                down_since: None,
            })
            .collect();
        Hosts { hosts }
    }

    /// Number of hosts.
    pub(crate) fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether host `n` is up.
    #[inline]
    pub(crate) fn is_up(&self, n: u32) -> bool {
        self.hosts[n as usize].down_since.is_none()
    }

    /// When host `n`'s current outage began, or `None` while it is up.
    pub(crate) fn down_since(&self, n: u32) -> Option<f64> {
        self.hosts[n as usize].down_since
    }

    /// Starts a run: seeds each host's stream from `(seed, host id)`, so
    /// its outages do not depend on scheduling order, and yields each
    /// host's first outage as `(host, down_at)`, ascending by host.
    pub(crate) fn start(&mut self, seed: u64) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.hosts
            .iter_mut()
            .enumerate()
            .filter_map(move |(i, host)| {
                host.rng = StdRng::seed_from_u64(mix_seed(seed, i as u64));
                let outage = host.process.next_outage(0.0, &mut host.rng)?;
                host.up_at = outage.up_at;
                Some((i as u32, outage.down_at))
            })
    }

    /// Marks up host `n` down at `t` and returns when it comes back.
    pub(crate) fn go_down(&mut self, n: u32, t: f64) -> f64 {
        let host = &mut self.hosts[n as usize];
        debug_assert!(host.down_since.is_none(), "host {n} went down twice");
        host.down_since = Some(t);
        host.up_at.max(t)
    }

    /// Marks down host `n` up at `t` and returns when it went down and
    /// when its next outage begins, if it has one.
    pub(crate) fn go_up(&mut self, n: u32, t: f64) -> (f64, Option<f64>) {
        let host = &mut self.hosts[n as usize];
        debug_assert!(host.down_since.is_some(), "host {n} came up twice");
        let since = host.down_since.take().unwrap_or(t);
        let next = host.process.next_outage(t, &mut host.rng).map(|outage| {
            host.up_at = outage.up_at;
            outage.down_at
        });
        (since, next)
    }
}

/// Per rack, the end times of the cross-rack transfer windows committed
/// from it. A window holds its uplink share from commit to end, even if
/// its transfer is cut short: both links were reserved at commit.
#[derive(Debug)]
pub(crate) struct Uplinks {
    topology: Topology,
    /// One min-heap of window ends per rack, allocated at the first
    /// cross-rack commit, so a flat topology allocates nothing.
    racks: Vec<EventQueue<()>>,
}

impl Uplinks {
    /// An empty ledger over `topology`.
    pub(crate) fn new(topology: Topology) -> Self {
        Uplinks {
            topology,
            racks: Vec::new(),
        }
    }

    /// Commits at `t` a transfer from `source` to `dest` that takes
    /// `base` seconds on an uncontended flow, and returns its end and,
    /// for a cross-rack transfer, the flows on the source rack's uplink,
    /// this one included. An intra-rack transfer takes `base` exactly; a
    /// cross-rack one pays the oversubscribed uplink fair-shared over the
    /// windows still open at `t`. The clock never runs back, so a window
    /// that closed by `t` is dropped for good.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] if the window ends at a NaN time.
    pub(crate) fn commit(
        &mut self,
        source: u32,
        dest: u32,
        base: f64,
        t: f64,
    ) -> Result<(f64, Option<usize>), SimError> {
        let topology = self.topology;
        if topology.same_rack(source, dest) {
            return Ok((t + base, None));
        }
        if self.racks.is_empty() {
            self.racks = vec![EventQueue::new(); topology.racks() as usize];
        }
        let uplink = &mut self.racks[topology.rack_of(source) as usize];
        while uplink.peek_time().is_some_and(|end| end <= t) {
            uplink.pop();
        }
        let streams = uplink.len() + 1;
        let end = t + topology.fair_share_seconds(base, source, dest, streams);
        uplink.push(end, ())?;
        Ok((end, Some(streams)))
    }
}

#[cfg(test)]
#[expect(clippy::wildcard_enum_match_arm, reason = "picks two event kinds")]
mod tests {
    use super::*;
    use adapt_availability::dist::Dist;
    use adapt_dfs::{BlockSize, NodeId};
    use adapt_trace::{TraceEvent, TraceRecorder};
    use proptest::prelude::*;

    use crate::engine::{MapPhaseSim, SimConfig};
    use crate::reduce::ReducePhaseSim;

    proptest! {
        /// The ledger against a plain list of every committed window:
        /// a commit counts the windows of its source rack that end
        /// after `t`. Times and durations sit on a small integer grid,
        /// so windows often end exactly at a later commit's `t`, and
        /// several commits share one `t`. Until the first cross-rack
        /// commit the ledger allocates nothing.
        #[test]
        fn uplinks_count_the_open_windows_a_list_scan_counts(
            commits in prop::collection::vec((0u8..3, 0u32..6, 0u32..6, 1u8..4), 0..200)
        ) {
            let topology = Topology::new(3, 2.0).unwrap();
            let mut uplinks = Uplinks::new(topology);
            let mut windows: Vec<(u32, f64)> = Vec::new();
            let mut t = 0.0;
            for (step, source, dest, base) in commits {
                t += f64::from(step);
                let base = f64::from(base);
                let got = uplinks.commit(source, dest, base, t).unwrap();
                if topology.same_rack(source, dest) {
                    prop_assert_eq!(got, (t + base, None));
                } else {
                    let rack = topology.rack_of(source);
                    let open = windows.iter().filter(|&&(r, end)| r == rack && end > t).count();
                    let end = t + topology.fair_share_seconds(base, source, dest, open + 1);
                    prop_assert_eq!(got, (end, Some(open + 1)));
                    windows.push((rack, end));
                }
                prop_assert_eq!(uplinks.racks.capacity() == 0, windows.is_empty());
            }
        }
    }

    #[test]
    fn map_and_reduce_phases_see_the_same_outages() {
        // Same processes, same seed: both engines draw each host's
        // outages from the same stream, so their traces carry the same
        // outages up to the earlier phase end.
        let processes: Vec<InterruptionProcess> = (0..6)
            .map(|i| {
                let mtbi = 30.0 + 10.0 * f64::from(i);
                let recovery = Dist::exponential_from_mean(8.0).unwrap();
                InterruptionProcess::synthetic(mtbi, recovery).unwrap()
            })
            .collect();
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap();
        let seed = 2012;
        let map = MapPhaseSim::new(
            processes.clone(),
            (0..30).map(|i| vec![NodeId(i % 6)]).collect(),
            cfg,
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(seed)
        .unwrap();
        let reduce = ReducePhaseSim::new(
            processes,
            (0..12).map(|i| vec![NodeId(i % 6)]).collect(),
            vec![8 << 20; 12],
            vec![NodeId(0), NodeId(3)],
            cfg,
            30.0,
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run(seed)
        .unwrap();
        assert!(map.report.completed && reduce.report.completed);
        let end = map.report.elapsed.min(reduce.report.elapsed);
        let outages = |events: &[TraceEvent]| -> Vec<TraceEvent> {
            events
                .iter()
                .filter(|e| match **e {
                    TraceEvent::NodeDown { t, .. } | TraceEvent::NodeUp { t, .. } => t < end,
                    _ => false,
                })
                .cloned()
                .collect()
        };
        let map_outages = outages(&map.trace.unwrap().events);
        assert!(
            map_outages.len() >= 4,
            "{} outage events",
            map_outages.len()
        );
        assert_eq!(map_outages, outages(&reduce.trace.unwrap().events));
    }
}
