//! The differential oracle's reduce-phase reference: a deliberately
//! naive lockstep mirror of `adapt_sim::reduce::ReducePhaseSim`.
//!
//! Same decision rules, same tie-breaks, same trace emission points —
//! but the event queue is an unsorted `Vec` scanned linearly for the
//! `(time, seq)` minimum instead of the engine's 4-ary heap, and the
//! cross-rack stream count walks every host instead of striding over
//! one rack's members. Under the byte-identical output rule the two
//! implementations must produce equal [`ReduceReport`]s and traces on
//! every valid input; any divergence the oracle finds is a real bug.

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::NodeId;
use adapt_sim::engine::SimConfig;
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::reduce::{slice_bytes, ReduceDetailed, ReduceReport};
use adapt_sim::SimError;
use adapt_trace::{TraceEvent, TraceMeta, TraceRecorder};

use crate::naive_queue::NaiveQueue;
use crate::reference::check_horizon;

/// Bytes in one megabyte (pinned alongside the engine's constant).
const BYTES_PER_MB: f64 = 1_048_576.0;

/// The engine's per-node seed derivation (splitmix64 finalizer), pinned
/// here as part of the determinism contract under verification.
fn mix_seed(seed: u64, node: u64) -> u64 {
    let mut z = seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Kick,
    Down(u32),
    Up(u32),
    FetchDone { reducer: u32, epoch: u64 },
    ReduceDone { reducer: u32, epoch: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Fetching {
        task: usize,
        source: u32,
        start: f64,
        end: f64,
        bytes: u64,
        cross_rack: bool,
    },
    Blocked,
    WaitingRecovery,
    Computing {
        start: f64,
    },
    Done,
}

#[derive(Debug)]
struct RefReducer {
    node: u32,
    phase: Phase,
    epoch: u64,
    attempt_seq: u64,
    next_task: usize,
    net_bytes: u64,
    finish: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
struct Outbound {
    dest: u32,
    end: f64,
}

#[derive(Debug)]
struct RefHost {
    process: InterruptionProcess,
    up: bool,
    pending_up_at: f64,
    down_since: Option<f64>,
    outbound: Vec<Outbound>,
}

/// The naive reduce-phase reference. Construct once per run;
/// [`run`](ReferenceReduce::run) consumes it.
#[derive(Debug)]
pub struct ReferenceReduce {
    cfg: SimConfig,
    reduce_gamma: f64,
    holders: Vec<Vec<u32>>,
    output_bytes: Vec<u64>,
    hosts: Vec<RefHost>,
    reducers: Vec<RefReducer>,
    queue: NaiveQueue<Event>,
    done_count: usize,
    attempts: usize,
    fetches: usize,
    fetches_aborted: usize,
    local_bytes: u64,
    network_bytes: u64,
    cross_rack_bytes: u64,
    interruptions: usize,
    rework: f64,
    trace: Option<TraceRecorder>,
}

impl ReferenceReduce {
    /// Builds a reference reduce phase — the same contract (and the same
    /// validation) as `ReducePhaseSim::new`.
    ///
    /// # Errors
    ///
    /// Exactly those of `ReducePhaseSim::new`.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        holders: Vec<Vec<NodeId>>,
        output_bytes: Vec<u64>,
        reducer_nodes: Vec<NodeId>,
        cfg: SimConfig,
        reduce_gamma: f64,
    ) -> Result<Self, SimError> {
        check_horizon(&cfg)?;
        if processes.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "processes",
                reason: "cluster must have at least one node".into(),
            });
        }
        if holders.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "holders",
                reason: "reduce phase needs at least one map output".into(),
            });
        }
        if holders.len() != output_bytes.len() {
            return Err(SimError::InvalidConfig {
                name: "output_bytes",
                reason: format!(
                    "{} byte entries for {} map outputs",
                    output_bytes.len(),
                    holders.len()
                ),
            });
        }
        if reducer_nodes.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "reducer_nodes",
                reason: "at least one reducer required".into(),
            });
        }
        if !(reduce_gamma.is_finite() && reduce_gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "reduce_gamma",
                reason: format!("{reduce_gamma} must be finite and > 0"),
            });
        }
        let n = processes.len();
        let mut holder_ids = Vec::with_capacity(holders.len());
        for (m, hs) in holders.iter().enumerate() {
            if hs.is_empty() {
                return Err(SimError::InvalidConfig {
                    name: "holders",
                    reason: format!("map output {m} has no holders"),
                });
            }
            for h in hs {
                if h.0 as usize >= n {
                    return Err(SimError::PlacementOutOfRange {
                        task: m,
                        node: h.0,
                        nodes: n,
                    });
                }
            }
            holder_ids.push(hs.iter().map(|h| h.0).collect());
        }
        for (r, host) in reducer_nodes.iter().enumerate() {
            if host.0 as usize >= n {
                return Err(SimError::PlacementOutOfRange {
                    task: r,
                    node: host.0,
                    nodes: n,
                });
            }
        }
        Ok(ReferenceReduce {
            cfg,
            reduce_gamma,
            holders: holder_ids,
            output_bytes,
            hosts: processes
                .into_iter()
                .map(|process| RefHost {
                    process,
                    up: true,
                    pending_up_at: 0.0,
                    down_since: None,
                    outbound: Vec::new(),
                })
                .collect(),
            reducers: reducer_nodes
                .iter()
                .map(|host| RefReducer {
                    node: host.0,
                    phase: Phase::Idle,
                    epoch: 0,
                    attempt_seq: 0,
                    next_task: 0,
                    net_bytes: 0,
                    finish: None,
                })
                .collect(),
            queue: NaiveQueue::default(),
            done_count: 0,
            attempts: 0,
            fetches: 0,
            fetches_aborted: 0,
            local_bytes: 0,
            network_bytes: 0,
            cross_rack_bytes: 0,
            interruptions: 0,
            rework: 0.0,
            trace: None,
        })
    }

    /// Attaches an event recorder, mirroring
    /// `ReducePhaseSim::with_trace`.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(event);
        }
    }

    fn bytes_seconds(&self, bytes: u64) -> f64 {
        (bytes as f64 / BYTES_PER_MB) * 8.0 / self.cfg.bandwidth_mbps()
    }

    /// Cross-rack flows on `rack`'s uplink at `t` — the naive full scan
    /// over every host (the engine strides over the rack's members;
    /// hosts outside the rack contribute nothing either way).
    fn cross_rack_streams(&self, rack: u32, t: f64) -> usize {
        let topo = self.cfg.topology();
        self.hosts
            .iter()
            .enumerate()
            .filter(|&(ni, _)| topo.rack_of(ni as u32) == rack)
            .map(|(_, h)| {
                h.outbound
                    .iter()
                    .filter(|o| o.end > t && topo.rack_of(o.dest) != rack)
                    .count()
            })
            .sum()
    }

    /// Runs the reference reduce phase — the same contract as
    /// `ReducePhaseSim::run`.
    ///
    /// # Errors
    ///
    /// Exactly those of `ReducePhaseSim::run`.
    pub fn run(mut self, seed: u64) -> Result<ReduceDetailed, SimError> {
        let mut rngs: Vec<StdRng> = (0..self.hosts.len())
            .map(|i| StdRng::seed_from_u64(mix_seed(seed, i as u64)))
            .collect();

        for (i, rng) in rngs.iter_mut().enumerate() {
            if let Some(outage) = self.hosts[i].process.next_outage(0.0, rng) {
                self.hosts[i].pending_up_at = outage.up_at;
                self.queue.push(outage.down_at, Event::Down(i as u32))?;
            }
        }
        self.queue.push(0.0, Event::Kick)?;

        let mut elapsed = None;
        while let Some((t, event)) = self.queue.pop() {
            if t > self.cfg.horizon() {
                break;
            }
            match event {
                Event::Kick => {
                    for r in 0..self.reducers.len() as u32 {
                        if self.hosts[self.reducers[r as usize].node as usize].up {
                            self.start_attempt(r, t)?;
                        } else {
                            self.reducers[r as usize].phase = Phase::WaitingRecovery;
                        }
                    }
                }
                Event::Down(n) => self.on_down(n, t)?,
                Event::Up(n) => self.on_up(n, t, &mut rngs[n as usize])?,
                Event::FetchDone { reducer, epoch } => {
                    if self.reducers[reducer as usize].epoch == epoch {
                        self.on_fetch_done(reducer, t)?;
                    }
                }
                Event::ReduceDone { reducer, epoch } => {
                    if self.reducers[reducer as usize].epoch == epoch {
                        self.on_reduce_done(reducer, t)?;
                        if self.done_count == self.reducers.len() {
                            elapsed = Some(t);
                        }
                    }
                }
            }
            if elapsed.is_some() {
                break;
            }
        }

        let completed = elapsed.is_some();
        let elapsed = elapsed.unwrap_or(self.cfg.horizon());
        Ok(self.finalize(elapsed, completed, seed))
    }

    fn start_attempt(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        self.attempts += 1;
        let attempt = self.reducers[ri].attempt_seq;
        let node = self.reducers[ri].node;
        self.emit(TraceEvent::ReduceStarted {
            reducer: r,
            node,
            attempt,
            t,
        });
        self.reducers[ri].next_task = 0;
        self.advance(r, t)
    }

    fn advance(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        let node = self.reducers[ri].node;
        loop {
            let m = self.reducers[ri].next_task;
            if m == self.holders.len() {
                self.reducers[ri].phase = Phase::Computing { start: t };
                let epoch = self.reducers[ri].epoch;
                return self.queue.push(
                    t + self.reduce_gamma,
                    Event::ReduceDone { reducer: r, epoch },
                );
            }
            let bytes = slice_bytes(self.output_bytes[m], ri, self.reducers.len());
            if bytes == 0 {
                self.reducers[ri].next_task += 1;
                continue;
            }
            if self.holders[m].contains(&node) {
                self.local_bytes += bytes;
                self.reducers[ri].next_task += 1;
                continue;
            }
            let Some(&source) = self.holders[m].iter().find(|&&h| self.hosts[h as usize].up) else {
                self.reducers[ri].phase = Phase::Blocked;
                return Ok(());
            };
            let topo = self.cfg.topology();
            let cross_rack = !topo.same_rack(source, node);
            let streams = if cross_rack {
                self.cross_rack_streams(topo.rack_of(source), t) + 1
            } else {
                1
            };
            let end = t + topo.fair_share_seconds(self.bytes_seconds(bytes), source, node, streams);
            let src = &mut self.hosts[source as usize];
            src.outbound.retain(|o| o.end > t);
            src.outbound.push(Outbound { dest: node, end });
            self.fetches += 1;
            if cross_rack && streams > 1 {
                self.emit(TraceEvent::LinkContention {
                    rack: topo.rack_of(source),
                    streams: streams as u32,
                    t,
                });
            }
            self.reducers[ri].phase = Phase::Fetching {
                task: m,
                source,
                start: t,
                end,
                bytes,
                cross_rack,
            };
            let epoch = self.reducers[ri].epoch;
            return self.queue.push(end, Event::FetchDone { reducer: r, epoch });
        }
    }

    fn on_fetch_done(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        let Phase::Fetching {
            task,
            source,
            start,
            end,
            bytes,
            cross_rack,
        } = self.reducers[ri].phase
        else {
            return Err(SimError::InvariantViolation {
                what: "epoch-valid fetch completion arrived while not fetching",
            });
        };
        debug_assert!(end <= t);
        self.emit(TraceEvent::ShuffleFetch {
            reducer: r,
            source,
            dest: self.reducers[ri].node,
            task: task as u32,
            bytes,
            start,
            end,
            aborted: false,
        });
        self.network_bytes += bytes;
        self.reducers[ri].net_bytes += bytes;
        if cross_rack {
            self.cross_rack_bytes += bytes;
        }
        self.reducers[ri].next_task = task + 1;
        self.advance(r, t)
    }

    fn on_reduce_done(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        if !matches!(self.reducers[ri].phase, Phase::Computing { .. }) {
            return Err(SimError::InvariantViolation {
                what: "epoch-valid reduce completion arrived while not computing",
            });
        }
        self.reducers[ri].phase = Phase::Done;
        self.reducers[ri].finish = Some(t);
        self.done_count += 1;
        Ok(())
    }

    fn abort_fetch(&mut self, r: u32, t: f64) {
        let ri = r as usize;
        let Phase::Fetching {
            task,
            source,
            start,
            ..
        } = self.reducers[ri].phase
        else {
            return;
        };
        let bytes = slice_bytes(self.output_bytes[task], ri, self.reducers.len());
        self.fetches_aborted += 1;
        self.emit(TraceEvent::ShuffleFetch {
            reducer: r,
            source,
            dest: self.reducers[ri].node,
            task: task as u32,
            bytes,
            start,
            end: t,
            aborted: true,
        });
    }

    fn on_down(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(self.hosts[ni].up);
        self.interruptions += 1;
        self.emit(TraceEvent::NodeDown { node: n, t });
        self.hosts[ni].up = false;
        self.hosts[ni].down_since = Some(t);
        let up_at = self.hosts[ni].pending_up_at.max(t);
        self.queue.push(up_at, Event::Up(n))?;

        for r in 0..self.reducers.len() as u32 {
            let ri = r as usize;
            if self.reducers[ri].node != n {
                continue;
            }
            match self.reducers[ri].phase {
                Phase::Done | Phase::WaitingRecovery => continue,
                Phase::Fetching { .. } => self.abort_fetch(r, t),
                Phase::Computing { start } => {
                    self.rework += (t - start).clamp(0.0, self.reduce_gamma);
                }
                Phase::Idle | Phase::Blocked => {}
            }
            self.reducers[ri].epoch += 1;
            self.reducers[ri].attempt_seq += 1;
            self.reducers[ri].phase = Phase::WaitingRecovery;
        }

        for r in 0..self.reducers.len() as u32 {
            let ri = r as usize;
            let Phase::Fetching { source, end, .. } = self.reducers[ri].phase else {
                continue;
            };
            if source != n || end <= t {
                continue;
            }
            self.abort_fetch(r, t);
            self.reducers[ri].epoch += 1;
            self.advance(r, t)?;
        }
        Ok(())
    }

    fn on_up(&mut self, n: u32, t: f64, rng: &mut StdRng) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(!self.hosts[ni].up);
        self.hosts[ni].up = true;
        if let Some(since) = self.hosts[ni].down_since.take() {
            self.emit(TraceEvent::NodeUp { node: n, since, t });
        }
        if let Some(outage) = self.hosts[ni].process.next_outage(t, rng) {
            self.hosts[ni].pending_up_at = outage.up_at;
            self.queue.push(outage.down_at, Event::Down(n))?;
        }
        for r in 0..self.reducers.len() as u32 {
            let ri = r as usize;
            match self.reducers[ri].phase {
                Phase::WaitingRecovery if self.reducers[ri].node == n => {
                    self.start_attempt(r, t)?;
                }
                Phase::Blocked => {
                    self.advance(r, t)?;
                }
                Phase::Idle
                | Phase::Fetching { .. }
                | Phase::WaitingRecovery
                | Phase::Computing { .. }
                | Phase::Done => {}
            }
        }
        Ok(())
    }

    fn finalize(mut self, elapsed: f64, completed: bool, seed: u64) -> ReduceDetailed {
        for r in 0..self.reducers.len() as u32 {
            if matches!(self.reducers[r as usize].phase, Phase::Fetching { .. }) {
                self.abort_fetch(r, elapsed);
            }
        }
        let reducer_net_hwm = self.reducers.iter().map(|r| r.net_bytes).max().unwrap_or(0);
        let report = ReduceReport {
            elapsed,
            reducers: self.reducers.len(),
            completed,
            attempts: self.attempts,
            fetches: self.fetches,
            fetches_aborted: self.fetches_aborted,
            local_bytes: self.local_bytes,
            network_bytes: self.network_bytes,
            cross_rack_bytes: self.cross_rack_bytes,
            reducer_net_hwm,
            interruptions: self.interruptions,
            rework: self.rework,
            base_work: self.reducers.len() as f64 * self.reduce_gamma,
            finish: self.reducers.iter().map(|r| r.finish).collect(),
            reducer_nodes: self.reducers.iter().map(|r| NodeId(r.node)).collect(),
        };
        let meta = TraceMeta {
            nodes: self.hosts.len() as u32,
            tasks: self.holders.len() as u32,
            gamma: self.reduce_gamma,
            block_bytes: self.cfg.block_size().bytes(),
            seed,
            elapsed,
            completed,
        };
        ReduceDetailed {
            report,
            trace: self.trace.map(|recorder| recorder.finish(meta)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::BlockSize;
    use adapt_sim::reduce::ReducePhaseSim;
    use adapt_sim::Topology;
    use adapt_traces::record::{HostId, HostTrace, Interruption};
    use adapt_traces::replay::InterruptionSchedule;

    const MB: u64 = 1_048_576;

    fn cfg() -> SimConfig {
        SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
    }

    #[test]
    fn rejects_a_horizon_that_is_not_finite_and_positive() {
        let processes = || vec![InterruptionProcess::none(); 2];
        for (horizon, valid) in [
            (-1.0, false),
            (0.0, false),
            (f64::NAN, false),
            (f64::INFINITY, false),
            (5.0, true),
        ] {
            let cfg = cfg().with_horizon(horizon);
            let args = || (vec![vec![NodeId(0)]], vec![MB], vec![NodeId(1)]);
            let (holders, bytes, reducers) = args();
            let reference =
                ReferenceReduce::new(processes(), holders, bytes, reducers, cfg, 1.0).map(drop);
            let (holders, bytes, reducers) = args();
            let engine =
                ReducePhaseSim::new(processes(), holders, bytes, reducers, cfg, 1.0).map(drop);
            assert_eq!(reference, engine, "horizon {horizon}");
            assert_eq!(reference.is_ok(), valid, "horizon {horizon}");
        }
    }

    fn outage(start: f64, duration: f64) -> InterruptionProcess {
        let host = HostTrace::new(
            HostId(0),
            1_000_000.0,
            vec![Interruption { start, duration }],
        )
        .unwrap();
        InterruptionProcess::trace(InterruptionSchedule::from_host_trace(&host))
    }

    #[test]
    fn reference_matches_engine_on_a_failure_heavy_phase() {
        let build_processes = || {
            vec![
                outage(4.0, 8.0),
                outage(10.0, 10.0),
                InterruptionProcess::none(),
                InterruptionProcess::none(),
            ]
        };
        let holders = vec![vec![NodeId(0), NodeId(2)], vec![NodeId(1)], vec![NodeId(2)]];
        let output_bytes = vec![8 * MB, 3 * MB + 1, 5 * MB];
        let reducer_nodes = vec![NodeId(1), NodeId(3)];
        let topo_cfg = cfg().with_topology(Topology::new(2, 2.5).unwrap());

        let engine = ReducePhaseSim::new(
            build_processes(),
            holders.clone(),
            output_bytes.clone(),
            reducer_nodes.clone(),
            topo_cfg,
            10.0,
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run(2012)
        .unwrap();
        let reference = ReferenceReduce::new(
            build_processes(),
            holders,
            output_bytes,
            reducer_nodes,
            topo_cfg,
            10.0,
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run(2012)
        .unwrap();

        assert_eq!(engine.report, reference.report);
        assert_eq!(engine.trace, reference.trace);
        // The scenario actually exercised the interesting paths.
        assert!(engine.report.interruptions > 0);
        assert!(engine.report.cross_rack_bytes > 0);
    }
}
