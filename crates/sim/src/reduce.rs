//! The reduce phase: shuffle fetches plus reduce compute, event-driven,
//! under the same outage machinery as the map engine.
//!
//! This is the repository's one model of the reduce phase: each reduce
//! task is pinned to its placed host (see [`crate::strategy`]), fetches
//! its slice of every map output sequentially (ascending map-task order,
//! the sort phase's merge order), and then computes for `reduce_gamma`
//! seconds. Fetches are modeled transfers over the same
//! [`Topology`](crate::Topology) fabric as the map phase — intra-rack
//! flows take the flat per-flow time, cross-rack flows pay the
//! oversubscribed uplink fair-shared over the flows active at commit
//! time.
//!
//! Failure semantics mirror Hadoop's reduce-side behavior:
//!
//! * **Source dies mid-fetch** — the fetch aborts immediately (reducers
//!   observe fetch failures without a detection delay) and re-sources
//!   from the lowest-id alive holder, or blocks until one recovers.
//! * **Reducer host dies** — every byte already shuffled to it is lost
//!   with the host (equation (2)'s rework, applied to the reduce phase):
//!   the attempt restarts from map output 0 when the host returns.
//! * **No alive holder** — the reducer blocks; map-output availability
//!   gates reduce progress exactly as block availability gates the map
//!   phase.
//!
//! Time is phase-relative: `t = 0` is the shuffle start (map phase
//! already finished), and each node's interruption process restarts its
//! RNG stream from the run seed, so a reduce phase is reproducible in
//! isolation from the map phase that fed it.
//!
//! Partitioning is exact integer math: map output `m` of `output_bytes[m]`
//! bytes sends `output_bytes[m] / r` bytes to each of `r` reducers, with
//! the remainder spread one byte each over the first `output_bytes[m] % r`
//! slots — so summed over reducers the slices reconstruct every output
//! byte exactly (the conservation law the metamorphic suite pins).

use adapt_dfs::NodeId;
use adapt_ds::SortedVecSet;
use adapt_trace::{Trace, TraceEvent, TraceMeta, TraceRecorder};

use crate::engine::SimConfig;
use crate::event::EventQueue;
use crate::hosts::{Hosts, Uplinks};
use crate::interrupt::InterruptionProcess;
use crate::SimError;

/// Bytes in one megabyte (matches [`adapt_dfs::BlockSize::as_mb`]).
const BYTES_PER_MB: f64 = 1_048_576.0;

/// The slice of map output `m` destined for reducer `r` out of `reducers`:
/// `total / reducers`, plus one remainder byte for the first
/// `total % reducers` slots. Summed over all reducers this is exactly
/// `total` — no byte is created or lost by partitioning.
pub fn slice_bytes(total: u64, reducer: usize, reducers: usize) -> u64 {
    let r = reducers as u64;
    total / r + u64::from((reducer as u64) < total % r)
}

/// One reduce task's lifecycle position.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ReducerPhase {
    /// Not yet started (pre-kick, or host down before the attempt began).
    Idle,
    /// Pulling map output `task` from `source`; the transfer window is
    /// `[start, end)`.
    Fetching {
        task: usize,
        source: u32,
        start: f64,
        end: f64,
        bytes: u64,
        cross_rack: bool,
    },
    /// Every holder of map output `next_task` is down. Wakes on the `Up`
    /// of one of them.
    Blocked,
    /// Host died mid-attempt; restarts from map output 0 on recovery.
    WaitingRecovery,
    /// Shuffle finished; computing since `start`.
    Computing { start: f64 },
    /// Reduce output committed.
    Done,
}

#[derive(Debug)]
struct ReducerState {
    node: u32,
    phase: ReducerPhase,
    /// Invalidates scheduled `FetchDone`/`ReduceDone` events.
    epoch: u64,
    /// Monotone attempt number (increments on restart after host loss).
    attempt_seq: u64,
    /// Next map output to fetch within the current attempt.
    next_task: usize,
    /// Network bytes fetched by this reducer across all attempts.
    net_bytes: u64,
    finish: Option<f64>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Initial dispatch of every reducer, after time-zero outages apply.
    Kick,
    Down(u32),
    Up(u32),
    FetchDone {
        reducer: u32,
        epoch: u64,
    },
    ReduceDone {
        reducer: u32,
        epoch: u64,
    },
}

/// Results of one simulated reduce phase.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceReport {
    /// Reduce-phase completion time, seconds (horizon if incomplete).
    pub elapsed: f64,
    /// Number of reduce tasks.
    pub reducers: usize,
    /// Whether every reducer finished within the horizon.
    pub completed: bool,
    /// Reduce attempts started (first starts plus post-outage restarts).
    pub attempts: usize,
    /// Shuffle fetches committed (including later-aborted ones).
    pub fetches: usize,
    /// Fetches cut mid-flight by a source or host death (or the horizon).
    pub fetches_aborted: usize,
    /// Slice bytes read locally (reducer co-located with the holder).
    pub local_bytes: u64,
    /// Slice bytes that completed a network fetch.
    pub network_bytes: u64,
    /// Of the network bytes, those that crossed a rack boundary.
    pub cross_rack_bytes: u64,
    /// Largest single-reducer network volume (shuffle-skew high-water).
    pub reducer_net_hwm: u64,
    /// Host outages during the phase.
    pub interruptions: usize,
    /// Reduce-compute seconds lost to host interruptions.
    pub rework: f64,
    /// Failure-free reduce work, `r · reduce_gamma` (seconds).
    pub base_work: f64,
    /// Per-reducer completion times (`None` for reducers cut by the
    /// horizon).
    pub finish: Vec<Option<f64>>,
    /// Reducer placement used, one node per reducer.
    pub reducer_nodes: Vec<NodeId>,
}

impl ReduceReport {
    /// Fraction of shuffle bytes served locally, in `[0, 1]`.
    pub fn shuffle_locality(&self) -> f64 {
        let total = self.local_bytes + self.network_bytes;
        if total == 0 {
            0.0
        } else {
            self.local_bytes as f64 / total as f64
        }
    }
}

/// [`ReduceReport`] plus the sealed trace when a recorder was attached.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceDetailed {
    /// The phase outcome.
    pub report: ReduceReport,
    /// The event log (present only under
    /// [`with_trace`](ReducePhaseSim::with_trace)).
    pub trace: Option<Trace>,
}

/// The reduce-phase simulator. Construct once per run; [`run`] consumes
/// it.
///
/// [`run`]: ReducePhaseSim::run
#[derive(Debug)]
pub struct ReducePhaseSim {
    cfg: SimConfig,
    reduce_gamma: f64,
    /// Holders of each map task's output (the map phase's winners plus
    /// any replicas of the intermediate data).
    holders: Vec<Vec<u32>>,
    output_bytes: Vec<u64>,
    hosts: Hosts,
    reducers: Vec<ReducerState>,
    /// The reducers pinned to each host, ascending (fixed at
    /// construction): the only reducers its outage or recovery restarts.
    hosted: Vec<Vec<u32>>,
    /// Per holder, the reducers that blocked on a map output it holds.
    /// Filled when a reducer enters `Blocked`, drained by the holder's
    /// `Up`, which skips entries no longer blocked on it.
    waiters: Vec<Vec<u32>>,
    /// Per source, the reducers with a fetch in flight from it.
    fetchers: Vec<SortedVecSet>,
    /// The cross-rack fetch windows each rack's uplink carries.
    uplinks: Uplinks,
    /// `on_up`'s candidate buffer, kept to reuse its allocation.
    wake: Vec<u32>,
    queue: EventQueue<Event>,
    done_count: usize,
    // Accumulators.
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

impl ReducePhaseSim {
    /// Builds a reduce phase over `processes.len()` hosts. `holders[m]`
    /// lists the nodes holding map task `m`'s output, `output_bytes[m]`
    /// its size; `reducer_nodes` pins each reduce task to a host.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a horizon that is not
    /// finite and positive, an empty cluster, reducer set, or map-output
    /// list, a holder/byte length mismatch, a task with no holders, or a
    /// non-positive `reduce_gamma`;
    /// [`SimError::PlacementOutOfRange`] if a holder or reducer host
    /// references a node outside the cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        holders: Vec<Vec<NodeId>>,
        output_bytes: Vec<u64>,
        reducer_nodes: Vec<NodeId>,
        cfg: SimConfig,
        reduce_gamma: f64,
    ) -> Result<Self, SimError> {
        cfg.check_horizon()?;
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

        let mut hosted = vec![Vec::new(); n];
        for (r, host) in reducer_nodes.iter().enumerate() {
            hosted[host.0 as usize].push(r as u32);
        }
        let reducer_states = reducer_nodes
            .iter()
            .map(|host| ReducerState {
                node: host.0,
                phase: ReducerPhase::Idle,
                epoch: 0,
                attempt_seq: 0,
                next_task: 0,
                net_bytes: 0,
                finish: None,
            })
            .collect();
        let queue = EventQueue::with_capacity(n * 2 + reducer_nodes.len() + 16);
        Ok(ReducePhaseSim {
            reduce_gamma,
            holders: holder_ids,
            output_bytes,
            hosts: Hosts::new(processes),
            reducers: reducer_states,
            hosted,
            waiters: vec![Vec::new(); n],
            fetchers: vec![SortedVecSet::new(); n],
            uplinks: Uplinks::new(cfg.topology()),
            wake: Vec::new(),
            cfg,
            queue,
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

    /// Attaches an event recorder; the run emits `ReduceStarted`,
    /// `ShuffleFetch`, `LinkContention`, and `NodeDown`/`NodeUp` records.
    /// Behavior and the report are byte-identical with or without
    /// tracing.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(event);
        }
    }

    /// Seconds to move `bytes` over one uncontended intra-rack flow.
    fn bytes_seconds(&self, bytes: u64) -> f64 {
        (bytes as f64 / BYTES_PER_MB) * 8.0 / self.cfg.bandwidth_mbps()
    }

    /// Runs the reduce phase to completion (or the horizon) and returns
    /// the report plus the sealed trace (when one was attached). All
    /// randomness derives from `seed`: each host draws the outages a map
    /// phase over the same processes and seed would draw.
    ///
    /// # Errors
    ///
    /// An exceeded horizon is reported via [`ReduceReport::completed`].
    /// [`SimError::InvariantViolation`] signals an internal bug.
    pub fn run(mut self, seed: u64) -> Result<ReduceDetailed, SimError> {
        for (n, down_at) in self.hosts.start(seed) {
            self.queue.push(down_at, Event::Down(n))?;
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
                        if self.hosts.is_up(self.reducers[r as usize].node) {
                            self.start_attempt(r, t)?;
                        } else {
                            self.reducers[r as usize].phase = ReducerPhase::WaitingRecovery;
                        }
                    }
                }
                Event::Down(n) => self.on_down(n, t)?,
                Event::Up(n) => self.on_up(n, t)?,
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

    /// Begins (or restarts) the reducer's attempt at `t`: emits
    /// `ReduceStarted` and advances into the fetch sequence.
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

    /// Drives the reducer forward from `next_task`: consumes zero-byte
    /// and local slices instantly, commits the next network fetch, or
    /// starts the compute once every slice is in.
    fn advance(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        let node = self.reducers[ri].node;
        loop {
            let m = self.reducers[ri].next_task;
            if m == self.holders.len() {
                self.reducers[ri].phase = ReducerPhase::Computing { start: t };
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
                // Co-located slice: a disk read, instant at this model's
                // resolution and invisible to the network.
                self.local_bytes += bytes;
                self.reducers[ri].next_task += 1;
                continue;
            }
            // Lowest-id alive holder; map-output availability gates the
            // fetch — with every holder down the reducer blocks.
            let Some(&source) = self.holders[m].iter().find(|&&h| self.hosts.is_up(h)) else {
                self.reducers[ri].phase = ReducerPhase::Blocked;
                for &h in &self.holders[m] {
                    self.waiters[h as usize].push(r);
                }
                return Ok(());
            };
            let (end, uplink_streams) =
                self.uplinks
                    .commit(source, node, self.bytes_seconds(bytes), t)?;
            self.fetchers[source as usize].insert(ri);
            self.fetches += 1;
            if let Some(streams) = uplink_streams.filter(|&streams| streams > 1) {
                self.emit(TraceEvent::LinkContention {
                    rack: self.cfg.topology().rack_of(source),
                    streams: streams as u32,
                    t,
                });
            }
            self.reducers[ri].phase = ReducerPhase::Fetching {
                task: m,
                source,
                start: t,
                end,
                bytes,
                cross_rack: uplink_streams.is_some(),
            };
            let epoch = self.reducers[ri].epoch;
            return self.queue.push(end, Event::FetchDone { reducer: r, epoch });
        }
    }

    fn on_fetch_done(&mut self, r: u32, t: f64) -> Result<(), SimError> {
        let ri = r as usize;
        let ReducerPhase::Fetching {
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
        self.fetchers[source as usize].remove(ri);
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
        if !matches!(self.reducers[ri].phase, ReducerPhase::Computing { .. }) {
            return Err(SimError::InvariantViolation {
                what: "epoch-valid reduce completion arrived while not computing",
            });
        }
        self.reducers[ri].phase = ReducerPhase::Done;
        self.reducers[ri].finish = Some(t);
        self.done_count += 1;
        Ok(())
    }

    /// Aborts the reducer's in-flight fetch (if any), emitting the
    /// aborted `ShuffleFetch`. The committed window stays on the source
    /// rack's uplink — both links were reserved either way.
    fn abort_fetch(&mut self, r: u32, t: f64) {
        let ri = r as usize;
        let ReducerPhase::Fetching {
            task,
            source,
            start,
            ..
        } = self.reducers[ri].phase
        else {
            return;
        };
        self.fetchers[source as usize].remove(ri);
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
        self.interruptions += 1;
        self.emit(TraceEvent::NodeDown { node: n, t });
        let up_at = self.hosts.go_down(n, t);
        self.queue.push(up_at, Event::Up(n))?;

        // Reducers hosted here lose everything shuffled so far —
        // equation (2)'s rework applied to the reduce phase.
        for i in 0..self.hosted[ni].len() {
            let r = self.hosted[ni][i];
            let ri = r as usize;
            match self.reducers[ri].phase {
                ReducerPhase::Done | ReducerPhase::WaitingRecovery => continue,
                ReducerPhase::Fetching { .. } => self.abort_fetch(r, t),
                ReducerPhase::Computing { start } => {
                    self.rework += (t - start).clamp(0.0, self.reduce_gamma);
                }
                ReducerPhase::Idle | ReducerPhase::Blocked => {}
            }
            self.reducers[ri].epoch += 1;
            self.reducers[ri].attempt_seq += 1;
            self.reducers[ri].phase = ReducerPhase::WaitingRecovery;
        }

        // Fetches sourced from this node fail immediately, in ascending
        // reducer order; each fetcher re-sources from another alive
        // holder or blocks. (A reducer never fetches from its own host,
        // and none re-sources onto this one, now down.) A window that
        // closes at this instant is left to its queued completion.
        let sourced = std::mem::take(&mut self.fetchers[ni]);
        for ri in sourced.iter() {
            let end = match self.reducers[ri].phase {
                ReducerPhase::Fetching { source, end, .. } if source == n => end,
                ReducerPhase::Idle
                | ReducerPhase::Fetching { .. }
                | ReducerPhase::Blocked
                | ReducerPhase::WaitingRecovery
                | ReducerPhase::Computing { .. }
                | ReducerPhase::Done => {
                    return Err(SimError::InvariantViolation {
                        what: "a source's in-flight fetchers hold a reducer not fetching from it",
                    })
                }
            };
            if end <= t {
                self.fetchers[ni].insert(ri);
                continue;
            }
            self.abort_fetch(ri as u32, t);
            self.reducers[ri].epoch += 1;
            self.advance(ri as u32, t)?;
        }
        Ok(())
    }

    fn on_up(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        let (since, next_down) = self.hosts.go_up(n, t);
        self.emit(TraceEvent::NodeUp { node: n, since, t });
        if let Some(down_at) = next_down {
            self.queue.push(down_at, Event::Down(n))?;
        }
        // Hosted reducers restart their attempt from scratch; reducers
        // blocked on a map output this node holds resume from it. Every
        // other blocked reducer still has every holder of its output down
        // and would re-block with no side effect, so it is not visited.
        // Ascending reducer order keeps the retry sequence deterministic.
        let mut wake = std::mem::take(&mut self.wake);
        wake.clear();
        wake.extend_from_slice(&self.hosted[ni]);
        wake.append(&mut self.waiters[ni]);
        wake.sort_unstable();
        wake.dedup();
        for &r in &wake {
            let ri = r as usize;
            match self.reducers[ri].phase {
                ReducerPhase::WaitingRecovery if self.reducers[ri].node == n => {
                    self.start_attempt(r, t)?;
                }
                ReducerPhase::Blocked if self.holders[self.reducers[ri].next_task].contains(&n) => {
                    self.advance(r, t)?;
                }
                ReducerPhase::Idle
                | ReducerPhase::Fetching { .. }
                | ReducerPhase::Blocked
                | ReducerPhase::WaitingRecovery
                | ReducerPhase::Computing { .. }
                | ReducerPhase::Done => {}
            }
        }
        self.wake = wake;
        Ok(())
    }

    fn finalize(mut self, elapsed: f64, completed: bool, seed: u64) -> ReduceDetailed {
        // Fetches still in flight at the cut are aborted records, like
        // the map engine's cut-attempt emission.
        for r in 0..self.reducers.len() as u32 {
            if matches!(
                self.reducers[r as usize].phase,
                ReducerPhase::Fetching { .. }
            ) {
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
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::interrupt::outage;
    use adapt_dfs::BlockSize;
    use adapt_net::Topology;

    const MB: u64 = 1_048_576;

    fn cfg() -> SimConfig {
        // 8 Mb/s, 64 MB blocks, gamma 12 s: 8 MB moves in 8 s.
        SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
    }

    #[test]
    fn slice_math_conserves_every_byte() {
        for total in [0u64, 1, 7, 100, MB, 3 * MB + 17] {
            for reducers in [1usize, 2, 3, 7, 64] {
                let sum: u64 = (0..reducers).map(|r| slice_bytes(total, r, reducers)).sum();
                assert_eq!(sum, total, "total={total} reducers={reducers}");
            }
        }
    }

    #[test]
    fn all_local_phase_is_pure_compute() {
        // One map output on node 0, reducer on node 0: no network at all.
        let sim = ReducePhaseSim::new(
            vec![InterruptionProcess::none(); 2],
            vec![vec![NodeId(0)]],
            vec![8 * MB],
            vec![NodeId(0)],
            cfg(),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 10.0);
        assert_eq!(report.local_bytes, 8 * MB);
        assert_eq!(report.network_bytes, 0);
        assert_eq!(report.fetches, 0);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.finish, vec![Some(10.0)]);
        assert_eq!(report.shuffle_locality(), 1.0);
    }

    #[test]
    fn remote_fetches_run_sequentially() {
        // Two 8 MB outputs on node 0, reducer on node 1: two 8 s fetches
        // back to back, then 10 s compute.
        let sim = ReducePhaseSim::new(
            vec![InterruptionProcess::none(); 2],
            vec![vec![NodeId(0)], vec![NodeId(0)]],
            vec![8 * MB, 8 * MB],
            vec![NodeId(1)],
            cfg(),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 26.0);
        assert_eq!(report.network_bytes, 16 * MB);
        assert_eq!(report.cross_rack_bytes, 0);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 0);
        assert_eq!(report.reducer_net_hwm, 16 * MB);
    }

    #[test]
    fn reliable_reducers_beat_volatile_reducers_on_locality() {
        use crate::strategy::{AdaptStrategy, PlacementStrategy};
        use adapt_dfs::cluster::NodeSpec;
        use adapt_dfs::{NameNode, NodeAvailability};

        // Outputs concentrated on reliable nodes 0 and 1 (as ADAPT
        // placement produces); the reducers ADAPT ranks first land on
        // those hosts and keep half of every slice local.
        let availability = [
            NodeAvailability::reliable(),
            NodeAvailability::reliable(),
            NodeAvailability::from_mtbi(10.0, 8.0).unwrap(),
            NodeAvailability::from_mtbi(10.0, 8.0).unwrap(),
        ];
        let holders: Vec<Vec<NodeId>> = (0..10).map(|i| vec![NodeId(i % 2)]).collect();
        let view =
            NameNode::new(availability.iter().map(|&a| NodeSpec::new(a)).collect()).cluster_view();
        let mut strategy = AdaptStrategy::new(12.0).unwrap();
        let reliable: Vec<NodeId> = (0..2)
            .map(|r| strategy.place_reduce_task(&view, &holders, r, 2).unwrap())
            .collect();
        assert_eq!(reliable, [NodeId(0), NodeId(1)]);

        let run = |reducers: Vec<NodeId>| {
            ReducePhaseSim::new(
                vec![InterruptionProcess::none(); 4],
                holders.clone(),
                vec![8 * MB; 10],
                reducers,
                cfg(),
                10.0,
            )
            .unwrap()
            .run(7)
            .unwrap()
            .report
        };
        let good = run(reliable);
        let bad = run(vec![NodeId(2), NodeId(3)]);
        assert!(good.completed && bad.completed);
        assert!(good.shuffle_locality() > bad.shuffle_locality());
        assert!(good.elapsed < bad.elapsed);
    }

    #[test]
    fn cross_rack_fetch_pays_the_oversubscribed_uplink() {
        // Nodes 0/1 in different racks, oversubscription 2: the single
        // 8 MB cross-rack fetch takes 16 s instead of 8 s.
        let sim = ReducePhaseSim::new(
            vec![InterruptionProcess::none(); 2],
            vec![vec![NodeId(0)]],
            vec![8 * MB],
            vec![NodeId(1)],
            cfg().with_topology(Topology::new(2, 2.0).unwrap()),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert_eq!(report.elapsed, 26.0);
        assert_eq!(report.cross_rack_bytes, 8 * MB);
    }

    #[test]
    fn source_death_resources_the_fetch_from_a_replica() {
        // Node 0 dies at t = 4, mid-fetch. The output is replicated on
        // node 2 (same rack as everyone, flat): the fetch aborts at 4 and
        // restarts from node 2, completing at 12; compute ends at 22.
        let sim = ReducePhaseSim::new(
            vec![
                outage(4.0, 1_000.0),
                InterruptionProcess::none(),
                InterruptionProcess::none(),
            ],
            vec![vec![NodeId(0), NodeId(2)]],
            vec![8 * MB],
            vec![NodeId(1)],
            cfg(),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 22.0);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 1);
        assert_eq!(report.network_bytes, 8 * MB);
    }

    #[test]
    fn unreplicated_source_death_blocks_until_recovery() {
        // The only holder dies at 4 and returns at 20: the reducer blocks
        // and refetches 0..8 MB starting at 20, finishing at 28 + 10.
        let sim = ReducePhaseSim::new(
            vec![outage(4.0, 16.0), InterruptionProcess::none()],
            vec![vec![NodeId(0)]],
            vec![8 * MB],
            vec![NodeId(1)],
            cfg(),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 38.0);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 1);
    }

    #[test]
    fn blocked_reducer_resumes_from_either_holder_and_reblocks() {
        // Output 0 lives on nodes 0 and 1, output 1 only on node 1; both
        // are down from t = 0, node 0 until 10 and node 1 until 30. The
        // reducer on node 2 blocks on {0, 1}, resumes from node 0 at 10
        // (8 s fetch), then blocks on output 1 at 18 while its wait
        // entry from the first block is still on node 1. Node 1's return
        // at 30 wakes it once: fetch 30..38, compute 38..48.
        let sim = ReducePhaseSim::new(
            vec![
                outage(0.0, 10.0),
                outage(0.0, 30.0),
                InterruptionProcess::none(),
            ],
            vec![vec![NodeId(0), NodeId(1)], vec![NodeId(1)]],
            vec![8 * MB, 8 * MB],
            vec![NodeId(2)],
            cfg(),
            10.0,
        )
        .unwrap();
        let detailed = sim.with_trace(TraceRecorder::new()).run(7).unwrap();
        let report = detailed.report;
        assert!(report.completed);
        assert_eq!(report.finish, vec![Some(48.0)]);
        assert_eq!(report.attempts, 1);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 0);
        let fetches: Vec<(u32, u32, f64, f64)> = detailed
            .trace
            .unwrap()
            .events
            .iter()
            .filter_map(|e| {
                let TraceEvent::ShuffleFetch {
                    source,
                    task,
                    start,
                    end,
                    ..
                } = *e
                else {
                    return None;
                };
                Some((task, source, start, end))
            })
            .collect();
        assert_eq!(fetches, vec![(0, 0, 10.0, 18.0), (1, 1, 30.0, 38.0)]);
    }

    #[test]
    fn reducer_host_death_reworks_the_whole_attempt() {
        // Reducer on node 1 fetches 8 MB (done at 8) and computes; node 1
        // dies at 10 (2 s of compute lost as rework) and returns at 20.
        // The restart refetches all 8 MB (20..28) and computes 28..38.
        let sim = ReducePhaseSim::new(
            vec![InterruptionProcess::none(), outage(10.0, 10.0)],
            vec![vec![NodeId(0)]],
            vec![8 * MB],
            vec![NodeId(1)],
            cfg(),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(report.completed);
        assert_eq!(report.elapsed, 38.0);
        assert_eq!(report.attempts, 2);
        assert_eq!(report.fetches, 2);
        assert_eq!(report.fetches_aborted, 0);
        // All bytes fetched twice.
        assert_eq!(report.network_bytes, 16 * MB);
        assert!((report.rework - 2.0).abs() < 1e-9);
        assert_eq!(report.interruptions, 1);
    }

    #[test]
    fn concurrent_cross_rack_fetches_share_the_uplink() {
        // Racks {0, 2} and {1, 3}; both outputs on node 0; reducers on
        // nodes 1 and 3 (rack 1). Reducer 0 commits its 4 MB slice fetch
        // first (uncontended: 4 s × 2 oversub = 8 s), reducer 1 commits
        // while that flow is active (streams = 2: 16 s).
        let sim = ReducePhaseSim::new(
            vec![InterruptionProcess::none(); 4],
            vec![vec![NodeId(0)]],
            vec![8 * MB],
            vec![NodeId(1), NodeId(3)],
            cfg().with_topology(Topology::new(2, 2.0).unwrap()),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(report.completed);
        assert_eq!(report.finish, vec![Some(18.0), Some(26.0)]);
        assert_eq!(report.cross_rack_bytes, 8 * MB);
    }

    #[test]
    fn trace_carries_the_reduce_event_types() {
        // Node 0 dies mid-fetch at t = 4; the replica on node 2 serves
        // the retry, so the log holds both an aborted and a completed
        // fetch.
        let sim = ReducePhaseSim::new(
            vec![
                outage(4.0, 1_000.0),
                InterruptionProcess::none(),
                InterruptionProcess::none(),
            ],
            vec![vec![NodeId(0), NodeId(2)]],
            vec![8 * MB],
            vec![NodeId(1)],
            cfg(),
            10.0,
        )
        .unwrap();
        let detailed = sim.with_trace(TraceRecorder::new()).run(7).unwrap();
        assert!(detailed.report.completed);
        let trace = detailed.trace.unwrap();
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"reduce_started"));
        assert!(kinds.contains(&"shuffle_fetch"));
        assert!(kinds.contains(&"node_down"));
        // The aborted fetch is recorded as such.
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::ShuffleFetch { aborted: true, .. })));
    }

    #[test]
    fn traced_and_untraced_runs_report_identically() {
        let build = || {
            ReducePhaseSim::new(
                vec![outage(4.0, 10.0), InterruptionProcess::none()],
                vec![vec![NodeId(0)], vec![NodeId(1)]],
                vec![8 * MB, 3 * MB + 1],
                vec![NodeId(0), NodeId(1)],
                cfg(),
                10.0,
            )
            .unwrap()
        };
        let plain = build().run(11).unwrap().report;
        let traced = build()
            .with_trace(TraceRecorder::new())
            .run(11)
            .unwrap()
            .report;
        assert_eq!(plain, traced);
    }

    #[test]
    fn validation_rejects_malformed_phases() {
        let p = || vec![InterruptionProcess::none(); 2];
        assert!(ReducePhaseSim::new(
            vec![],
            vec![vec![NodeId(0)]],
            vec![1],
            vec![NodeId(0)],
            cfg(),
            1.0
        )
        .is_err());
        assert!(ReducePhaseSim::new(p(), vec![], vec![], vec![NodeId(0)], cfg(), 1.0).is_err());
        assert!(
            ReducePhaseSim::new(p(), vec![vec![]], vec![1], vec![NodeId(0)], cfg(), 1.0).is_err()
        );
        assert!(ReducePhaseSim::new(
            p(),
            vec![vec![NodeId(0)]],
            vec![],
            vec![NodeId(0)],
            cfg(),
            1.0
        )
        .is_err());
        assert!(
            ReducePhaseSim::new(p(), vec![vec![NodeId(0)]], vec![1], vec![], cfg(), 1.0).is_err()
        );
        assert!(ReducePhaseSim::new(
            p(),
            vec![vec![NodeId(5)]],
            vec![1],
            vec![NodeId(0)],
            cfg(),
            1.0
        )
        .is_err());
        assert!(ReducePhaseSim::new(
            p(),
            vec![vec![NodeId(0)]],
            vec![1],
            vec![NodeId(5)],
            cfg(),
            1.0
        )
        .is_err());
        assert!(ReducePhaseSim::new(
            p(),
            vec![vec![NodeId(0)]],
            vec![1],
            vec![NodeId(0)],
            cfg(),
            0.0
        )
        .is_err());
    }

    #[test]
    fn rejects_a_horizon_that_is_not_finite_and_positive() {
        let build = |horizon: f64| {
            ReducePhaseSim::new(
                vec![InterruptionProcess::none(); 2],
                vec![vec![NodeId(0)]],
                vec![MB],
                vec![NodeId(1)],
                cfg().with_horizon(horizon),
                1.0,
            )
        };
        for horizon in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    build(horizon),
                    Err(SimError::InvalidConfig {
                        name: "horizon",
                        ..
                    })
                ),
                "horizon {horizon}"
            );
        }
        assert!(build(5.0).is_ok());
    }

    #[test]
    fn horizon_cuts_the_phase() {
        let sim = ReducePhaseSim::new(
            vec![InterruptionProcess::none(); 2],
            vec![vec![NodeId(0)]],
            vec![8 * MB],
            vec![NodeId(1)],
            cfg().with_horizon(5.0),
            10.0,
        )
        .unwrap();
        let report = sim.run(7).unwrap().report;
        assert!(!report.completed);
        assert_eq!(report.elapsed, 5.0);
        assert_eq!(report.finish, vec![None]);
        assert_eq!(report.fetches_aborted, 1);
        assert_eq!(report.network_bytes, 0);
    }
}
