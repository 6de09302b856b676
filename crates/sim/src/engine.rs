//! The map-phase discrete-event engine.
//!
//! Mechanism mirrors Hadoop 0.20.2 as the paper describes it:
//!
//! * one task slot per node (the emulated VMs had one core);
//! * **locality first**: an idle node runs a pending task whose block it
//!   stores before anything else;
//! * **straggler stealing**: a node with no local work steals a pending
//!   task from elsewhere, fetching the block from an alive replica over
//!   the throttled network (the paper's data-migration cost);
//! * **speculative execution**: when nothing is pending, an idle node may
//!   duplicate a still-running straggler — but only when its own ETA
//!   beats every running copy's ETA (task times are deterministic here,
//!   so the scheduler can tell; the classic case is an original stuck
//!   behind a slow block transfer). The first finisher wins and the
//!   losers are killed ("duplicated straggler execution" — misc cost);
//! * **interruptions** kill the running attempt (its partial compute is
//!   *rework*), leave blocks on persistent storage, and make the node
//!   unavailable until recovery; an interrupted task restarts on the same
//!   node when it returns unless another node stole it first.
//!
//! # Overhead decomposition (paper Figure 5)
//!
//! Costs are reported relative to the aggregated failure-free execution
//! time `base = m·γ`:
//!
//! * **rework** — compute seconds lost to interruption-killed attempts;
//! * **recovery** — seconds nodes spent *down while holding pending local
//!   work* (downtime that stalls tasks, which is what data placement can
//!   and does change);
//! * **migration** — seconds from task assignment to compute start for
//!   remote attempts (block transfer plus link queueing);
//! * **misc** — idle time of up nodes (scheduling slack and the idle tail
//!   at the end of the map phase) plus compute burned by losing
//!   speculative duplicates.

use adapt_ds::{IdSet, SortedVecSet, ThresholdIndex};

use adapt_dfs::{BlockSize, NodeId};
use adapt_metrics::{MetricsHub, MetricsRegistry, WorkCounts};
use adapt_net::Topology;
use adapt_telemetry::micros;
use adapt_trace::{KillCause, Trace, TraceEvent, TraceMeta, TraceRecorder};

use crate::event::EventQueue;
use crate::hosts::{Hosts, Uplinks};
use crate::interrupt::InterruptionProcess;
use crate::telemetry::EngineTelemetrySnapshot;
use crate::SimError;

/// Per-node activity summary of one run (from
/// [`MapPhaseSim::run_detailed`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeStat {
    /// Seconds the node spent on attempts (compute and transfer wait).
    pub busy: f64,
    /// Seconds the node was down within the run.
    pub downtime: f64,
    /// Seconds the node was down while holding pending local work.
    pub recovery: f64,
    /// Tasks whose winning attempt ran here.
    pub completed_tasks: usize,
    /// Of those, how many were data-local.
    pub local_completed: usize,
}

/// A [`SimReport`] plus per-node statistics and per-task winners.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailedReport {
    /// The aggregate report.
    pub report: SimReport,
    /// One entry per node, in id order.
    pub node_stats: Vec<NodeStat>,
    /// For each task, the node whose attempt completed it (`None` only
    /// in incomplete runs). Feeds the shuffle-phase model.
    pub winners: Vec<Option<NodeId>>,
    /// Engine counters and histograms accumulated during the run.
    pub telemetry: EngineTelemetrySnapshot,
    /// The sealed event trace, when the run was built
    /// [`with_trace`](MapPhaseSim::with_trace); `None` otherwise.
    pub trace: Option<Trace>,
}

/// How the JobTracker orders steal candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulingMode {
    /// Hadoop 0.20 behaviour: first pending task in id (FIFO) order.
    #[default]
    Fifo,
    /// The paper's future-work direction ("availability-aware MapReduce
    /// job scheduling"): among scan candidates, steal the task whose
    /// data sits on the most volatile host first, evacuating at-risk
    /// work before the host disappears.
    AvailabilityAware,
}

/// Simulation parameters shared by every node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    bandwidth_mbps: f64,
    block_size: BlockSize,
    gamma: f64,
    speculation: bool,
    max_copies: usize,
    max_source_streams: usize,
    scheduling: SchedulingMode,
    detection_delay: f64,
    horizon: f64,
    topology: Topology,
}

impl SimConfig {
    /// Creates a configuration.
    ///
    /// * `bandwidth_mbps` — per-node link bandwidth in megabits/second
    ///   (the paper sweeps 4–32 Mb/s);
    /// * `block_size` — HDFS block size (default 64 MB);
    /// * `gamma` — failure-free map-task time per block in seconds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if any value is out of domain.
    pub fn new(bandwidth_mbps: f64, block_size: BlockSize, gamma: f64) -> Result<Self, SimError> {
        if !(bandwidth_mbps.is_finite() && bandwidth_mbps > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "bandwidth_mbps",
                reason: format!("{bandwidth_mbps} must be finite and > 0"),
            });
        }
        if block_size.bytes() == 0 {
            return Err(SimError::InvalidConfig {
                name: "block_size",
                reason: "must be non-zero".into(),
            });
        }
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(SimError::InvalidConfig {
                name: "gamma",
                reason: format!("{gamma} must be finite and > 0"),
            });
        }
        Ok(SimConfig {
            bandwidth_mbps,
            block_size,
            gamma,
            speculation: true,
            max_copies: 2,
            max_source_streams: 4,
            scheduling: SchedulingMode::default(),
            detection_delay: 0.0,
            horizon: 1e9,
            topology: Topology::flat(),
        })
    }

    /// Installs a rack topology (default [`Topology::flat`]): intra-rack
    /// transfers keep the flat per-node-link time, cross-rack transfers
    /// pay the oversubscribed uplink fair-shared over the cross-rack
    /// flows active when the transfer is committed. The degenerate flat
    /// topology reproduces the pre-topology engine byte for byte.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// The rack topology transfers run over.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Enables or disables speculative duplicates (on by default).
    pub fn with_speculation(mut self, on: bool) -> Self {
        self.speculation = on;
        self
    }

    /// Maximum concurrent copies of one task, including the original
    /// (default 2).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `max_copies == 0`.
    pub fn with_max_copies(mut self, max_copies: usize) -> Result<Self, SimError> {
        if max_copies == 0 {
            return Err(SimError::InvalidConfig {
                name: "max_copies",
                reason: "at least one copy must run".into(),
            });
        }
        self.max_copies = max_copies;
        Ok(self)
    }

    /// Maximum concurrent outbound block transfers per node (default 4,
    /// like a DataNode's transceiver limit). Bandwidth is shaped per
    /// flow: each transfer takes `block/bandwidth` seconds regardless of
    /// concurrency, but a source serves at most this many streams at
    /// once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `streams == 0`.
    pub fn with_max_source_streams(mut self, streams: usize) -> Result<Self, SimError> {
        if streams == 0 {
            return Err(SimError::InvalidConfig {
                name: "max_source_streams",
                reason: "at least one outbound stream required".into(),
            });
        }
        self.max_source_streams = streams;
        Ok(self)
    }

    /// Maximum concurrent outbound transfers per node.
    pub fn max_source_streams(&self) -> usize {
        self.max_source_streams
    }

    /// Sets the failure-detection latency: after an interruption kills a
    /// node's attempt, the JobTracker only re-queues the task this many
    /// seconds later (heartbeat-timeout detection; Hadoop 0.20 defaults
    /// to minutes, tuned down in non-dedicated deployments). Default 0
    /// (oracle detection).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for negative or non-finite
    /// delays.
    pub fn with_detection_delay(mut self, delay: f64) -> Result<Self, SimError> {
        if !(delay.is_finite() && delay >= 0.0) {
            return Err(SimError::InvalidConfig {
                name: "detection_delay",
                reason: format!("{delay} must be finite and >= 0"),
            });
        }
        self.detection_delay = delay;
        Ok(self)
    }

    /// The failure-detection latency in seconds.
    pub fn detection_delay(&self) -> f64 {
        self.detection_delay
    }

    /// Selects the steal-ordering discipline (default FIFO, like Hadoop
    /// 0.20; see [`SchedulingMode`]).
    pub fn with_scheduling(mut self, scheduling: SchedulingMode) -> Self {
        self.scheduling = scheduling;
        self
    }

    /// The steal-ordering discipline in use.
    pub fn scheduling(&self) -> SchedulingMode {
        self.scheduling
    }

    /// Sets the simulation horizon (default 10⁹ s); runs that exceed it
    /// are reported as incomplete. The engines' constructors reject a
    /// horizon that is not finite and positive.
    pub fn with_horizon(mut self, horizon: f64) -> Self {
        self.horizon = horizon;
        self
    }

    /// The simulation horizon in seconds.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Checks that the horizon is finite and positive. A negative one
    /// would cut the run before its first event, and a NaN one would
    /// never cut it.
    pub(crate) fn check_horizon(&self) -> Result<(), SimError> {
        if self.horizon.is_finite() && self.horizon > 0.0 {
            Ok(())
        } else {
            Err(SimError::InvalidConfig {
                name: "horizon",
                reason: format!("{} must be finite and > 0", self.horizon),
            })
        }
    }

    /// Maximum concurrent copies of one task, including the original.
    pub fn max_copies(&self) -> usize {
        self.max_copies
    }

    /// Per-node link bandwidth in Mb/s.
    pub fn bandwidth_mbps(&self) -> f64 {
        self.bandwidth_mbps
    }

    /// HDFS block size.
    pub fn block_size(&self) -> BlockSize {
        self.block_size
    }

    /// Failure-free map-task time per block.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Whether speculative duplicates are enabled.
    pub fn speculation(&self) -> bool {
        self.speculation
    }

    /// Seconds to transfer one block between two nodes, links permitting.
    pub fn transfer_seconds(&self) -> f64 {
        self.block_size.transfer_seconds(self.bandwidth_mbps)
    }
}

/// Results of one simulated map phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimReport {
    /// Map-phase completion time (seconds).
    pub elapsed: f64,
    /// Total tasks (= blocks).
    pub tasks: usize,
    /// Tasks whose winning execution ran on a node holding the block.
    pub local_tasks: usize,
    /// Task attempts started (including killed and duplicate attempts).
    pub attempts: usize,
    /// Block transfers started.
    pub transfers: usize,
    /// Aggregated failure-free work, `m·γ` (seconds).
    pub base_work: f64,
    /// Compute seconds lost to interruption-killed attempts.
    pub rework: f64,
    /// Seconds nodes were down while holding pending local work.
    pub recovery: f64,
    /// Seconds remote attempts spent between assignment and compute start.
    pub migration: f64,
    /// Up-node idle seconds plus losing-duplicate compute seconds.
    pub misc: f64,
    /// Whether every task finished within the horizon.
    pub completed: bool,
}

impl SimReport {
    /// Data locality: local winning executions over all tasks, in `[0,1]`
    /// (the paper's Figure 4 metric).
    pub fn locality(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.local_tasks as f64 / self.tasks as f64
        }
    }

    /// Rework overhead relative to the failure-free base.
    pub fn rework_ratio(&self) -> f64 {
        self.rework / self.base_work
    }

    /// Recovery overhead relative to the failure-free base.
    pub fn recovery_ratio(&self) -> f64 {
        self.recovery / self.base_work
    }

    /// Migration overhead relative to the failure-free base.
    pub fn migration_ratio(&self) -> f64 {
        self.migration / self.base_work
    }

    /// Misc overhead relative to the failure-free base.
    pub fn misc_ratio(&self) -> f64 {
        self.misc / self.base_work
    }

    /// Sum of all four overhead ratios (the stacked bars of Figure 5).
    pub fn total_overhead_ratio(&self) -> f64 {
        self.rework_ratio() + self.recovery_ratio() + self.migration_ratio() + self.misc_ratio()
    }
}

/// Bound on how many stealable tasks one scheduling decision examines
/// while looking for an un-congested source.
const MAX_STEAL_SCAN: usize = 32;

/// A running copy whose host's equation-(5) slowdown exceeds this is a
/// straggler candidate for LATE-style rescue.
const STRAGGLER_SLOWDOWN: f64 = 1.2;

/// A rescuing node must be at least this factor more reliable (lower
/// slowdown) than the straggler's host.
const STRAGGLER_ADVANTAGE: f64 = 1.5;

#[derive(Debug, Clone, Copy)]
enum Event {
    /// Initial dispatch of every node, after time-zero outages apply.
    Kick,
    Down(u32),
    Up(u32),
    AttemptDone {
        node: u32,
        epoch: u64,
    },
    /// The JobTracker notices a killed task (after the detection delay)
    /// and returns it to the pending pool.
    Requeue(usize),
}

impl Event {
    /// Profiler span name for this event family.
    fn kind_name(&self) -> &'static str {
        match self {
            Event::Kick => "kick",
            Event::Down(_) => "down",
            Event::Up(_) => "up",
            Event::AttemptDone { .. } => "attempt_done",
            Event::Requeue(_) => "requeue",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    seq: u64,
    reserve_start: f64,
    compute_start: f64,
    local: bool,
    /// Transfer source of a remote attempt (trace emission only).
    source: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Interruption,
    DuplicateLost,
}

#[derive(Debug)]
struct NodeState {
    epoch: u64,
    running: Option<Attempt>,
    local_pending: SortedVecSet,
    /// Speculation candidates with a block replica here. This node
    /// checks them with its local ETA, and its outages and new outbound
    /// transfers re-key them in the speculation index.
    held_candidates: SortedVecSet,
    /// End times of in-flight outbound block transfers served by this
    /// node, ascending (per-flow shaped; capacity bounded by
    /// `max_source_streams`).
    serving: Vec<f64>,
    /// Monotone per-node attempt counter (the trace's attempt ids).
    attempt_seq: u64,
    downtime: f64,
    busy: f64,
    recovery_mark: Option<f64>,
    recovery: f64,
    completed_tasks: usize,
    local_completed: usize,
}

#[derive(Debug)]
struct TaskState {
    replicas: Vec<u32>,
    done: bool,
    running_on: Vec<u32>,
    /// Node whose attempt completed the task.
    winner: Option<u32>,
}

/// The map-phase simulator. Construct once per run; [`run`] consumes it.
///
/// [`run`]: MapPhaseSim::run
#[derive(Debug)]
pub struct MapPhaseSim {
    cfg: SimConfig,
    hosts: Hosts,
    uplinks: Uplinks,
    nodes: Vec<NodeState>,
    /// Per-node expected slowdown E[T]/γ from equation (5) — the
    /// JobTracker's availability-aware view used by speculation ETAs.
    slowdown: Vec<f64>,
    tasks: Vec<TaskState>,
    queue: EventQueue<Event>,
    pending: IdSet,
    stealable: IdSet,
    /// Running tasks worth considering for speculation: a copy runs on a
    /// volatile host, or its transfer dominates its compute. Maintained
    /// incrementally so the speculation scan never walks every running
    /// task.
    spec_candidates: IdSet,
    /// The speculation candidates a node holding no replica could
    /// duplicate — fewer than `max_copies` running copies and an up
    /// replica with a spare outbound stream — keyed by
    /// [`spec_keys`](MapPhaseSim::spec_keys), so an idle node finds its
    /// first acceptable candidate without testing each one.
    spec_index: ThresholdIndex,
    /// Saturated sources, queued at the time one of their streams
    /// frees: the candidates they hold may become eligible then.
    spec_wake: EventQueue<u32>,
    /// Idle up nodes, by node id (ascending scan = FIFO-by-id, matching
    /// the Hadoop-0.20 behaviour the engine models).
    idle: IdSet,
    /// Scratch buffer for the freed-task hints passed to
    /// `dispatch_idle`, reused across `Down`/`Up` events so the hot loop
    /// stops allocating a fresh `Vec` per outage.
    freed_buf: Vec<usize>,
    done_count: usize,
    // Metrics accumulators.
    rework: f64,
    migration: f64,
    dup_compute: f64,
    local_completions: usize,
    telemetry: EngineTelemetrySnapshot,
    /// Event recorder, present only when tracing was requested. Every
    /// emission site is guarded by this `Option`, so an untraced run
    /// does no trace work at all (the zero-overhead-when-disabled
    /// contract the CI telemetry baseline relies on).
    trace: Option<TraceRecorder>,
}

impl MapPhaseSim {
    /// Builds a simulation over `processes.len()` nodes running one map
    /// task per entry of `placement` (each entry lists the replica nodes
    /// of that task's block).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for a horizon that is not
    /// finite and positive or an empty cluster or task list, and
    /// [`SimError::PlacementOutOfRange`] if a replica references a node
    /// outside the cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        cfg.check_horizon()?;
        if processes.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "processes",
                reason: "cluster must have at least one node".into(),
            });
        }
        if placement.is_empty() {
            return Err(SimError::InvalidConfig {
                name: "placement",
                reason: "job must have at least one task".into(),
            });
        }
        let n = processes.len();
        let mut tasks = Vec::with_capacity(placement.len());
        for (i, replicas) in placement.iter().enumerate() {
            if replicas.is_empty() {
                return Err(SimError::InvalidConfig {
                    name: "placement",
                    reason: format!("task {i} has no replicas"),
                });
            }
            for r in replicas {
                if r.0 as usize >= n {
                    return Err(SimError::PlacementOutOfRange {
                        task: i,
                        node: r.0,
                        nodes: n,
                    });
                }
            }
            tasks.push(TaskState {
                replicas: replicas.iter().map(|r| r.0).collect(),
                done: false,
                running_on: Vec::new(),
                winner: None,
            });
        }

        let slowdown: Vec<f64> = processes
            .iter()
            .map(|p| match p.mean_params() {
                None => 1.0,
                Some((lambda, mu)) => {
                    match adapt_availability::TaskModel::new(
                        lambda,
                        mu.max(f64::MIN_POSITIVE),
                        cfg.gamma,
                    ) {
                        Ok(model) => model.slowdown(),
                        // Unstable host: expected completion diverges.
                        Err(_) => f64::INFINITY,
                    }
                }
            })
            .collect();

        let hosts = Hosts::new(processes);
        let mut nodes: Vec<NodeState> = (0..n)
            .map(|_| NodeState {
                epoch: 0,
                running: None,
                local_pending: SortedVecSet::new(),
                held_candidates: SortedVecSet::new(),
                serving: Vec::new(),
                attempt_seq: 0,
                downtime: 0.0,
                busy: 0.0,
                recovery_mark: None,
                recovery: 0.0,
                completed_tasks: 0,
                local_completed: 0,
            })
            .collect();

        let mut pending = IdSet::new(tasks.len());
        for (i, task) in tasks.iter().enumerate() {
            pending.insert(i);
            for &r in &task.replicas {
                nodes[r as usize].local_pending.insert(i);
            }
        }
        let stealable = pending.clone(); // everyone starts up

        // Queue high-water mark is bounded by one outage pair plus one
        // attempt per node (plus slack for requeues in flight), so
        // preallocating ~2n avoids every mid-run heap growth.
        let queue = EventQueue::with_capacity(n * 2 + 16);
        let spec_candidates = IdSet::new(tasks.len());
        let spec_index = ThresholdIndex::new(tasks.len());
        Ok(MapPhaseSim {
            cfg,
            hosts,
            uplinks: Uplinks::new(cfg.topology),
            nodes,
            slowdown,
            tasks,
            queue,
            pending,
            stealable,
            spec_candidates,
            spec_index,
            spec_wake: EventQueue::new(),
            idle: IdSet::new(n),
            freed_buf: Vec::new(),
            done_count: 0,
            rework: 0.0,
            migration: 0.0,
            dup_compute: 0.0,
            local_completions: 0,
            telemetry: EngineTelemetrySnapshot {
                runs: 1,
                ..EngineTelemetrySnapshot::default()
            },
            trace: None,
        })
    }

    /// Attaches an event recorder: the run will emit a [`TraceEvent`]
    /// for every attempt, transfer, outage, and requeue, and
    /// [`DetailedReport::trace`] will carry the sealed [`Trace`]. The
    /// recorder may already hold placement events (the NameNode's
    /// `BlockPlaced`/`BlockRebalanced` records at t = 0) so one log
    /// covers the whole pipeline. Simulation behavior and reported
    /// metrics are byte-identical with or without tracing.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    /// Appends a trace event if tracing is enabled.
    #[inline]
    fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(event);
        }
    }

    /// Emits the resolution of a remote attempt's block transfer: `Done`
    /// when the transfer window closed before `t`, `Aborted` when the
    /// kill (or horizon) cut it mid-flight.
    fn emit_transfer_end(&mut self, n: u32, attempt: &Attempt, t: f64) {
        if self.trace.is_none() || attempt.local {
            return;
        }
        let Some(source) = attempt.source else {
            return;
        };
        let (task, seq) = (attempt.task as u32, attempt.seq);
        let (start, end) = (attempt.reserve_start, attempt.compute_start);
        if end <= t {
            self.emit(TraceEvent::TransferDone {
                source,
                dest: n,
                task,
                attempt: seq,
                start,
                end,
            });
        } else {
            self.emit(TraceEvent::TransferAborted {
                source,
                dest: n,
                task,
                attempt: seq,
                start,
                end: t,
            });
        }
    }

    /// Runs the map phase to completion (or the horizon) and returns the
    /// report. All randomness derives from `seed`.
    ///
    /// # Errors
    ///
    /// An exceeded horizon is reported via [`SimReport::completed`], not
    /// as an error. [`SimError::InvariantViolation`] signals an internal
    /// scheduling bug (never expected on valid inputs).
    pub fn run(self, seed: u64) -> Result<SimReport, SimError> {
        Ok(self.run_detailed(seed)?.report)
    }

    /// Like [`run`](MapPhaseSim::run), additionally returning per-node
    /// statistics and per-task winners (the reduce phase's input).
    ///
    /// # Errors
    ///
    /// Same as [`run`](MapPhaseSim::run).
    pub fn run_detailed(self, seed: u64) -> Result<DetailedReport, SimError> {
        self.run_detailed_inner(seed, None)
    }

    /// Like [`run_detailed`](MapPhaseSim::run_detailed), with a metrics
    /// hub attached: engine-state gauges are scraped on the hub
    /// registry's sim-time cadence, and per-event work (events, queue
    /// operations, simulated time) is attributed to profiler spans by
    /// event family. Simulation behavior and the returned report are
    /// byte-identical with or without metrics — only the hub differs.
    ///
    /// # Errors
    ///
    /// Same as [`run_detailed`](MapPhaseSim::run_detailed).
    pub fn run_detailed_metrics(
        self,
        seed: u64,
        hub: &mut MetricsHub,
    ) -> Result<DetailedReport, SimError> {
        self.run_detailed_inner(seed, Some(hub))
    }

    fn run_detailed_inner(
        mut self,
        seed: u64,
        mut metrics: Option<&mut MetricsHub>,
    ) -> Result<DetailedReport, SimError> {
        // Schedule each node's first outage, then the initial dispatch.
        // Outages depend only on (seed, node), so two runs over the same
        // cluster and seed but different placements see identical
        // failure realizations — paired comparisons across policies,
        // like the paper's same-trace methodology.
        for (n, down_at) in self.hosts.start(seed) {
            self.queue.push(down_at, Event::Down(n))?;
        }
        self.queue.push(0.0, Event::Kick)?;

        let mut elapsed = None;
        let mut last_event_time = 0.0f64;
        loop {
            // The queue is longest right before a dispatch (pushes happen
            // inside handlers; nothing pops in between), so sampling here
            // observes every high-water mark.
            let depth = self.queue.len() as u64;
            self.telemetry.queue_depth_hwm = self.telemetry.queue_depth_hwm.max(depth);
            let Some((t, event)) = self.queue.pop() else {
                break;
            };
            // Event-ordering invariant: the queue must release events in
            // non-decreasing time, or causality (and determinism) breaks.
            debug_assert!(
                t >= last_event_time,
                "event queue released t={t} after t={last_event_time}"
            );
            let prev_event_time = last_event_time;
            last_event_time = t;
            if t > self.cfg.horizon {
                break;
            }
            // Metrics scrape precedes the event: a cadence boundary in
            // the gap (prev, t] samples the state that actually held
            // across that gap.
            let queue_len_before = if let Some(hub) = metrics.as_deref_mut() {
                let t_us = micros(t);
                if hub.registry.due(t_us) {
                    self.scrape_engine_gauges(&mut hub.registry);
                    hub.registry.advance(t_us);
                }
                hub.profiler.enter(event.kind_name());
                self.queue.len()
            } else {
                0
            };
            match event {
                Event::Kick => {
                    self.telemetry.events_kick += 1;
                    for i in 0..self.nodes.len() as u32 {
                        self.try_assign(i, t)?;
                    }
                }
                Event::Down(n) => {
                    self.telemetry.events_down += 1;
                    self.on_down(n, t)?;
                }
                Event::Up(n) => {
                    self.telemetry.events_up += 1;
                    self.on_up(n, t)?;
                }
                Event::AttemptDone { node, epoch } => {
                    self.telemetry.events_attempt_done += 1;
                    if self.nodes[node as usize].epoch == epoch {
                        self.on_attempt_done(node, t)?;
                        if self.done_count == self.tasks.len() {
                            elapsed = Some(t);
                        }
                    }
                }
                Event::Requeue(task) => {
                    self.telemetry.events_requeue += 1;
                    self.requeue(task, t);
                    self.dispatch_idle(t, &[task])?;
                }
            }
            if let Some(hub) = metrics.as_deref_mut() {
                // Handler heap traffic: one pop plus however many pushes
                // grew the queue (len_after = len_before − 1 + pushes).
                let pushes = (self.queue.len() + 1).saturating_sub(queue_len_before) as u64;
                hub.profiler.add(WorkCounts {
                    events: 1,
                    heap_ops: pushes + 1,
                    placements: 0,
                    sim_us: micros(t).saturating_sub(micros(prev_event_time)),
                });
                hub.profiler.exit();
            }
            if elapsed.is_some() {
                break;
            }
        }

        let completed = elapsed.is_some();
        let elapsed = elapsed.unwrap_or(self.cfg.horizon);
        if let Some(hub) = metrics {
            // Seal the series: emit any cadence boundaries still due,
            // then an end-of-run sample of the final state.
            self.scrape_engine_gauges(&mut hub.registry);
            hub.finish(micros(elapsed));
        }
        Ok(self.finalize(elapsed, completed, seed))
    }

    /// Refreshes the engine-state gauges ahead of a due scrape. Only
    /// called when a metrics hub is attached *and* a cadence boundary
    /// passed, so disabled runs never touch a registry map.
    fn scrape_engine_gauges(&self, registry: &mut MetricsRegistry) {
        registry.set_gauge("engine.queue_depth", self.queue.len());
        registry.set_gauge("engine.pending_tasks", self.pending.len());
        registry.set_gauge("engine.stealable_tasks", self.stealable.len());
        registry.set_gauge("engine.spec_candidates", self.spec_candidates.len());
        registry.set_gauge("engine.idle_nodes", self.idle.len());
        registry.set_gauge("engine.done_tasks", self.done_count);
        registry.set_gauge(
            "engine.up_nodes",
            (0..self.hosts.len() as u32)
                .filter(|&n| self.hosts.is_up(n))
                .count(),
        );
        registry.set_gauge(
            "engine.running_attempts",
            self.nodes.iter().filter(|n| n.running.is_some()).count(),
        );
        registry.set_gauge("engine.attempts", self.telemetry.attempts_started);
        registry.set_gauge("engine.transfers", self.telemetry.transfers_started);
        registry.set_gauge("engine.rework_us", micros(self.rework));
        registry.set_gauge("engine.migration_us", micros(self.migration));
        registry.set_gauge("engine.dup_compute_us", micros(self.dup_compute));
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Attempts to hand the node a task; returns whether one was started.
    fn try_assign(&mut self, n: u32, t: f64) -> Result<bool, SimError> {
        let ni = n as usize;
        if !self.hosts.is_up(n) || self.nodes[ni].running.is_some() {
            return Ok(false);
        }
        // 1. Local pending work.
        if let Some(task) = self.nodes[ni].local_pending.first() {
            self.start_task(n, task, t)?;
            return Ok(true);
        }
        // 2. Steal a pending task with an *admissible* source replica:
        // a source whose uplink is not already backlogged. Without this
        // admission control every idle node piles onto the same hot
        // source and transfer queueing grows quadratically — real
        // Hadoop deployments throttle concurrent moves per DataNode for
        // the same reason. The scan is bounded; skipped tasks are
        // retried at later scheduling events.
        let mut chosen: Option<usize> = None;
        let mut chosen_risk = f64::NEG_INFINITY;
        // The scan only *reads* engine state; `stealable` is mutated
        // after the loop (inside `start_task`), so the ascending bitset
        // iterator can be consumed in place with no scratch collection.
        for task in self.stealable.iter().take(MAX_STEAL_SCAN) {
            if self
                .least_loaded_source(task, t, self.cfg.max_source_streams)
                .is_none()
            {
                continue;
            }
            match self.cfg.scheduling {
                SchedulingMode::Fifo => {
                    chosen = Some(task);
                    break;
                }
                SchedulingMode::AvailabilityAware => {
                    // Evacuate the most at-risk data first: rank by the
                    // *best* (lowest-slowdown) holder of the block — if
                    // even the best holder is volatile, the task is in
                    // danger of stranding.
                    let risk = self.tasks[task]
                        .replicas
                        .iter()
                        .map(|&r| self.slowdown[r as usize])
                        .fold(f64::INFINITY, f64::min);
                    if risk > chosen_risk {
                        chosen_risk = risk;
                        chosen = Some(task);
                    }
                }
            }
        }
        if let Some(task) = chosen {
            self.telemetry.steals += 1;
            self.start_task(n, task, t)?;
            return Ok(true);
        }
        // 3. Speculative duplicate of a running straggler. Task times are
        // deterministic, so the scheduler only duplicates when the new
        // copy's ETA beats every running copy's ETA — e.g. the original is
        // stuck behind a slow block transfer. (A copy on a host that went
        // down is not "running": the task returned to pending.)
        if self.cfg.speculation {
            if let Some(task) = self.speculative_task(n, t) {
                self.telemetry.speculative_attempts += 1;
                self.emit(TraceEvent::SpeculativeLaunched {
                    node: n,
                    task: task as u32,
                    t,
                });
                self.start_task(n, task, t)?;
                return Ok(true);
            }
        }
        self.idle.insert(n as usize);
        Ok(false)
    }

    /// Whether idle node `n` should duplicate running candidate `task` at
    /// `t` — the speculation rule of [`try_assign`](Self::try_assign).
    fn accepts_duplicate(&self, n: u32, task: usize, t: f64) -> bool {
        let state = &self.tasks[task];
        if state.running_on.len() >= self.cfg.max_copies || state.running_on.contains(&n) {
            return false;
        }
        let Some(candidate_eta) = self.attempt_eta(n, task, t) else {
            return false;
        };
        // The candidate's ETA is inflated the way `best_running_eta`
        // inflates each running copy's.
        if self.eta_bar(n, candidate_eta, t) < self.best_running_eta(task) {
            return true;
        }
        // LATE-style straggler rescue: Hadoop duplicates a task whose
        // progress lags badly without pricing the block fetch. Expected
        // finish times hide restart *variance* — a task yo-yoing on a
        // volatile host occasionally takes many times E[T] — so an idle,
        // clearly more reliable node duplicates it even when the mean
        // comparison says otherwise.
        let best_copy_slowdown = self.best_copy_slowdown(task);
        best_copy_slowdown > STRAGGLER_SLOWDOWN
            && self.slowdown[n as usize] * STRAGGLER_ADVANTAGE <= best_copy_slowdown
    }

    /// Expected finish of `task`'s best running copy, each inflated by
    /// its host's equation-(5) slowdown: a copy on a volatile host is
    /// expected to crash-restart and take E\[T\], not γ.
    fn best_running_eta(&self, task: usize) -> f64 {
        self.tasks[task]
            .running_on
            .iter()
            .filter_map(|&r| {
                let a = self.nodes[r as usize].running.as_ref()?;
                (a.task == task)
                    .then(|| a.compute_start + self.cfg.gamma * self.slowdown[r as usize])
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// The lowest slowdown among the hosts running `task`.
    fn best_copy_slowdown(&self, task: usize) -> f64 {
        self.tasks[task]
            .running_on
            .iter()
            .map(|&r| self.slowdown[r as usize])
            .fold(f64::INFINITY, f64::min)
    }

    /// What the best running copy's ETA must exceed for a new copy on
    /// `n` with plain ETA `eta` to win: `eta` inflated by `n`'s
    /// slowdown, plus a 1 ns tie margin.
    fn eta_bar(&self, n: u32, eta: f64, t: f64) -> f64 {
        t + (eta - t) * self.slowdown[n as usize].min(1e6) + 1e-9
    }

    /// The keys of candidate `task` in `spec_index`: the best running
    /// copy's ETA, and the best copy's slowdown when that marks a
    /// straggler (−∞ when it does not). [`accepts_duplicate`] accepts a
    /// candidate `n` holds no replica of, with a free source, exactly
    /// when the first key exceeds `n`'s [`eta_bar`] for a remote copy or
    /// the second reaches `n`'s slowdown times `STRAGGLER_ADVANTAGE`.
    ///
    /// [`accepts_duplicate`]: Self::accepts_duplicate
    /// [`eta_bar`]: Self::eta_bar
    fn spec_keys(&self, task: usize) -> (f64, f64) {
        let slowdown = self.best_copy_slowdown(task);
        let rescue = if slowdown > STRAGGLER_SLOWDOWN {
            slowdown
        } else {
            f64::NEG_INFINITY
        };
        (self.best_running_eta(task), rescue)
    }

    /// The lowest-id candidate in `spec_candidates` that
    /// [`accepts_duplicate`](Self::accepts_duplicate) accepts for idle
    /// node `n` at `t`, found without testing every candidate. The ones
    /// `n` holds no replica of come from `spec_index`; the ones it holds
    /// (local ETA, no source needed) are few and are tested in turn.
    fn speculative_task(&mut self, n: u32, t: f64) -> Option<usize> {
        // Sources with a stream freed by `t` make their candidates
        // eligible again.
        while self.spec_wake.peek_time().is_some_and(|wake| wake <= t) {
            if let Some((_, r)) = self.spec_wake.pop() {
                self.rekey_held(r, t);
            }
        }
        let eta_bar = self.eta_bar(n, self.remote_eta(t), t);
        let rescue_bar = self.slowdown[n as usize] * STRAGGLER_ADVANTAGE;
        let mut from = 0;
        let mut remote = None;
        while let Some(task) = self
            .spec_index
            .first(from, eta_bar, rescue_bar, |id| self.spec_keys(id))
        {
            // Every live entry is eligible, so over NaN-free bars the
            // predicate accepts every hit; it still decides.
            debug_assert!(
                self.tasks[task].running_on.len() < self.cfg.max_copies
                    && self
                        .least_loaded_source(task, t, self.cfg.max_source_streams)
                        .is_some(),
                "stale speculation index entry: task {task} at t={t}"
            );
            if self.accepts_duplicate(n, task, t) {
                remote = Some(task);
                break;
            }
            from = task + 1;
        }
        let local = self.nodes[n as usize]
            .held_candidates
            .iter()
            .take_while(|&task| remote.is_none_or(|r| task < r))
            .find(|&task| self.accepts_duplicate(n, task, t));
        local.or(remote)
    }

    /// Re-derives `task`'s entry in `spec_index` at `t`: live for a
    /// candidate below `max_copies` with an up replica that has a spare
    /// stream, and re-keyed either way.
    fn rekey(&mut self, task: usize, t: f64) {
        if !self.cfg.speculation {
            return;
        }
        let state = &self.tasks[task];
        let has_source = state
            .replicas
            .iter()
            .any(|&r| self.hosts.is_up(r) && self.free_at(r) <= t);
        debug_assert_eq!(
            has_source,
            self.least_loaded_source(task, t, self.cfg.max_source_streams)
                .is_some()
        );
        let live = has_source
            && state.running_on.len() < self.cfg.max_copies
            && self.spec_candidates.contains(task);
        let mut index = std::mem::take(&mut self.spec_index);
        index.update(task, live, |id| self.spec_keys(id));
        self.spec_index = index;
    }

    /// Re-keys the candidates with a replica on node `r`, after `r` went
    /// down, came up, or started or stopped saturating its streams.
    fn rekey_held(&mut self, r: u32, t: f64) {
        for i in 0..self.nodes[r as usize].held_candidates.len() {
            let task = self.nodes[r as usize].held_candidates.as_slice()[i];
            self.rekey(task, t);
        }
    }

    /// Makes `task` a speculation candidate, listed with every replica
    /// holder. The caller re-keys it.
    fn add_spec_candidate(&mut self, task: usize) {
        if self.spec_candidates.insert(task) {
            for &r in &self.tasks[task].replicas {
                self.nodes[r as usize].held_candidates.insert(task);
            }
        }
    }

    /// Drops `task` from the speculation candidates. The caller re-keys
    /// it.
    fn remove_spec_candidate(&mut self, task: usize) {
        if self.spec_candidates.remove(task) {
            for &r in &self.tasks[task].replicas {
                self.nodes[r as usize].held_candidates.remove(task);
            }
        }
    }

    /// The time from which node `r` serves fewer than
    /// `max_source_streams` transfers: of its `m` ascending `serving`
    /// end times, the (m − cap + 1)-th, or −∞ when m < cap. So
    /// `active_streams(r, t') < cap` exactly when `free_at(r) <= t'`, and
    /// the value moves only when `r` starts serving a transfer — which
    /// is when `start_task` queues `r` in `spec_wake` if it saturated.
    fn free_at(&self, r: u32) -> f64 {
        let serving = &self.nodes[r as usize].serving;
        match serving.len().checked_sub(self.cfg.max_source_streams) {
            Some(i) => serving[i],
            None => f64::NEG_INFINITY,
        }
    }

    /// Number of outbound transfers node `r` is serving at time `t`.
    fn active_streams(&self, r: u32, t: f64) -> usize {
        self.nodes[r as usize]
            .serving
            .iter()
            .filter(|&&end| end > t)
            .count()
    }

    /// The least-loaded alive replica of `task` serving fewer than `cap`
    /// streams at `t`, or `None` if there is none. (Completed-transfer
    /// entries are ignored by the count and pruned when the next
    /// transfer starts on the node.)
    fn least_loaded_source(&self, task: usize, t: f64, cap: usize) -> Option<u32> {
        // Single pass, counting each replica's streams once. Ties keep
        // the *last* minimal replica — `Iterator::min_by_key` semantics,
        // which the deterministic baselines were recorded under.
        let mut best: Option<(usize, u32)> = None;
        for &r in &self.tasks[task].replicas {
            if !self.hosts.is_up(r) {
                continue;
            }
            let streams = self.active_streams(r, t);
            if streams >= cap {
                continue;
            }
            if best.is_none_or(|(s, _)| streams <= s) {
                best = Some((streams, r));
            }
        }
        best.map(|(_, r)| r)
    }

    /// Estimated completion time of a fresh attempt of `task` on `n` at
    /// `t`, or `None` when no alive source replica exists. The estimate
    /// deliberately prices the flat (uncontended) fetch even under a
    /// rack topology: the JobTracker's ETA oracle does not model the
    /// fabric, only committed transfer windows do.
    fn attempt_eta(&self, n: u32, task: usize, t: f64) -> Option<f64> {
        let state = &self.tasks[task];
        if state.replicas.contains(&n) {
            return Some(t + self.cfg.gamma);
        }
        self.least_loaded_source(task, t, self.cfg.max_source_streams)?;
        Some(self.remote_eta(t))
    }

    /// The plain ETA of a remote attempt started at `t`: one uncontended
    /// block fetch, then γ of compute.
    fn remote_eta(&self, t: f64) -> f64 {
        t + self.cfg.transfer_seconds() + self.cfg.gamma
    }

    /// Starts one attempt of `task` on node `n` at time `t`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] if a remote attempt has no alive
    /// source replica — every caller checks admissibility first, so this
    /// signals an engine bug rather than a reachable state.
    fn start_task(&mut self, n: u32, task: usize, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(self.hosts.is_up(n) && self.nodes[ni].running.is_none());
        self.telemetry.attempts_started += 1;
        self.idle.remove(ni);

        let local = self.tasks[task].replicas.contains(&n);
        let seq = self.nodes[ni].attempt_seq;
        self.nodes[ni].attempt_seq += 1;
        let mut transfer_source: Option<u32> = None;
        let compute_start = if local {
            t
        } else {
            // The least-loaded alive replica, with the stream cap waived:
            // speculative attempts pass an ETA guard instead of the
            // admission check. When some replica has a spare stream, the
            // least-loaded one is among them.
            let source = self.least_loaded_source(task, t, usize::MAX).ok_or(
                SimError::InvariantViolation {
                    what: "remote attempt started without an alive source replica",
                },
            )?;
            // The window is committed at start; a cross-rack one pays
            // the uplink shared with the cross-rack flows open now.
            let (end, uplink_streams) =
                self.uplinks
                    .commit(source, n, self.cfg.transfer_seconds(), t)?;
            let src = &mut self.nodes[source as usize];
            src.serving.retain(|&e| e > t);
            let at = src.serving.partition_point(|&e| e <= end);
            src.serving.insert(at, end);
            self.telemetry.transfers_started += 1;
            self.telemetry
                .transfer_bytes
                .record(self.cfg.block_size.bytes());
            if let Some(streams) = uplink_streams {
                self.telemetry.transfers_cross_rack += 1;
                self.telemetry.link_streams_hwm =
                    self.telemetry.link_streams_hwm.max(streams as u64);
                if streams > 1 {
                    self.emit(TraceEvent::LinkContention {
                        rack: self.cfg.topology.rack_of(source),
                        streams: streams as u32,
                        t,
                    });
                }
            }
            transfer_source = Some(source);
            end
        };

        if self.trace.is_some() {
            if let Some(source) = transfer_source {
                let bytes = self.cfg.block_size.bytes();
                self.emit(TraceEvent::TransferStarted {
                    source,
                    dest: n,
                    task: task as u32,
                    attempt: seq,
                    bytes,
                    start: t,
                    end: compute_start,
                });
            }
            self.emit(TraceEvent::AttemptStarted {
                node: n,
                task: task as u32,
                attempt: seq,
                local,
                source: transfer_source,
                t,
                compute_start,
            });
        }

        self.nodes[ni].running = Some(Attempt {
            task,
            seq,
            reserve_start: t,
            compute_start,
            local,
            source: transfer_source,
        });
        let epoch = self.nodes[ni].epoch;
        self.queue.push(
            compute_start + self.cfg.gamma,
            Event::AttemptDone { node: n, epoch },
        )?;

        // The task is no longer pending anywhere.
        if self.pending.remove(task) {
            self.stealable.remove(task);
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                self.remove_local_pending(r, task, t);
            }
        }
        self.tasks[task].running_on.push(n);
        // Speculation bookkeeping: this attempt is rescue-worthy if its
        // host is volatile or its transfer dominates its compute.
        if self.slowdown[n as usize] > STRAGGLER_SLOWDOWN || compute_start - t > self.cfg.gamma {
            self.add_spec_candidate(task);
        }
        // The new copy re-keys the task, and a transfer moves its
        // source's free time.
        self.rekey(task, t);
        if let Some(source) = transfer_source {
            self.rekey_held(source, t);
            let free = self.free_at(source);
            if self.cfg.speculation && free > t {
                self.spec_wake.push(free, source)?;
            }
        }
        Ok(())
    }

    /// A valid attempt completed: the task is done.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] if the node has no running
    /// attempt — the epoch check filters stale completions, so this
    /// signals an engine bug rather than a reachable state.
    fn on_attempt_done(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        let attempt = self.nodes[ni]
            .running
            .take()
            .ok_or(SimError::InvariantViolation {
                what: "epoch-valid completion arrived with no running attempt",
            })?;
        let task = attempt.task;
        debug_assert!(!self.tasks[task].done);

        self.nodes[ni].busy += t - attempt.reserve_start;
        self.nodes[ni].completed_tasks += 1;
        self.telemetry
            .attempt_duration_us
            .record_secs(t - attempt.reserve_start);
        if attempt.local {
            self.local_completions += 1;
            self.nodes[ni].local_completed += 1;
        } else {
            self.migration += attempt.compute_start - attempt.reserve_start;
        }
        if self.trace.is_some() {
            self.emit_transfer_end(n, &attempt, t);
            self.emit(TraceEvent::AttemptWon {
                node: n,
                task: task as u32,
                attempt: attempt.seq,
                local: attempt.local,
                start: attempt.reserve_start,
                compute_start: attempt.compute_start,
                end: t,
            });
        }

        self.tasks[task].winner = Some(n);
        self.tasks[task].done = true;
        self.done_count += 1;
        self.remove_spec_candidate(task);
        self.rekey(task, t);
        self.tasks[task].running_on.retain(|&r| r != n);

        // Kill losing duplicates and let their nodes move on.
        let losers = std::mem::take(&mut self.tasks[task].running_on);
        if !losers.is_empty() {
            self.telemetry.speculative_wins += 1;
        }
        for loser in losers {
            self.kill_attempt(loser, t, KillReason::DuplicateLost)?;
            self.try_assign(loser, t)?;
        }
        self.try_assign(n, t)?;
        // Source uplinks drain as time passes: idle nodes that earlier
        // declined a congested steal get another look.
        self.dispatch_idle(t, &[])
    }

    /// Kills the node's running attempt (if any), accounting the loss.
    fn kill_attempt(&mut self, n: u32, t: f64, reason: KillReason) -> Result<(), SimError> {
        let ni = n as usize;
        let Some(attempt) = self.nodes[ni].running.take() else {
            return Ok(());
        };
        // Invalidate the scheduled AttemptDone.
        self.nodes[ni].epoch += 1;
        self.nodes[ni].busy += (t - attempt.reserve_start).max(0.0);

        let compute_lost = (t - attempt.compute_start).clamp(0.0, self.cfg.gamma);
        match reason {
            KillReason::Interruption => {
                self.rework += compute_lost;
                self.telemetry.kills_interruption += 1;
            }
            // A killed fetch has no compute to lose; both bucket to misc.
            KillReason::DuplicateLost => {
                self.dup_compute += compute_lost;
                self.telemetry.speculative_losses += 1;
            }
        }
        if !attempt.local {
            // The transfer window was committed on both links either way.
            self.migration += attempt.compute_start - attempt.reserve_start;
        }
        if self.trace.is_some() {
            self.emit_transfer_end(n, &attempt, t);
            let cause = match reason {
                KillReason::Interruption => KillCause::Interruption,
                KillReason::DuplicateLost => KillCause::DuplicateLost,
            };
            self.emit(TraceEvent::AttemptKilled {
                node: n,
                task: attempt.task as u32,
                attempt: attempt.seq,
                local: attempt.local,
                start: attempt.reserve_start,
                compute_start: attempt.compute_start,
                end: t,
                reason: cause,
            });
        }

        let task = attempt.task;
        self.tasks[task].running_on.retain(|&r| r != n);
        if !self.tasks[task].done && self.tasks[task].running_on.is_empty() {
            self.remove_spec_candidate(task);
            if reason == KillReason::Interruption && self.cfg.detection_delay > 0.0 {
                // The JobTracker has not noticed yet; the task re-enters
                // the pending pool only after the heartbeat timeout.
                self.queue
                    .push(t + self.cfg.detection_delay, Event::Requeue(task))?;
            } else {
                self.requeue(task, t);
            }
        }
        self.rekey(task, t);
        Ok(())
    }

    /// Returns a killed task to the pending pool (immediately, or via a
    /// `Requeue` event after the detection delay).
    fn requeue(&mut self, task: usize, t: f64) {
        if self.tasks[task].done || !self.tasks[task].running_on.is_empty() {
            return; // resolved while the detection timer ran
        }
        self.telemetry.requeues += 1;
        self.emit(TraceEvent::TaskRequeued {
            task: task as u32,
            t,
        });
        self.pending.insert(task);
        for ri in 0..self.tasks[task].replicas.len() {
            let r = self.tasks[task].replicas[ri];
            self.add_local_pending(r, task, t);
        }
        if self.tasks[task]
            .replicas
            .iter()
            .any(|&r| self.hosts.is_up(r))
        {
            self.stealable.insert(task);
        }
    }

    fn on_down(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        self.telemetry.interruptions += 1;
        self.emit(TraceEvent::NodeDown { node: n, t });
        self.kill_attempt(n, t, KillReason::Interruption)?;
        let up_at = self.hosts.go_down(n, t);
        self.rekey_held(n, t);
        self.idle.remove(ni);
        self.queue.push(up_at, Event::Up(n))?;

        // Tasks stranded on this node lose their steal source if it was
        // the last alive replica. The killed task (if re-pending) may be
        // picked up right away by an idle node. Indexed iteration: the
        // handlers below never touch *this* node's `local_pending`
        // (`remove_local_pending` only runs from `start_task`, and no
        // task starts inside this loop), so no snapshot clone is needed.
        let mut freed = std::mem::take(&mut self.freed_buf);
        freed.clear();
        for i in 0..self.nodes[ni].local_pending.len() {
            let task = self.nodes[ni].local_pending.as_slice()[i];
            if !self.tasks[task]
                .replicas
                .iter()
                .any(|&r| self.hosts.is_up(r))
            {
                self.stealable.remove(task);
            } else if self.pending.contains(task) {
                freed.push(task);
            }
        }
        // Downtime that stalls local work is recovery cost.
        if !self.nodes[ni].local_pending.is_empty() {
            self.nodes[ni].recovery_mark = Some(t);
        }
        let result = self.dispatch_idle(t, &freed);
        self.freed_buf = freed;
        result
    }

    fn on_up(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        let (since, next_down) = self.hosts.go_up(n, t);
        self.rekey_held(n, t);
        self.nodes[ni].downtime += t - since;
        self.emit(TraceEvent::NodeUp { node: n, since, t });
        if let Some(mark) = self.nodes[ni].recovery_mark.take() {
            self.nodes[ni].recovery += t - mark;
            self.emit(TraceEvent::RecoverySpan {
                node: n,
                start: mark,
                end: t,
            });
        }
        // Its stored blocks survive the outage: pending local tasks become
        // stealable again. (No mutation of this node's `local_pending`
        // happens in the loop body, so indexed iteration is safe.)
        let mut freed = std::mem::take(&mut self.freed_buf);
        freed.clear();
        for i in 0..self.nodes[ni].local_pending.len() {
            let task = self.nodes[ni].local_pending.as_slice()[i];
            if self.pending.contains(task) {
                self.stealable.insert(task);
                freed.push(task);
            }
        }
        // Schedule the next outage.
        if let Some(down_at) = next_down {
            self.queue.push(down_at, Event::Down(n))?;
        }
        let result = self.try_assign(n, t).and_then(|_| {
            // This node returning may unblock idle nodes (new steal
            // sources).
            self.dispatch_idle(t, &freed)
        });
        self.freed_buf = freed;
        result
    }

    /// Gives idle nodes a chance to pick up newly available work.
    /// `freed` hints which tasks just became schedulable, so the locality
    /// pass stays O(|freed|·k) instead of scanning every stealable task.
    fn dispatch_idle(&mut self, t: f64, freed: &[usize]) -> Result<(), SimError> {
        // Locality pass: idle replica holders of the freed tasks first.
        for &task in freed {
            if !self.pending.contains(task) {
                continue;
            }
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                if self.idle.contains(r as usize) && self.try_assign(r, t)? {
                    break;
                }
            }
        }
        // General pass: first-come idle nodes until assignment fails.
        while let Some(n) = self.idle.first() {
            if !self.try_assign(n as u32, t)? {
                break;
            }
        }
        Ok(())
    }

    /// Maintains `local_pending` plus the recovery clock of down nodes.
    fn add_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.insert(task);
        if !self.hosts.is_up(n) && self.nodes[ni].recovery_mark.is_none() {
            self.nodes[ni].recovery_mark = Some(t);
        }
    }

    /// Maintains `local_pending` plus the recovery clock of down nodes.
    fn remove_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.remove(task);
        if self.nodes[ni].local_pending.is_empty() {
            if let Some(mark) = self.nodes[ni].recovery_mark.take() {
                self.nodes[ni].recovery += t - mark;
                self.emit(TraceEvent::RecoverySpan {
                    node: n,
                    start: mark,
                    end: t,
                });
            }
        }
    }

    fn finalize(mut self, elapsed: f64, completed: bool, seed: u64) -> DetailedReport {
        let mut trace = self.trace.take();
        let mut recovery = 0.0;
        let mut up_idle = 0.0;
        let mut node_stats = Vec::with_capacity(self.nodes.len());
        for (ni, node) in self.nodes.iter_mut().enumerate() {
            if let Some(since) = self.hosts.down_since(ni as u32) {
                node.downtime += (elapsed - since).max(0.0);
            }
            if let Some(mark) = node.recovery_mark.take() {
                node.recovery += (elapsed - mark).max(0.0);
                // Emit only a span that contributes: `(elapsed - mark).max(0.0)`
                // adds exactly 0.0 otherwise, which derivation reproduces by
                // simply not seeing a span.
                if elapsed - mark > 0.0 {
                    if let Some(recorder) = trace.as_mut() {
                        recorder.record(TraceEvent::RecoverySpan {
                            node: ni as u32,
                            start: mark,
                            end: elapsed,
                        });
                    }
                }
            }
            // An attempt still running at the cut (incomplete runs only)
            // counts as busy time.
            if let Some(attempt) = node.running.take() {
                node.busy += (elapsed - attempt.reserve_start).max(0.0);
                if let Some(recorder) = trace.as_mut() {
                    if !attempt.local {
                        if let Some(source) = attempt.source {
                            let event = if attempt.compute_start <= elapsed {
                                TraceEvent::TransferDone {
                                    source,
                                    dest: ni as u32,
                                    task: attempt.task as u32,
                                    attempt: attempt.seq,
                                    start: attempt.reserve_start,
                                    end: attempt.compute_start,
                                }
                            } else {
                                TraceEvent::TransferAborted {
                                    source,
                                    dest: ni as u32,
                                    task: attempt.task as u32,
                                    attempt: attempt.seq,
                                    start: attempt.reserve_start,
                                    end: elapsed,
                                }
                            };
                            recorder.record(event);
                        }
                    }
                    recorder.record(TraceEvent::AttemptCut {
                        node: ni as u32,
                        task: attempt.task as u32,
                        attempt: attempt.seq,
                        local: attempt.local,
                        start: attempt.reserve_start,
                        compute_start: attempt.compute_start,
                        end: elapsed,
                    });
                }
            }
            recovery += node.recovery;
            let uptime = (elapsed - node.downtime).max(0.0);
            up_idle += (uptime - node.busy).max(0.0);
            self.telemetry.node_busy_us.record_secs(node.busy);
            self.telemetry.node_down_us.record_secs(node.downtime);
            self.telemetry
                .node_idle_us
                .record_secs((uptime - node.busy).max(0.0));
            node_stats.push(NodeStat {
                busy: node.busy,
                downtime: node.downtime,
                recovery: node.recovery,
                completed_tasks: node.completed_tasks,
                local_completed: node.local_completed,
            });
        }
        let base_work = self.tasks.len() as f64 * self.cfg.gamma;
        let report = SimReport {
            elapsed,
            tasks: self.tasks.len(),
            local_tasks: self.local_completions,
            attempts: self.telemetry.attempts_started as usize,
            transfers: self.telemetry.transfers_started as usize,
            base_work,
            rework: self.rework,
            recovery,
            migration: self.migration,
            misc: up_idle + self.dup_compute,
            completed,
        };
        self.telemetry.rework_us = micros(report.rework);
        self.telemetry.recovery_us = micros(report.recovery);
        self.telemetry.migration_us = micros(report.migration);
        self.telemetry.misc_us = micros(report.misc);
        self.telemetry.elapsed_us = micros(report.elapsed);
        let meta = TraceMeta {
            nodes: self.nodes.len() as u32,
            tasks: self.tasks.len() as u32,
            gamma: self.cfg.gamma,
            block_bytes: self.cfg.block_size.bytes(),
            seed,
            elapsed,
            completed,
        };
        DetailedReport {
            report,
            node_stats,
            winners: self.tasks.iter().map(|t| t.winner.map(NodeId)).collect(),
            telemetry: self.telemetry,
            trace: trace.map(|recorder| recorder.finish(meta)),
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
#[expect(clippy::wildcard_enum_match_arm, reason = "picks one event kind")]
mod tests {
    use super::*;
    use crate::interrupt::outage;
    use adapt_availability::dist::{Dist, Gamma};

    fn reliable(n: usize) -> Vec<InterruptionProcess> {
        (0..n).map(|_| InterruptionProcess::none()).collect()
    }

    fn cfg() -> SimConfig {
        SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap()
    }

    /// `blocks[i] = node` places task i's single replica on that node.
    fn single_replica(blocks: &[u32]) -> Vec<Vec<NodeId>> {
        blocks.iter().map(|&n| vec![NodeId(n)]).collect()
    }

    #[test]
    fn rejects_a_horizon_that_is_not_finite_and_positive() {
        for horizon in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let sim = MapPhaseSim::new(
                reliable(1),
                single_replica(&[0]),
                cfg().with_horizon(horizon),
            );
            assert!(
                matches!(
                    sim,
                    Err(SimError::InvalidConfig {
                        name: "horizon",
                        ..
                    })
                ),
                "horizon {horizon}"
            );
        }
        let sim = MapPhaseSim::new(reliable(1), single_replica(&[0]), cfg().with_horizon(5.0));
        assert!(sim.is_ok());
    }

    #[test]
    fn config_validation() {
        assert!(SimConfig::new(0.0, BlockSize::DEFAULT, 12.0).is_err());
        assert!(SimConfig::new(8.0, BlockSize::from_bytes(0), 12.0).is_err());
        assert!(SimConfig::new(8.0, BlockSize::DEFAULT, 0.0).is_err());
        assert!(cfg().with_max_copies(0).is_err());
        assert!(cfg().with_max_copies(3).is_ok());
    }

    #[test]
    fn construction_validation() {
        assert!(MapPhaseSim::new(vec![], single_replica(&[0]), cfg()).is_err());
        assert!(MapPhaseSim::new(reliable(1), vec![], cfg()).is_err());
        assert!(MapPhaseSim::new(reliable(1), vec![vec![]], cfg()).is_err());
        assert!(matches!(
            MapPhaseSim::new(reliable(1), single_replica(&[5]), cfg()),
            Err(SimError::PlacementOutOfRange { .. })
        ));
    }

    #[test]
    fn failure_free_balanced_run_is_exact() {
        // 2 nodes, 3 local tasks each: elapsed = 3γ, perfect locality,
        // zero overheads except tail idle (none here — symmetric).
        let placement = single_replica(&[0, 1, 0, 1, 0, 1]);
        let report = MapPhaseSim::new(reliable(2), placement, cfg())
            .unwrap()
            .run(1)
            .unwrap();
        assert!(report.completed);
        assert!((report.elapsed - 36.0).abs() < 1e-9);
        assert_eq!(report.local_tasks, 6);
        assert_eq!(report.locality(), 1.0);
        assert_eq!(report.transfers, 0);
        assert!(report.rework == 0.0 && report.recovery == 0.0);
        assert!(report.migration == 0.0);
        assert!(report.misc.abs() < 1e-9);
        assert_eq!(report.attempts, 6);
    }

    #[test]
    fn skewed_placement_triggers_stealing_and_migration() {
        // All 4 tasks on node 0; node 1 must steal remotely. Fast network
        // (512 Mb/s -> 1 s per block) so stealing is worthwhile.
        let placement = single_replica(&[0, 0, 0, 0]);
        let fast = SimConfig::new(512.0, BlockSize::DEFAULT, 12.0).unwrap();
        let report = MapPhaseSim::new(reliable(2), placement, fast)
            .unwrap()
            .run(2)
            .unwrap();
        assert!(report.completed);
        assert!(report.transfers > 0, "node 1 should steal");
        assert!(report.migration > 0.0);
        assert!(report.locality() < 1.0);
        // Stealing must beat the all-local serial time of 48 s:
        assert!(report.elapsed < 48.0, "elapsed {}", report.elapsed);
    }

    #[test]
    fn stealing_is_not_worth_it_under_slow_network() {
        // Transfer (512 s at 1 Mb/s) dwarfs compute (12 s): node 0 churns
        // through its local tasks while node 1's single steal is slow.
        let placement = single_replica(&[0; 8]);
        let slow = SimConfig::new(1.0, BlockSize::DEFAULT, 12.0).unwrap();
        let report = MapPhaseSim::new(reliable(2), placement, slow)
            .unwrap()
            .run(3)
            .unwrap();
        assert!(report.completed);
        // Node 0 finishes the rest locally long before the transfer ends;
        // elapsed is bounded by the local serial time.
        assert!(report.elapsed <= 8.0 * 12.0 + 1e-9);
    }

    #[test]
    fn replicated_blocks_allow_local_execution_on_either_holder() {
        // Each task replicated on both nodes: everything is local.
        let placement: Vec<Vec<NodeId>> = (0..6).map(|_| vec![NodeId(0), NodeId(1)]).collect();
        let report = MapPhaseSim::new(reliable(2), placement, cfg())
            .unwrap()
            .run(4)
            .unwrap();
        assert_eq!(report.locality(), 1.0);
        assert_eq!(report.transfers, 0);
        assert!((report.elapsed - 36.0).abs() < 1e-9);
    }

    #[test]
    fn metrics_run_leaves_report_identical_and_hub_deterministic() {
        // Volatile node 0 so the run crosses several scrape boundaries
        // with outage/requeue traffic, not just a straight drain.
        let build = || {
            let mut processes = vec![InterruptionProcess::synthetic(
                20.0,
                Dist::exponential_from_mean(10.0).unwrap(),
            )
            .unwrap()];
            processes.push(InterruptionProcess::none());
            MapPhaseSim::new(processes, single_replica(&[0, 1, 0, 1, 0, 1]), cfg()).unwrap()
        };
        let plain = build().run_detailed(9).unwrap();
        let mut hub = adapt_metrics::MetricsHub::new(10_000_000);
        let with_metrics = build().run_detailed_metrics(9, &mut hub).unwrap();
        // Zero-overhead-when-off contract, from the metrics side: the
        // hub changes nothing observable about the run.
        assert_eq!(plain, with_metrics);
        // The hub itself is a pure function of (scenario, seed).
        let mut hub2 = adapt_metrics::MetricsHub::new(10_000_000);
        build().run_detailed_metrics(9, &mut hub2).unwrap();
        assert_eq!(
            hub.to_jsonl("engine-test", 2, 9),
            hub2.to_jsonl("engine-test", 2, 9)
        );
        // Gauges were scraped on the sim-time cadence and sealed at the
        // end of the run; per-event work landed in profiler spans.
        let done = &hub.registry.series()["engine.done_tasks"];
        assert!(done.len() >= 2, "expected cadence + final scrapes");
        assert_eq!(
            done.last().map(|s| s.value),
            Some(adapt_metrics::SampleValue::U64(6))
        );
        let spans = hub.profiler.to_spans();
        assert!(spans.iter().any(|s| s.path == "run;attempt_done"));
        let total_events: u64 = spans.iter().map(|s| s.counts.events).sum();
        assert!(total_events > 0);
    }

    #[test]
    fn interruption_forces_rework_and_recovery_wait() {
        // Node 0 goes down at t=5 for 100 s, killing its 12 s task. Node 1
        // holds no replica and the block's only copy is on the downed
        // host, so the task waits for recovery: restart at 105, done 117.
        let processes = vec![outage(5.0, 100.0), InterruptionProcess::none()];
        let placement = single_replica(&[0]);
        let report = MapPhaseSim::new(processes, placement, cfg())
            .unwrap()
            .run(5)
            .unwrap();
        assert!(report.completed);
        // 5 s of compute lost on node 0.
        assert!(
            (report.rework - 5.0).abs() < 1e-9,
            "rework {}",
            report.rework
        );
        assert!(
            (report.elapsed - 117.0).abs() < 1e-9,
            "elapsed {}",
            report.elapsed
        );
        assert_eq!(report.transfers, 0);
        assert_eq!(report.locality(), 1.0);
        // The full outage stalled the pending task.
        assert!(
            (report.recovery - 100.0).abs() < 1e-9,
            "recovery {}",
            report.recovery
        );
    }

    #[test]
    fn task_waits_for_its_only_holder_when_stealing_is_impossible() {
        // Single node cluster: interrupted at t=5 for 50 s; the task must
        // wait (recovery cost) and re-execute (rework).
        let processes = vec![outage(5.0, 50.0)];
        let report = MapPhaseSim::new(processes, single_replica(&[0]), cfg())
            .unwrap()
            .run(6)
            .unwrap();
        assert!(report.completed);
        // Killed at 5 (rework 5), down until 55, restart, done at 67.
        assert!((report.elapsed - 67.0).abs() < 1e-9);
        assert!((report.rework - 5.0).abs() < 1e-9);
        assert!((report.recovery - 50.0).abs() < 1e-9);
        assert_eq!(report.locality(), 1.0);
    }

    #[test]
    fn speculation_rescues_a_task_stuck_in_a_slow_transfer() {
        // Two tasks on node 0 over a 1 Mb/s link (512 s per block).
        // Node 1 steals task 1 at t=0 but its transfer runs to t=512;
        // node 0 finishes task 0 at t=12 and — seeing the straggler's
        // ETA of 524 — duplicates task 1 locally, finishing at t=24.
        let placement = single_replica(&[0, 0]);
        let slow = SimConfig::new(1.0, BlockSize::DEFAULT, 12.0).unwrap();
        let spec_on = MapPhaseSim::new(reliable(2), placement.clone(), slow)
            .unwrap()
            .run(7)
            .unwrap();
        assert!(
            (spec_on.elapsed - 24.0).abs() < 1e-9,
            "elapsed {}",
            spec_on.elapsed
        );
        assert!(spec_on.attempts > 2, "duplicate attempt expected");
        assert!(
            spec_on.migration > 0.0,
            "the doomed transfer still cost traffic"
        );

        // Without speculation the job waits for the 512 s transfer.
        let spec_off = MapPhaseSim::new(reliable(2), placement, slow.with_speculation(false))
            .unwrap()
            .run(7)
            .unwrap();
        assert!(
            spec_off.elapsed > 500.0,
            "elapsed without speculation {}",
            spec_off.elapsed
        );
        assert!(spec_off.elapsed > spec_on.elapsed);
    }

    #[test]
    fn overheads_are_non_negative_and_locality_bounded() {
        // A hostile heterogeneous scenario exercising every code path,
        // under exponential recoveries and under heavy-tailed gamma
        // recoveries of equal mean (CoV 3).
        let groups = [(10.0, 4.0), (10.0, 8.0), (20.0, 4.0), (20.0, 8.0)];
        let exponential = |mu: f64| Dist::exponential_from_mean(mu).unwrap();
        let heavy_gamma = |mu: f64| Dist::from(Gamma::from_mean_cov(mu, 3.0).unwrap());
        for service in [exponential, heavy_gamma] {
            let processes: Vec<InterruptionProcess> = (0..16)
                .map(|i| {
                    if i < 8 {
                        InterruptionProcess::none()
                    } else {
                        let (mtbi, mu) = groups[(i - 8) % 4];
                        InterruptionProcess::synthetic(mtbi, service(mu)).unwrap()
                    }
                })
                .collect();
            let placement: Vec<Vec<NodeId>> = (0..160).map(|i| vec![NodeId(i % 16)]).collect();
            let report = MapPhaseSim::new(processes, placement, cfg())
                .unwrap()
                .run(8)
                .unwrap();
            assert!(report.completed);
            assert!(report.elapsed > 0.0);
            assert!(report.rework >= 0.0);
            assert!(report.recovery >= 0.0);
            assert!(report.migration >= 0.0);
            assert!(report.misc >= -1e-6, "misc {}", report.misc);
            let loc = report.locality();
            assert!((0.0..=1.0).contains(&loc));
            assert!(report.base_work == 160.0 * 12.0);
            assert!(report.attempts >= report.tasks);
        }
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let processes = |_| {
            (0..8)
                .map(|i| {
                    if i % 2 == 0 {
                        InterruptionProcess::none()
                    } else {
                        InterruptionProcess::synthetic(
                            15.0,
                            Dist::exponential_from_mean(5.0).unwrap(),
                        )
                        .unwrap()
                    }
                })
                .collect::<Vec<_>>()
        };
        let placement: Vec<Vec<NodeId>> = (0..80).map(|i| vec![NodeId(i % 8)]).collect();
        let a = MapPhaseSim::new(processes(0), placement.clone(), cfg())
            .unwrap()
            .run(99)
            .unwrap();
        let b = MapPhaseSim::new(processes(0), placement.clone(), cfg())
            .unwrap()
            .run(99)
            .unwrap();
        assert_eq!(a, b);
        let c = MapPhaseSim::new(processes(0), placement, cfg())
            .unwrap()
            .run(100)
            .unwrap();
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn horizon_reports_incomplete() {
        // The only replica holder is down from 0 to 1e5; horizon 100.
        let processes = vec![outage(0.0, 1e5)];
        let report = MapPhaseSim::new(processes, single_replica(&[0]), cfg().with_horizon(100.0))
            .unwrap()
            .run(9)
            .unwrap();
        assert!(!report.completed);
        assert_eq!(report.elapsed, 100.0);
    }

    #[test]
    fn node_down_at_start_defers_its_local_tasks() {
        // Node 0 down [0, 30); its 2 tasks must wait or be stolen by
        // node 1 (which has its own task first).
        let processes = vec![outage(0.0, 30.0), InterruptionProcess::none()];
        let placement = single_replica(&[0, 0, 1]);
        let report = MapPhaseSim::new(processes, placement, cfg())
            .unwrap()
            .run(10)
            .unwrap();
        assert!(report.completed);
        // Node 0's blocks are unreachable until t=30 (only replica), so
        // nothing can steal them: node 1 does its local task (12 s) then
        // idles; node 0 returns at 30 and runs 2 tasks -> 54; node 1 may
        // speculate the second task remotely meanwhile but cannot start
        // before 30.
        assert!(report.elapsed >= 54.0 - 1e-9 || report.elapsed >= 30.0);
        assert!(report.recovery > 0.0, "waiting on down holder is recovery");
    }

    #[test]
    fn max_copies_bounds_concurrent_duplicates() {
        // One long task on a volatile host, many reliable idle rescuers:
        // at most max_copies - 1 duplicates may coexist.
        let mut processes =
            vec![
                InterruptionProcess::synthetic(20.0, Dist::exponential_from_mean(10.0).unwrap())
                    .unwrap(),
            ];
        processes.extend((0..5).map(|_| InterruptionProcess::none()));
        let placement = single_replica(&[0]);
        for max_copies in [1usize, 2, 3] {
            let cfg = SimConfig::new(512.0, BlockSize::DEFAULT, 30.0)
                .unwrap()
                .with_max_copies(max_copies)
                .unwrap();
            let report = MapPhaseSim::new(processes.clone(), placement.clone(), cfg)
                .unwrap()
                .run(41)
                .unwrap();
            assert!(report.completed, "max_copies {max_copies}");
            // With max_copies = 1 no duplication at all: attempts only
            // grow through interruption re-executions.
            if max_copies == 1 {
                assert_eq!(report.transfers, 0, "no rescue possible");
            }
        }
    }

    #[test]
    fn detection_delay_postpones_requeue() {
        // Node 0 dies at t=5 for 50 s, killing its 12 s task. With oracle
        // detection (0 s) the task re-pends at 5 and restarts at 55
        // (done 67). With a 30 s timeout the JobTracker requeues at 35 —
        // node 0 is still down, so the restart still happens at 55...
        // make the delay extend past the recovery to observe the shift:
        // an 80 s delay requeues at 85, restart 85, done 97.
        let mk = |delay: f64| {
            let processes = vec![outage(5.0, 50.0)];
            let cfg = cfg().with_detection_delay(delay).unwrap();
            MapPhaseSim::new(processes, single_replica(&[0]), cfg)
                .unwrap()
                .run(21)
                .unwrap()
        };
        let oracle = mk(0.0);
        assert!(
            (oracle.elapsed - 67.0).abs() < 1e-9,
            "oracle {}",
            oracle.elapsed
        );
        let delayed = mk(80.0);
        assert!(
            (delayed.elapsed - 97.0).abs() < 1e-9,
            "delayed {}",
            delayed.elapsed
        );
        assert!(delayed.elapsed > oracle.elapsed);
    }

    #[test]
    fn detection_delay_validation() {
        assert!(cfg().with_detection_delay(-1.0).is_err());
        assert!(cfg().with_detection_delay(f64::NAN).is_err());
        let c = cfg().with_detection_delay(15.0).unwrap();
        assert_eq!(c.detection_delay(), 15.0);
    }

    #[test]
    fn requeue_after_task_resolved_elsewhere_is_a_noop() {
        // Task replicated on nodes 0 and 1. Node 0 dies at t=5 (its copy
        // killed, detection delayed 100 s); node 1 holds a replica and
        // picks the task up as soon as it goes idle... since the task
        // never re-pended, node 1 can only get it via the Requeue at 105
        // — unless it was already RUNNING a duplicate. Simplest check:
        // the run completes and the late Requeue does not double-run it.
        let processes = vec![outage(5.0, 500.0), InterruptionProcess::none()];
        let placement = vec![vec![NodeId(0), NodeId(1)]];
        let cfg = cfg().with_detection_delay(100.0).unwrap();
        let report = MapPhaseSim::new(processes, placement, cfg)
            .unwrap()
            .run(22)
            .unwrap();
        assert!(report.completed);
        // Requeue fires at 105; node 1 runs it locally 105..117.
        assert!(
            (report.elapsed - 117.0).abs() < 1e-9,
            "elapsed {}",
            report.elapsed
        );
        assert_eq!(report.tasks, 1);
    }

    #[test]
    fn run_detailed_reports_node_stats_and_winners() {
        let placement = single_replica(&[0, 1, 0, 1]);
        let detailed = MapPhaseSim::new(reliable(2), placement, cfg())
            .unwrap()
            .run_detailed(11)
            .unwrap();
        assert!(detailed.report.completed);
        assert_eq!(detailed.node_stats.len(), 2);
        assert_eq!(detailed.winners.len(), 4);
        // Fully local balanced run: each node completed its own two tasks.
        for (i, stat) in detailed.node_stats.iter().enumerate() {
            assert_eq!(stat.completed_tasks, 2, "node {i}");
            assert_eq!(stat.local_completed, 2);
            assert!((stat.busy - 24.0).abs() < 1e-9);
            assert_eq!(stat.downtime, 0.0);
        }
        assert_eq!(detailed.winners[0], Some(NodeId(0)));
        assert_eq!(detailed.winners[1], Some(NodeId(1)));
        // Per-node completion counts sum to the aggregate.
        let total: usize = detailed.node_stats.iter().map(|s| s.completed_tasks).sum();
        assert_eq!(total, detailed.report.tasks);
    }

    #[test]
    fn incomplete_run_has_none_winners() {
        let processes = vec![outage(0.0, 1e8)];
        let detailed = MapPhaseSim::new(processes, single_replica(&[0]), cfg().with_horizon(50.0))
            .unwrap()
            .run_detailed(12)
            .unwrap();
        assert!(!detailed.report.completed);
        assert_eq!(detailed.winners[0], None);
    }

    #[test]
    fn availability_aware_scheduling_steals_at_risk_tasks_first() {
        // Node 2 is idle (no local blocks). Two stealable tasks exist:
        // task 0 on reliable node 0, task 1 on volatile node 1. Under
        // FIFO it steals task 0 (lowest id); availability-aware steals
        // task 1, whose data is in danger.
        //
        // Construct: nodes 0 and 1 hold one *extra* block each beyond the
        // one they are running, so both have a pending stealable task at
        // t=0 after the Kick assigns their first.
        // Node 1 is *statistically* volatile (slowdown 2) but its MTBI
        // is far beyond the run length, so the dynamics stay
        // deterministic and only the risk ranking differs.
        let processes = vec![
            InterruptionProcess::none(),
            InterruptionProcess::synthetic(1e6, Dist::exponential_from_mean(5e5).unwrap()).unwrap(),
            InterruptionProcess::none(),
        ];
        let placement = single_replica(&[0, 1, 0, 1]);
        let fast = SimConfig::new(512.0, BlockSize::DEFAULT, 12.0).unwrap();

        let fifo = MapPhaseSim::new(processes.clone(), placement.clone(), fast)
            .unwrap()
            .run_detailed(13)
            .unwrap();
        let aware = MapPhaseSim::new(
            processes,
            placement,
            fast.with_scheduling(SchedulingMode::AvailabilityAware),
        )
        .unwrap()
        .run_detailed(13)
        .unwrap();
        assert!(fifo.report.completed && aware.report.completed);
        // Node 2's first steal differs: FIFO takes task 2 (node 0's
        // spare), availability-aware takes task 3 (node 1's spare).
        let fifo_first_remote = fifo.winners.iter().position(|w| *w == Some(NodeId(2)));
        let aware_first_remote = aware.winners.iter().position(|w| *w == Some(NodeId(2)));
        assert_ne!(
            fifo_first_remote, aware_first_remote,
            "scheduling mode should change which task node 2 stole"
        );
    }

    #[test]
    fn source_stream_cap_limits_concurrent_fetches() {
        // 9 tasks on node 0; eight idle fetchers want them at once, but
        // node 0 serves at most 2 streams. With 1 s transfers the steals
        // proceed in waves rather than all at t=0.
        let placement = single_replica(&[0; 9]);
        let cfg = SimConfig::new(512.0, BlockSize::DEFAULT, 12.0)
            .unwrap()
            .with_max_source_streams(2)
            .unwrap();
        let report = MapPhaseSim::new(reliable(9), placement, cfg)
            .unwrap()
            .run(14)
            .unwrap();
        assert!(report.completed);
        // Serial local would be 108 s; parallel stealing must beat it,
        // but the 2-stream cap forces waves so it cannot collapse to a
        // single 13 s round.
        assert!(report.elapsed < 108.0, "elapsed {}", report.elapsed);
        assert!(report.elapsed > 13.0 + 1e-9, "elapsed {}", report.elapsed);
    }

    /// The speculation rule's answer by the linear scan the index
    /// replaces: the first candidate the predicate accepts.
    fn linear_speculative_task(sim: &MapPhaseSim, n: u32, t: f64) -> Option<usize> {
        sim.spec_candidates
            .iter()
            .find(|&task| sim.accepts_duplicate(n, task, t))
    }

    /// Nodes 0–2 reliable, node 3 volatile enough to mark a straggler.
    fn three_reliable_one_volatile() -> Vec<InterruptionProcess> {
        let mut processes = reliable(3);
        processes.push(
            InterruptionProcess::synthetic(20.0, Dist::exponential_from_mean(10.0).unwrap())
                .unwrap(),
        );
        processes
    }

    #[test]
    fn speculation_prefers_a_held_candidate_the_remote_index_rejects() {
        // 512 s fetches. Node 2 fetches task 0 from node 0, volatile node
        // 3 fetches task 1 from node 1. At t = 12 idle node 0 holds task
        // 0's block: locally its copy (ETA 24) beats the running one
        // (524), though a remote copy (ETA 536) would not, so the index
        // passes it over. Task 1 clears the index by straggler rescue.
        // The held task has the lower id and wins.
        let slow = SimConfig::new(1.0, BlockSize::DEFAULT, 12.0).unwrap();
        let mut sim =
            MapPhaseSim::new(three_reliable_one_volatile(), single_replica(&[0, 1]), slow).unwrap();
        assert!(sim.slowdown[3] >= STRAGGLER_ADVANTAGE);
        sim.start_task(2, 0, 0.0).unwrap();
        sim.start_task(3, 1, 0.0).unwrap();
        let t = 12.0;
        let remote_bar = sim.eta_bar(0, sim.remote_eta(t), t);
        let rescue_bar = sim.slowdown[0] * STRAGGLER_ADVANTAGE;
        assert_eq!(
            sim.spec_index
                .first(0, remote_bar, rescue_bar, |id| sim.spec_keys(id)),
            Some(1)
        );
        assert_eq!(sim.speculative_task(0, t), Some(0));
        assert_eq!(linear_speculative_task(&sim, 0, t), Some(0));
        // Node 1 holds task 1 and cannot rescue task 0 from a reliable
        // host: its answer is its own held task.
        assert_eq!(sim.speculative_task(1, t), Some(1));
        assert_eq!(linear_speculative_task(&sim, 1, t), Some(1));
    }

    #[test]
    fn speculation_sees_a_source_that_frees_exactly_at_the_query_time() {
        // One stream per source. Volatile node 3 fetches task 0 from its
        // only holder, node 0, over [0, 512]. Node 2 may rescue it only
        // once node 0 has a free stream: an end time of exactly t counts
        // as free, because `active_streams` counts only `end > t`.
        let slow = SimConfig::new(1.0, BlockSize::DEFAULT, 12.0)
            .unwrap()
            .with_max_source_streams(1)
            .unwrap();
        let mut sim =
            MapPhaseSim::new(three_reliable_one_volatile(), single_replica(&[0, 0]), slow).unwrap();
        sim.start_task(3, 0, 0.0).unwrap();
        let end = sim.nodes[0].serving[0];
        assert_eq!(end, 512.0);
        assert_eq!(sim.free_at(0), end);
        for t in [end - 1.0, end.next_down()] {
            assert_eq!(sim.speculative_task(2, t), None, "t {t}");
            assert_eq!(linear_speculative_task(&sim, 2, t), None, "t {t}");
        }
        assert_eq!(sim.active_streams(0, end), 0);
        assert_eq!(sim.speculative_task(2, end), Some(0));
        assert_eq!(linear_speculative_task(&sim, 2, end), Some(0));
    }

    #[test]
    fn mean_params_reflect_process_kind() {
        let none = InterruptionProcess::none();
        assert_eq!(none.mean_params(), None);
        let synth = InterruptionProcess::synthetic(25.0, Dist::exponential_from_mean(5.0).unwrap())
            .unwrap();
        let (lambda, mu) = synth.mean_params().unwrap();
        assert!((lambda - 0.04).abs() < 1e-12);
        assert!((mu - 5.0).abs() < 1e-12);
    }

    #[test]
    fn straggler_rescue_caps_the_flaky_tail() {
        // One volatile node holds 4 of 8 blocks; one reliable node holds
        // the rest. With rescue, the reliable node duplicates the
        // volatile node's crash-looping tasks; the run must finish well
        // under the volatile node's expected serial grind.
        let processes = vec![
            InterruptionProcess::synthetic(10.0, Dist::exponential_from_mean(8.0).unwrap())
                .unwrap(),
            InterruptionProcess::none(),
        ];
        let placement = single_replica(&[0, 0, 0, 0, 1, 1, 1, 1]);
        // gamma 5: E[T] on the volatile host = (e^0.5-1)(10+40) = 32.4 s;
        // 4 tasks = 130 s expected serial, with a heavy tail beyond.
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 5.0).unwrap();
        let mut with_rescue = 0.0;
        let mut without_rescue = 0.0;
        for seed in 0..6 {
            let on = MapPhaseSim::new(processes.clone(), placement.clone(), cfg)
                .unwrap()
                .run(seed)
                .unwrap();
            assert!(on.completed);
            with_rescue += on.elapsed;
            let off = MapPhaseSim::new(
                processes.clone(),
                placement.clone(),
                cfg.with_speculation(false),
            )
            .unwrap()
            .run(seed)
            .unwrap();
            without_rescue += off.elapsed;
        }
        assert!(
            with_rescue < without_rescue,
            "rescue {with_rescue} vs no rescue {without_rescue}"
        );
    }

    /// A volatile 4-node scenario that exercises every traced code path:
    /// interruptions, remote steals, speculation, detection delay.
    fn volatile_sim() -> MapPhaseSim {
        let processes = vec![
            InterruptionProcess::synthetic(60.0, Dist::exponential_from_mean(20.0).unwrap())
                .unwrap(),
            InterruptionProcess::synthetic(90.0, Dist::exponential_from_mean(30.0).unwrap())
                .unwrap(),
            InterruptionProcess::none(),
            InterruptionProcess::none(),
        ];
        let placement = single_replica(&[0, 1, 0, 1, 0, 1, 2, 3]);
        let cfg = SimConfig::new(64.0, BlockSize::DEFAULT, 12.0)
            .unwrap()
            .with_detection_delay(3.0)
            .unwrap();
        MapPhaseSim::new(processes, placement, cfg).unwrap()
    }

    #[test]
    fn tracing_does_not_perturb_the_run() {
        use adapt_trace::TraceRecorder;
        for seed in [7u64, 2012, 424242] {
            let plain = volatile_sim().run_detailed(seed).unwrap();
            let traced = volatile_sim()
                .with_trace(TraceRecorder::new())
                .run_detailed(seed)
                .unwrap();
            assert!(plain.trace.is_none());
            let trace = traced.trace.as_ref().unwrap();
            assert!(!trace.events.is_empty());
            assert_eq!(trace.meta.seed, seed);
            // Tracing must not change a single observable of the run.
            assert_eq!(plain.report, traced.report, "seed {seed}");
            assert_eq!(plain.node_stats, traced.node_stats);
            assert_eq!(plain.winners, traced.winners);
            assert_eq!(plain.telemetry, traced.telemetry);
        }
    }

    #[test]
    fn trace_rederives_engine_overheads_exactly() {
        use adapt_trace::{derive_totals, TraceRecorder};
        for seed in [7u64, 2012, 424242] {
            let detailed = volatile_sim()
                .with_trace(TraceRecorder::new())
                .run_detailed(seed)
                .unwrap();
            let trace = detailed.trace.as_ref().unwrap();
            let derived = derive_totals(trace);
            let snap = &detailed.telemetry;
            // Bit-exact, not approximate: the derivation replays the
            // engine's f64 accumulation order and quantizes once.
            assert_eq!(derived.rework_us, snap.rework_us, "seed {seed}");
            assert_eq!(derived.recovery_us, snap.recovery_us, "seed {seed}");
            assert_eq!(derived.migration_us, snap.migration_us, "seed {seed}");
            assert_eq!(derived.misc_us, snap.misc_us, "seed {seed}");
            assert_eq!(derived.elapsed_us, snap.elapsed_us, "seed {seed}");
            assert_eq!(derived.attempts_started, snap.attempts_started);
            assert_eq!(derived.transfers_started, snap.transfers_started);
            assert_eq!(derived.interruptions, snap.interruptions);
            assert_eq!(derived.kills_interruption, snap.kills_interruption);
            assert_eq!(derived.kills_source_lost, snap.kills_source_lost);
            assert_eq!(derived.speculative_losses, snap.speculative_losses);
            assert_eq!(derived.requeues, snap.requeues);
        }
    }

    #[test]
    fn trace_roundtrips_and_is_byte_stable() {
        use adapt_trace::{parse_jsonl, write_jsonl, TraceRecorder};
        let detailed = volatile_sim()
            .with_trace(TraceRecorder::new())
            .run_detailed(2012)
            .unwrap();
        let trace = detailed.trace.unwrap();
        let text = write_jsonl(&trace);
        let reparsed = parse_jsonl(&text).unwrap();
        assert_eq!(reparsed, trace);
        // Second identical run serializes to identical bytes.
        let again = volatile_sim()
            .with_trace(TraceRecorder::new())
            .run_detailed(2012)
            .unwrap()
            .trace
            .unwrap();
        assert_eq!(write_jsonl(&again), text);
    }

    #[test]
    fn incomplete_traced_run_cuts_open_attempts() {
        use adapt_trace::{derive_totals, TraceEvent, TraceRecorder};
        let detailed = MapPhaseSim::new(
            reliable(1),
            single_replica(&[0, 0, 0]),
            cfg().with_horizon(20.0),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(3)
        .unwrap();
        assert!(!detailed.report.completed);
        let trace = detailed.trace.as_ref().unwrap();
        assert!(!trace.meta.completed);
        // The attempt running at the horizon shows up as a cut span
        // ending exactly at the cut.
        let cut = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::AttemptCut { end, .. } => Some(*end),
                _ => None,
            })
            .unwrap();
        assert!((cut - 20.0).abs() < 1e-9, "cut {cut}");
        let derived = derive_totals(trace);
        assert_eq!(derived.misc_us, detailed.telemetry.misc_us);
        assert_eq!(derived.elapsed_us, detailed.telemetry.elapsed_us);
    }

    #[test]
    fn explicit_flat_topology_is_byte_identical_to_default() {
        // A workload with remote fetches: node 1 holds nothing and must
        // steal everything from node 0.
        let placement = single_replica(&[0, 0, 0, 0]);
        let base = MapPhaseSim::new(reliable(2), placement.clone(), cfg())
            .unwrap()
            .run_detailed(7)
            .unwrap();
        let flat = MapPhaseSim::new(
            reliable(2),
            placement,
            cfg().with_topology(Topology::new(1, 1.0).unwrap()),
        )
        .unwrap()
        .run_detailed(7)
        .unwrap();
        assert_eq!(base, flat);
        assert_eq!(flat.telemetry.transfers_cross_rack, 0);
    }

    #[test]
    fn cross_rack_fetch_pays_the_oversubscribed_uplink() {
        // Two nodes in two racks; node 1 steals task 1 from node 0 at
        // t = 0 over the 2:1-oversubscribed core (speculation off so the
        // fetch runs to completion).
        let topo = Topology::new(2, 2.0).unwrap();
        let placement = single_replica(&[0, 0]);
        let detailed = MapPhaseSim::new(
            reliable(2),
            placement.clone(),
            cfg().with_speculation(false).with_topology(topo),
        )
        .unwrap()
        .run_detailed(7)
        .unwrap();
        // base fetch = 64 MB over 8 Mb/s = 64 s; cross-rack ×2 = 128 s,
        // then γ = 12 s of compute.
        assert!(detailed.report.completed);
        assert!((detailed.report.elapsed - 140.0).abs() < 1e-9);
        assert!((detailed.report.migration - 128.0).abs() < 1e-9);
        assert_eq!(detailed.telemetry.transfers_cross_rack, 1);
        assert_eq!(detailed.telemetry.link_streams_hwm, 1);

        // The same run on the flat network fetches in 64 s.
        let flat = MapPhaseSim::new(reliable(2), placement, cfg().with_speculation(false))
            .unwrap()
            .run_detailed(7)
            .unwrap();
        assert!((flat.report.elapsed - 76.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_cross_rack_flows_share_the_uplink() {
        use adapt_trace::TraceRecorder;
        // Racks {0,2} and {1,3}; every block on node 0. At t = 0 nodes
        // 1, 2, 3 all steal from node 0: the fetches to 1 and 3 cross
        // the core (the second commits against the first → contention),
        // the fetch to 2 stays inside rack 0 at the flat rate.
        let topo = Topology::new(2, 2.0).unwrap();
        let placement = single_replica(&[0, 0, 0, 0, 0, 0]);
        let detailed = MapPhaseSim::new(
            reliable(4),
            placement,
            cfg().with_speculation(false).with_topology(topo),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(7)
        .unwrap();
        assert_eq!(detailed.telemetry.transfers_cross_rack, 2);
        assert_eq!(detailed.telemetry.link_streams_hwm, 2);
        let trace = detailed.trace.as_ref().unwrap();
        let contention = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::LinkContention { rack, streams, t } => Some((*rack, *streams, *t)),
                _ => None,
            })
            .unwrap();
        assert_eq!(contention, (0, 2, 0.0));
        // Node 1 committed alone (64 × 2 = 128 s); node 3 committed
        // second and shares the uplink (64 × 2 × 2 = 256 s).
        let fetch_end = |dest: u32| {
            trace
                .events
                .iter()
                .find_map(|e| match e {
                    TraceEvent::TransferDone {
                        dest: d,
                        start,
                        end,
                        ..
                    } if *d == dest && *start == 0.0 => Some(*end),
                    _ => None,
                })
                .unwrap()
        };
        assert!((fetch_end(1) - 128.0).abs() < 1e-9);
        assert!((fetch_end(2) - 64.0).abs() < 1e-9);
        assert!((fetch_end(3) - 256.0).abs() < 1e-9);
    }

    #[test]
    fn a_killed_fetch_keeps_its_uplink_share_until_its_window_ends() {
        use adapt_trace::TraceRecorder;
        // Racks {0, 2} and {1, 3}. At t = 0 node 1 fetches task 1 from
        // node 0 across the core (window [0, 128)), then dies at t = 10.
        // Node 3 runs its local task until t = 12 and then fetches task
        // 2 from node 0: the dead fetcher's window still holds the
        // uplink, so the two share it (window [12, 268)). Node 2 is
        // down throughout.
        let processes = vec![
            InterruptionProcess::none(),
            outage(10.0, 990.0),
            outage(0.0, 1e5),
            InterruptionProcess::none(),
        ];
        let topo = Topology::new(2, 2.0).unwrap();
        let detailed = MapPhaseSim::new(
            processes,
            single_replica(&[0, 0, 0, 3]),
            cfg().with_speculation(false).with_topology(topo),
        )
        .unwrap()
        .with_trace(TraceRecorder::new())
        .run_detailed(7)
        .unwrap();
        assert!(detailed.report.completed);
        assert_eq!(detailed.telemetry.link_streams_hwm, 2);
        let events = &detailed.trace.as_ref().unwrap().events;
        let contention: Vec<(u32, u32, f64)> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::LinkContention { rack, streams, t } => Some((rack, streams, t)),
                _ => None,
            })
            .collect();
        assert_eq!(contention, [(0, 2, 12.0)]);
        let fetches: Vec<(u32, f64, f64)> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::TransferStarted {
                    dest, start, end, ..
                } => Some((dest, start, end)),
                _ => None,
            })
            .collect();
        assert_eq!(fetches, [(1, 0.0, 128.0), (3, 12.0, 268.0)]);
    }
}
