//! The differential oracle's reference engine: a deliberately naive,
//! obviously-correct re-implementation of the map-phase simulator.
//!
//! [`ReferenceSim`] mirrors `adapt_sim::engine::MapPhaseSim` decision for
//! decision — same scheduling cases, same tie-breaks, same telemetry and
//! trace emission points — but builds its state from plain std
//! collections instead of the optimized `adapt-ds` structures the engine
//! adopted for speed:
//!
//! | engine (optimized)            | reference (naive)                 |
//! |-------------------------------|-----------------------------------|
//! | `IdSet` (two-level bitset)    | `BTreeSet<usize>`                 |
//! | `SortedVecSet`                | `BTreeSet<usize>`                 |
//! | `EventQueue` (4-ary heap)     | `Vec` + linear scan for the min   |
//! | reused `freed_buf` scratch    | a fresh `Vec` per event           |
//!
//! Both sides of each row share a *specified* observable order: bitset
//! and `BTreeSet` iterate ascending, and the queue releases events by
//! `(time, insertion seq)` with `f64::total_cmp`. Under the byte-identical
//! output rule of the hot-path optimization, the two engines must
//! therefore produce equal [`DetailedReport`]s — including every
//! telemetry counter and the full event trace — on *every* valid input.
//! Any divergence the oracle finds is a real bug in one of them.
//!
//! The per-node RNG seeding (the splitmix64 finalizer over
//! `(seed, node)`) is duplicated here on purpose: it is part of the
//! engine's determinism contract, so the reference pins it.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::NodeId;
use adapt_sim::engine::{DetailedReport, NodeStat, SchedulingMode, SimConfig, SimReport};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::telemetry::EngineTelemetrySnapshot;
use adapt_sim::SimError;
use adapt_telemetry::micros;
use adapt_trace::{KillCause, TraceEvent, TraceMeta, TraceRecorder};

use crate::naive_queue::NaiveQueue;

/// Bound on how many stealable tasks one scheduling decision examines
/// (must match the engine's `MAX_STEAL_SCAN`).
const MAX_STEAL_SCAN: usize = 32;

/// Straggler-candidate slowdown bound (engine's `STRAGGLER_SLOWDOWN`).
const STRAGGLER_SLOWDOWN: f64 = 1.2;

/// Required reliability advantage of a LATE-style rescuer (engine's
/// `STRAGGLER_ADVANTAGE`).
const STRAGGLER_ADVANTAGE: f64 = 1.5;

/// The engine's per-node seed derivation (splitmix64 finalizer), pinned
/// here as part of the determinism contract under verification.
fn mix_seed(seed: u64, node: u64) -> u64 {
    let mut z = seed ^ node.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The engines' horizon rule, restated for the references: finite and
/// positive.
pub(crate) fn check_horizon(cfg: &SimConfig) -> Result<(), SimError> {
    let horizon = cfg.horizon();
    if horizon.is_finite() && horizon > 0.0 {
        Ok(())
    } else {
        Err(SimError::InvalidConfig {
            name: "horizon",
            reason: format!("{horizon} must be finite and > 0"),
        })
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Kick,
    Down(u32),
    Up(u32),
    AttemptDone { node: u32, epoch: u64 },
    Requeue(usize),
}

#[derive(Debug, Clone, Copy)]
struct Attempt {
    task: usize,
    seq: u64,
    reserve_start: f64,
    compute_start: f64,
    local: bool,
    source: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Outbound {
    dest: u32,
    end: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KillReason {
    Interruption,
    DuplicateLost,
}

#[derive(Debug)]
struct RefNode {
    process: InterruptionProcess,
    up: bool,
    epoch: u64,
    running: Option<Attempt>,
    local_pending: BTreeSet<usize>,
    serving: Vec<f64>,
    outbound: Vec<Outbound>,
    attempt_seq: u64,
    pending_up_at: f64,
    down_since: Option<f64>,
    downtime: f64,
    busy: f64,
    recovery_mark: Option<f64>,
    recovery: f64,
    completed_tasks: usize,
    local_completed: usize,
}

#[derive(Debug)]
struct RefTask {
    replicas: Vec<u32>,
    done: bool,
    running_on: Vec<u32>,
    winner: Option<u32>,
}

/// The naive reference simulator. Construct once per run;
/// [`run_detailed`](ReferenceSim::run_detailed) consumes it.
#[derive(Debug)]
pub struct ReferenceSim {
    cfg: SimConfig,
    nodes: Vec<RefNode>,
    slowdown: Vec<f64>,
    tasks: Vec<RefTask>,
    queue: NaiveQueue<Event>,
    pending: BTreeSet<usize>,
    stealable: BTreeSet<usize>,
    spec_candidates: BTreeSet<usize>,
    idle: BTreeSet<usize>,
    done_count: usize,
    rework: f64,
    migration: f64,
    dup_compute: f64,
    attempts: usize,
    transfers: usize,
    local_completions: usize,
    telemetry: EngineTelemetrySnapshot,
    trace: Option<TraceRecorder>,
}

impl ReferenceSim {
    /// Builds a reference simulation over `processes.len()` nodes running
    /// one map task per entry of `placement` — the same contract as
    /// `MapPhaseSim::new`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for a horizon that is not finite and
    /// positive or an empty cluster or task list, and
    /// [`SimError::PlacementOutOfRange`] if a replica references a node
    /// outside the cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
    ) -> Result<Self, SimError> {
        check_horizon(&cfg)?;
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
            tasks.push(RefTask {
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
                        cfg.gamma(),
                    ) {
                        Ok(model) => model.slowdown(),
                        Err(_) => f64::INFINITY,
                    }
                }
            })
            .collect();

        let mut nodes: Vec<RefNode> = processes
            .into_iter()
            .map(|process| RefNode {
                process,
                up: true,
                epoch: 0,
                running: None,
                local_pending: BTreeSet::new(),
                serving: Vec::new(),
                outbound: Vec::new(),
                attempt_seq: 0,
                pending_up_at: 0.0,
                down_since: None,
                downtime: 0.0,
                busy: 0.0,
                recovery_mark: None,
                recovery: 0.0,
                completed_tasks: 0,
                local_completed: 0,
            })
            .collect();

        let mut pending = BTreeSet::new();
        for (i, task) in tasks.iter().enumerate() {
            pending.insert(i);
            for &r in &task.replicas {
                nodes[r as usize].local_pending.insert(i);
            }
        }
        let stealable = pending.clone();

        Ok(ReferenceSim {
            cfg,
            nodes,
            slowdown,
            tasks,
            queue: NaiveQueue::default(),
            pending,
            stealable,
            spec_candidates: BTreeSet::new(),
            idle: BTreeSet::new(),
            done_count: 0,
            rework: 0.0,
            migration: 0.0,
            dup_compute: 0.0,
            attempts: 0,
            transfers: 0,
            local_completions: 0,
            telemetry: EngineTelemetrySnapshot {
                runs: 1,
                ..EngineTelemetrySnapshot::default()
            },
            trace: None,
        })
    }

    /// Attaches an event recorder, mirroring `MapPhaseSim::with_trace`.
    pub fn with_trace(mut self, recorder: TraceRecorder) -> Self {
        self.trace = Some(recorder);
        self
    }

    fn emit(&mut self, event: TraceEvent) {
        if let Some(recorder) = self.trace.as_mut() {
            recorder.record(event);
        }
    }

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
    /// detailed report, mirroring `MapPhaseSim::run_detailed`.
    ///
    /// # Errors
    ///
    /// Same contract as the engine: an exceeded horizon is reported via
    /// `SimReport::completed`; [`SimError::InvariantViolation`] signals
    /// an internal scheduling bug.
    pub fn run_detailed(mut self, seed: u64) -> Result<DetailedReport, SimError> {
        let mut rngs: Vec<StdRng> = (0..self.nodes.len())
            .map(|i| StdRng::seed_from_u64(mix_seed(seed, i as u64)))
            .collect();

        for (i, rng) in rngs.iter_mut().enumerate() {
            if let Some(outage) = self.nodes[i].process.next_outage(0.0, rng) {
                self.nodes[i].pending_up_at = outage.up_at;
                self.queue.push(outage.down_at, Event::Down(i as u32))?;
            }
        }
        self.queue.push(0.0, Event::Kick)?;

        let mut elapsed = None;
        let mut last_event_time = 0.0f64;
        loop {
            self.telemetry.queue_depth_hwm =
                self.telemetry.queue_depth_hwm.max(self.queue.len() as u64);
            let Some((t, event)) = self.queue.pop() else {
                break;
            };
            debug_assert!(
                t >= last_event_time,
                "event queue released t={t} after t={last_event_time}"
            );
            last_event_time = t;
            if t > self.cfg.horizon() {
                break;
            }
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
                    self.on_up(n, t, &mut rngs[n as usize])?;
                }
                Event::AttemptDone { node, epoch } => {
                    self.telemetry.events_attempt_done += 1;
                    if self.nodes[node as usize].epoch == epoch {
                        self.on_attempt_done(node, t)?;
                        if self.done_count == self.tasks.len() {
                            elapsed = Some(t);
                            break;
                        }
                    }
                }
                Event::Requeue(task) => {
                    self.telemetry.events_requeue += 1;
                    self.requeue(task, t);
                    self.dispatch_idle(t, &[task])?;
                }
            }
        }

        let completed = elapsed.is_some();
        let elapsed = elapsed.unwrap_or(self.cfg.horizon());
        Ok(self.finalize(elapsed, completed, seed))
    }

    fn try_assign(&mut self, n: u32, t: f64) -> Result<bool, SimError> {
        let ni = n as usize;
        if !self.nodes[ni].up || self.nodes[ni].running.is_some() {
            return Ok(false);
        }
        // 1. Local pending work (BTreeSet min = bitset first()).
        if let Some(&task) = self.nodes[ni].local_pending.iter().next() {
            self.start_task(n, task, t)?;
            return Ok(true);
        }
        // 2. Steal, scanning the stealable pool in ascending task order.
        let mut chosen: Option<usize> = None;
        let mut chosen_risk = f64::NEG_INFINITY;
        for &task in self.stealable.iter().take(MAX_STEAL_SCAN) {
            if self.admissible_source(task, t).is_none() {
                continue;
            }
            match self.cfg.scheduling() {
                SchedulingMode::Fifo => {
                    chosen = Some(task);
                    break;
                }
                SchedulingMode::AvailabilityAware => {
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
        // 3. Speculative duplicate, scanning candidates in ascending
        // task order with the engine's exact ETA arithmetic.
        if self.cfg.speculation() {
            let candidate = self.spec_candidates.iter().copied().find(|&task| {
                let state = &self.tasks[task];
                if state.running_on.len() >= self.cfg.max_copies() || state.running_on.contains(&n)
                {
                    return false;
                }
                let Some(candidate_eta) = self.attempt_eta(n, task, t) else {
                    return false;
                };
                let best_running_eta = state
                    .running_on
                    .iter()
                    .filter_map(|&r| {
                        let a = self.nodes[r as usize].running.as_ref()?;
                        (a.task == task)
                            .then(|| a.compute_start + self.cfg.gamma() * self.slowdown[r as usize])
                    })
                    .fold(f64::INFINITY, f64::min);
                let inflated_candidate_eta =
                    t + (candidate_eta - t) * self.slowdown[n as usize].min(1e6);
                if inflated_candidate_eta + 1e-9 < best_running_eta {
                    return true;
                }
                let best_copy_slowdown = state
                    .running_on
                    .iter()
                    .map(|&r| self.slowdown[r as usize])
                    .fold(f64::INFINITY, f64::min);
                best_copy_slowdown > STRAGGLER_SLOWDOWN
                    && self.slowdown[n as usize] * STRAGGLER_ADVANTAGE <= best_copy_slowdown
            });
            if let Some(task) = candidate {
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

    fn active_streams(&self, r: u32, t: f64) -> usize {
        self.nodes[r as usize]
            .serving
            .iter()
            .filter(|&&end| end > t)
            .count()
    }

    /// Cross-rack outbound flows active on `rack`'s uplink at `t` —
    /// the engine's lazy stride scan, reproduced naively.
    fn cross_rack_streams(&self, rack: u32, t: f64) -> usize {
        let topo = self.cfg.topology();
        let mut count = 0;
        let mut ni = rack as usize;
        while ni < self.nodes.len() {
            count += self.nodes[ni]
                .outbound
                .iter()
                .filter(|o| o.end > t && topo.rack_of(o.dest) != rack)
                .count();
            ni += topo.racks() as usize;
        }
        count
    }

    fn admissible_source(&self, task: usize, t: f64) -> Option<u32> {
        // `<=` keeps the engine's last-wins tie order among minima.
        let mut best: Option<(usize, u32)> = None;
        for &r in &self.tasks[task].replicas {
            if !self.nodes[r as usize].up {
                continue;
            }
            let streams = self.active_streams(r, t);
            if streams >= self.cfg.max_source_streams() {
                continue;
            }
            if best.is_none_or(|(s, _)| streams <= s) {
                best = Some((streams, r));
            }
        }
        best.map(|(_, r)| r)
    }

    fn attempt_eta(&self, n: u32, task: usize, t: f64) -> Option<f64> {
        let state = &self.tasks[task];
        if state.replicas.contains(&n) {
            return Some(t + self.cfg.gamma());
        }
        let has_source = state.replicas.iter().any(|&r| {
            self.nodes[r as usize].up && self.active_streams(r, t) < self.cfg.max_source_streams()
        });
        if !has_source {
            return None;
        }
        Some(t + self.cfg.transfer_seconds() + self.cfg.gamma())
    }

    fn start_task(&mut self, n: u32, task: usize, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(self.nodes[ni].up && self.nodes[ni].running.is_none());
        self.attempts += 1;
        self.telemetry.attempts_started += 1;
        self.idle.remove(&ni);

        let local = self.tasks[task].replicas.contains(&n);
        let seq = self.nodes[ni].attempt_seq;
        self.nodes[ni].attempt_seq += 1;
        let mut transfer_source: Option<u32> = None;
        let compute_start = if local {
            t
        } else {
            let source = self
                .admissible_source(task, t)
                .or_else(|| {
                    let mut best: Option<(usize, u32)> = None;
                    for &r in &self.tasks[task].replicas {
                        if !self.nodes[r as usize].up {
                            continue;
                        }
                        let streams = self.active_streams(r, t);
                        if best.is_none_or(|(s, _)| streams <= s) {
                            best = Some((streams, r));
                        }
                    }
                    best.map(|(_, r)| r)
                })
                .ok_or(SimError::InvariantViolation {
                    what: "remote attempt started without an alive source replica",
                })?;
            // Mirrors the engine: intra-rack fetches keep the flat time
            // bit-identically; cross-rack fetches pay the oversubscribed
            // uplink fair-shared over the flows active at commit time.
            let cross_rack = !self.cfg.topology().same_rack(source, n);
            let streams = if cross_rack {
                self.cross_rack_streams(self.cfg.topology().rack_of(source), t) + 1
            } else {
                1
            };
            let end = t + self.cfg.topology().fair_share_seconds(
                self.cfg.transfer_seconds(),
                source,
                n,
                streams,
            );
            let src = &mut self.nodes[source as usize];
            src.serving.retain(|&e| e > t);
            src.serving.push(end);
            src.outbound.retain(|o| o.end > t);
            src.outbound.push(Outbound { dest: n, end });
            self.transfers += 1;
            self.telemetry.transfers_started += 1;
            self.telemetry
                .transfer_bytes
                .record(self.cfg.block_size().bytes());
            if cross_rack {
                self.telemetry.transfers_cross_rack += 1;
                self.telemetry.link_streams_hwm =
                    self.telemetry.link_streams_hwm.max(streams as u64);
                if streams > 1 {
                    self.emit(TraceEvent::LinkContention {
                        rack: self.cfg.topology().rack_of(source),
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
                let bytes = self.cfg.block_size().bytes();
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
            compute_start + self.cfg.gamma(),
            Event::AttemptDone { node: n, epoch },
        )?;

        if self.pending.remove(&task) {
            self.stealable.remove(&task);
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                self.remove_local_pending(r, task, t);
            }
        }
        self.tasks[task].running_on.push(n);
        if self.slowdown[n as usize] > STRAGGLER_SLOWDOWN || compute_start - t > self.cfg.gamma() {
            self.spec_candidates.insert(task);
        }
        Ok(())
    }

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
        self.spec_candidates.remove(&task);
        self.tasks[task].running_on.retain(|&r| r != n);

        let losers = std::mem::take(&mut self.tasks[task].running_on);
        if !losers.is_empty() {
            self.telemetry.speculative_wins += 1;
        }
        for loser in losers {
            self.kill_attempt(loser, t, KillReason::DuplicateLost)?;
            self.try_assign(loser, t)?;
        }
        self.try_assign(n, t)?;
        self.dispatch_idle(t, &[])
    }

    fn kill_attempt(&mut self, n: u32, t: f64, reason: KillReason) -> Result<(), SimError> {
        let ni = n as usize;
        let Some(attempt) = self.nodes[ni].running.take() else {
            return Ok(());
        };
        self.nodes[ni].epoch += 1;
        self.nodes[ni].busy += (t - attempt.reserve_start).max(0.0);

        let compute_lost = (t - attempt.compute_start).clamp(0.0, self.cfg.gamma());
        match reason {
            KillReason::Interruption => {
                self.rework += compute_lost;
                self.telemetry.kills_interruption += 1;
            }
            KillReason::DuplicateLost => {
                self.dup_compute += compute_lost;
                self.telemetry.speculative_losses += 1;
            }
        }
        if !attempt.local {
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
            self.spec_candidates.remove(&task);
            if reason == KillReason::Interruption && self.cfg.detection_delay() > 0.0 {
                self.queue
                    .push(t + self.cfg.detection_delay(), Event::Requeue(task))?;
            } else {
                self.requeue(task, t);
            }
        }
        Ok(())
    }

    fn requeue(&mut self, task: usize, t: f64) {
        if self.tasks[task].done || !self.tasks[task].running_on.is_empty() {
            return;
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
            .any(|&r| self.nodes[r as usize].up)
        {
            self.stealable.insert(task);
        }
    }

    fn on_down(&mut self, n: u32, t: f64) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(self.nodes[ni].up);
        self.telemetry.interruptions += 1;
        self.emit(TraceEvent::NodeDown { node: n, t });
        self.kill_attempt(n, t, KillReason::Interruption)?;
        self.nodes[ni].up = false;
        self.nodes[ni].down_since = Some(t);
        self.idle.remove(&ni);
        let up_at = self.nodes[ni].pending_up_at.max(t);
        self.queue.push(up_at, Event::Up(n))?;

        // Snapshot before iterating: the naive engine trades the
        // optimized engine's aliasing argument for an obvious copy.
        let local: Vec<usize> = self.nodes[ni].local_pending.iter().copied().collect();
        let mut freed = Vec::new();
        for task in local {
            if !self.tasks[task]
                .replicas
                .iter()
                .any(|&r| self.nodes[r as usize].up)
            {
                self.stealable.remove(&task);
            } else if self.pending.contains(&task) {
                freed.push(task);
            }
        }
        if !self.nodes[ni].local_pending.is_empty() {
            self.nodes[ni].recovery_mark = Some(t);
        }
        self.dispatch_idle(t, &freed)
    }

    fn on_up(&mut self, n: u32, t: f64, rng: &mut StdRng) -> Result<(), SimError> {
        let ni = n as usize;
        debug_assert!(!self.nodes[ni].up);
        self.nodes[ni].up = true;
        if let Some(since) = self.nodes[ni].down_since.take() {
            self.nodes[ni].downtime += t - since;
            self.emit(TraceEvent::NodeUp { node: n, since, t });
        }
        if let Some(mark) = self.nodes[ni].recovery_mark.take() {
            self.nodes[ni].recovery += t - mark;
            self.emit(TraceEvent::RecoverySpan {
                node: n,
                start: mark,
                end: t,
            });
        }
        let local: Vec<usize> = self.nodes[ni].local_pending.iter().copied().collect();
        let mut freed = Vec::new();
        for task in local {
            if self.pending.contains(&task) {
                self.stealable.insert(task);
                freed.push(task);
            }
        }
        if let Some(outage) = self.nodes[ni].process.next_outage(t, rng) {
            self.nodes[ni].pending_up_at = outage.up_at;
            self.queue.push(outage.down_at, Event::Down(n))?;
        }
        self.try_assign(n, t)?;
        self.dispatch_idle(t, &freed)
    }

    fn dispatch_idle(&mut self, t: f64, freed: &[usize]) -> Result<(), SimError> {
        for &task in freed {
            if !self.pending.contains(&task) {
                continue;
            }
            for ri in 0..self.tasks[task].replicas.len() {
                let r = self.tasks[task].replicas[ri];
                if self.idle.contains(&(r as usize)) && self.try_assign(r, t)? {
                    break;
                }
            }
        }
        while let Some(&n) = self.idle.iter().next() {
            if !self.try_assign(n as u32, t)? {
                break;
            }
        }
        Ok(())
    }

    fn add_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.insert(task);
        if !self.nodes[ni].up && self.nodes[ni].recovery_mark.is_none() {
            self.nodes[ni].recovery_mark = Some(t);
        }
    }

    fn remove_local_pending(&mut self, n: u32, task: usize, t: f64) {
        let ni = n as usize;
        self.nodes[ni].local_pending.remove(&task);
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
            if let Some(since) = node.down_since.take() {
                node.downtime += (elapsed - since).max(0.0);
            }
            if let Some(mark) = node.recovery_mark.take() {
                node.recovery += (elapsed - mark).max(0.0);
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
        let base_work = self.tasks.len() as f64 * self.cfg.gamma();
        let report = SimReport {
            elapsed,
            tasks: self.tasks.len(),
            local_tasks: self.local_completions,
            attempts: self.attempts,
            transfers: self.transfers,
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
            gamma: self.cfg.gamma(),
            block_bytes: self.cfg.block_size().bytes(),
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
mod tests {
    use super::*;
    use adapt_dfs::BlockSize;

    #[test]
    fn rejects_a_horizon_that_is_not_finite_and_positive() {
        use adapt_sim::engine::MapPhaseSim;
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).unwrap();
        let placement = || vec![vec![NodeId(0)]];
        for (horizon, valid) in [
            (-1.0, false),
            (0.0, false),
            (f64::NAN, false),
            (f64::INFINITY, false),
            (5.0, true),
        ] {
            let cfg = cfg.with_horizon(horizon);
            let reference =
                ReferenceSim::new(vec![InterruptionProcess::none()], placement(), cfg).map(drop);
            let engine =
                MapPhaseSim::new(vec![InterruptionProcess::none()], placement(), cfg).map(drop);
            assert_eq!(reference, engine, "horizon {horizon}");
            assert_eq!(reference.is_ok(), valid, "horizon {horizon}");
        }
    }

    #[test]
    fn naive_queue_pops_by_time_then_fifo() {
        let mut q = NaiveQueue::default();
        q.push(2.0, Event::Kick).unwrap();
        q.push(1.0, Event::Down(0)).unwrap();
        q.push(2.0, Event::Up(1)).unwrap();
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, 1.0);
        assert!(matches!(e1, Event::Down(0)));
        let (t2, e2) = q.pop().unwrap();
        assert_eq!(t2, 2.0);
        assert!(matches!(e2, Event::Kick));
        let (t3, e3) = q.pop().unwrap();
        assert_eq!(t3, 2.0);
        assert!(matches!(e3, Event::Up(1)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn mix_seed_matches_splitmix64_vector() {
        // splitmix64(0 ^ 0) finalizer of z = 0 is 0; a nonzero vector
        // guards against accidental edits to the pinned constants.
        assert_eq!(mix_seed(0, 0), 0);
        assert_ne!(mix_seed(0, 1), mix_seed(0, 2));
        assert_ne!(mix_seed(1, 0), mix_seed(2, 0));
    }

    #[test]
    fn two_reliable_nodes_complete_in_two_rounds() {
        let placement: Vec<Vec<NodeId>> = (0..4).map(|i| vec![NodeId(i % 2)]).collect();
        let processes = vec![InterruptionProcess::none(), InterruptionProcess::none()];
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0).expect("valid config");
        let detailed = ReferenceSim::new(processes, placement, cfg)
            .expect("valid sim")
            .run_detailed(42)
            .expect("run succeeds");
        assert!(detailed.report.completed);
        assert_eq!(detailed.report.local_tasks, 4);
        assert!((detailed.report.elapsed - 24.0).abs() < 1e-9);
    }

    #[test]
    fn reference_matches_engine_under_rack_topology() {
        use adapt_sim::engine::MapPhaseSim;
        use adapt_sim::Topology;
        use adapt_trace::TraceRecorder;
        // Every block on node 0: nodes 1–3 steal concurrently, mixing
        // intra-rack and contended cross-rack fetches.
        let placement: Vec<Vec<NodeId>> = (0..6).map(|_| vec![NodeId(0)]).collect();
        let processes: Vec<InterruptionProcess> =
            (0..4).map(|_| InterruptionProcess::none()).collect();
        let cfg = SimConfig::new(8.0, BlockSize::DEFAULT, 12.0)
            .expect("valid config")
            .with_topology(Topology::new(2, 2.5).expect("valid topology"));
        let engine = MapPhaseSim::new(processes.clone(), placement.clone(), cfg)
            .expect("valid sim")
            .with_trace(TraceRecorder::new())
            .run_detailed(2012)
            .expect("engine runs");
        let reference = ReferenceSim::new(processes, placement, cfg)
            .expect("valid reference")
            .run_detailed(2012)
            .expect("reference runs");
        // Traces differ only in presence (reference built without one
        // here); everything else must match field for field.
        assert_eq!(engine.report, reference.report);
        assert_eq!(engine.node_stats, reference.node_stats);
        assert_eq!(engine.winners, reference.winners);
        assert_eq!(engine.telemetry, reference.telemetry);
        assert!(engine.telemetry.transfers_cross_rack > 0);
    }
}
