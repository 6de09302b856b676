//! Trace analysis: exact overhead re-derivation, the critical path, and
//! per-node Gantt lanes.
//!
//! # Exactness contract
//!
//! [`derive_totals`] must reproduce the engine's Figure-5 overhead
//! decomposition (rework / recovery / migration / misc) *bit for bit*,
//! not approximately. The engine accumulates each overhead as an `f64`
//! running sum in event order and quantizes the total to integer µs once
//! at the end of the run; floating-point addition is not associative, so
//! this module replays the same additions on the same exact operands in
//! the same order:
//!
//! * events carry the exact `f64` seconds the engine computed with;
//! * per-accumulator addition order equals engine order, because events
//!   of each kind appear in the trace in the order the engine processed
//!   them, and additions to *different* accumulators commute trivially;
//! * per-node remainders (open downtime at the horizon) and the final
//!   per-node sweep run in node-id order, mirroring the engine's
//!   `finalize`;
//! * each total is quantized once with the engine's rounding,
//!   [`adapt_telemetry::micros`].

use std::collections::BTreeSet;

use adapt_telemetry::{micros, Value};

use crate::event::{KillCause, TraceEvent};
use crate::recorder::Trace;

/// Grows `v` as needed and returns the slot for node `i`.
fn slot<T: Clone + Default>(v: &mut Vec<T>, i: usize) -> &mut T {
    if i >= v.len() {
        v.resize(i + 1, T::default());
    }
    // In-bounds by the resize above.
    &mut v[i]
}

/// Counters and Figure-5 overhead totals re-derived from a trace alone.
///
/// The `*_us` fields match `EngineTelemetrySnapshot` exactly for the run
/// that produced the trace (see the module docs for why).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DerivedTotals {
    /// Rework overhead, µs (interruption-killed compute).
    pub rework_us: u64,
    /// Recovery overhead, µs (down while holding pending local work).
    pub recovery_us: u64,
    /// Migration overhead, µs (assignment-to-compute gap of remote
    /// attempts).
    pub migration_us: u64,
    /// Misc overhead, µs (up-node idle plus losing-duplicate compute).
    pub misc_us: u64,
    /// Map-phase elapsed simulated time, µs.
    pub elapsed_us: u64,
    /// Attempts started.
    pub attempts_started: u64,
    /// Block transfers started.
    pub transfers_started: u64,
    /// Node outages observed.
    pub interruptions: u64,
    /// Attempts killed by host interruption.
    pub kills_interruption: u64,
    /// Attempts killed by mid-transfer source death.
    pub kills_source_lost: u64,
    /// Attempts killed by a faster duplicate.
    pub speculative_losses: u64,
    /// Speculative duplicate launches.
    pub speculative_attempts: u64,
    /// Tasks returned to the pending pool.
    pub requeues: u64,
    /// Block replicas placed at t = 0.
    pub blocks_placed: u64,
    /// Replicas moved by the rebalancer.
    pub blocks_rebalanced: u64,
}

impl DerivedTotals {
    /// Serializes the totals with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("attempts_started", self.attempts_started);
        v.insert("blocks_placed", self.blocks_placed);
        v.insert("blocks_rebalanced", self.blocks_rebalanced);
        v.insert("elapsed_us", self.elapsed_us);
        v.insert("interruptions", self.interruptions);
        v.insert("kills_interruption", self.kills_interruption);
        v.insert("kills_source_lost", self.kills_source_lost);
        v.insert("migration_us", self.migration_us);
        v.insert("misc_us", self.misc_us);
        v.insert("recovery_us", self.recovery_us);
        v.insert("requeues", self.requeues);
        v.insert("rework_us", self.rework_us);
        v.insert("speculative_attempts", self.speculative_attempts);
        v.insert("speculative_losses", self.speculative_losses);
        v.insert("transfers_started", self.transfers_started);
        v
    }
}

/// Re-derives the engine's counters and overhead totals from the trace.
/// See the module docs for the exactness argument.
pub fn derive_totals(trace: &Trace) -> DerivedTotals {
    let elapsed = trace.meta.elapsed;
    let gamma = trace.meta.gamma;
    let n = trace.meta.nodes as usize;

    let mut totals = DerivedTotals::default();
    // Engine-order f64 running sums (see `MapPhaseSim` accumulators).
    let mut rework = 0.0f64;
    let mut dup_compute = 0.0f64;
    let mut migration = 0.0f64;
    let mut busy: Vec<f64> = vec![0.0; n];
    let mut downtime: Vec<f64> = vec![0.0; n];
    let mut recovery: Vec<f64> = vec![0.0; n];
    let mut down_since: Vec<Option<f64>> = vec![None; n];

    for event in &trace.events {
        match *event {
            TraceEvent::BlockPlaced { .. } => totals.blocks_placed += 1,
            TraceEvent::BlockRebalanced { .. } => totals.blocks_rebalanced += 1,
            TraceEvent::AttemptStarted { .. } => totals.attempts_started += 1,
            TraceEvent::SpeculativeLaunched { .. } => totals.speculative_attempts += 1,
            TraceEvent::TransferStarted { .. } => totals.transfers_started += 1,
            TraceEvent::TransferDone { .. } | TraceEvent::TransferAborted { .. } => {}
            TraceEvent::AttemptWon {
                node,
                local,
                start,
                compute_start,
                end,
                ..
            } => {
                // Engine `on_attempt_done`: busy += t - reserve_start
                // (no clamp), then migration for remote attempts.
                *slot(&mut busy, node as usize) += end - start;
                if !local {
                    migration += compute_start - start;
                }
            }
            TraceEvent::AttemptKilled {
                node,
                local,
                start,
                compute_start,
                end,
                reason,
                ..
            } => {
                // Engine `kill_attempt`, in its statement order.
                *slot(&mut busy, node as usize) += (end - start).max(0.0);
                let compute_lost = (end - compute_start).clamp(0.0, gamma);
                match reason {
                    KillCause::Interruption => {
                        rework += compute_lost;
                        totals.kills_interruption += 1;
                    }
                    KillCause::DuplicateLost => {
                        dup_compute += compute_lost;
                        totals.speculative_losses += 1;
                    }
                    KillCause::SourceLost => {
                        dup_compute += compute_lost;
                        totals.kills_source_lost += 1;
                    }
                }
                if !local {
                    migration += compute_start - start;
                }
            }
            TraceEvent::AttemptCut {
                node, start, end, ..
            } => {
                // Engine `finalize`: a still-running attempt's reserved
                // time counts as busy; no migration is charged.
                *slot(&mut busy, node as usize) += (end - start).max(0.0);
            }
            TraceEvent::NodeDown { node, t } => {
                totals.interruptions += 1;
                *slot(&mut down_since, node as usize) = Some(t);
            }
            TraceEvent::NodeUp { node, since, t } => {
                *slot(&mut downtime, node as usize) += t - since;
                *slot(&mut down_since, node as usize) = None;
            }
            TraceEvent::TaskRequeued { .. } => totals.requeues += 1,
            TraceEvent::RecoverySpan { node, start, end } => {
                // Closed spans add raw `t - mark`; the engine's finalize
                // remainder is emitted as a span too (skipped when it
                // would clamp to zero), so raw addition matches both.
                *slot(&mut recovery, node as usize) += end - start;
            }
            // Job-stream lifecycle markers live above the map-phase
            // engine; they carry no overhead seconds to re-derive.
            TraceEvent::JobSubmitted { .. }
            | TraceEvent::JobStarted { .. }
            | TraceEvent::JobCompleted { .. } => {}
            // Reduce-phase records are accounted by the reduce report,
            // not the map-phase overhead taxonomy being re-derived here.
            TraceEvent::ReduceStarted { .. }
            | TraceEvent::ShuffleFetch { .. }
            | TraceEvent::LinkContention { .. } => {}
        }
    }

    // Engine `finalize`: per node in id order — close open downtime,
    // sum recovery, then up-idle from uptime minus busy.
    let count = busy.len().max(downtime.len()).max(recovery.len());
    let mut recovery_total = 0.0f64;
    let mut up_idle = 0.0f64;
    for i in 0..count {
        if let Some(since) = slot(&mut down_since, i).take() {
            *slot(&mut downtime, i) += (elapsed - since).max(0.0);
        }
        recovery_total += *slot(&mut recovery, i);
        let uptime = (elapsed - *slot(&mut downtime, i)).max(0.0);
        up_idle += (uptime - *slot(&mut busy, i)).max(0.0);
    }
    let misc = up_idle + dup_compute;

    totals.rework_us = micros(rework);
    totals.recovery_us = micros(recovery_total);
    totals.migration_us = micros(migration);
    totals.misc_us = micros(misc);
    totals.elapsed_us = micros(elapsed);
    totals
}

// ---------------------------------------------------------------------
// Critical path
// ---------------------------------------------------------------------

/// What a critical-path hop spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopKind {
    /// Map compute of an attempt (winning, killed, or cut).
    Compute,
    /// A block transfer feeding a remote attempt.
    Transfer,
    /// Waiting out a host outage.
    Outage,
    /// JobTracker failure-detection delay between a kill and the requeue.
    Detection,
    /// Pending/slot wait (requeue-to-assignment gap, or the node busy
    /// with earlier work).
    Queue,
    /// The job start boundary at t = 0.
    Start,
}

impl HopKind {
    /// Stable label used in serialized summaries and CLI output.
    pub fn as_str(&self) -> &'static str {
        match self {
            HopKind::Compute => "compute",
            HopKind::Transfer => "transfer",
            HopKind::Outage => "outage",
            HopKind::Detection => "detection",
            HopKind::Queue => "queue",
            HopKind::Start => "start",
        }
    }
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathHop {
    /// What the time went to.
    pub kind: HopKind,
    /// The node involved, if any.
    pub node: Option<u32>,
    /// The task involved, if any.
    pub task: Option<u32>,
    /// Hop start (simulated seconds).
    pub start: f64,
    /// Hop end (simulated seconds).
    pub end: f64,
    /// Human-readable reason for the hop.
    pub detail: String,
}

impl PathHop {
    /// Serializes the hop with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("detail", self.detail.as_str());
        v.insert("end", self.end);
        v.insert("kind", self.kind.as_str());
        if let Some(n) = self.node {
            v.insert("node", n);
        }
        v.insert("start", self.start);
        if let Some(t) = self.task {
            v.insert("task", t);
        }
        v
    }
}

/// Timestamps within this slack of each other are "the same instant".
const EPS: f64 = 1e-9;

/// An attempt span pulled out of a terminal attempt event.
struct AttemptSpan {
    node: u32,
    task: u32,
    local: bool,
    start: f64,
    compute_start: f64,
    end: f64,
    outcome: &'static str,
}

fn attempt_span(event: &TraceEvent) -> Option<AttemptSpan> {
    match *event {
        TraceEvent::AttemptWon {
            node,
            task,
            attempt: _,
            local,
            start,
            compute_start,
            end,
        } => Some(AttemptSpan {
            node,
            task,
            local,
            start,
            compute_start,
            end,
            outcome: "won",
        }),
        TraceEvent::AttemptKilled {
            node,
            task,
            attempt: _,
            local,
            start,
            compute_start,
            end,
            reason,
        } => Some(AttemptSpan {
            node,
            task,
            local,
            start,
            compute_start,
            end,
            outcome: reason.as_str(),
        }),
        TraceEvent::AttemptCut {
            node,
            task,
            attempt: _,
            local,
            start,
            compute_start,
            end,
        } => Some(AttemptSpan {
            node,
            task,
            local,
            start,
            compute_start,
            end,
            outcome: "cut",
        }),
        // Non-attempt-terminal records carry no attempt span.
        TraceEvent::BlockPlaced { .. }
        | TraceEvent::BlockRebalanced { .. }
        | TraceEvent::AttemptStarted { .. }
        | TraceEvent::SpeculativeLaunched { .. }
        | TraceEvent::TransferStarted { .. }
        | TraceEvent::TransferDone { .. }
        | TraceEvent::TransferAborted { .. }
        | TraceEvent::NodeDown { .. }
        | TraceEvent::NodeUp { .. }
        | TraceEvent::TaskRequeued { .. }
        | TraceEvent::RecoverySpan { .. }
        | TraceEvent::JobSubmitted { .. }
        | TraceEvent::JobStarted { .. }
        | TraceEvent::JobCompleted { .. }
        | TraceEvent::ReduceStarted { .. }
        | TraceEvent::ShuffleFetch { .. }
        | TraceEvent::LinkContention { .. } => None,
    }
}

/// Walks the winning-attempt dependency chain of the *last* task to
/// finish back to t = 0 and returns the hops in chronological order.
/// Returns an empty path when the trace has no winning attempt (a run
/// cut before any completion).
pub fn critical_path(trace: &Trace) -> Vec<PathHop> {
    let events = &trace.events;
    // The makespan determinant: the attempt_won with the latest end.
    let mut last: Option<(usize, AttemptSpan)> = None;
    for (i, e) in events.iter().enumerate() {
        if let TraceEvent::AttemptWon { end, .. } = e {
            let later = match &last {
                Some((_, s)) => *end >= s.end,
                None => true,
            };
            if later {
                if let Some(span) = attempt_span(e) {
                    last = Some((i, span));
                }
            }
        }
    }
    let Some((last_idx, last_span)) = last else {
        return Vec::new();
    };

    let mut hops: Vec<PathHop> = Vec::new(); // reverse-chronological
    let mut visited: BTreeSet<usize> = BTreeSet::new();
    visited.insert(last_idx);
    push_attempt_hops(trace, &mut hops, &last_span);
    let mut cursor_node = last_span.node;
    let mut cursor_task = last_span.task;
    let mut cursor_time = last_span.start;
    let mut cursor_source = attempt_source(trace, &last_span);

    // The chain can only shrink toward t = 0; the cap guards against a
    // malformed (hand-edited) trace producing a cycle.
    let mut budget = events.len() + 8;
    while cursor_time > EPS && budget > 0 {
        budget -= 1;

        // 1. The assignment coincides with the node coming back up:
        //    the path waited out the outage.
        let node_up = events.iter().enumerate().rev().find(|(i, e)| {
            !visited.contains(i)
                && matches!(*e, TraceEvent::NodeUp { node, t, .. }
                    if *node == cursor_node && (*t - cursor_time).abs() <= EPS)
        });
        if let Some((ui, &TraceEvent::NodeUp { since, t, .. })) = node_up {
            visited.insert(ui);
            hops.push(PathHop {
                kind: HopKind::Outage,
                node: Some(cursor_node),
                task: Some(cursor_task),
                start: since,
                end: t,
                detail: format!("node {cursor_node} down; task waited for recovery"),
            });
            cursor_time = since;
            continue;
        }

        // 1b. A remote attempt launched the instant its block's source
        //     host recovered: the fetch was gated by the source outage,
        //     not by anything on the destination.
        if let Some(src) = cursor_source {
            let source_up = events.iter().enumerate().rev().find(|(i, e)| {
                !visited.contains(i)
                    && matches!(*e, TraceEvent::NodeUp { node, t, .. }
                        if *node == src && (*t - cursor_time).abs() <= EPS)
            });
            if let Some((ui, &TraceEvent::NodeUp { since, t, .. })) = source_up {
                visited.insert(ui);
                hops.push(PathHop {
                    kind: HopKind::Outage,
                    node: Some(src),
                    task: Some(cursor_task),
                    start: since,
                    end: t,
                    detail: format!(
                        "source node {src} down; task {cursor_task} waited for its replica"
                    ),
                });
                cursor_node = src;
                cursor_source = None;
                cursor_time = since;
                continue;
            }
        }

        // 2. The task re-entered the pending pool and was picked up at
        //    `cursor_time`: queue wait, detection delay, then the killed
        //    attempt that caused the requeue.
        let requeue = events.iter().enumerate().rev().find(|(i, e)| {
            !visited.contains(i)
                && matches!(*e, TraceEvent::TaskRequeued { task, t }
                    if *task == cursor_task && *t <= cursor_time + EPS)
        });
        if let Some((ri, &TraceEvent::TaskRequeued { t: rq_t, .. })) = requeue {
            visited.insert(ri);
            if cursor_time - rq_t > EPS {
                hops.push(PathHop {
                    kind: HopKind::Queue,
                    node: None,
                    task: Some(cursor_task),
                    start: rq_t,
                    end: cursor_time,
                    detail: format!("task {cursor_task} pending until a slot opened"),
                });
            }
            // The kill that triggered the requeue: the latest terminal
            // attempt of this task ending at or before the requeue.
            let killed = events.iter().enumerate().rev().find_map(|(i, e)| {
                if visited.contains(&i) {
                    return None;
                }
                let span = attempt_span(e)?;
                (span.task == cursor_task && span.outcome != "won" && span.end <= rq_t + EPS)
                    .then_some((i, span))
            });
            if let Some((ki, kspan)) = killed {
                visited.insert(ki);
                if rq_t - kspan.end > EPS {
                    hops.push(PathHop {
                        kind: HopKind::Detection,
                        node: Some(kspan.node),
                        task: Some(cursor_task),
                        start: kspan.end,
                        end: rq_t,
                        detail: format!(
                            "JobTracker detection delay after losing node {}",
                            kspan.node
                        ),
                    });
                }
                cursor_node = kspan.node;
                cursor_time = kspan.start;
                cursor_source = attempt_source(trace, &kspan);
                push_attempt_hops(trace, &mut hops, &kspan);
                continue;
            }
            cursor_time = rq_t;
            cursor_source = None;
            continue;
        }

        // 3. The node was busy with earlier work that ended exactly when
        //    this attempt started: chain into that attempt.
        let prior = events.iter().enumerate().rev().find_map(|(i, e)| {
            if visited.contains(&i) {
                return None;
            }
            let span = attempt_span(e)?;
            (span.node == cursor_node && (span.end - cursor_time).abs() <= EPS).then_some((i, span))
        });
        if let Some((pi, pspan)) = prior {
            visited.insert(pi);
            hops.push(PathHop {
                kind: HopKind::Queue,
                node: Some(cursor_node),
                task: Some(pspan.task),
                start: pspan.end,
                end: cursor_time,
                detail: format!("slot on node {} freed by task {}", cursor_node, pspan.task),
            });
            cursor_task = pspan.task;
            cursor_time = pspan.start;
            cursor_source = attempt_source(trace, &pspan);
            push_attempt_hops(trace, &mut hops, &pspan);
            continue;
        }

        // 4. Nothing explains the gap: scheduling slack back to t = 0.
        hops.push(PathHop {
            kind: HopKind::Start,
            node: Some(cursor_node),
            task: Some(cursor_task),
            start: 0.0,
            end: cursor_time,
            detail: "scheduling slack back to job start".to_string(),
        });
        break;
    }

    hops.reverse();
    hops
}

/// The source host of a remote attempt's block fetch, via the matching
/// `TransferStarted` record.
fn attempt_source(trace: &Trace, span: &AttemptSpan) -> Option<u32> {
    if span.local {
        return None;
    }
    trace.events.iter().find_map(|e| {
        if let TraceEvent::TransferStarted {
            source,
            dest,
            task,
            start,
            ..
        } = *e
        {
            if dest == span.node && task == span.task && (start - span.start).abs() <= EPS {
                return Some(source);
            }
        }
        None
    })
}

/// Pushes (reverse-chronologically) the compute and transfer hops of one
/// attempt, annotating speculative duplicates.
fn push_attempt_hops(trace: &Trace, hops: &mut Vec<PathHop>, span: &AttemptSpan) {
    let speculative = trace.events.iter().any(|e| {
        matches!(*e, TraceEvent::SpeculativeLaunched { node, task, t }
            if node == span.node && task == span.task && (t - span.start).abs() <= EPS)
    });
    let describe = |what: &str| {
        let spec = if speculative {
            " (speculative duplicate)"
        } else {
            ""
        };
        format!(
            "task {} {} on node {}{} [{}]",
            span.task, what, span.node, spec, span.outcome
        )
    };
    if span.local || span.compute_start <= span.start + EPS {
        hops.push(PathHop {
            kind: HopKind::Compute,
            node: Some(span.node),
            task: Some(span.task),
            start: span.start,
            end: span.end,
            detail: describe("compute"),
        });
        return;
    }
    // Remote attempt: compute after the fetch; a kill can land while the
    // transfer is still in flight (end < compute_start).
    if span.end > span.compute_start {
        hops.push(PathHop {
            kind: HopKind::Compute,
            node: Some(span.node),
            task: Some(span.task),
            start: span.compute_start,
            end: span.end,
            detail: describe("compute"),
        });
    }
    let source = trace.events.iter().find_map(|e| {
        if let TraceEvent::TransferStarted {
            source,
            dest,
            task,
            start,
            ..
        } = *e
        {
            if dest == span.node && task == span.task && (start - span.start).abs() <= EPS {
                return Some(source);
            }
        }
        None
    });
    let from = match source {
        Some(s) => format!(" from node {s}"),
        None => String::new(),
    };
    hops.push(PathHop {
        kind: HopKind::Transfer,
        node: Some(span.node),
        task: Some(span.task),
        start: span.start,
        end: span.end.min(span.compute_start),
        detail: format!("task {} block fetch{} [{}]", span.task, from, span.outcome),
    });
}

// ---------------------------------------------------------------------
// Gantt lanes
// ---------------------------------------------------------------------

/// What a Gantt segment shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Attempt compute.
    Compute,
    /// Block transfer feeding a remote attempt.
    Transfer,
    /// Host outage.
    Down,
}

/// One interval of a node's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Interval type.
    pub kind: SegmentKind,
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// The task involved (outages have none).
    pub task: Option<u32>,
}

/// One node's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeLane {
    /// Node id.
    pub node: u32,
    /// Segments ordered by `(start, end)`.
    pub segments: Vec<Segment>,
}

/// Aggregates the trace into per-node timelines (only nodes with at
/// least one segment appear). Segments within a lane are ordered by
/// `(start, end)`.
pub fn gantt(trace: &Trace) -> Vec<NodeLane> {
    let mut lanes: Vec<Vec<Segment>> = Vec::new();
    let mut open_down: Vec<Option<f64>> = Vec::new();
    let add = |lanes: &mut Vec<Vec<Segment>>, node: u32, seg: Segment| {
        if seg.end > seg.start {
            slot(lanes, node as usize).push(seg);
        }
    };

    for event in &trace.events {
        if let Some(span) = attempt_span(event) {
            if span.local || span.compute_start <= span.start {
                add(
                    &mut lanes,
                    span.node,
                    Segment {
                        kind: SegmentKind::Compute,
                        start: span.start,
                        end: span.end,
                        task: Some(span.task),
                    },
                );
            } else {
                add(
                    &mut lanes,
                    span.node,
                    Segment {
                        kind: SegmentKind::Transfer,
                        start: span.start,
                        end: span.end.min(span.compute_start),
                        task: Some(span.task),
                    },
                );
                add(
                    &mut lanes,
                    span.node,
                    Segment {
                        kind: SegmentKind::Compute,
                        start: span.compute_start,
                        end: span.end,
                        task: Some(span.task),
                    },
                );
            }
            continue;
        }
        match *event {
            TraceEvent::NodeDown { node, t } => {
                *slot(&mut open_down, node as usize) = Some(t);
            }
            TraceEvent::NodeUp { node, since, t } => {
                *slot(&mut open_down, node as usize) = None;
                add(
                    &mut lanes,
                    node,
                    Segment {
                        kind: SegmentKind::Down,
                        start: since,
                        end: t,
                        task: None,
                    },
                );
            }
            // Attempt-terminal records were consumed by attempt_span
            // above; the rest do not produce Gantt segments.
            TraceEvent::BlockPlaced { .. }
            | TraceEvent::BlockRebalanced { .. }
            | TraceEvent::AttemptStarted { .. }
            | TraceEvent::SpeculativeLaunched { .. }
            | TraceEvent::TransferStarted { .. }
            | TraceEvent::TransferDone { .. }
            | TraceEvent::TransferAborted { .. }
            | TraceEvent::AttemptWon { .. }
            | TraceEvent::AttemptKilled { .. }
            | TraceEvent::AttemptCut { .. }
            | TraceEvent::TaskRequeued { .. }
            | TraceEvent::RecoverySpan { .. }
            | TraceEvent::JobSubmitted { .. }
            | TraceEvent::JobStarted { .. }
            | TraceEvent::JobCompleted { .. } => {}
            // Shuffle fetches occupy the destination reducer's lane.
            TraceEvent::ShuffleFetch {
                dest, start, end, ..
            } => {
                add(
                    &mut lanes,
                    dest,
                    Segment {
                        kind: SegmentKind::Transfer,
                        start,
                        end,
                        task: None,
                    },
                );
            }
            TraceEvent::ReduceStarted { .. } | TraceEvent::LinkContention { .. } => {}
        }
    }
    for i in 0..open_down.len() {
        if let Some(since) = slot(&mut open_down, i).take() {
            add(
                &mut lanes,
                i as u32,
                Segment {
                    kind: SegmentKind::Down,
                    start: since,
                    end: trace.meta.elapsed,
                    task: None,
                },
            );
        }
    }

    lanes
        .into_iter()
        .enumerate()
        .filter(|(_, segs)| !segs.is_empty())
        .map(|(node, mut segments)| {
            segments.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.end.total_cmp(&b.end)));
            NodeLane {
                node: node as u32,
                segments,
            }
        })
        .collect()
}

/// Per-kind event counts plus derived totals — the `trace summary`
/// document.
pub fn summarize(trace: &Trace) -> Value {
    let mut counts: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for event in &trace.events {
        *counts.entry(event.kind()).or_insert(0) += 1;
    }
    let mut by_kind = Value::object();
    for (kind, count) in counts {
        by_kind.insert(kind, count);
    }
    let mut v = Value::object();
    v.insert("derived", derive_totals(trace).to_value());
    v.insert("events", trace.events.len());
    v.insert("events_by_kind", by_kind);
    v.insert("meta", trace.meta.to_value());
    v
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::recorder::{TraceMeta, TraceRecorder};

    /// The engine-test scenario: one task on node 0, interrupted at t=5
    /// for 100 s (γ=12), restart at 105, done at 117.
    fn interruption_trace() -> Trace {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::BlockPlaced { block: 0, node: 0 });
        rec.record(TraceEvent::AttemptStarted {
            node: 0,
            task: 0,
            attempt: 0,
            local: true,
            source: None,
            t: 0.0,
            compute_start: 0.0,
        });
        rec.record(TraceEvent::AttemptKilled {
            node: 0,
            task: 0,
            attempt: 0,
            local: true,
            start: 0.0,
            compute_start: 0.0,
            end: 5.0,
            reason: KillCause::Interruption,
        });
        rec.record(TraceEvent::TaskRequeued { task: 0, t: 5.0 });
        rec.record(TraceEvent::NodeDown { node: 0, t: 5.0 });
        rec.record(TraceEvent::NodeUp {
            node: 0,
            since: 5.0,
            t: 105.0,
        });
        rec.record(TraceEvent::RecoverySpan {
            node: 0,
            start: 5.0,
            end: 105.0,
        });
        rec.record(TraceEvent::AttemptStarted {
            node: 0,
            task: 0,
            attempt: 1,
            local: true,
            source: None,
            t: 105.0,
            compute_start: 105.0,
        });
        rec.record(TraceEvent::AttemptWon {
            node: 0,
            task: 0,
            attempt: 1,
            local: true,
            start: 105.0,
            compute_start: 105.0,
            end: 117.0,
        });
        rec.record(TraceEvent::RecoverySpan {
            node: 0,
            start: 105.0,
            end: 105.0,
        });
        rec.finish(TraceMeta {
            nodes: 2,
            tasks: 1,
            gamma: 12.0,
            block_bytes: 64 << 20,
            seed: 5,
            elapsed: 117.0,
            completed: true,
        })
    }

    #[test]
    fn derive_totals_reproduces_figure5_buckets() {
        let totals = derive_totals(&interruption_trace());
        assert_eq!(totals.rework_us, 5_000_000);
        assert_eq!(totals.recovery_us, 100_000_000);
        assert_eq!(totals.migration_us, 0);
        assert_eq!(totals.elapsed_us, 117_000_000);
        assert_eq!(totals.attempts_started, 2);
        assert_eq!(totals.kills_interruption, 1);
        assert_eq!(totals.requeues, 1);
        assert_eq!(totals.interruptions, 1);
        // Node 1 idles the whole run; node 0 idles nothing (busy 5 + 12,
        // down 100): misc = 117 + 0 = 117 s.
        assert_eq!(totals.misc_us, 117_000_000);
    }

    #[test]
    fn critical_path_walks_through_the_outage() {
        let hops = critical_path(&interruption_trace());
        let kinds: Vec<HopKind> = hops.iter().map(|h| h.kind).collect();
        assert_eq!(
            kinds,
            vec![
                HopKind::Compute, // killed first attempt, 0..5
                HopKind::Outage,  // 5..105
                HopKind::Compute, // winning attempt, 105..117
            ],
            "{hops:?}"
        );
        assert_eq!(hops.last().map(|h| h.end), Some(117.0));
        assert_eq!(hops.first().map(|h| h.start), Some(0.0));
        // Chronological and contiguous.
        for w in hops.windows(2) {
            assert!(w[0].end <= w[1].start + 1e-9, "{hops:?}");
        }
    }

    #[test]
    fn critical_path_decomposes_remote_attempts() {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::TransferStarted {
            source: 0,
            dest: 1,
            task: 0,
            attempt: 0,
            bytes: 64,
            start: 0.0,
            end: 64.0,
        });
        rec.record(TraceEvent::AttemptStarted {
            node: 1,
            task: 0,
            attempt: 0,
            local: false,
            source: Some(0),
            t: 0.0,
            compute_start: 64.0,
        });
        rec.record(TraceEvent::TransferDone {
            source: 0,
            dest: 1,
            task: 0,
            attempt: 0,
            start: 0.0,
            end: 64.0,
        });
        rec.record(TraceEvent::AttemptWon {
            node: 1,
            task: 0,
            attempt: 0,
            local: false,
            start: 0.0,
            compute_start: 64.0,
            end: 76.0,
        });
        let trace = rec.finish(TraceMeta {
            nodes: 2,
            tasks: 1,
            gamma: 12.0,
            block_bytes: 64,
            seed: 1,
            elapsed: 76.0,
            completed: true,
        });
        let hops = critical_path(&trace);
        assert_eq!(hops.len(), 2, "{hops:?}");
        assert_eq!(hops[0].kind, HopKind::Transfer);
        assert!(hops[0].detail.contains("from node 0"), "{}", hops[0].detail);
        assert_eq!(hops[1].kind, HopKind::Compute);
        let totals = derive_totals(&trace);
        assert_eq!(totals.migration_us, 64_000_000);
    }

    #[test]
    fn critical_path_attributes_source_node_outages() {
        // Task 0's only replica lives on node 0, which is down 10..200.
        // Node 1 launches a remote fetch the instant the source recovers:
        // the gating wait is the *source* outage, not anything on node 1.
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::NodeDown { node: 0, t: 10.0 });
        rec.record(TraceEvent::NodeUp {
            node: 0,
            since: 10.0,
            t: 200.0,
        });
        rec.record(TraceEvent::TransferStarted {
            source: 0,
            dest: 1,
            task: 0,
            attempt: 0,
            bytes: 64,
            start: 200.0,
            end: 264.0,
        });
        rec.record(TraceEvent::AttemptStarted {
            node: 1,
            task: 0,
            attempt: 0,
            local: false,
            source: Some(0),
            t: 200.0,
            compute_start: 264.0,
        });
        rec.record(TraceEvent::TransferDone {
            source: 0,
            dest: 1,
            task: 0,
            attempt: 0,
            start: 200.0,
            end: 264.0,
        });
        rec.record(TraceEvent::AttemptWon {
            node: 1,
            task: 0,
            attempt: 0,
            local: false,
            start: 200.0,
            compute_start: 264.0,
            end: 276.0,
        });
        let trace = rec.finish(TraceMeta {
            nodes: 2,
            tasks: 1,
            gamma: 12.0,
            block_bytes: 64,
            seed: 1,
            elapsed: 276.0,
            completed: true,
        });
        let hops = critical_path(&trace);
        let kinds: Vec<HopKind> = hops.iter().map(|h| h.kind).collect();
        assert_eq!(
            kinds,
            vec![
                HopKind::Start,    // 0..10: slack before the source failed
                HopKind::Outage,   // 10..200 on the *source* node
                HopKind::Transfer, // 200..264
                HopKind::Compute,  // 264..276
            ],
            "{hops:?}"
        );
        assert_eq!(hops[1].node, Some(0), "outage charged to the source");
        assert_eq!(hops[1].start, 10.0);
        assert_eq!(hops[1].end, 200.0);
        assert!(
            hops[1].detail.contains("source node 0"),
            "{}",
            hops[1].detail
        );
    }

    #[test]
    fn gantt_builds_ordered_lanes() {
        let lanes = gantt(&interruption_trace());
        assert_eq!(lanes.len(), 1, "only node 0 has activity");
        assert_eq!(lanes[0].node, 0);
        let kinds: Vec<SegmentKind> = lanes[0].segments.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SegmentKind::Compute,
                SegmentKind::Down,
                SegmentKind::Compute
            ]
        );
        for w in lanes[0].segments.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
    }

    #[test]
    fn summarize_is_deterministic() {
        let trace = interruption_trace();
        let a = summarize(&trace).to_json();
        assert_eq!(a, summarize(&trace).to_json());
        assert!(a.contains("\"attempt_killed\":1"), "{a}");
        assert!(a.contains("\"rework_us\":5000000"), "{a}");
    }

    #[test]
    fn empty_trace_yields_empty_path_and_zero_totals() {
        let trace = TraceRecorder::new().finish(TraceMeta::default());
        assert!(critical_path(&trace).is_empty());
        assert!(gantt(&trace).is_empty());
        let totals = derive_totals(&trace);
        assert_eq!(totals.rework_us, 0);
        assert_eq!(totals.attempts_started, 0);
    }
}
