//! Chrome `trace_event` export (loadable in `about://tracing` and
//! Perfetto).
//!
//! Each simulated node becomes a thread (`tid` = node id) of a single
//! process; attempts, block transfers, outages, and recovery intervals
//! become complete (`"ph":"X"`) spans with integer-µs `ts`/`dur`, and
//! point events (speculation decisions, requeues, rebalances) become
//! instants (`"ph":"i"`). Output is built with the deterministic
//! [`Value`] serializer, so it is byte-stable for a fixed seed like every
//! other artifact in this workspace.

use adapt_telemetry::{micros, Value};

use crate::event::TraceEvent;
use crate::recorder::Trace;

/// One complete-span record.
fn span(name: &str, cat: &str, tid: u32, ts: u64, dur: u64, args: Value) -> Value {
    let mut v = Value::object();
    v.insert("args", args);
    v.insert("cat", cat);
    v.insert("dur", dur);
    v.insert("name", name);
    v.insert("ph", "X");
    v.insert("pid", 0u64);
    v.insert("tid", tid);
    v.insert("ts", ts);
    v
}

/// One thread-scoped instant record.
fn instant(name: &str, cat: &str, tid: u32, ts: u64, args: Value) -> Value {
    let mut v = Value::object();
    v.insert("args", args);
    v.insert("cat", cat);
    v.insert("name", name);
    v.insert("ph", "i");
    v.insert("pid", 0u64);
    v.insert("s", "t");
    v.insert("tid", tid);
    v.insert("ts", ts);
    v
}

fn attempt_args(task: u32, attempt: u64, local: bool, outcome: &str) -> Value {
    let mut args = Value::object();
    args.insert("attempt", attempt);
    args.insert("local", local);
    args.insert("outcome", outcome);
    args.insert("task", task);
    args
}

/// Renders the trace in Chrome `trace_event` JSON format.
pub fn write_chrome(trace: &Trace) -> String {
    let mut events: Vec<Value> = Vec::with_capacity(trace.events.len() + 8);
    let elapsed_us = micros(trace.meta.elapsed);
    // Outage starts not yet closed by a NodeUp, keyed by node id.
    let mut open_down: Vec<Option<u64>> = vec![None; trace.meta.nodes as usize + 1];

    for event in &trace.events {
        match *event {
            TraceEvent::BlockPlaced { block, node } => {
                let mut args = Value::object();
                args.insert("block", block);
                events.push(instant("block placed", "placement", node, 0, args));
            }
            TraceEvent::BlockRebalanced { block, from, to } => {
                let mut args = Value::object();
                args.insert("block", block);
                args.insert("from", from);
                events.push(instant("block rebalanced", "placement", to, 0, args));
            }
            TraceEvent::SpeculativeLaunched { node, task, t } => {
                let mut args = Value::object();
                args.insert("task", task);
                events.push(instant(
                    "speculative launch",
                    "sched",
                    node,
                    micros(t),
                    args,
                ));
            }
            TraceEvent::TaskRequeued { task, t } => {
                let mut args = Value::object();
                args.insert("task", task);
                // Requeues happen in the JobTracker, not on a node; pin
                // them to a synthetic control lane past the last node.
                events.push(instant(
                    "task requeued",
                    "sched",
                    trace.meta.nodes,
                    micros(t),
                    args,
                ));
            }
            TraceEvent::TransferDone {
                source,
                dest,
                task,
                attempt,
                start,
                end,
            } => {
                let mut args = attempt_args(task, attempt, false, "done");
                args.insert("source", source);
                let ts = micros(start);
                events.push(span(
                    "fetch",
                    "transfer",
                    dest,
                    ts,
                    micros(end).saturating_sub(ts),
                    args,
                ));
            }
            TraceEvent::TransferAborted {
                source,
                dest,
                task,
                attempt,
                start,
                end,
            } => {
                let mut args = attempt_args(task, attempt, false, "aborted");
                args.insert("source", source);
                let ts = micros(start);
                events.push(span(
                    "fetch",
                    "transfer",
                    dest,
                    ts,
                    micros(end).saturating_sub(ts),
                    args,
                ));
            }
            TraceEvent::AttemptWon {
                node,
                task,
                attempt,
                local,
                start,
                end,
                ..
            } => {
                let ts = micros(start);
                events.push(span(
                    "attempt",
                    "attempt",
                    node,
                    ts,
                    micros(end).saturating_sub(ts),
                    attempt_args(task, attempt, local, "won"),
                ));
            }
            TraceEvent::AttemptKilled {
                node,
                task,
                attempt,
                local,
                start,
                end,
                reason,
                ..
            } => {
                let ts = micros(start);
                events.push(span(
                    "attempt",
                    "attempt",
                    node,
                    ts,
                    micros(end).saturating_sub(ts),
                    attempt_args(task, attempt, local, reason.as_str()),
                ));
            }
            TraceEvent::AttemptCut {
                node,
                task,
                attempt,
                local,
                start,
                end,
                ..
            } => {
                let ts = micros(start);
                events.push(span(
                    "attempt",
                    "attempt",
                    node,
                    ts,
                    micros(end).saturating_sub(ts),
                    attempt_args(task, attempt, local, "cut"),
                ));
            }
            TraceEvent::NodeDown { node, t } => {
                if let Some(slot) = open_down.get_mut(node as usize) {
                    *slot = Some(micros(t));
                }
            }
            TraceEvent::NodeUp { node, since, t } => {
                if let Some(slot) = open_down.get_mut(node as usize) {
                    *slot = None;
                }
                let ts = micros(since);
                events.push(span(
                    "down",
                    "outage",
                    node,
                    ts,
                    micros(t).saturating_sub(ts),
                    Value::object(),
                ));
            }
            TraceEvent::RecoverySpan { node, start, end } => {
                let ts = micros(start);
                events.push(span(
                    "recovery",
                    "recovery",
                    node,
                    ts,
                    micros(end).saturating_sub(ts),
                    Value::object(),
                ));
            }
            TraceEvent::JobSubmitted { job, t } => {
                let mut args = Value::object();
                args.insert("job", job);
                // Job lifecycle happens in the tracker's control lane,
                // the same synthetic row requeues use.
                events.push(instant(
                    "job submitted",
                    "job",
                    trace.meta.nodes,
                    micros(t),
                    args,
                ));
            }
            TraceEvent::JobCompleted {
                job,
                completed,
                start,
                t,
            } => {
                let mut args = Value::object();
                args.insert("completed", completed);
                args.insert("job", job);
                let ts = micros(start);
                events.push(span(
                    "job",
                    "job",
                    trace.meta.nodes,
                    ts,
                    micros(t).saturating_sub(ts),
                    args,
                ));
            }
            TraceEvent::ReduceStarted {
                reducer,
                node,
                attempt,
                t,
            } => {
                let mut args = Value::object();
                args.insert("attempt", attempt);
                args.insert("reducer", reducer);
                events.push(instant("reduce started", "reduce", node, micros(t), args));
            }
            TraceEvent::ShuffleFetch {
                reducer,
                source,
                dest,
                task,
                bytes,
                start,
                end,
                aborted,
            } => {
                let mut args = Value::object();
                args.insert("aborted", aborted);
                args.insert("bytes", bytes);
                args.insert("reducer", reducer);
                args.insert("source", source);
                args.insert("task", task);
                let ts = micros(start);
                events.push(span(
                    "shuffle fetch",
                    "shuffle",
                    dest,
                    ts,
                    micros(end).saturating_sub(ts),
                    args,
                ));
            }
            TraceEvent::LinkContention { rack, streams, t } => {
                let mut args = Value::object();
                args.insert("rack", rack);
                args.insert("streams", streams);
                // Link contention is a fabric-level observation, not tied
                // to a node; pin it to the tracker's control lane.
                events.push(instant(
                    "link contention",
                    "network",
                    trace.meta.nodes,
                    micros(t),
                    args,
                ));
            }
            // Started transfers are rendered when they resolve (every
            // TransferStarted is matched by a Done/Aborted record);
            // AttemptStarted likewise resolves to Won/Killed/Cut, and
            // JobStarted resolves to its JobCompleted span.
            TraceEvent::TransferStarted { .. }
            | TraceEvent::AttemptStarted { .. }
            | TraceEvent::JobStarted { .. } => {}
        }
    }
    // Outages still open at the end of the run.
    for (node, slot) in open_down.iter().enumerate() {
        if let Some(ts) = *slot {
            events.push(span(
                "down",
                "outage",
                node as u32,
                ts,
                elapsed_us.saturating_sub(ts),
                Value::object(),
            ));
        }
    }

    let mut doc = Value::object();
    doc.insert("displayTimeUnit", "ms");
    doc.insert("otherData", trace.meta.to_value());
    doc.insert("traceEvents", Value::Array(events));
    doc.to_json_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::KillCause;
    use crate::recorder::{TraceMeta, TraceRecorder};

    #[test]
    fn renders_spans_instants_and_open_outages() {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::AttemptWon {
            node: 0,
            task: 3,
            attempt: 0,
            local: true,
            start: 1.0,
            compute_start: 1.0,
            end: 13.0,
        });
        rec.record(TraceEvent::AttemptKilled {
            node: 1,
            task: 4,
            attempt: 0,
            local: false,
            start: 0.0,
            compute_start: 2.0,
            end: 1.5,
            reason: KillCause::Interruption,
        });
        rec.record(TraceEvent::NodeDown { node: 1, t: 1.5 });
        let trace = rec.finish(TraceMeta {
            nodes: 2,
            tasks: 5,
            gamma: 12.0,
            block_bytes: 1,
            seed: 0,
            elapsed: 20.0,
            completed: false,
        });
        let out = write_chrome(&trace);
        assert!(out.contains("\"ph\": \"X\""), "{out}");
        assert!(out.contains("\"outcome\": \"won\""), "{out}");
        assert!(out.contains("\"outcome\": \"interruption\""), "{out}");
        // Unclosed outage runs to the 20 s cut: dur = 18.5 s.
        assert!(out.contains("\"dur\": 18500000"), "{out}");
        assert_eq!(out, write_chrome(&trace), "byte-stable");
    }
}
