//! Deterministic JSONL serialization of a [`Trace`], and the parser that
//! reads it back.
//!
//! Line 1 is the [`TraceMeta`] header (tagged `"format":"adapt-trace/1"`);
//! every following line is one event object with its sequence number. The
//! writer reuses `adapt-telemetry`'s deterministic [`Value`] serializer —
//! sorted keys, shortest-roundtrip floats — so a fixed seed produces a
//! byte-identical file, which the CI trace-determinism job enforces with
//! a plain byte diff.
//!
//! Timestamps are written as the exact `f64` seconds the engine computed
//! with (shortest-roundtrip formatting parses back to the identical bits),
//! so [`derive_totals`](crate::analysis::derive_totals) on a re-parsed
//! trace still reproduces the engine's overhead accounting exactly.

use std::fmt;

use adapt_telemetry::Value;

use crate::event::{KillCause, TraceEvent};
use crate::recorder::{Trace, TraceMeta, FORMAT_TAG};

/// A malformed trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    /// 1-based line of the offending record (0 for whole-file errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceError {}

/// Serializes a trace to JSONL (header line, then one event per line).
pub fn write_jsonl(trace: &Trace) -> String {
    // Events are short flat objects; 160 bytes/line is a comfortable fit.
    let mut out = String::with_capacity(64 + trace.events.len() * 160);
    out.push_str(&trace.meta.to_value().to_json());
    out.push('\n');
    for (seq, event) in trace.events.iter().enumerate() {
        let mut v = event.to_value();
        v.insert("seq", seq);
        out.push_str(&v.to_json());
        out.push('\n');
    }
    out
}

/// Parses a JSONL trace produced by [`write_jsonl`].
///
/// # Errors
///
/// Returns [`TraceError`] on malformed JSON, a missing/foreign format
/// tag, or records with missing or mistyped fields.
pub fn parse_jsonl(input: &str) -> Result<Trace, TraceError> {
    let mut lines = input.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(TraceError {
            line: 0,
            message: "empty trace file".into(),
        });
    };
    let header = parse_value(header).map_err(|message| TraceError { line: 1, message })?;
    let meta = meta_from_value(&header).map_err(|message| TraceError { line: 1, message })?;

    let mut events = Vec::new();
    for (idx, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let v = parse_value(line).map_err(|message| TraceError {
            line: lineno,
            message,
        })?;
        let event = event_from_value(&v).map_err(|message| TraceError {
            line: lineno,
            message,
        })?;
        events.push(event);
    }
    Ok(Trace { meta, events })
}

// ---------------------------------------------------------------------
// Record decoding
// ---------------------------------------------------------------------

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

#[expect(clippy::wildcard_enum_match_arm, reason = "any other type is an error")]
fn get_u64(v: &Value, key: &str) -> Result<u64, String> {
    match get(v, key)? {
        Value::U64(n) => Ok(*n),
        other => Err(format!(
            "field `{key}` is not an unsigned integer: {other:?}"
        )),
    }
}

fn get_u32(v: &Value, key: &str) -> Result<u32, String> {
    let n = get_u64(v, key)?;
    u32::try_from(n).map_err(|_| format!("field `{key}` exceeds u32: {n}"))
}

#[expect(clippy::wildcard_enum_match_arm, reason = "any other type is an error")]
fn get_f64(v: &Value, key: &str) -> Result<f64, String> {
    match get(v, key)? {
        Value::F64(x) => Ok(*x),
        Value::U64(n) => Ok(*n as f64),
        Value::I64(n) => Ok(*n as f64),
        other => Err(format!("field `{key}` is not a number: {other:?}")),
    }
}

#[expect(clippy::wildcard_enum_match_arm, reason = "any other type is an error")]
fn get_bool(v: &Value, key: &str) -> Result<bool, String> {
    match get(v, key)? {
        Value::Bool(b) => Ok(*b),
        other => Err(format!("field `{key}` is not a bool: {other:?}")),
    }
}

#[expect(clippy::wildcard_enum_match_arm, reason = "any other type is an error")]
fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match get(v, key)? {
        Value::Str(s) => Ok(s),
        other => Err(format!("field `{key}` is not a string: {other:?}")),
    }
}

fn opt_u32(v: &Value, key: &str) -> Result<Option<u32>, String> {
    match v.get(key) {
        None => Ok(None),
        Some(Value::U64(n)) => u32::try_from(*n)
            .map(Some)
            .map_err(|_| format!("field `{key}` exceeds u32: {n}")),
        Some(other) => Err(format!(
            "field `{key}` is not an unsigned integer: {other:?}"
        )),
    }
}

fn meta_from_value(v: &Value) -> Result<TraceMeta, String> {
    let format = get_str(v, "format")?;
    if format != FORMAT_TAG {
        return Err(format!(
            "unsupported format `{format}` (want `{FORMAT_TAG}`)"
        ));
    }
    Ok(TraceMeta {
        nodes: get_u32(v, "nodes")?,
        tasks: get_u32(v, "tasks")?,
        gamma: get_f64(v, "gamma")?,
        block_bytes: get_u64(v, "block_bytes")?,
        seed: get_u64(v, "seed")?,
        elapsed: get_f64(v, "elapsed")?,
        completed: get_bool(v, "completed")?,
    })
}

fn event_from_value(v: &Value) -> Result<TraceEvent, String> {
    let kind = get_str(v, "kind")?;
    Ok(match kind {
        "block_placed" => TraceEvent::BlockPlaced {
            block: get_u64(v, "block")?,
            node: get_u32(v, "node")?,
        },
        "block_rebalanced" => TraceEvent::BlockRebalanced {
            block: get_u64(v, "block")?,
            from: get_u32(v, "from")?,
            to: get_u32(v, "to")?,
        },
        "attempt_started" => TraceEvent::AttemptStarted {
            node: get_u32(v, "node")?,
            task: get_u32(v, "task")?,
            attempt: get_u64(v, "attempt")?,
            local: get_bool(v, "local")?,
            source: opt_u32(v, "source")?,
            t: get_f64(v, "t")?,
            compute_start: get_f64(v, "compute_start")?,
        },
        "speculative_launched" => TraceEvent::SpeculativeLaunched {
            node: get_u32(v, "node")?,
            task: get_u32(v, "task")?,
            t: get_f64(v, "t")?,
        },
        "transfer_started" => TraceEvent::TransferStarted {
            source: get_u32(v, "source")?,
            dest: get_u32(v, "dest")?,
            task: get_u32(v, "task")?,
            attempt: get_u64(v, "attempt")?,
            bytes: get_u64(v, "bytes")?,
            start: get_f64(v, "start")?,
            end: get_f64(v, "end")?,
        },
        "transfer_done" | "transfer_aborted" => {
            let source = get_u32(v, "source")?;
            let dest = get_u32(v, "dest")?;
            let task = get_u32(v, "task")?;
            let attempt = get_u64(v, "attempt")?;
            let start = get_f64(v, "start")?;
            let end = get_f64(v, "end")?;
            if kind == "transfer_done" {
                TraceEvent::TransferDone {
                    source,
                    dest,
                    task,
                    attempt,
                    start,
                    end,
                }
            } else {
                TraceEvent::TransferAborted {
                    source,
                    dest,
                    task,
                    attempt,
                    start,
                    end,
                }
            }
        }
        "attempt_won" | "attempt_cut" => {
            let node = get_u32(v, "node")?;
            let task = get_u32(v, "task")?;
            let attempt = get_u64(v, "attempt")?;
            let local = get_bool(v, "local")?;
            let start = get_f64(v, "start")?;
            let compute_start = get_f64(v, "compute_start")?;
            let end = get_f64(v, "end")?;
            if kind == "attempt_won" {
                TraceEvent::AttemptWon {
                    node,
                    task,
                    attempt,
                    local,
                    start,
                    compute_start,
                    end,
                }
            } else {
                TraceEvent::AttemptCut {
                    node,
                    task,
                    attempt,
                    local,
                    start,
                    compute_start,
                    end,
                }
            }
        }
        "attempt_killed" => {
            let reason = get_str(v, "reason")?;
            let reason = KillCause::from_str_opt(reason)
                .ok_or_else(|| format!("unknown kill reason `{reason}`"))?;
            TraceEvent::AttemptKilled {
                node: get_u32(v, "node")?,
                task: get_u32(v, "task")?,
                attempt: get_u64(v, "attempt")?,
                local: get_bool(v, "local")?,
                start: get_f64(v, "start")?,
                compute_start: get_f64(v, "compute_start")?,
                end: get_f64(v, "end")?,
                reason,
            }
        }
        "node_down" => TraceEvent::NodeDown {
            node: get_u32(v, "node")?,
            t: get_f64(v, "t")?,
        },
        "node_up" => TraceEvent::NodeUp {
            node: get_u32(v, "node")?,
            since: get_f64(v, "since")?,
            t: get_f64(v, "t")?,
        },
        "task_requeued" => TraceEvent::TaskRequeued {
            task: get_u32(v, "task")?,
            t: get_f64(v, "t")?,
        },
        "recovery_span" => TraceEvent::RecoverySpan {
            node: get_u32(v, "node")?,
            start: get_f64(v, "start")?,
            end: get_f64(v, "end")?,
        },
        "job_submitted" => TraceEvent::JobSubmitted {
            job: get_u32(v, "job")?,
            t: get_f64(v, "t")?,
        },
        "job_started" => TraceEvent::JobStarted {
            job: get_u32(v, "job")?,
            nodes: get_u32(v, "nodes")?,
            tasks: get_u32(v, "tasks")?,
            t: get_f64(v, "t")?,
        },
        "job_completed" => TraceEvent::JobCompleted {
            job: get_u32(v, "job")?,
            completed: get_bool(v, "completed")?,
            start: get_f64(v, "start")?,
            t: get_f64(v, "t")?,
        },
        "reduce_started" => TraceEvent::ReduceStarted {
            reducer: get_u32(v, "reducer")?,
            node: get_u32(v, "node")?,
            attempt: get_u64(v, "attempt")?,
            t: get_f64(v, "t")?,
        },
        "shuffle_fetch" => TraceEvent::ShuffleFetch {
            reducer: get_u32(v, "reducer")?,
            source: get_u32(v, "source")?,
            dest: get_u32(v, "dest")?,
            task: get_u32(v, "task")?,
            bytes: get_u64(v, "bytes")?,
            start: get_f64(v, "start")?,
            end: get_f64(v, "end")?,
            aborted: get_bool(v, "aborted")?,
        },
        "link_contention" => TraceEvent::LinkContention {
            rack: get_u32(v, "rack")?,
            streams: get_u32(v, "streams")?,
            t: get_f64(v, "t")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

// ---------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------

// The recursive-descent parser moved to `adapt_telemetry::json` so the
// workspace carries exactly one JSON implementation (writer + reader);
// the re-export keeps existing `adapt_trace::parse_value` callers
// working unchanged.
pub use adapt_telemetry::json::parse_value;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceRecorder;

    fn sample() -> Trace {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::BlockPlaced { block: 0, node: 1 });
        rec.record(TraceEvent::AttemptStarted {
            node: 1,
            task: 0,
            attempt: 0,
            local: true,
            source: None,
            t: 0.0,
            compute_start: 0.0,
        });
        rec.record(TraceEvent::NodeDown { node: 1, t: 5.0 });
        rec.record(TraceEvent::AttemptKilled {
            node: 1,
            task: 0,
            attempt: 0,
            local: true,
            start: 0.0,
            compute_start: 0.0,
            end: 5.0,
            reason: KillCause::Interruption,
        });
        rec.record(TraceEvent::TaskRequeued { task: 0, t: 5.0 });
        rec.record(TraceEvent::NodeUp {
            node: 1,
            since: 5.0,
            t: 105.0,
        });
        rec.record(TraceEvent::RecoverySpan {
            node: 1,
            start: 5.0,
            end: 105.0,
        });
        rec.record(TraceEvent::AttemptWon {
            node: 1,
            task: 0,
            attempt: 1,
            local: true,
            start: 105.0,
            compute_start: 105.0,
            end: 117.0,
        });
        rec.finish(TraceMeta {
            nodes: 2,
            tasks: 1,
            gamma: 12.0,
            block_bytes: 64 << 20,
            seed: u64::MAX - 3,
            elapsed: 117.0,
            completed: true,
        })
    }

    #[test]
    fn round_trips_exactly() {
        let trace = sample();
        let text = write_jsonl(&trace);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // Byte-stability: re-serializing the parsed trace is identical.
        assert_eq!(write_jsonl(&back), text);
    }

    #[test]
    fn job_lifecycle_events_round_trip() {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::JobSubmitted { job: 0, t: 1.5 });
        rec.record(TraceEvent::JobStarted {
            job: 0,
            nodes: 4,
            tasks: 9,
            t: 1.5,
        });
        rec.record(TraceEvent::JobCompleted {
            job: 0,
            completed: false,
            start: 1.5,
            t: 88.25,
        });
        let trace = rec.finish(TraceMeta {
            nodes: 4,
            tasks: 9,
            gamma: 12.0,
            block_bytes: 64 << 20,
            seed: 2012,
            elapsed: 88.25,
            completed: false,
        });
        let text = write_jsonl(&trace);
        assert!(text.contains("\"kind\":\"job_started\""), "{text}");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(write_jsonl(&back), text);
        // The completed-job record is a span from admission to release.
        assert_eq!(trace.events[2].start_us(), 1_500_000);
        assert_eq!(trace.events[2].end_us(), 88_250_000);
    }

    #[test]
    fn reduce_phase_events_round_trip() {
        let mut rec = TraceRecorder::new();
        rec.record(TraceEvent::ReduceStarted {
            reducer: 2,
            node: 5,
            attempt: 0,
            t: 0.0,
        });
        rec.record(TraceEvent::LinkContention {
            rack: 1,
            streams: 3,
            t: 0.0,
        });
        rec.record(TraceEvent::ShuffleFetch {
            reducer: 2,
            source: 0,
            dest: 5,
            task: 7,
            bytes: 8 << 20,
            start: 0.0,
            end: 24.5,
            aborted: false,
        });
        rec.record(TraceEvent::ShuffleFetch {
            reducer: 2,
            source: 1,
            dest: 5,
            task: 8,
            bytes: 8 << 20,
            start: 24.5,
            end: 30.0,
            aborted: true,
        });
        let trace = rec.finish(TraceMeta::default());
        let text = write_jsonl(&trace);
        assert!(text.contains("\"kind\":\"reduce_started\""), "{text}");
        assert!(text.contains("\"kind\":\"shuffle_fetch\""), "{text}");
        assert!(text.contains("\"kind\":\"link_contention\""), "{text}");
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(write_jsonl(&back), text);
        // The fetch is a span; the contention record is an instant.
        assert_eq!(trace.events[2].start_us(), 0);
        assert_eq!(trace.events[2].end_us(), 24_500_000);
        assert_eq!(trace.events[1].start_us(), trace.events[1].end_us());
    }

    #[test]
    fn large_seeds_survive_parsing() {
        let trace = sample();
        let back = parse_jsonl(&write_jsonl(&trace)).unwrap();
        assert_eq!(back.meta.seed, u64::MAX - 3);
    }

    #[test]
    fn exact_float_times_survive_parsing() {
        let mut rec = TraceRecorder::new();
        let t = 0.1f64 + 0.2f64; // famously not 0.3
        rec.record(TraceEvent::NodeDown { node: 0, t });
        let trace = rec.finish(TraceMeta::default());
        let back = parse_jsonl(&write_jsonl(&trace)).unwrap();
        match back.events.first() {
            Some(TraceEvent::NodeDown { t: parsed, .. }) => {
                assert_eq!(parsed.to_bits(), t.to_bits());
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn rejects_foreign_formats_and_garbage() {
        assert!(parse_jsonl("").is_err());
        assert!(parse_jsonl("{\"format\":\"other/9\"}\n").is_err());
        let mut ok = write_jsonl(&sample());
        ok.push_str("{\"kind\":\"mystery\"}\n");
        let err = parse_jsonl(&ok).unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
        assert!(err.line > 1);
    }

    #[test]
    fn deep_nesting_is_a_typed_error_on_any_line() {
        let text = write_jsonl(&sample());
        let header = text.lines().next().unwrap();
        for open in ["[", "{\"a\":"] {
            let deep = open.repeat(100_000);
            let err = parse_jsonl(&deep).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.message.contains("nesting deeper than"), "{err}");
            let err = parse_jsonl(&format!("{header}\n{deep}\n")).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
    }

    #[test]
    fn parse_value_reexport_reads_trace_lines() {
        // The shared telemetry parser stays reachable under the old name.
        let v = parse_value(r#"{"kind":"node_down","node":3,"t":5.5}"#).unwrap();
        assert_eq!(
            event_from_value(&v),
            Ok(TraceEvent::NodeDown { node: 3, t: 5.5 })
        );
    }
}
