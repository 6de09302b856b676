//! `adapt-trace`: deterministic event tracing for the ADAPT evaluation
//! substrate.
//!
//! Aggregate telemetry (`adapt-telemetry` counters and run reports) says
//! *how much* a run cost; this crate records *why*: every attempt,
//! block transfer, outage, placement decision, and requeue becomes a
//! structured [`TraceEvent`] appended to a [`TraceRecorder`] as the run
//! executes. On top of the sealed [`Trace`] sit:
//!
//! - [`jsonl`] — deterministic JSONL serialization (byte-identical for a
//!   fixed seed; CI diffs two runs' files) and the parser reading it back
//!   losslessly;
//! - [`chrome`] — Chrome `trace_event` export, loadable in
//!   `about://tracing` or Perfetto;
//! - [`analysis`] — [`derive_totals`] re-deriving the engine's Figure-5
//!   overhead decomposition (rework/recovery/migration/misc) *exactly*
//!   from events alone, [`critical_path`] walking the winning-attempt
//!   dependency chain back to t = 0, and [`gantt`] per-node timelines.
//!
//! # Determinism
//!
//! Nothing here reads wall-clock time, draws entropy, or iterates an
//! unordered map; events carry *simulated* time only, as the exact `f64`
//! seconds the emitter computed with (integer-µs views derive via
//! [`adapt_telemetry::micros`], the telemetry counters' quantization).
//! The recorder is single-owner append — the vector
//! index is the `(time, seq)` tie-breaker — so a fixed seed yields a
//! byte-identical trace file.
//!
//! Identifiers are raw integers (`u32` nodes/tasks, `u64` blocks), the
//! same values the `adapt-dfs` newtypes wrap, so every workspace layer
//! can emit events without a dependency cycle.

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod analysis;
pub mod chrome;
pub mod event;
pub mod jsonl;
pub mod recorder;

pub use analysis::{
    critical_path, derive_totals, gantt, summarize, DerivedTotals, HopKind, NodeLane, PathHop,
    Segment, SegmentKind,
};
pub use chrome::write_chrome;
pub use event::{KillCause, TraceEvent};
pub use jsonl::{parse_jsonl, parse_value, write_jsonl, TraceError};
pub use recorder::{Trace, TraceMeta, TraceRecorder, FORMAT_TAG};
