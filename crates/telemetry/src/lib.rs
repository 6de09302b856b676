//! `adapt-telemetry`: workspace-wide observability primitives.
//!
//! The crate provides three layers, kept deliberately small so every other
//! crate in the workspace can embed them without pulling in dependencies:
//!
//! - [`metrics`] — [`micros`], the one seconds→microseconds
//!   conversion, and [`HistogramSnapshot`] (65 fixed log2 buckets
//!   covering the full `u64` range, inline — recording never allocates).
//! - [`json`] — a tiny JSON value model whose serializer is
//!   deterministic: object keys are stored in a `BTreeMap` and emitted in
//!   sorted order, numbers use Rust's shortest-roundtrip formatting, and
//!   there is no configuration that could change byte output between
//!   runs — plus the matching lossless parser ([`parse_value`]) every
//!   artifact reader in the workspace (traces, bench reports, metrics
//!   series) shares, so there is one JSON implementation to audit.
//! - [`report`] — [`RunReport`], the top-level document experiment
//!   binaries write via `--report-json`. Reports carry *simulated* time
//!   and counters only; no wall-clock timestamps, hostnames, paths, or
//!   other environment-dependent fields are ever included, so a fixed
//!   seed produces byte-identical report files on every machine. The
//!   experiments crate's `baselines` test relies on this: it diffs a
//!   fresh report against a checked-in baseline byte for byte.
//!
//! Each component (the sim engine, the NameNode, the ADAPT policy) owns
//! one `*TelemetrySnapshot` struct of plain integers and updates it in
//! place as it runs; a run is single-threaded, so nothing is atomic.
//! Engine snapshots [`merge`] pairwise, so parallel runs aggregate
//! exactly in input order.
//!
//! [`micros`]: metrics::micros
//! [`HistogramSnapshot`]: metrics::HistogramSnapshot
//! [`RunReport`]: report::RunReport
//! [`merge`]: metrics::HistogramSnapshot::merge

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod json;
pub mod metrics;
pub mod report;

pub use json::{parse_value, Value, MAX_JSON_DEPTH};
pub use metrics::{micros, HistogramSnapshot};
pub use report::RunReport;
