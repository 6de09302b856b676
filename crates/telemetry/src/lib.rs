//! `adapt-telemetry`: workspace-wide observability primitives.
//!
//! The crate provides three layers, kept deliberately small so every other
//! crate in the workspace can embed them without pulling in dependencies:
//!
//! - [`metrics`] — lock-free instruments for hot paths: [`Counter`]
//!   (relaxed atomic add), [`HighWater`] (atomic max), [`SecondsAccum`]
//!   (simulated-time accumulation in integer microseconds, so merging is
//!   exact and order-independent), and [`Histogram`] (65 fixed log2
//!   buckets covering the full `u64` range, preallocated — recording is
//!   two relaxed atomic adds and never allocates).
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
//! Instruments are embedded per component (the sim engine, the NameNode,
//! the predictor) rather than registered globally; each component exposes
//! a cheap `snapshot()` of plain integers, and snapshots [`merge`] pairwise
//! so parallel runs aggregate deterministically in input order.
//!
//! [`Counter`]: metrics::Counter
//! [`HighWater`]: metrics::HighWater
//! [`SecondsAccum`]: metrics::SecondsAccum
//! [`Histogram`]: metrics::Histogram
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

pub use json::{parse_value, Value};
pub use metrics::{Counter, HighWater, Histogram, HistogramSnapshot, SecondsAccum};
pub use report::RunReport;
