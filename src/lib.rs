//! # ADAPT — Availability-aware MapReduce data placement
//!
//! A faithful Rust reproduction of *ADAPT: Availability-aware MapReduce
//! Data Placement for Non-Dedicated Distributed Computing* (Jin, Yang,
//! Sun, Raicu — ICDCS 2012), including every substrate its evaluation
//! depends on: the stochastic availability model, an HDFS-model
//! distributed-filesystem layer with pluggable placement policies, a
//! discrete-event simulator of a Hadoop-like MapReduce runtime on
//! volatile hosts, synthetic SETI@home-style failure traces, and the
//! experiment harnesses that regenerate the paper's tables and figures.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`availability`] — distributions, M/G/1 interruption queues, and the
//!   task completion-time model (paper equations (2)–(5)).
//! * [`traces`] — FTA-style failure traces, synthetic generation, statistics.
//! * [`dfs`] — NameNode/DataNode block management and placement policies.
//! * [`core`] — the ADAPT algorithm: performance predictor + weighted
//!   hash-table placement (Algorithm 1) + baseline policies.
//! * [`sim`] — the discrete-event MapReduce simulator and its metrics.
//! * [`trace`] — deterministic per-event run tracing: structured spans
//!   for every attempt/transfer/outage, JSONL + Chrome `trace_event`
//!   export, critical-path and exact overhead re-derivation.
//! * [`experiments`] — per-table/figure harnesses.
//! * [`verify`] — the verification harness: a differential oracle
//!   (naive reference engine run lockstep against the optimized one),
//!   metamorphic model/placement properties, and a seeded scenario
//!   fuzzer with a shrinking reducer.
//!
//! # Quickstart
//!
//! ```
//! use adapt::availability::TaskModel;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A host interrupted every 100 s needing 20 s to recover runs a
//! // 12-second map task in ~15.2 s on expectation:
//! let host = TaskModel::new(0.01, 20.0, 12.0)?;
//! assert!(host.expected_completion() > 12.0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/experiments` for
//! the paper reproduction binaries.

pub use adapt_availability as availability;
pub use adapt_core as core;
pub use adapt_dfs as dfs;
pub use adapt_experiments as experiments;
pub use adapt_sim as sim;
pub use adapt_trace as trace;
pub use adapt_traces as traces;
pub use adapt_verify as verify;
