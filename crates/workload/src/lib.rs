//! Trace-shaped MapReduce job-stream generation for the multi-job
//! evaluation of ADAPT.
//!
//! The paper evaluates placement for a *single* job on an otherwise idle
//! cluster; the multi-tenant extension (DESIGN.md §14) needs a stream of
//! jobs competing for slots. This crate produces that stream:
//!
//! * [`spec`] — [`JobSpec`], the minimal description of one job the
//!   `adapt-sim` JobTracker admits: arrival time, map-task count, and a
//!   scheduling priority.
//! * [`model`] — arrival processes ([`ArrivalModel`]: Poisson, or a
//!   bursty two-phase modulated process) and job-size laws
//!   ([`SizeModel`]: fixed, uniform, or bounded-Pareto heavy tail, the
//!   shape production MapReduce traces show).
//! * [`generator`] — [`generate`], a *pure function of
//!   `(config, seed)`*: the same inputs always yield the same job list,
//!   so every downstream report and CI baseline stays byte-stable.
//! * [`fb`] — a parser for the SWIM FB-2010 workload-trace TSV format
//!   (the `FB-2010_samples_24_times_1hr_0.tsv` shape), plus moment
//!   calibration that fits an [`ArrivalModel`]/[`SizeModel`] pair to a
//!   parsed trace.
//!
//! # Example
//!
//! ```
//! use adapt_workload::{generate, ArrivalModel, SizeModel, WorkloadConfig};
//!
//! let cfg = WorkloadConfig {
//!     jobs: 8,
//!     arrival: ArrivalModel::Poisson { mean_gap: 30.0 },
//!     size: SizeModel::BoundedPareto { alpha: 1.25, min_tasks: 1, max_tasks: 200 },
//!     priority_levels: 2,
//! };
//! let jobs = generate(&cfg, 42).unwrap();
//! assert_eq!(jobs.len(), 8);
//! assert_eq!(jobs, generate(&cfg, 42).unwrap()); // pure function of the seed
//! ```

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_debug_implementations)]

mod error;

pub mod fb;
pub mod generator;
pub mod model;
pub mod spec;

pub use error::WorkloadError;
pub use fb::{calibrate, parse_tsv, to_tsv, trace_to_jobs, FbTraceRow};
pub use generator::{generate, WorkloadConfig};
pub use model::{ArrivalModel, SizeModel};
pub use spec::JobSpec;
