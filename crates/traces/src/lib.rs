//! Failure-trace handling for non-dedicated distributed computing.
//!
//! The large-scale evaluation of ADAPT (paper Section V-C) drives its
//! discrete-event simulator with host availability traces collected from
//! SETI@home via the Failure Trace Archive: 226 208 hosts over 1.5 years,
//! of which 16 384 are sampled per run. Those traces are proprietary data
//! we do not have, so this crate provides (per the reproduction's
//! substitution rule):
//!
//! * [`record`] — the trace data model: per-host interruption records with
//!   validated invariants (time-ordered, non-overlapping).
//! * [`synthetic`] — a calibrated synthetic population generator that
//!   reproduces the *statistics the paper reports* about the SETI@home
//!   data (Table 1: MTBI mean 160 290 s with CoV 4.376, interruption
//!   duration mean 109 380 s with CoV 7.387), using heavy-tailed per-host
//!   profiles.
//! * [`fta`] — a plain-text event-trace format reader/writer so real
//!   Failure Trace Archive exports can be converted and dropped in.
//! * [`stats`] — pooled population statistics (regenerates Table 1).
//! * [`replay`] — conversion from host traces to the interruption
//!   schedules the simulator consumes.
//!
//! # Example
//!
//! Generate a small SETI@home-like population and summarize it:
//!
//! ```
//! use adapt_traces::synthetic::SyntheticPopulation;
//! use adapt_traces::stats::summarize;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = SyntheticPopulation::seti_like()?
//!     .hosts(200)
//!     .observation_window(30.0 * 86_400.0)
//!     .generate(42)?;
//! let summary = summarize(&trace);
//! assert!(summary.mtbi.count() > 0);
//! # Ok(())
//! # }
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

pub mod fta;
pub mod record;
pub mod replay;
pub mod stats;
pub mod synthetic;

mod error;

pub use error::TraceError;
pub use record::{HostId, HostTrace, Interruption, Trace};
