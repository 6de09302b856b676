//! Stochastic availability modeling for non-dedicated hosts.
//!
//! This crate is the mathematical foundation of the ADAPT reproduction
//! (Jin, Yang, Sun, Raicu — *ADAPT: Availability-aware MapReduce Data
//! Placement for Non-Dedicated Distributed Computing*, ICDCS 2012).
//! It provides:
//!
//! * [`dist`] — samplable probability distributions with analytic moments
//!   (exponential, Weibull, log-normal, Pareto, gamma, uniform,
//!   deterministic). These are implemented from scratch because the ADAPT
//!   model needs them in analytic form (means, variances, coefficients of
//!   variation), not merely as samplers.
//! * [`mg1`] — M/G/1 queue quantities. The paper models each host as an
//!   M/G/1 queue whose "customers" are interruptions: Poisson arrivals with
//!   rate `λ = 1/MTBI` and generally-distributed recovery times with mean
//!   `μ`, served FCFS (overlapping interruptions queue up).
//! * [`task_model`] — the paper's equations (2)–(5): the expected time to
//!   complete a map task of failure-free length `γ` on a host with
//!   interruption parameters `(λ, μ)`.
//! * [`estimator`] — online estimation of `(λ, μ)` from heartbeat-style
//!   observations, mirroring the Performance Predictor's input path on the
//!   NameNode.
//! * [`moments`] — streaming mean/variance/CoV accumulators used by every
//!   statistics-reporting component (Table 1 of the paper, experiment
//!   outputs).
//!
//! # Quick example
//!
//! Predict how long a 12-second map task takes on a host that is
//! interrupted every 100 s on average and needs 20 s to recover:
//!
//! ```
//! use adapt_availability::task_model::TaskModel;
//!
//! # fn main() -> Result<(), adapt_availability::AvailabilityError> {
//! let model = TaskModel::new(1.0 / 100.0, 20.0, 12.0)?;
//! let expected = model.expected_completion();
//! assert!(expected > 12.0); // interruptions only ever slow a task down
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
#![cfg_attr(not(test), deny(clippy::as_conversions))]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod estimator;
pub mod mg1;
pub mod moments;
pub mod num;
pub mod task_model;

mod error;

pub use error::AvailabilityError;
pub use moments::Moments;
pub use task_model::{Availability, TaskModel};
