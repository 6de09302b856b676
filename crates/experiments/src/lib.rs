//! Experiment harnesses regenerating every table and figure of the ADAPT
//! paper (ICDCS 2012).
//!
//! | Paper artifact | Module / binary |
//! |---|---|
//! | Table 1 (SETI@home statistics) | [`table1`], `cargo run --bin table1` |
//! | Table 2 (interrupted-node groups) | [`config::InterruptionGroup`] |
//! | Table 3 (emulation defaults) | [`config::EmulatedConfig`] |
//! | Table 4 (simulation defaults) | [`config::LargeScaleConfig`] |
//! | Figure 3 (elapsed time, 3 sweeps) | [`emulated`], `cargo run --bin fig3` |
//! | Figure 4 (data locality, 3 sweeps) | [`emulated`], `cargo run --bin fig4` |
//! | Figure 5 (overhead decomposition, 3 sweeps) | [`largescale`], `cargo run --bin fig5` |
//!
//! Every harness is deterministic under a given base seed and reports
//! means over a configurable number of runs (the paper uses 10).
//!
//! # Scale note
//!
//! The binaries default to reduced scale (fewer nodes/runs than the
//! paper) so they complete in minutes on a laptop; pass `--paper` for the
//! paper's full parameters. `EXPERIMENTS.md` in the repository root
//! records measured-vs-paper numbers for both scales.

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod cli;
pub mod config;
pub mod emulated;
pub mod jobstream;
pub mod largescale;
pub mod parallel;
pub mod policies;
pub mod report;
pub mod run_report;
pub mod shuffle;
pub mod table1;

mod error;

pub use config::{EmulatedConfig, InterruptionGroup, LargeScaleConfig};
pub use error::ExperimentError;
pub use policies::PolicyKind;
