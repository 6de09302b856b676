//! Verification harness for the ADAPT reproduction: a differential
//! oracle, metamorphic properties, and a seeded scenario fuzzer.
//!
//! The optimized simulation engine ([`adapt_sim::MapPhaseSim`]) carries
//! a strong contract: swapping in the flat data structures of
//! `adapt-ds`, the pooled event queue, and the availability-aware fast
//! paths must change *no observable behaviour*. This crate checks that
//! contract three independent ways:
//!
//! * **Differential oracle** ([`mod@reference`], [`oracle`]) — a
//!   deliberately naive second implementation of the engine (plain
//!   `BTreeSet`s, a linear-scan event queue, no pooling) is run in
//!   lockstep with the optimized engine on generated scenarios, and
//!   every output — aggregate report, per-node stats, speculation
//!   winners, telemetry snapshot, full event trace — must be identical.
//! * **Metamorphic properties** ([`metamorphic`]) — relations the
//!   mathematics guarantees without a second implementation:
//!   Monte-Carlo estimates of E\[T\] bracket equation (5), ADAPT's
//!   normalized weights are invariant under uniform time scaling and
//!   equivariant under node relabeling, and the paper's `⌈m(k+1)/n⌉`
//!   threshold cap holds on every generated cluster.
//! * **Seeded fuzzing with shrinking** ([`generator`], [`mod@shrink`],
//!   [`runner`]) — scenarios are a pure function of a seed, so the CI
//!   corpus is reproducible; any failure is greedily reduced to a
//!   minimal reproducer and emitted as a JSON artifact.
//!
//! The `verify` binary in `adapt-experiments` drives [`runner::run_corpus`]
//! in CI; see DESIGN.md §13 for the oracle rules and reproduction
//! instructions.

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
mod naive_queue;

pub mod generator;
pub mod jobstream;
pub mod metamorphic;
pub mod oracle;
pub mod reference;
pub mod reference_reduce;
pub mod runner;
pub mod scenario;
pub mod shrink;

pub use error::VerifyError;
pub use generator::{
    generate, generate_jobstream, generate_reduce_heavy, generate_wide, generate_wide_reduce,
};
pub use jobstream::{check_jobstream, JobStreamScenario, ReferenceJobTracker};
pub use oracle::{check_scenario, compare_reports, Divergence};
pub use reference::ReferenceSim;
pub use reference_reduce::ReferenceReduce;
pub use runner::{run_corpus, FailureArtifact, FuzzReport, JobStreamFailure};
pub use scenario::{NodeKind, Scenario};
pub use shrink::shrink;
