//! `adapt-metrics`: deterministic, sim-time-driven time-series metrics.
//!
//! The end-of-run aggregates in `adapt-telemetry` answer *how much*; the
//! event log in `adapt-trace` answers *what happened*. This crate answers
//! *what did the cluster look like over time* — utilization ramps,
//! queue-depth buildup under multi-job load, availability-estimate drift,
//! and p99-sojourn SLO burn as load approaches saturation — without
//! sacrificing the workspace's byte-determinism contract.
//!
//! Four layers:
//!
//! - [`registry`] — a [`MetricsRegistry`] of gauges, cumulative counters,
//!   and windowed observation streams, scraped on a fixed **sim-time**
//!   cadence into fixed-capacity ring-buffer [`Series`] (integer
//!   microsecond timestamps; oldest samples are evicted and counted, so
//!   memory is bounded regardless of run length).
//! - [`window`] — sliding-window aggregation: nearest-rank p50/p99/p999
//!   over pure integer observations, so no float ordering is ever
//!   involved.
//! - [`slo`] — error-budget accounting: given a declared objective (for
//!   example "99% of jobs finish within 600 s"), computes the burn rate
//!   of the error budget over the observed sojourn stream, total and per
//!   tumbling window.
//! - [`profile`] — a hierarchical [`WorkProfiler`] whose spans are
//!   accounted in *deterministic* units (events processed, heap
//!   operations, placement recomputes, simulated microseconds — never
//!   wall clock), with Chrome `trace_event` and inferno collapsed-stack
//!   flamegraph export.
//!
//! Serialization ([`export`]) rides on `adapt-telemetry`'s sorted-key
//! JSON writer and shared parser: the same seed and config produce a
//! byte-identical `adapt-metrics/1` JSONL file on every machine, which
//! the experiments crate's `baselines` test enforces with a byte diff. All
//! instrumentation in the engines is `Option`-guarded: with metrics
//! disabled, simulation output and every existing baseline are
//! byte-identical (the same zero-overhead-when-off contract tracing
//! honors).
//!
//! [`MetricsRegistry`]: registry::MetricsRegistry
//! [`Series`]: registry::Series
//! [`WorkProfiler`]: profile::WorkProfiler

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod export;
pub mod profile;
pub mod registry;
pub mod slo;
pub mod window;

pub use export::{MetricsDoc, MetricsError, MetricsMeta, SeriesData, FORMAT_TAG};
pub use profile::{SpanRecord, WorkCounts, WorkProfiler, WorkUnit};
pub use registry::{MetricsRegistry, Sample, SampleValue, Series, SeriesKind};
pub use slo::{SloReport, SloTarget};
pub use window::{SlidingWindow, WindowSummary};

/// A registry plus a work profiler plus an optional SLO declaration: the
/// bundle a harness threads through a run (`&mut MetricsHub`) and then
/// serializes with [`MetricsHub::to_jsonl`].
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    /// Cadence-scraped time series.
    pub registry: MetricsRegistry,
    /// Hierarchical work-count spans.
    pub profiler: WorkProfiler,
    /// The SLO this run is judged against, if the harness declares one.
    pub slo: Option<SloTarget>,
}

impl MetricsHub {
    /// A hub scraping every `interval_us` of simulated time.
    pub fn new(interval_us: u64) -> Self {
        MetricsHub {
            registry: MetricsRegistry::new(interval_us, registry::DEFAULT_CAPACITY),
            profiler: WorkProfiler::new(),
            slo: None,
        }
    }

    /// Declares the SLO target recorded in the export header.
    pub fn with_slo(mut self, slo: SloTarget) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Seals the run: emits any cadence scrapes due at `t_us` plus a
    /// final end-of-run sample.
    pub fn finish(&mut self, t_us: u64) {
        self.registry.finish(t_us);
    }

    /// Serializes the hub as a deterministic `adapt-metrics/1` JSONL
    /// document.
    pub fn to_jsonl(&self, tool: &str, nodes: u64, seed: u64) -> String {
        export::write_jsonl(self, tool, nodes, seed)
    }
}
