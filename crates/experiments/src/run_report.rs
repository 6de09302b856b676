//! Deterministic telemetry run reports — the `--report-json` flag.
//!
//! Every experiment binary can emit a machine-readable [`RunReport`]
//! alongside its human-readable output. The report is built by a *probe
//! run*: one compact end-to-end pass through the whole stack — synthetic
//! trace generation, per-host availability estimation, NameNode placement
//! under [`AdaptPolicy`], and the map-phase discrete-event simulation —
//! with the telemetry of every layer collected into one JSON document.
//!
//! The report is byte-stable for a given `(nodes, seed)` pair: all
//! counters are integers, all durations are integer microseconds of
//! *simulated* time, keys are sorted, and nothing environmental (wall
//! clock, hostnames, paths) is recorded. CI diffs the report against a
//! checked-in baseline to catch silent behavioural drift.
//!
//! [`AdaptPolicy`]: adapt_core::AdaptPolicy

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_core::AdaptPolicy;
use adapt_dfs::cluster::NodeSpec;
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_metrics::MetricsHub;
use adapt_sim::engine::{MapPhaseSim, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::runner::placement_from_namenode;
use adapt_sim::Topology;
use adapt_telemetry::{micros, RunReport, Value};
use adapt_trace::{write_jsonl, Trace, TraceRecorder};
use adapt_traces::replay::InterruptionSchedule;
use adapt_traces::stats::TraceSummary;

use crate::config::LargeScaleConfig;
use crate::largescale::World;
use crate::ExperimentError;

/// The probe run's configuration: the large-scale defaults shrunk to one
/// run of `nodes` hosts with 10 tasks per node — small enough to finish
/// in seconds at the CI scale (2 000 nodes), large enough to exercise
/// steals, speculation, interruptions, and threshold placement.
pub fn probe_config(nodes: usize, seed: u64) -> LargeScaleConfig {
    LargeScaleConfig {
        nodes,
        tasks_per_node: 10,
        runs: 1,
        seed,
        ..LargeScaleConfig::default()
    }
}

/// Runs the probe pipeline and assembles the report for `tool`.
///
/// Sections:
///
/// * `probe_config` — the parameters the probe ran with;
/// * `sim_engine` — engine counters and histograms
///   ([`adapt_sim::EngineTelemetrySnapshot`]): events dispatched, steals,
///   speculative outcomes, interruptions, per-node busy/idle/down time,
///   queue-depth high-water mark, and the per-category overhead seconds
///   (rework / recovery / migration / misc) in exact microseconds;
/// * `namenode` — placement counters
///   ([`adapt_dfs::NameNodeTelemetrySnapshot`]): blocks and replicas
///   placed, threshold rejections, placement failures;
/// * `policy` — ADAPT-policy counters
///   ([`adapt_core::PolicyTelemetrySnapshot`]): predictor `E[T]`
///   evaluations, hash-table builds, collision-chain lengths;
/// * `summary` — the probe's [`adapt_sim::SimReport`] headline numbers.
///
/// # Errors
///
/// Propagates substrate failures as [`ExperimentError`].
pub fn build_run_report(tool: &str, nodes: usize, seed: u64) -> Result<RunReport, ExperimentError> {
    Ok(build_probe(tool, nodes, seed, false)?.0)
}

/// [`build_run_report`] with an explicit network topology installed in
/// the probe's engine. `Topology::new(1, 1.0)` reproduces the flat
/// report byte-identically (the degeneracy contract CI pins).
///
/// # Errors
///
/// Propagates substrate failures as [`ExperimentError`].
pub fn build_run_report_topo(
    tool: &str,
    nodes: usize,
    seed: u64,
    topology: Topology,
) -> Result<RunReport, ExperimentError> {
    Ok(build_probe_inner(tool, nodes, seed, false, None, Some(topology))?.0)
}

/// Runs the probe pipeline and assembles the report; with `traced` the
/// NameNode and simulator share one [`TraceRecorder`], and the sealed
/// event trace is returned next to the report (placement events first,
/// then the simulation's, in one sequence space).
///
/// # Errors
///
/// Propagates substrate failures as [`ExperimentError`].
pub fn build_probe(
    tool: &str,
    nodes: usize,
    seed: u64,
    traced: bool,
) -> Result<(RunReport, Option<Trace>), ExperimentError> {
    let (report, trace, _) = build_probe_inner(tool, nodes, seed, traced, None, None)?;
    Ok((report, trace))
}

/// Runs the probe pipeline with a [`MetricsHub`] scraping every
/// `interval_us` of simulated time, threaded through the NameNode
/// (placement and replication-state instruments), the predictor
/// (placement-rate gauges), and the simulation engine (cadence scrapes
/// plus work spans). Returns the sealed hub next to the report.
///
/// The hub observes the run without perturbing it: the report is
/// byte-identical to a plain [`build_probe`] of the same `(nodes, seed)`.
///
/// # Errors
///
/// Propagates substrate failures as [`ExperimentError`].
pub fn build_probe_metrics(
    tool: &str,
    nodes: usize,
    seed: u64,
    interval_us: u64,
) -> Result<(RunReport, MetricsHub), ExperimentError> {
    let (report, _, hub) = build_probe_inner(tool, nodes, seed, false, Some(interval_us), None)?;
    // The inner pipeline always returns a hub when an interval is given.
    hub.map(|hub| (report, hub))
        .ok_or_else(|| ExperimentError::InvalidConfig {
            name: "metrics",
            reason: "metrics probe produced no metrics hub".to_string(),
        })
}

fn build_probe_inner(
    tool: &str,
    nodes: usize,
    seed: u64,
    traced: bool,
    metrics_interval_us: Option<u64>,
    topology: Option<Topology>,
) -> Result<(RunReport, Option<Trace>, Option<MetricsHub>), ExperimentError> {
    let config = probe_config(nodes, seed);
    let world = World::generate(&config)?;
    let gamma = config.gamma();

    // Same paired-seed discipline as the large-scale harness: placement
    // and trace-rotation randomness on independent streams.
    let mut place_rng = StdRng::seed_from_u64(seed ^ 0x70AC_E5EED);
    let mut rotate_rng = StdRng::seed_from_u64(seed ^ 0x0FF5_E715);

    let schedules: Vec<InterruptionSchedule> = world
        .traces()
        .iter()
        .map(|host| InterruptionSchedule::rotated_random(host, &mut rotate_rng))
        .collect();
    let specs: Vec<NodeSpec> = world
        .availability()
        .iter()
        .map(|&a| NodeSpec::new(a))
        .collect();
    let mut namenode = NameNode::new(specs);
    if traced {
        namenode.attach_trace(TraceRecorder::new());
    }
    if let Some(interval_us) = metrics_interval_us {
        namenode.attach_metrics(MetricsHub::new(interval_us));
    }
    for (i, schedule) in schedules.iter().enumerate() {
        if schedule.is_down_at(0.0) {
            namenode.mark_down(adapt_dfs::NodeId(i as u32))?;
        }
    }

    let mut policy = AdaptPolicy::new(gamma)?;
    let file = namenode.create_file(
        "probe-input",
        config.total_blocks(),
        config.replication,
        &mut policy,
        Threshold::PaperDefault,
        &mut place_rng,
    )?;
    let placement = placement_from_namenode(&namenode, file)?;
    // Sample the post-placement replication state at t = 0 (a forced
    // scrape, so it lands before the cadence starts).
    namenode.scrape_replication_state(0);

    let processes: Vec<InterruptionProcess> = schedules
        .into_iter()
        .map(InterruptionProcess::trace)
        .collect();
    let mut cfg =
        SimConfig::new(config.bandwidth_mbps, config.block_size, gamma)?.with_horizon(1e7);
    if let Some(topology) = topology {
        cfg = cfg.with_topology(topology);
    }
    let mut sim = MapPhaseSim::new(processes, placement, cfg)?;
    if let Some(recorder) = namenode.take_trace() {
        sim = sim.with_trace(recorder);
    }
    let mut hub = namenode.take_metrics();
    let detailed = if let Some(hub) = hub.as_mut() {
        // Predictor gauges at placement time — read from the policy's
        // cached rates so no extra E[T] evaluations perturb the report.
        policy.predictor().record_gauges(&mut hub.registry);
        if let Some(rates) = policy.rates() {
            rates.record_gauges(&mut hub.registry);
        }
        sim.run_detailed_metrics(seed, hub)?
    } else {
        sim.run_detailed(seed)?
    };

    let mut report = RunReport::new(tool);
    report.set_meta("nodes", nodes as u64);
    report.set_meta("seed", seed);

    let mut probe = Value::object();
    probe.insert("bandwidth_mbps", config.bandwidth_mbps);
    probe.insert("block_size_mb", config.block_size.as_mb());
    probe.insert("gamma_s", gamma);
    probe.insert("nodes", nodes as u64);
    probe.insert("replication", config.replication as u64);
    probe.insert("tasks_per_node", config.tasks_per_node as u64);
    report.set_section("probe_config", probe);

    report.set_section("sim_engine", detailed.telemetry.to_value());
    report.set_section("namenode", namenode.telemetry_snapshot().to_value());
    report.set_section("policy", policy.telemetry_snapshot().to_value());

    let r = &detailed.report;
    let mut summary = Value::object();
    summary.insert("base_work_s", r.base_work);
    summary.insert("completed", r.completed);
    summary.insert("elapsed_s", r.elapsed);
    summary.insert("local_tasks", r.local_tasks as u64);
    summary.insert("migration_s", r.migration);
    summary.insert("misc_s", r.misc);
    summary.insert("recovery_s", r.recovery);
    summary.insert("rework_s", r.rework);
    summary.insert("tasks", r.tasks as u64);
    report.set_section("summary", summary);

    Ok((report, detailed.trace, hub))
}

/// The Table 1 population statistics as a report section (attached by the
/// `table1` binary next to the probe sections).
pub fn table1_section(summary: &TraceSummary) -> Value {
    let mut v = Value::object();
    v.insert("duration_cov", summary.duration.cov());
    v.insert("duration_mean_s", summary.duration.mean());
    v.insert("duration_std_s", summary.duration.std_dev());
    v.insert("events", summary.events as u64);
    v.insert("hosts", summary.hosts as u64);
    v.insert("mtbi_cov", summary.mtbi.cov());
    v.insert("mtbi_mean_s", summary.mtbi.mean());
    v.insert("mtbi_std_s", summary.mtbi.std_dev());
    v
}

/// Builds the probe report for `tool` and writes it to `path`, printing a
/// one-line confirmation — the shared tail of every binary's
/// `--report-json` handling. Exits the process on failure (consistent
/// with the binaries' other error paths).
pub fn write_probe_report(tool: &str, path: &str, nodes: usize, seed: u64) {
    match build_run_report(tool, nodes, seed) {
        Ok(report) => finish_report(&report, path),
        Err(e) => {
            eprintln!("{tool}: run report failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs the traced probe for `tool` and writes its event trace (JSONL) to
/// `path` — the shared tail of every binary's `--trace-out` handling.
/// Byte-identical for a given `(nodes, seed)` pair. Exits the process on
/// failure.
pub fn write_probe_trace(tool: &str, path: &str, nodes: usize, seed: u64) {
    let trace = match build_probe(tool, nodes, seed, true) {
        Ok((_, Some(trace))) => trace,
        Ok((_, None)) => {
            eprintln!("{tool}: traced probe produced no trace");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{tool}: trace probe failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, write_jsonl(&trace)) {
        eprintln!("cannot write event trace to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("event trace written to {path}");
}

/// Default metrics scrape cadence: every 10 simulated seconds.
pub const DEFAULT_METRICS_INTERVAL_SECS: f64 = 10.0;

/// Runs the metrics probe for `tool` and writes its `adapt-metrics/1`
/// document (JSONL) to `path` — the shared tail of every binary's
/// `--metrics-out` handling. `interval` is the scrape cadence in
/// simulated seconds (default [`DEFAULT_METRICS_INTERVAL_SECS`]).
/// Byte-identical for a given `(nodes, seed, interval)` triple. Exits the
/// process on failure.
pub fn write_probe_metrics(tool: &str, path: &str, nodes: usize, seed: u64, interval: Option<f64>) {
    let interval_us = micros(interval.unwrap_or(DEFAULT_METRICS_INTERVAL_SECS));
    let hub = match build_probe_metrics(tool, nodes, seed, interval_us) {
        Ok((_, hub)) => hub,
        Err(e) => {
            eprintln!("{tool}: metrics probe failed: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = std::fs::write(path, hub.to_jsonl(tool, nodes as u64, seed)) {
        eprintln!("cannot write metrics to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("metrics written to {path}");
}

/// Writes an assembled report to `path` (the `table1` binary adds its own
/// section first, then calls this).
pub fn finish_report(report: &RunReport, path: &str) {
    if let Err(e) = report.write_to(std::path::Path::new(path)) {
        eprintln!("cannot write run report to {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("run report written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_report_contains_every_layer() {
        let report = build_run_report("test", 96, 7).unwrap();
        let v = report.to_value();
        let json = v.to_json();
        for key in [
            "\"sim_engine\"",
            "\"namenode\"",
            "\"policy\"",
            "\"steals\"",
            "\"interruptions\"",
            "\"speculative_wins\"",
            "\"speculative_losses\"",
            "\"blocks_placed\"",
            "\"predictor_evaluations\"",
            "\"rework_us\"",
            "\"recovery_us\"",
            "\"migration_us\"",
            "\"misc_us\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let engine = report.section("sim_engine").unwrap();
        assert_eq!(engine.get("runs"), Some(&Value::from(1u64)));
        let namenode = report.section("namenode").unwrap();
        assert_eq!(namenode.get("blocks_placed"), Some(&Value::from(960u64)));
    }

    #[test]
    fn explicit_flat_topology_report_is_byte_identical() {
        // The degeneracy contract CI pins: installing Topology::new(1, 1.0)
        // must reproduce the pre-topology flat report byte for byte.
        let flat = build_run_report("test", 64, 3).unwrap().to_json();
        let degenerate = build_run_report_topo("test", 64, 3, Topology::new(1, 1.0).unwrap())
            .unwrap()
            .to_json();
        assert_eq!(flat, degenerate);
        // A real topology must actually change the measured payload.
        let racked = build_run_report_topo("test", 64, 3, Topology::new(8, 4.0).unwrap())
            .unwrap()
            .to_json();
        assert_ne!(flat, racked);
    }

    #[test]
    fn probe_report_is_deterministic() {
        let a = build_run_report("test", 64, 3).unwrap().to_json();
        let b = build_run_report("test", 64, 3).unwrap().to_json();
        assert_eq!(a, b);
        // A different seed must actually change the measured payload.
        let c = build_run_report("test", 64, 4).unwrap().to_json();
        assert_ne!(a, c);
    }

    #[test]
    fn traced_probe_is_byte_stable_and_leaves_report_unchanged() {
        let (plain_report, no_trace) = build_probe("test", 64, 3, false).unwrap();
        assert!(no_trace.is_none());
        let (traced_report, trace_a) = build_probe("test", 64, 3, true).unwrap();
        // Zero-overhead contract, observed at the report level: tracing
        // changes nothing in the telemetry document.
        assert_eq!(plain_report.to_json(), traced_report.to_json());
        let trace_a = trace_a.unwrap();
        assert!(trace_a
            .events
            .iter()
            .any(|e| matches!(e, adapt_trace::TraceEvent::BlockPlaced { .. })));
        // Fixed seed => byte-identical serialized trace.
        let trace_b = build_probe("test", 64, 3, true).unwrap().1.unwrap();
        assert_eq!(write_jsonl(&trace_a), write_jsonl(&trace_b));
        // And the trace re-derives the engine's overhead totals exactly.
        let derived = adapt_trace::derive_totals(&trace_a);
        let engine = traced_report.section("sim_engine").unwrap();
        let overhead = engine.get("overhead").unwrap();
        for (key, got) in [
            ("rework_us", derived.rework_us),
            ("recovery_us", derived.recovery_us),
            ("migration_us", derived.migration_us),
            ("misc_us", derived.misc_us),
        ] {
            assert_eq!(overhead.get(key), Some(&Value::from(got)), "{key}");
        }
        assert_eq!(
            engine.get("elapsed_us"),
            Some(&Value::from(derived.elapsed_us))
        );
        assert_eq!(
            engine.get("attempts_started"),
            Some(&Value::from(derived.attempts_started))
        );
        assert_eq!(
            engine.get("transfers_started"),
            Some(&Value::from(derived.transfers_started))
        );
    }

    #[test]
    fn metrics_probe_is_byte_stable_and_leaves_report_unchanged() {
        let (plain_report, _) = build_probe("test", 64, 3, false).unwrap();
        let (metrics_report, hub_a) = build_probe_metrics("test", 64, 3, 1_000_000).unwrap();
        // Zero-overhead contract: threading a hub through the stack
        // changes nothing in the telemetry document.
        assert_eq!(plain_report.to_json(), metrics_report.to_json());
        let doc_a = hub_a.to_jsonl("test", 64, 3);
        // Fixed (nodes, seed, interval) => byte-identical document.
        let (_, hub_b) = build_probe_metrics("test", 64, 3, 1_000_000).unwrap();
        assert_eq!(doc_a, hub_b.to_jsonl("test", 64, 3));
        // Every instrumented layer shows up in the parsed document.
        let doc = adapt_metrics::export::parse_jsonl(&doc_a).unwrap();
        for series in [
            "engine.queue_depth",
            "engine.done_tasks",
            "dfs.blocks",
            "dfs.replicas_placed",
            "predictor.usable_nodes",
            "predictor.phi",
        ] {
            assert!(doc.series.contains_key(series), "missing series {series}");
        }
        assert!(doc.spans.iter().any(|s| s.path == "run;attempt_done"));
        // And the engine's final done-task gauge matches the report.
        let summary = metrics_report.section("summary").unwrap();
        let tasks = summary.get("tasks").unwrap();
        let done = doc.samples_u64("engine.done_tasks");
        assert_eq!(
            done.last().map(|&(_, v)| Value::from(v)).as_ref(),
            Some(tasks)
        );
    }

    #[test]
    fn table1_section_has_stable_keys() {
        let summary = crate::table1::run_table1(50, 1).unwrap();
        let v = table1_section(&summary);
        assert_eq!(v.get("hosts"), Some(&Value::from(50u64)));
        assert!(v.to_json().starts_with("{\"duration_cov\":"));
    }
}
