//! The probe run behind every experiment binary's `--report-json`,
//! `--trace-out` and `--metrics-out` flags.
//!
//! A *probe run* is one compact end-to-end pass through the whole stack
//! — synthetic trace generation, per-host availability estimation,
//! NameNode placement under [`AdaptPolicy`], and the map-phase
//! discrete-event simulation. It yields a machine-readable [`RunReport`]
//! with the telemetry of every layer collected into one JSON document
//! and, with the matching [`Instruments`] attached, the run's event
//! trace and metrics document. One run serves every output a command
//! asks for: a recorder or hub observes the run without changing the
//! report.
//!
//! The report is byte-stable for a given `(nodes, seed)` pair: all
//! counters are integers, all durations are integer microseconds of
//! *simulated* time, keys are sorted, and nothing environmental (wall
//! clock, hostnames, paths) is recorded. CI diffs the report against a
//! checked-in baseline to catch silent behavioural drift.
//!
//! [`AdaptPolicy`]: adapt_core::AdaptPolicy

use adapt_core::AdaptPolicy;
use adapt_metrics::MetricsHub;
use adapt_sim::engine::{MapPhaseSim, SimConfig};
use adapt_sim::Topology;
use adapt_telemetry::{micros, RunReport, Value};
use adapt_trace::{write_jsonl, Trace, TraceRecorder};
use adapt_traces::stats::TraceSummary;

use crate::cli::Options;
use crate::config::LargeScaleConfig;
use crate::largescale::World;
use crate::ExperimentError;

/// The instruments a probe run attaches. Neither changes the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Instruments {
    /// Record the event trace: the NameNode and the engine share one
    /// [`TraceRecorder`], so placement events come first, then the
    /// simulation's, in one sequence space.
    pub trace: bool,
    /// Thread a [`MetricsHub`] scraping every this many µs of simulated
    /// time through the NameNode (placement and replication-state
    /// instruments), the predictor (placement-rate gauges), and the
    /// engine (cadence scrapes plus work spans).
    pub metrics_interval_us: Option<u64>,
}

/// What one probe run produced.
#[derive(Debug)]
pub struct ProbeRun {
    /// The telemetry report.
    pub report: RunReport,
    /// The sealed event trace, when [`Instruments::trace`] was set.
    pub trace: Option<Trace>,
    /// The sealed metrics hub, when [`Instruments::metrics_interval_us`]
    /// was set.
    pub metrics: Option<MetricsHub>,
}

/// Runs the probe pipeline for `tool` with `topology` installed in the
/// engine and the requested `instruments` attached, and assembles the
/// report. The flat topology, [`Topology::flat`], is the engine's
/// default.
///
/// Report sections:
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
pub fn probe(
    tool: &str,
    nodes: usize,
    seed: u64,
    topology: Topology,
    instruments: Instruments,
) -> Result<ProbeRun, ExperimentError> {
    // The large-scale defaults shrunk to one run with 10 tasks per node:
    // seconds at the CI scale (2 000 nodes), yet enough to exercise
    // steals, speculation, interruptions and threshold placement.
    let config = LargeScaleConfig {
        nodes,
        tasks_per_node: 10,
        runs: 1,
        seed,
        ..LargeScaleConfig::default()
    };
    let world = World::generate(&config)?;
    let gamma = config.gamma();

    let mut trial = world.trial(seed)?;
    if instruments.trace {
        trial.namenode.attach_trace(TraceRecorder::new());
    }
    if let Some(interval_us) = instruments.metrics_interval_us {
        trial.namenode.attach_metrics(MetricsHub::new(interval_us));
    }
    let mut policy = AdaptPolicy::new(gamma)?;
    let placement = trial.place(config.total_blocks(), config.replication, &mut policy)?;
    let mut namenode = trial.namenode;
    // Sample the post-placement replication state at t = 0 (a forced
    // scrape, so it lands before the cadence starts).
    namenode.scrape_replication_state(0);

    let cfg = SimConfig::new(config.bandwidth_mbps, config.block_size, gamma)?
        .with_horizon(1e7)
        .with_topology(topology);
    let mut sim = MapPhaseSim::new(trial.processes, placement, cfg)?;
    if let Some(recorder) = namenode.take_trace() {
        sim = sim.with_trace(recorder);
    }
    let mut metrics = namenode.take_metrics();
    let detailed = if let Some(hub) = metrics.as_mut() {
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

    Ok(ProbeRun {
        report,
        trace: detailed.trace,
        metrics,
    })
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

/// Default metrics scrape cadence: every 10 simulated seconds.
pub const DEFAULT_METRICS_INTERVAL_SECS: f64 = 10.0;

/// The shared probe tail of every binary: writes each probe output
/// `opts` asks for — the report (`--report-json`, with `section` added
/// when given), the JSONL event trace (`--trace-out`) and the
/// `adapt-metrics/1` document (`--metrics-out`, scraped every
/// `--metrics-interval` simulated seconds, default
/// [`DEFAULT_METRICS_INTERVAL_SECS`]) — from one probe run of `nodes`
/// hosts over the `--racks`/`--oversubscription` topology. Each output
/// is byte-identical for the same `(nodes, seed, topology, interval)`.
/// Does nothing when no probe output is asked for; exits the process on
/// failure.
pub fn write_probe(
    tool: &str,
    opts: &Options,
    nodes: usize,
    seed: u64,
    section: Option<(&str, Value)>,
) {
    if opts.report_json.is_none() && opts.trace_out.is_none() && opts.metrics_out.is_none() {
        return;
    }
    let instruments = Instruments {
        trace: opts.trace_out.is_some(),
        metrics_interval_us: opts.metrics_out.as_ref().map(|_| {
            micros(
                opts.metrics_interval
                    .unwrap_or(DEFAULT_METRICS_INTERVAL_SECS),
            )
        }),
    };
    let run = Topology::new(
        opts.racks.unwrap_or(1),
        opts.oversubscription.unwrap_or(1.0),
    )
    .map_err(|e| ExperimentError::InvalidConfig {
        name: "topology",
        reason: e.to_string(),
    })
    .and_then(|topology| probe(tool, nodes, seed, topology, instruments));
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{tool}: probe run failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some((name, value)) = section {
        run.report.set_section(name, value);
    }
    let outputs = [
        ("run report", &opts.report_json, Some(run.report.to_json())),
        (
            "event trace",
            &opts.trace_out,
            run.trace.map(|t| write_jsonl(&t)),
        ),
        (
            "metrics",
            &opts.metrics_out,
            run.metrics
                .map(|hub| hub.to_jsonl(tool, nodes as u64, seed)),
        ),
    ];
    for (what, path, contents) in outputs {
        let (Some(path), Some(contents)) = (path, contents) else {
            continue;
        };
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("cannot write {what} to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("{what} written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRACE: Instruments = Instruments {
        trace: true,
        metrics_interval_us: None,
    };

    const METRICS: Instruments = Instruments {
        trace: false,
        metrics_interval_us: Some(1_000_000),
    };

    /// One run serving both outputs: each must equal the output of a run
    /// with that instrument alone.
    const BOTH: Instruments = Instruments {
        trace: true,
        metrics_interval_us: Some(1_000_000),
    };

    fn run(nodes: usize, seed: u64, instruments: Instruments) -> ProbeRun {
        probe("test", nodes, seed, Topology::flat(), instruments).unwrap()
    }

    fn report_json(nodes: usize, seed: u64, topology: Topology) -> String {
        probe("test", nodes, seed, topology, Instruments::default())
            .unwrap()
            .report
            .to_json()
    }

    #[test]
    fn probe_report_contains_every_layer() {
        let report = run(96, 7, Instruments::default()).report;
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
        // must reproduce the flat report byte for byte.
        let flat = report_json(64, 3, Topology::flat());
        let degenerate = report_json(64, 3, Topology::new(1, 1.0).unwrap());
        assert_eq!(flat, degenerate);
        // A real topology must actually change the measured payload.
        let racked = report_json(64, 3, Topology::new(8, 4.0).unwrap());
        assert_ne!(flat, racked);
    }

    #[test]
    fn probe_report_is_deterministic() {
        let a = report_json(64, 3, Topology::flat());
        let b = report_json(64, 3, Topology::flat());
        assert_eq!(a, b);
        // A different seed must actually change the measured payload.
        let c = report_json(64, 4, Topology::flat());
        assert_ne!(a, c);
    }

    #[test]
    fn traced_probe_is_byte_stable_and_leaves_report_unchanged() {
        let plain = run(64, 3, Instruments::default());
        assert!(plain.trace.is_none());
        let traced = run(64, 3, TRACE);
        // Zero-overhead contract, observed at the report level: tracing
        // changes nothing in the telemetry document.
        assert_eq!(plain.report.to_json(), traced.report.to_json());
        let trace_a = traced.trace.unwrap();
        assert!(trace_a
            .events
            .iter()
            .any(|e| matches!(e, adapt_trace::TraceEvent::BlockPlaced { .. })));
        // Fixed seed => byte-identical serialized trace, also with a hub
        // attached, and a report unchanged by both.
        let both = run(64, 3, BOTH);
        assert_eq!(plain.report.to_json(), both.report.to_json());
        assert_eq!(write_jsonl(&trace_a), write_jsonl(&both.trace.unwrap()));
        // And the trace re-derives the engine's overhead totals exactly.
        let derived = adapt_trace::derive_totals(&trace_a);
        let engine = traced.report.section("sim_engine").unwrap();
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
        let plain = run(64, 3, Instruments::default());
        assert!(plain.metrics.is_none());
        let measured = run(64, 3, METRICS);
        // Zero-overhead contract: threading a hub through the stack
        // changes nothing in the telemetry document.
        assert_eq!(plain.report.to_json(), measured.report.to_json());
        let doc_a = measured.metrics.unwrap().to_jsonl("test", 64, 3);
        // Fixed (nodes, seed, interval) => byte-identical document, also
        // with a recorder attached.
        let hub_b = run(64, 3, BOTH).metrics.unwrap();
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
        let summary = measured.report.section("summary").unwrap();
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
