//! The multi-job scheduling sweep — job-slowdown CDFs and sojourn
//! percentiles versus offered load, per placement policy (DESIGN.md §14).
//!
//! Usage: `jobstream [fifo|fair|capacity] [--nodes N] [--runs N]
//! [--seed N] [--csv] [--report-json PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--paper]`
//!
//! The positional selects the JobTracker's scheduling policy (default
//! `fair`); `--runs` is the number of jobs per stream. The sweep crosses
//! every load level with every placement policy on one shared host
//! population, so for a given `(nodes, jobs, seed)` the output — and the
//! `--report-json` document CI byte-diffs — is deterministic.

use std::io::Write;

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::jobstream::{
    render_csv, render_table, report_value, run_jobstream_metrics, JobStreamConfig,
};
use adapt_sim::SchedPolicy;

/// The flags this binary reads.
const FLAGS: &[Flag] = &[
    Flag::Paper,
    Flag::Runs,
    Flag::Nodes,
    Flag::Seed,
    Flag::Csv,
    Flag::ReportJson,
    Flag::MetricsOut,
    Flag::MetricsInterval,
];

fn main() {
    let opts = Options::from_env(FLAGS, &["fifo", "fair", "capacity"]);
    let sched = match opts.selector.as_deref() {
        Some("fifo") => SchedPolicy::Fifo,
        Some("capacity") => SchedPolicy::Capacity,
        // `fair`, or no selector.
        _ => SchedPolicy::FairShare,
    };

    let mut config = JobStreamConfig {
        sched,
        ..JobStreamConfig::default()
    };
    if opts.paper {
        config.nodes = 256;
        config.jobs = 400;
    }
    if let Some(nodes) = opts.nodes {
        config.nodes = nodes;
    }
    if let Some(jobs) = opts.runs {
        config.jobs = jobs;
    }
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }

    println!("== jobstream: multi-job scheduling sweep ==");
    println!(
        "   ({} nodes, {} jobs, sched {}, seed {})\n",
        config.nodes,
        config.jobs,
        config.sched.as_str(),
        config.seed
    );

    // With `--metrics-out`, the sweep's saturated ADAPT cell runs with a
    // metrics hub carrying the declared p99-sojourn SLO.
    let interval_us = opts.metrics_out.as_ref().map(|_| {
        adapt_telemetry::micros(
            opts.metrics_interval
                .unwrap_or(adapt_experiments::run_report::DEFAULT_METRICS_INTERVAL_SECS),
        )
    });
    let (points, hub) = match run_jobstream_metrics(&config, interval_us) {
        Ok(swept) => swept,
        Err(e) => {
            eprintln!("jobstream: {e}");
            std::process::exit(1);
        }
    };

    if opts.csv {
        print!("{}", render_csv(&points));
    } else {
        print!("{}", render_table(&points));
    }

    if let Some(path) = &opts.report_json {
        let json = report_value(&config, &points).to_json_pretty();
        match std::fs::File::create(path).and_then(|mut f| writeln!(f, "{json}")) {
            Ok(()) => eprintln!("jobstream report written to {path}"),
            Err(e) => {
                eprintln!("jobstream: cannot write report to {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let (Some(path), Some(hub)) = (&opts.metrics_out, hub) {
        let doc = hub.to_jsonl("jobstream", config.nodes as u64, config.seed);
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("jobstream: cannot write metrics to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics written to {path}");
    }
}
