//! Regenerates Table 1: SETI@home-like population statistics
//! (measured vs paper).
//!
//! Usage: `table1 [--paper] [--nodes N] [--seed N] [--report-json PATH]
//! [--trace-out PATH] [--metrics-out PATH] [--metrics-interval SECS]
//! [--racks N] [--oversubscription X]`
//! `--paper` uses the archive's full 226 208-host population size;
//! the default uses 20 000 hosts (statistically equivalent, much faster).
//! The other flags write the outputs of one probe run at the same host
//! count: `--report-json` a deterministic JSON run report with the
//! population statistics added, `--trace-out` its event trace as JSONL
//! (explore with the `trace` binary) and `--metrics-out` its metrics
//! document (explore with the `metrics` binary).
//! `--racks`/`--oversubscription` install a rack topology in the probe's
//! engine — `--racks 1 --oversubscription 1` reproduces the flat report
//! byte-identically (the degeneracy contract CI pins).

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::run_report::{table1_section, write_probe};
use adapt_experiments::table1::{render_comparison, run_table1};

/// The flags this binary reads: its own, then those of `write_probe`.
const FLAGS: &[Flag] = &[
    Flag::Paper,
    Flag::Nodes,
    Flag::Seed,
    Flag::ReportJson,
    Flag::TraceOut,
    Flag::MetricsOut,
    Flag::MetricsInterval,
    Flag::Racks,
    Flag::Oversubscription,
];

fn main() {
    let opts = Options::from_env(FLAGS, &[]);
    let hosts = opts
        .nodes
        .unwrap_or(if opts.paper { 226_208 } else { 20_000 });
    let seed = opts.seed.unwrap_or(2012);

    println!("== Table 1: summary of SETI@home-like failure data ==");
    println!("   ({hosts} synthetic hosts, seed {seed})\n");
    let summary = match run_table1(hosts, seed) {
        Ok(summary) => {
            print!("{}", render_comparison(&summary));
            summary
        }
        Err(e) => {
            eprintln!("table1 failed: {e}");
            std::process::exit(1);
        }
    };

    let section = ("table1", table1_section(&summary));
    write_probe("table1", &opts, hosts, seed, Some(section));
}
