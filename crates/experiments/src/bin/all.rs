//! Runs every paper reproduction (Table 1, Figures 3–5) at the chosen
//! scale and prints all tables — the input to `EXPERIMENTS.md`.
//!
//! Usage: `all [--paper] [--runs N] [--nodes N] [--seed N]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The sub-figures and their x-values come from the declarations in
//! `emulated::FIGURE3` and `largescale::FIGURE5`; each Figure 3 sweep
//! runs once and serves Figure 4 too. The last six flags write the
//! outputs of one probe run (`adapt_experiments::run_report`) of
//! `--nodes` hosts (default 256); `--nodes` sizes nothing else.

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::emulated::{self, SweepPoint, FIGURE3, FIGURE3_SERIES};
use adapt_experiments::largescale::{self, FIGURE5, FIGURE5_SERIES};
use adapt_experiments::report::{
    elapsed_entries, locality_entries, overhead_table, pivot_table, Entry,
};
use adapt_experiments::table1::{render_comparison, run_table1};
use adapt_experiments::ExperimentError;

/// The flags this binary reads: its own, then those of `write_probe`.
const FLAGS: &[Flag] = &[
    Flag::Paper,
    Flag::Runs,
    Flag::Nodes,
    Flag::Seed,
    Flag::ReportJson,
    Flag::TraceOut,
    Flag::MetricsOut,
    Flag::MetricsInterval,
    Flag::Racks,
    Flag::Oversubscription,
];

/// The heading and short axis label of each sub-figure of [`FIGURE3`].
const FIGURE3_AXES: [(&str, &str); 3] = [
    ("interrupted ratio", "ratio"),
    ("bandwidth", "mbps"),
    ("nodes", "nodes"),
];

/// The heading and short axis label of each sub-figure of [`FIGURE5`].
const FIGURE5_AXES: [(&str, &str); 3] = [
    ("bandwidth", "mbps"),
    ("block size", "block_mb"),
    ("nodes", "nodes"),
];

/// The entries a figure tabulates from a sweep.
type Tabulate = fn(&[SweepPoint]) -> Vec<Entry>;

/// Figures 3 and 4: the number, value and entries of each, from the same
/// sweeps.
const FIGURE3_PLOTS: [(&str, &str, Tabulate); 2] = [
    ("3", "elapsed (s)", elapsed_entries),
    ("4", "locality", locality_entries),
];

fn run(opts: &Options) -> Result<(), ExperimentError> {
    let seed = opts.seed.unwrap_or(2012);

    // Table 1.
    let hosts = if opts.paper { 226_208 } else { 20_000 };
    println!("===== Table 1 ({hosts} hosts) =====");
    print!("{}", render_comparison(&run_table1(hosts, seed)?));
    println!();

    // The tables' options: `--nodes` sizes only the probe.
    let tables = &Options {
        nodes: None,
        ..opts.clone()
    };

    // Emulated cluster (Figures 3 and 4): one sweep per sub-figure
    // serves both figures.
    let emu = emulated::base_config(tables);
    let sweeps = FIGURE3
        .iter()
        .map(|figure| emulated::sweep(&emu, figure, &figure.xs(tables), &FIGURE3_SERIES))
        .collect::<Result<Vec<_>, _>>()?;
    let mut gap = "";
    for (number, value, entries) in FIGURE3_PLOTS {
        for ((figure, (name, label)), points) in FIGURE3.iter().zip(FIGURE3_AXES).zip(&sweeps) {
            println!(
                "{gap}===== Figure {number}({}): {value} vs {name} =====",
                figure.letter
            );
            print!("{}", pivot_table(&entries(points), label));
            gap = "\n";
        }
    }

    // Large-scale simulation (Figure 5).
    let large = largescale::base_config(tables);
    for (figure, (name, label)) in FIGURE5.iter().zip(FIGURE5_AXES) {
        let points = largescale::sweep(&large, figure, &figure.xs(tables), &FIGURE5_SERIES)?;
        println!(
            "\n===== Figure 5({}): overhead ratios vs {name} =====",
            figure.letter
        );
        print!("{}", overhead_table(&points, label));
    }

    Ok(())
}

fn main() {
    let opts = Options::from_env(FLAGS, &[]);
    if let Err(e) = run(&opts) {
        eprintln!("all failed: {e}");
        std::process::exit(1);
    }
    let nodes = opts.nodes.unwrap_or(256);
    let seed = opts.seed.unwrap_or(2012);
    adapt_experiments::run_report::write_probe("all", &opts, nodes, seed, None);
}
