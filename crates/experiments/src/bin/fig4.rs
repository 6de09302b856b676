//! Regenerates Figure 4: data locality in the emulated non-dedicated
//! cluster (same sweeps as Figure 3).
//!
//! Usage: `fig4 [a|b|c] [--paper] [--runs N] [--nodes N] [--seed N] [--csv]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The last six flags write the outputs of one probe run
//! (`adapt_experiments::run_report`) at the same node count and seed.

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::config::EmulatedConfig;
use adapt_experiments::emulated::{
    sweep_bandwidth, sweep_interrupted_ratio, sweep_nodes, SweepPoint, FIGURE3_SERIES,
};
use adapt_experiments::report::{locality_entries, pivot_table, to_csv};
use adapt_experiments::ExperimentError;

fn base_config(opts: &Options) -> EmulatedConfig {
    let mut config = EmulatedConfig::default();
    if !opts.paper {
        config.nodes = 32;
        config.blocks_per_node = 10;
        config.runs = 3;
    }
    if let Some(nodes) = opts.nodes {
        config.nodes = nodes;
    }
    if let Some(runs) = opts.runs {
        config.runs = runs;
    }
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    config
}

fn render(opts: &Options, label: &str, points: &[SweepPoint]) {
    let entries = locality_entries(points);
    if opts.csv {
        print!("{}", to_csv(&entries, label, "locality"));
    } else {
        println!("-- Figure 4: data locality vs {label} --");
        print!("{}", pivot_table(&entries, label));
        println!();
    }
}

fn run(opts: &Options) -> Result<(), ExperimentError> {
    let base = base_config(opts);
    let which = opts.positional.first().map(String::as_str);
    if matches!(which, None | Some("a")) {
        let pts = sweep_interrupted_ratio(&base, &[0.25, 0.5, 0.75], &FIGURE3_SERIES)?;
        render(opts, "interrupted_ratio", &pts);
    }
    if matches!(which, None | Some("b")) {
        let pts = sweep_bandwidth(&base, &[4.0, 8.0, 16.0, 32.0], &FIGURE3_SERIES)?;
        render(opts, "bandwidth_mbps", &pts);
    }
    if matches!(which, None | Some("c")) {
        let counts: Vec<usize> = if opts.paper {
            vec![32, 64, 128, 256]
        } else {
            vec![16, 32, 64]
        };
        let pts = sweep_nodes(&base, &counts, &FIGURE3_SERIES)?;
        render(opts, "nodes", &pts);
    }
    Ok(())
}

fn main() {
    let opts = match Options::from_env(&Flag::ALL) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("fig4 failed: {e}");
        std::process::exit(1);
    }
    let base = base_config(&opts);
    adapt_experiments::run_report::write_probe("fig4", &opts, base.nodes, base.seed, None);
}
