//! The full-MapReduce shuffle experiment: one map phase on a volatile
//! cluster over a rack topology, its outputs shuffled into the reduce
//! phase under each reducer-placement strategy (DESIGN.md §17).
//!
//! Usage: `fig-shuffle [--paper] [--nodes N] [--runs R] [--seed N]
//! [--racks N] [--oversubscription X] [--report-json PATH]
//! [--trace-out PATH]`
//!
//! `--runs` sets the reducer count. The defaults (64 nodes, 16
//! reducers, 4 racks, 2.5× oversubscription, seed 2012) are what the
//! `baselines` test byte-diffs against
//! `results/ci-baseline-shuffle.json`. `--trace-out` writes the ADAPT
//! policy's reduce-phase event trace as JSONL — `reduce_started`,
//! `shuffle_fetch`, and `link_contention` events included.

use std::io::Write;

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::shuffle::{
    render_table, report_value, run_shuffle_traced, ShuffleExpConfig,
};

/// The flags this binary reads.
const FLAGS: &[Flag] = &[
    Flag::Paper,
    Flag::Runs,
    Flag::Nodes,
    Flag::Seed,
    Flag::ReportJson,
    Flag::TraceOut,
    Flag::Racks,
    Flag::Oversubscription,
];

fn main() {
    let opts = Options::from_env(FLAGS, &[]);
    let mut config = ShuffleExpConfig::default();
    if opts.paper {
        config.nodes = 256;
        config.reducers = 64;
    }
    if let Some(nodes) = opts.nodes {
        config.nodes = nodes;
    }
    if let Some(reducers) = opts.runs {
        config.reducers = reducers;
    }
    if let Some(seed) = opts.seed {
        config.seed = seed;
    }
    if let Some(racks) = opts.racks {
        config.racks = racks;
    }
    if let Some(ratio) = opts.oversubscription {
        config.oversubscription = ratio;
    }

    println!("== fig-shuffle: full-MapReduce shuffle over a rack topology ==");
    println!(
        "   ({} nodes, {} reducers, {} racks, {}x oversubscription, seed {})\n",
        config.nodes, config.reducers, config.racks, config.oversubscription, config.seed
    );

    let (outcome, trace) = match run_shuffle_traced(&config, opts.trace_out.is_some()) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("fig-shuffle: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", render_table(&outcome));

    if let Some(path) = &opts.report_json {
        let json = report_value(&config, &outcome).to_json_pretty();
        match std::fs::File::create(path).and_then(|mut f| writeln!(f, "{json}")) {
            Ok(()) => eprintln!("shuffle report written to {path}"),
            Err(e) => {
                eprintln!("fig-shuffle: cannot write report to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &opts.trace_out {
        let Some(trace) = trace else {
            eprintln!("fig-shuffle: traced run produced no trace");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, adapt_trace::write_jsonl(&trace)) {
            eprintln!("fig-shuffle: cannot write event trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("event trace written to {path}");
    }
}
