//! Regenerates Figure 5: the overhead decomposition of the large-scale
//! trace-driven simulation.
//!
//! Usage: `fig5 [a|b|c] [--paper] [--runs N] [--nodes N] [--seed N] [--csv]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The selector picks one sub-figure of [`FIGURE5`], which declares the
//! sweeps — `a` the bandwidth, `b` the block size, `c` the cluster size,
//! centred on `--nodes` when given; none runs all three. The last six
//! flags write the outputs of one probe run
//! (`adapt_experiments::run_report`) at the same node count and seed.

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::largescale::{base_config, sweep, FIGURE5, FIGURE5_SERIES};
use adapt_experiments::report::{overhead_csv, overhead_table};

fn main() {
    let opts = Options::from_env(&Flag::ALL, &FIGURE5.map(|f| f.letter));
    let base = base_config(&opts);
    for figure in FIGURE5.iter().filter(|f| opts.selects(f.letter)) {
        let points = match sweep(&base, figure, &figure.xs(&opts), &FIGURE5_SERIES) {
            Ok(points) => points,
            Err(e) => {
                eprintln!("fig5 failed: {e}");
                std::process::exit(1);
            }
        };
        if opts.csv {
            print!("{}", overhead_csv(&points, figure.label));
        } else {
            println!("-- Figure 5: overhead ratios vs {} --", figure.label);
            print!("{}", overhead_table(&points, figure.label));
            println!();
        }
    }
    adapt_experiments::run_report::write_probe("fig5", &opts, base.nodes, base.seed, None);
}
