//! Regenerates Figure 5: the overhead decomposition of the large-scale
//! trace-driven simulation.
//!
//! Usage: `fig5 [a|b|c] [--paper] [--runs N] [--nodes N] [--seed N] [--csv]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The last six flags write the outputs of one probe run
//! (`adapt_experiments::run_report`) at the same node count and seed.
//!
//! * `a` — sweep the bandwidth {4, 8, 16, 32 Mb/s};
//! * `b` — sweep the block size {32, 64, 128, 256 MB};
//! * `c` — sweep the cluster size {1 024 … 16 384} (`--paper`) or a
//!   reduced ladder by default;
//! * no selector — all three.

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::config::LargeScaleConfig;
use adapt_experiments::largescale::{
    sweep_bandwidth, sweep_block_size, sweep_nodes, OverheadPoint, FIGURE5_SERIES,
};
use adapt_experiments::report::{overhead_csv, overhead_table};
use adapt_experiments::ExperimentError;

fn base_config(opts: &Options) -> LargeScaleConfig {
    let mut config = LargeScaleConfig::default();
    if !opts.paper {
        config.nodes = 256;
        config.tasks_per_node = 20;
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

fn render(opts: &Options, label: &str, points: &[OverheadPoint]) {
    if opts.csv {
        print!("{}", overhead_csv(points, label));
    } else {
        println!("-- Figure 5: overhead ratios vs {label} --");
        print!("{}", overhead_table(points, label));
        println!();
    }
}

fn run(opts: &Options) -> Result<(), ExperimentError> {
    let base = base_config(opts);
    let which = opts.positional.first().map(String::as_str);
    if matches!(which, None | Some("a")) {
        let pts = sweep_bandwidth(&base, &[4.0, 8.0, 16.0, 32.0], &FIGURE5_SERIES)?;
        render(opts, "bandwidth_mbps", &pts);
    }
    if matches!(which, None | Some("b")) {
        let pts = sweep_block_size(&base, &[32, 64, 128, 256], &FIGURE5_SERIES)?;
        render(opts, "block_mb", &pts);
    }
    if matches!(which, None | Some("c")) {
        // `--nodes N` centres the scaling ladder on N; otherwise the
        // paper's ladder (or a laptop-quick one) is used.
        let counts: Vec<usize> = match (opts.paper, opts.nodes) {
            (_, Some(n)) => vec![(n / 4).max(16), (n / 2).max(32), n, n * 2],
            (true, None) => vec![1_024, 2_048, 4_096, 8_192, 16_384],
            (false, None) => vec![128, 256, 512],
        };
        let pts = sweep_nodes(&base, &counts, &FIGURE5_SERIES)?;
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
        eprintln!("fig5 failed: {e}");
        std::process::exit(1);
    }
    let base = base_config(&opts);
    adapt_experiments::run_report::write_probe("fig5", &opts, base.nodes, base.seed, None);
}
