//! Runs every paper reproduction (Table 1, Figures 3–5) at the chosen
//! scale and prints all tables — the input to `EXPERIMENTS.md`.
//!
//! Usage: `all [--paper] [--runs N] [--nodes N] [--seed N]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The last six flags write the outputs of one probe run
//! (`adapt_experiments::run_report`) of `--nodes` hosts (default 256).

use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::config::{EmulatedConfig, LargeScaleConfig};
use adapt_experiments::emulated::{self, FIGURE3_SERIES};
use adapt_experiments::largescale::{self, FIGURE5_SERIES};
use adapt_experiments::report::{elapsed_entries, locality_entries, overhead_table, pivot_table};
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

fn run(opts: &Options) -> Result<(), ExperimentError> {
    let seed = opts.seed.unwrap_or(2012);

    // Table 1.
    let hosts = if opts.paper { 226_208 } else { 20_000 };
    println!("===== Table 1 ({hosts} hosts) =====");
    print!("{}", render_comparison(&run_table1(hosts, seed)?));
    println!();

    // Emulated cluster (Figures 3 and 4).
    let mut emu = EmulatedConfig {
        seed,
        ..EmulatedConfig::default()
    };
    if !opts.paper {
        emu.nodes = 32;
        emu.blocks_per_node = 10;
        emu.runs = 3;
    }
    if let Some(runs) = opts.runs {
        emu.runs = runs;
    }

    let ratios = [0.25, 0.5, 0.75];
    let bandwidths = [4.0, 8.0, 16.0, 32.0];
    let node_ladder: Vec<usize> = if opts.paper {
        vec![32, 64, 128, 256]
    } else {
        vec![16, 32, 64]
    };

    let a = emulated::sweep_interrupted_ratio(&emu, &ratios, &FIGURE3_SERIES)?;
    let b = emulated::sweep_bandwidth(&emu, &bandwidths, &FIGURE3_SERIES)?;
    let c = emulated::sweep_nodes(&emu, &node_ladder, &FIGURE3_SERIES)?;

    println!("===== Figure 3(a): elapsed (s) vs interrupted ratio =====");
    print!("{}", pivot_table(&elapsed_entries(&a), "ratio"));
    println!("\n===== Figure 3(b): elapsed (s) vs bandwidth =====");
    print!("{}", pivot_table(&elapsed_entries(&b), "mbps"));
    println!("\n===== Figure 3(c): elapsed (s) vs nodes =====");
    print!("{}", pivot_table(&elapsed_entries(&c), "nodes"));

    println!("\n===== Figure 4(a): locality vs interrupted ratio =====");
    print!("{}", pivot_table(&locality_entries(&a), "ratio"));
    println!("\n===== Figure 4(b): locality vs bandwidth =====");
    print!("{}", pivot_table(&locality_entries(&b), "mbps"));
    println!("\n===== Figure 4(c): locality vs nodes =====");
    print!("{}", pivot_table(&locality_entries(&c), "nodes"));

    // Large-scale simulation (Figure 5).
    let mut large = LargeScaleConfig {
        seed,
        ..LargeScaleConfig::default()
    };
    if !opts.paper {
        large.nodes = 256;
        large.tasks_per_node = 20;
        large.runs = 3;
    }
    if let Some(runs) = opts.runs {
        large.runs = runs;
    }

    let fa = largescale::sweep_bandwidth(&large, &bandwidths, &FIGURE5_SERIES)?;
    println!("\n===== Figure 5(a): overhead ratios vs bandwidth =====");
    print!("{}", overhead_table(&fa, "mbps"));

    let fb = largescale::sweep_block_size(&large, &[32, 64, 128, 256], &FIGURE5_SERIES)?;
    println!("\n===== Figure 5(b): overhead ratios vs block size =====");
    print!("{}", overhead_table(&fb, "block_mb"));

    let large_ladder: Vec<usize> = if opts.paper {
        vec![1_024, 2_048, 4_096, 8_192, 16_384]
    } else {
        vec![128, 256, 512]
    };
    let fc = largescale::sweep_nodes(&large, &large_ladder, &FIGURE5_SERIES)?;
    println!("\n===== Figure 5(c): overhead ratios vs nodes =====");
    print!("{}", overhead_table(&fc, "nodes"));

    Ok(())
}

fn main() {
    let opts = match Options::from_env(FLAGS) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&opts) {
        eprintln!("all failed: {e}");
        std::process::exit(1);
    }
    let nodes = opts.nodes.unwrap_or(256);
    let seed = opts.seed.unwrap_or(2012);
    adapt_experiments::run_report::write_probe("all", &opts, nodes, seed, None);
}
