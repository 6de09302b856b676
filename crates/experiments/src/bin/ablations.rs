//! Runs the design-choice ablation suite and prints one table per
//! ablation (see `DESIGN.md` §7).
//!
//! Usage: `ablations [emu|sched] [--paper] [--runs N] [--nodes N] [--seed N]
//! [--report-json PATH] [--trace-out PATH] [--metrics-out PATH]
//! [--metrics-interval SECS] [--racks N] [--oversubscription X]`
//!
//! The last six flags write the outputs of one probe run
//! (`adapt_experiments::run_report`) of `--nodes` hosts (default 256).
//!
//! * `emu` — only the emulated-cluster ablations (policies, threshold,
//!   speculation, chain weighting, detection latency);
//! * `sched` — only the trace-driven scheduling ablation;
//! * no selector — everything.

use adapt_experiments::ablations::{
    chain_weighting_ablation, detection_delay_ablation, policy_ablation, render,
    scheduling_ablation, speculation_ablation, threshold_ablation,
};
use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::config::{EmulatedConfig, LargeScaleConfig};
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
    let which = opts.positional.first().map(String::as_str);

    if matches!(which, None | Some("emu")) {
        let mut emu = EmulatedConfig::default();
        if !opts.paper {
            emu.nodes = 32;
            emu.blocks_per_node = 10;
            emu.runs = 3;
        }
        if let Some(nodes) = opts.nodes {
            emu.nodes = nodes;
        }
        if let Some(runs) = opts.runs {
            emu.runs = runs;
        }
        if let Some(seed) = opts.seed {
            emu.seed = seed;
        }

        print!("{}", render("placement policies", &policy_ablation(&emu)?));
        println!();
        print!(
            "{}",
            render("m(k+1)/n threshold", &threshold_ablation(&emu)?)
        );
        println!();
        print!(
            "{}",
            render("speculative execution", &speculation_ablation(&emu)?)
        );
        println!();
        print!(
            "{}",
            render(
                "collision-chain weighting",
                &chain_weighting_ablation(&emu)?
            )
        );
        println!();
        print!(
            "{}",
            render(
                "failure-detection latency",
                &detection_delay_ablation(&emu)?
            )
        );
        println!();
    }

    if matches!(which, None | Some("sched")) {
        let mut large = LargeScaleConfig::default();
        if !opts.paper {
            large.nodes = 256;
            large.tasks_per_node = 20;
            large.runs = 3;
        }
        if let Some(nodes) = opts.nodes {
            large.nodes = nodes;
        }
        if let Some(runs) = opts.runs {
            large.runs = runs;
        }
        if let Some(seed) = opts.seed {
            large.seed = seed;
        }
        print!(
            "{}",
            render(
                "steal scheduling (future work)",
                &scheduling_ablation(&large)?
            )
        );
    }
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
        eprintln!("ablations failed: {e}");
        std::process::exit(1);
    }
    let nodes = opts.nodes.unwrap_or(256);
    let seed = opts.seed.unwrap_or(2012);
    adapt_experiments::run_report::write_probe("ablations", &opts, nodes, seed, None);
}
