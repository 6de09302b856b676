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
    scheduling_ablation, speculation_ablation, threshold_ablation, AblationResult,
};
use adapt_experiments::cli::{Flag, Options};
use adapt_experiments::config::EmulatedConfig;
use adapt_experiments::{emulated, largescale, ExperimentError};

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

/// An emulated-cluster ablation.
type Ablation = fn(&EmulatedConfig) -> Result<Vec<AblationResult>, ExperimentError>;

/// The emulated-cluster ablations, titled, in print order.
const EMULATED: [(&str, Ablation); 5] = [
    ("placement policies", policy_ablation),
    ("m(k+1)/n threshold", threshold_ablation),
    ("speculative execution", speculation_ablation),
    ("collision-chain weighting", chain_weighting_ablation),
    ("failure-detection latency", detection_delay_ablation),
];

fn run(opts: &Options) -> Result<(), ExperimentError> {
    if opts.selects("emu") {
        let emu = emulated::base_config(opts);
        for (title, ablation) in EMULATED {
            print!("{}", render(title, &ablation(&emu)?));
            println!();
        }
    }
    if opts.selects("sched") {
        let large = largescale::base_config(opts);
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
    let opts = Options::from_env(FLAGS, &["emu", "sched"]);
    if let Err(e) = run(&opts) {
        eprintln!("ablations failed: {e}");
        std::process::exit(1);
    }
    let nodes = opts.nodes.unwrap_or(256);
    let seed = opts.seed.unwrap_or(2012);
    adapt_experiments::run_report::write_probe("ablations", &opts, nodes, seed, None);
}
