//! Runs the verification sweep of `adapt-verify` — the differential
//! oracle over a generated scenario corpus, the per-scenario
//! metamorphic placement checks, and the Monte-Carlo gate on equation
//! (5) — and exits non-zero if any gate fails.
//!
//! Usage: `verify [--runs N] [--seed N] [--report-json PATH]`
//! `--runs` is the corpus size (default 128), `--seed` the base seed
//! (default 2012; every scenario seed is `base + offset`), and
//! `--report-json` writes the full fuzz report — including any
//! minimized failing scenario — as a JSON artifact.
//!
//! The sweep is a pure function of `(seed, runs)`: a red CI run is
//! reproducible locally with the same flags, and each failure artifact
//! embeds the scenario JSON plus the generator seed to replay it.

use std::io::Write;

use adapt_experiments::cli::{Flag, Options};
use adapt_verify::run_corpus;

/// The flags this binary reads.
const FLAGS: &[Flag] = &[Flag::Runs, Flag::Seed, Flag::ReportJson];

fn main() {
    let opts = Options::from_env(FLAGS, &[]);
    let count = opts.runs.unwrap_or(128);
    let base_seed = opts.seed.unwrap_or(2012);

    println!("== verify: differential + metamorphic sweep ==");
    println!("   ({count} scenarios from base seed {base_seed})\n");
    let report = run_corpus(base_seed, count);

    for check in &report.mc_checks {
        println!(
            "   mc regime λ={} μ={} γ={} (ρ={:.2}): E[T]={:.4} estimate={:.4} ± {:.4} [{}]",
            check.lambda,
            check.mu,
            check.gamma,
            check.rho,
            check.expected,
            check.estimate,
            check.halfwidth,
            if check.pass { "ok" } else { "FAIL" }
        );
    }
    println!(
        "   scale drift {:.3e}, permutation drift {:.3e}, max node load {}",
        report.max_scale_diff, report.max_perm_diff, report.max_threshold_load
    );
    for failure in &report.failures {
        println!(
            "   DIVERGENCE seed {}: {} — {}",
            failure.seed, failure.divergence.field, failure.divergence.details
        );
    }
    for failure in &report.jobstream_failures {
        println!(
            "   JOBSTREAM DIVERGENCE seed {}: {} — {}",
            failure.seed, failure.divergence.field, failure.divergence.details
        );
    }
    for error in &report.errors {
        println!("   ERROR {error}");
    }

    if let Some(path) = &opts.report_json {
        let json = report.to_value().to_json_pretty();
        match std::fs::File::create(path).and_then(|mut f| writeln!(f, "{json}")) {
            Ok(()) => println!("   report written to {path}"),
            Err(e) => {
                eprintln!("verify: cannot write report to {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if report.passed() {
        println!(
            "\nverify: PASS ({} scenarios, {} mc regimes)",
            report.seeds_run,
            report.mc_checks.len()
        );
    } else {
        println!(
            "\nverify: FAIL ({} divergences, {} jobstream divergences, {} errors, {} mc failures)",
            report.failures.len(),
            report.jobstream_failures.len(),
            report.errors.len(),
            report.mc_checks.iter().filter(|c| !c.pass).count()
        );
        std::process::exit(1);
    }
}
