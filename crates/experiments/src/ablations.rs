//! Ablations of the design choices `DESIGN.md` calls out, measured
//! end-to-end on the emulated-cluster scenario:
//!
//! 1. **Placement policy** — random vs spread (exactly balanced,
//!    availability-blind) vs naive vs ADAPT. Spread separates the cost of
//!    placement *variance* from the cost of availability-blindness.
//! 2. **Threshold** — the paper's `m(k+1)/n` cap vs uncapped vs a tight
//!    cap (storage fairness against performance).
//! 3. **Speculation** — straggler duplication on vs off.
//! 4. **Chain weighting** — Algorithm 1's rate-weighted collision chains
//!    vs exact overlap weighting.
//! 5. **Scheduling** — FIFO stealing vs availability-aware stealing (the
//!    paper's future work) on the trace-driven harness.

use adapt_core::{AdaptPolicy, ChainWeighting, NaivePolicy, SpreadPolicy};
use adapt_dfs::namenode::Threshold;
use adapt_dfs::placement::RandomPolicy;
use adapt_sim::engine::SchedulingMode;
use adapt_sim::runner::AggregateReport;

use crate::config::{EmulatedConfig, LargeScaleConfig};
use crate::emulated::run_emulated_custom;
use crate::largescale::{run_largescale_tweaked, World};
use crate::{ExperimentError, PolicyKind};

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// The variant's label.
    pub label: String,
    /// Aggregated results.
    pub agg: AggregateReport,
}

/// A thread-safe factory producing boxed placement policies.
type PolicyFactory = Box<dyn Fn() -> Box<dyn adapt_dfs::PlacementPolicy> + Sync>;

/// Ablation 1: the policy lineup including the spread baseline.
///
/// # Errors
///
/// Propagates the first scenario failure.
#[expect(clippy::expect_used, reason = "the config validates gamma")]
pub fn policy_ablation(config: &EmulatedConfig) -> Result<Vec<AblationResult>, ExperimentError> {
    let gamma = config.gamma;
    let variants: Vec<(&str, PolicyFactory)> = vec![
        ("random", Box::new(|| Box::new(RandomPolicy::new()))),
        ("spread", Box::new(|| Box::new(SpreadPolicy::new()))),
        ("naive", Box::new(|| Box::new(NaivePolicy::new()))),
        (
            "adapt",
            Box::new(move || Box::new(AdaptPolicy::new(gamma).expect("config validates gamma"))),
        ),
    ];
    let mut out = Vec::new();
    for (label, factory) in &variants {
        out.push(AblationResult {
            label: (*label).to_string(),
            agg: run_emulated_custom(config, factory.as_ref(), Threshold::PaperDefault, &|cfg| {
                cfg
            })?,
        });
    }
    Ok(out)
}

/// Ablation 2: the `m(k+1)/n` threshold on / off / tight.
///
/// # Errors
///
/// Propagates the first scenario failure.
#[expect(clippy::expect_used, reason = "the config validates gamma")]
pub fn threshold_ablation(config: &EmulatedConfig) -> Result<Vec<AblationResult>, ExperimentError> {
    let gamma = config.gamma;
    // "Tight" caps each node at the exactly fair share m·k/n.
    let fair = (config.total_blocks() * config.replication).div_ceil(config.nodes);
    let variants = [
        ("threshold-off", Threshold::None),
        ("threshold-paper", Threshold::PaperDefault),
        ("threshold-fair", Threshold::Blocks(fair.max(1))),
    ];
    let mut out = Vec::new();
    for (label, threshold) in variants {
        out.push(AblationResult {
            label: label.to_string(),
            agg: run_emulated_custom(
                config,
                &move || Box::new(AdaptPolicy::new(gamma).expect("config validates gamma")),
                threshold,
                &|cfg| cfg,
            )?,
        });
    }
    Ok(out)
}

/// Ablation 3: speculation on/off under the stock random placement.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn speculation_ablation(
    config: &EmulatedConfig,
) -> Result<Vec<AblationResult>, ExperimentError> {
    let mut out = Vec::new();
    for (label, on) in [("speculation-on", true), ("speculation-off", false)] {
        out.push(AblationResult {
            label: label.to_string(),
            agg: run_emulated_custom(
                config,
                &|| Box::new(RandomPolicy::new()),
                Threshold::PaperDefault,
                &move |cfg| cfg.with_speculation(on),
            )?,
        });
    }
    Ok(out)
}

/// Ablation 4: the paper's rate-weighted collision chains vs exact
/// overlap weighting in Algorithm 1.
///
/// # Errors
///
/// Propagates the first scenario failure.
#[expect(clippy::expect_used, reason = "the config validates gamma")]
pub fn chain_weighting_ablation(
    config: &EmulatedConfig,
) -> Result<Vec<AblationResult>, ExperimentError> {
    let gamma = config.gamma;
    let mut out = Vec::new();
    for (label, weighting) in [
        ("chain-rate", ChainWeighting::Rate),
        ("chain-overlap", ChainWeighting::Overlap),
    ] {
        out.push(AblationResult {
            label: label.to_string(),
            agg: run_emulated_custom(
                config,
                &move || {
                    Box::new(
                        AdaptPolicy::new(gamma)
                            .expect("config validates gamma")
                            .with_weighting(weighting),
                    )
                },
                Threshold::PaperDefault,
                &|cfg| cfg,
            )?,
        });
    }
    Ok(out)
}

/// Ablation 5: failure-detection latency — oracle (0 s) vs Hadoop-ish
/// heartbeat timeouts. Slower detection strands killed tasks longer —
/// but with short outages it can also *help*, acting as implicit
/// re-execution damping: the task waits out the outage and reruns
/// locally instead of paying a remote fetch (one reason Hadoop's
/// conservative timeouts are less harmful than they look).
///
/// # Errors
///
/// Propagates the first scenario failure.
#[expect(clippy::expect_used, reason = "the swept delays are non-negative")]
pub fn detection_delay_ablation(
    config: &EmulatedConfig,
) -> Result<Vec<AblationResult>, ExperimentError> {
    let mut out = Vec::new();
    for delay in [0.0, 10.0, 30.0] {
        out.push(AblationResult {
            label: format!("detection-{delay:.0}s"),
            agg: run_emulated_custom(
                config,
                &|| Box::new(RandomPolicy::new()),
                Threshold::PaperDefault,
                &move |cfg| {
                    cfg.with_detection_delay(delay)
                        .expect("non-negative delays are valid")
                },
            )?,
        });
    }
    Ok(out)
}

/// Ablation 6: FIFO vs availability-aware stealing on the trace-driven
/// harness (the paper's future-work scheduling direction), under the
/// stock random placement so scheduling is the only lever.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn scheduling_ablation(
    config: &LargeScaleConfig,
) -> Result<Vec<AblationResult>, ExperimentError> {
    let world = World::generate(config)?;
    let mut out = Vec::new();
    for (label, mode) in [
        ("steal-fifo", SchedulingMode::Fifo),
        (
            "steal-availability-aware",
            SchedulingMode::AvailabilityAware,
        ),
    ] {
        out.push(AblationResult {
            label: label.to_string(),
            agg: run_largescale_tweaked(config, PolicyKind::Random, &world, &move |cfg| {
                cfg.with_scheduling(mode)
            })?,
        });
    }
    Ok(out)
}

/// Renders ablation results in a fixed-width table.
pub fn render(title: &str, results: &[AblationResult]) -> String {
    let mut out = format!(
        "-- {title} --\n{:<26} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
        "variant", "elapsed", "locality", "migrate", "misc", "total-ovh"
    );
    for r in results {
        out.push_str(&format!(
            "{:<26} {:>10.1} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            r.label,
            r.agg.elapsed.mean(),
            r.agg.locality.mean(),
            r.agg.migration_ratio.mean(),
            r.agg.misc_ratio.mean(),
            r.agg.total_overhead_ratio.mean(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EmulatedConfig {
        EmulatedConfig {
            nodes: 16,
            blocks_per_node: 5,
            runs: 2,
            ..EmulatedConfig::default()
        }
    }

    #[test]
    fn policy_ablation_covers_all_variants() {
        let results = policy_ablation(&small()).unwrap();
        let labels: Vec<&str> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["random", "spread", "naive", "adapt"]);
        for r in &results {
            assert!(r.agg.all_completed, "{} incomplete", r.label);
        }
    }

    #[test]
    fn threshold_ablation_runs_all_variants() {
        let results = threshold_ablation(&small()).unwrap();
        assert_eq!(results.len(), 3);
        for r in &results {
            assert!(r.agg.elapsed.mean() > 0.0);
        }
    }

    #[test]
    fn speculation_off_is_never_faster_on_average() {
        let results = speculation_ablation(&small()).unwrap();
        let on = &results[0].agg;
        let off = &results[1].agg;
        assert!(
            on.elapsed.mean() <= off.elapsed.mean() * 1.05,
            "speculation on {} vs off {}",
            on.elapsed.mean(),
            off.elapsed.mean()
        );
    }

    #[test]
    fn chain_weighting_variants_are_close() {
        // With m >> n the two weightings should be nearly identical.
        let results = chain_weighting_ablation(&small()).unwrap();
        let rate = results[0].agg.elapsed.mean();
        let overlap = results[1].agg.elapsed.mean();
        let ratio = rate / overlap;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "rate {rate} vs overlap {overlap}"
        );
    }

    #[test]
    fn detection_delay_variants_complete_within_a_sane_band() {
        // Direction is scenario-dependent (delay can act as implicit
        // locality damping with short outages), so assert completion and
        // a bounded effect, not monotonicity.
        let results = detection_delay_ablation(&small()).unwrap();
        assert_eq!(results.len(), 3);
        let oracle = results[0].agg.elapsed.mean();
        for r in &results {
            assert!(r.agg.all_completed, "{} incomplete", r.label);
            let ratio = r.agg.elapsed.mean() / oracle;
            assert!((0.3..=3.0).contains(&ratio), "{}: ratio {ratio}", r.label);
        }
    }

    #[test]
    fn scheduling_ablation_runs_both_modes() {
        let config = LargeScaleConfig {
            nodes: 48,
            tasks_per_node: 10,
            runs: 2,
            ..LargeScaleConfig::default()
        };
        let results = scheduling_ablation(&config).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            assert!(r.agg.all_completed, "{} incomplete", r.label);
        }
    }

    #[test]
    fn render_lists_every_variant() {
        let results = policy_ablation(&small()).unwrap();
        let text = render("policies", &results);
        for r in &results {
            assert!(text.contains(&r.label));
        }
    }
}
