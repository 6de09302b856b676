//! The emulated non-dedicated cluster harness — Figures 3 and 4.
//!
//! Reproduces the paper's Magellan setup: `n` VM-like nodes, a fraction
//! of them interrupted (split evenly into the four Table 2 groups),
//! Terasort-like input of 20 blocks per node, throttled bandwidth, map
//! phase measured. Each scenario is run `runs` times and averaged, as in
//! the paper ("we had 10 runs for each scenario and derived their
//! means").
//!
//! [`FIGURE3`] declares the three sweeps Figures 3 and 4 share; the
//! `fig3` and `fig4` binaries share one `main`, [`Plot::main`], and
//! differ only in the value they tabulate.

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_sim::engine::{MapPhaseSim, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::runner::{aggregate, placement_from_namenode, AggregateReport};

use crate::cli::{Flag, Options};
use crate::config::{EmulatedConfig, TABLE2_GROUPS};
use crate::parallel::map_parallel;
use crate::policies::PolicyKind;
use crate::report::{pivot_table, to_csv, Entry};
use crate::run_report::write_probe;
use crate::ExperimentError;

/// One sub-figure of the paper's evaluation: the selector word that
/// picks it, the parameter it sweeps over a harness config `C`, and its
/// x-values.
#[derive(Debug)]
pub struct SubFigure<C> {
    /// The selector, e.g. `"a"`.
    pub letter: &'static str,
    /// The swept parameter as a table label, e.g. `"bandwidth_mbps"`.
    pub label: &'static str,
    /// Sets the swept parameter of a config to an x-value.
    pub set: fn(&mut C, f64),
    /// The x-values at quick scale.
    pub quick: &'static [f64],
    /// The x-values under `--paper`.
    pub paper: &'static [f64],
    /// Whether `--nodes N` replaces the x-values with the ladder
    /// {N/4 (at least 16), N/2 (at least 32), N, 2N}, ascending and
    /// without repeats.
    pub around_nodes: bool,
}

impl<C> SubFigure<C> {
    /// The x-values `opts` asks for: the `--nodes` ladder when this
    /// sub-figure sweeps around `--nodes`, else the `--paper` or quick
    /// values.
    pub fn xs(&self, opts: &Options) -> Vec<f64> {
        match opts.nodes.filter(|_| self.around_nodes) {
            Some(n) => {
                let mut ladder = vec![(n / 4).max(16), (n / 2).max(32), n, n.saturating_mul(2)];
                ladder.sort_unstable();
                ladder.dedup();
                ladder.into_iter().map(|n| n as f64).collect()
            }
            None if opts.paper => self.paper.to_vec(),
            None => self.quick.to_vec(),
        }
    }
}

/// The interrupted-node ratios of Figures 3(a) and 4(a).
const RATIOS: &[f64] = &[0.25, 0.5, 0.75];

/// The bandwidths (Mb/s) the paper sweeps in Figures 3(b), 4(b) and 5(a).
pub(crate) const BANDWIDTHS_MBPS: &[f64] = &[4.0, 8.0, 16.0, 32.0];

/// The sub-figures of Figures 3 and 4, which plot elapsed time and
/// locality of the same runs:
///
/// * `a` — the interrupted-node ratio {¼, ½, ¾};
/// * `b` — the bandwidth {4, 8, 16, 32 Mb/s};
/// * `c` — the cluster size {16, 32, 64}, or {32, 64, 128, 256} under
///   `--paper`.
pub const FIGURE3: [SubFigure<EmulatedConfig>; 3] = [
    SubFigure {
        letter: "a",
        label: "interrupted_ratio",
        set: |config, x| config.interrupted_ratio = x,
        quick: RATIOS,
        paper: RATIOS,
        around_nodes: false,
    },
    SubFigure {
        letter: "b",
        label: "bandwidth_mbps",
        set: |config, x| config.bandwidth_mbps = x,
        quick: BANDWIDTHS_MBPS,
        paper: BANDWIDTHS_MBPS,
        around_nodes: false,
    },
    SubFigure {
        letter: "c",
        label: "nodes",
        set: |config, x| config.nodes = x as usize,
        quick: &[16.0, 32.0, 64.0],
        paper: &[32.0, 64.0, 128.0, 256.0],
        around_nodes: false,
    },
];

/// One sweep measurement: a policy/replication series at one x value.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter's value (ratio, Mb/s, or node count).
    pub x: f64,
    /// Placement policy of this series.
    pub policy: PolicyKind,
    /// Replication factor of this series.
    pub replication: usize,
    /// Aggregated results over the configured runs.
    pub agg: AggregateReport,
}

impl SweepPoint {
    /// Series label in the paper's style, e.g. `"ADAPT-1rep"`.
    pub fn series(&self) -> String {
        format!("{}-{}rep", self.policy.label(), self.replication)
    }
}

/// The per-node availability layout of an emulated cluster: the first
/// `n − interrupted` nodes are reliable, the rest cycle through the four
/// Table 2 groups ("the interrupted nodes were further divided evenly
/// into four groups").
#[expect(clippy::expect_used, reason = "the Table 2 constants are valid")]
pub fn availability_layout(config: &EmulatedConfig) -> Vec<NodeAvailability> {
    let interrupted = config.interrupted_nodes();
    let reliable = config.nodes - interrupted;
    (0..config.nodes)
        .map(|i| {
            if i < reliable {
                NodeAvailability::reliable()
            } else {
                let g = TABLE2_GROUPS[(i - reliable) % TABLE2_GROUPS.len()];
                NodeAvailability::from_mtbi(g.mtbi, g.service)
                    .expect("Table 2 parameters are valid")
            }
        })
        .collect()
}

/// Runs one emulated scenario (`runs` seeds in parallel) and aggregates.
///
/// # Errors
///
/// Returns [`ExperimentError`] for invalid configuration or a substrate
/// failure (placement impossible, simulation horizon exceeded, …).
pub fn run_emulated(
    config: &EmulatedConfig,
    policy: PolicyKind,
) -> Result<AggregateReport, ExperimentError> {
    let gamma = config.gamma;
    run_emulated_custom(
        config,
        &|| policy.build(gamma),
        Threshold::PaperDefault,
        &|cfg| cfg,
    )
}

/// Like [`run_emulated`] but with a caller-supplied policy factory,
/// threshold, and simulator-config tweak — the entry point the ablation
/// suite uses (e.g. speculation off, custom scheduling mode, threshold
/// variants, non-registry policies).
///
/// # Errors
///
/// Same as [`run_emulated`].
pub fn run_emulated_custom(
    config: &EmulatedConfig,
    make_policy: &(dyn Fn() -> Box<dyn adapt_dfs::PlacementPolicy> + Sync),
    threshold: Threshold,
    tweak: &(dyn Fn(SimConfig) -> SimConfig + Sync),
) -> Result<AggregateReport, ExperimentError> {
    if config.runs == 0 {
        return Err(ExperimentError::InvalidConfig {
            name: "runs",
            reason: "at least one run required".into(),
        });
    }
    if !(0.0..=1.0).contains(&config.interrupted_ratio) {
        return Err(ExperimentError::InvalidConfig {
            name: "interrupted_ratio",
            reason: format!("{} must be within [0, 1]", config.interrupted_ratio),
        });
    }
    let layout = availability_layout(config);
    let seeds: Vec<u64> = (0..config.runs).map(|i| config.seed + i as u64).collect();
    let reports = map_parallel(&seeds, |&seed| {
        run_once(config, make_policy, threshold, tweak, &layout, seed)
    });
    let mut ok = Vec::with_capacity(reports.len());
    for r in reports {
        ok.push(r?);
    }
    Ok(aggregate(ok))
}

fn run_once(
    config: &EmulatedConfig,
    make_policy: &(dyn Fn() -> Box<dyn adapt_dfs::PlacementPolicy> + Sync),
    threshold: Threshold,
    tweak: &(dyn Fn(SimConfig) -> SimConfig + Sync),
    layout: &[NodeAvailability],
    seed: u64,
) -> Result<adapt_sim::SimReport, ExperimentError> {
    let mut rng = StdRng::seed_from_u64(seed);

    // Placement through the NameNode.
    let specs: Vec<NodeSpec> = layout.iter().map(|&a| NodeSpec::new(a)).collect();
    let mut namenode = NameNode::new(specs);
    let mut placement_policy = make_policy();
    let file = namenode.create_file(
        "terasort-input",
        config.total_blocks(),
        config.replication,
        placement_policy.as_mut(),
        threshold,
        &mut rng,
    )?;
    let placement = placement_from_namenode(&namenode, file)?;

    // Interruption injection per Table 2.
    let processes = layout
        .iter()
        .map(|&a| InterruptionProcess::from_availability(a))
        .collect::<Result<_, _>>()?;

    let cfg = tweak(SimConfig::new(
        config.bandwidth_mbps,
        config.block_size,
        config.gamma,
    )?);
    Ok(MapPhaseSim::new(processes, placement, cfg)?.run(seed)?)
}

/// The policy/replication series of Figures 3 and 4.
pub const FIGURE3_SERIES: [(PolicyKind, usize); 4] = [
    (PolicyKind::Random, 1),
    (PolicyKind::Random, 2),
    (PolicyKind::Adapt, 1),
    (PolicyKind::Adapt, 2),
];

/// The base scenario of the emulated binaries: Table 3 under `--paper`,
/// else a quick 32-node cluster with 10 blocks per node and 3 runs; then
/// `--nodes`, `--runs` and `--seed`.
pub fn base_config(opts: &Options) -> EmulatedConfig {
    let mut config = EmulatedConfig::default();
    if !opts.paper {
        (config.nodes, config.blocks_per_node, config.runs) = (32, 10, 3);
    }
    config.nodes = opts.nodes.unwrap_or(config.nodes);
    config.runs = opts.runs.unwrap_or(config.runs);
    config.seed = opts.seed.unwrap_or(config.seed);
    config
}

/// Runs every `series` at each of `xs` on `figure`'s axis of `base`.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn sweep(
    base: &EmulatedConfig,
    figure: &SubFigure<EmulatedConfig>,
    xs: &[f64],
    series: &[(PolicyKind, usize)],
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let mut out = Vec::new();
    for &x in xs {
        for &(policy, replication) in series {
            let mut config = EmulatedConfig {
                replication,
                ..*base
            };
            (figure.set)(&mut config, x);
            out.push(SweepPoint {
                x,
                policy,
                replication,
                agg: run_emulated(&config, policy)?,
            });
        }
    }
    Ok(out)
}

/// What `fig3` or `fig4` tabulates from the sweeps of [`FIGURE3`].
#[derive(Debug)]
pub struct Plot {
    /// The binary's name, e.g. `"fig3"`.
    pub tool: &'static str,
    /// The table title, e.g. `"Figure 3: elapsed time (s)"`.
    pub title: &'static str,
    /// The CSV value column, e.g. `"elapsed_s"`.
    pub column: &'static str,
    /// The tabulated value of each point.
    pub entries: fn(&[SweepPoint]) -> Vec<Entry>,
}

impl Plot {
    /// The `main` of `fig3` and `fig4`: parses the command line, prints the
    /// table (or, with `--csv`, the CSV) of each selected sub-figure of
    /// [`FIGURE3`], then writes the probe outputs asked for. Exits 2 on
    /// a bad command line and 1 on a failed run.
    pub fn main(&self) {
        let opts = Options::from_env(&Flag::ALL, &FIGURE3.map(|f| f.letter));
        let base = base_config(&opts);
        for figure in FIGURE3.iter().filter(|f| opts.selects(f.letter)) {
            let points = match sweep(&base, figure, &figure.xs(&opts), &FIGURE3_SERIES) {
                Ok(points) => points,
                Err(e) => {
                    eprintln!("{} failed: {e}", self.tool);
                    std::process::exit(1);
                }
            };
            let entries = (self.entries)(&points);
            if opts.csv {
                print!("{}", to_csv(&entries, figure.label, self.column));
            } else {
                println!("-- {} vs {} --", self.title, figure.label);
                print!("{}", pivot_table(&entries, figure.label));
                println!();
            }
        }
        write_probe(self.tool, &opts, base.nodes, base.seed, None);
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    /// A small, fast configuration for tests.
    fn small() -> EmulatedConfig {
        EmulatedConfig {
            nodes: 16,
            blocks_per_node: 5,
            runs: 3,
            ..EmulatedConfig::default()
        }
    }

    #[test]
    fn layout_splits_interrupted_nodes_into_groups() {
        let layout = availability_layout(&small());
        assert_eq!(layout.len(), 16);
        assert!(layout[..8].iter().all(|a| a.is_reliable()));
        assert!(layout[8..].iter().all(|a| !a.is_reliable()));
        // Two full cycles through the four groups.
        assert_eq!(layout[8], layout[12]);
        assert_ne!(layout[8], layout[9]);
    }

    #[test]
    fn zero_runs_is_rejected() {
        let config = EmulatedConfig { runs: 0, ..small() };
        assert!(run_emulated(&config, PolicyKind::Random).is_err());
    }

    #[test]
    fn bad_ratio_is_rejected() {
        let config = EmulatedConfig {
            interrupted_ratio: 1.5,
            ..small()
        };
        assert!(run_emulated(&config, PolicyKind::Random).is_err());
    }

    #[test]
    fn emulated_run_completes_and_aggregates() {
        let agg = run_emulated(&small(), PolicyKind::Adapt).unwrap();
        assert_eq!(agg.runs, 3);
        assert!(agg.all_completed);
        assert!(agg.elapsed.mean() > 0.0);
        let loc = agg.locality.mean();
        assert!((0.0..=1.0).contains(&loc));
    }

    #[test]
    fn adapt_beats_random_at_default_ratio() {
        // The paper's headline (Figure 3(a) at ratio 1/2): ADAPT-1rep
        // finishes well before existing-1rep.
        let config = EmulatedConfig {
            runs: 3,
            nodes: 32,
            blocks_per_node: 10,
            ..EmulatedConfig::default()
        };
        let adapt = run_emulated(&config, PolicyKind::Adapt).unwrap();
        let random = run_emulated(&config, PolicyKind::Random).unwrap();
        assert!(
            adapt.elapsed.mean() < random.elapsed.mean(),
            "ADAPT {} vs existing {}",
            adapt.elapsed.mean(),
            random.elapsed.mean()
        );
        assert!(
            adapt.locality.mean() >= random.locality.mean(),
            "ADAPT locality {} vs existing {}",
            adapt.locality.mean(),
            random.locality.mean()
        );
    }

    #[test]
    fn sweep_produces_every_series_point() {
        let bandwidth = &FIGURE3[1];
        let points = sweep(
            &small(),
            bandwidth,
            &[8.0, 32.0],
            &[(PolicyKind::Random, 1)],
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].x, 8.0);
        assert_eq!(points[0].series(), "existing-1rep");
    }

    #[test]
    fn x_values_follow_scale_and_the_nodes_ladder() {
        let quick = Options::default();
        let paper = Options {
            paper: true,
            ..Options::default()
        };
        let nodes = |n| Options {
            nodes: Some(n),
            ..paper.clone()
        };
        let ladder = &crate::largescale::FIGURE5[2];
        assert_eq!(FIGURE3[2].xs(&quick), FIGURE3[2].quick);
        assert_eq!(FIGURE3[2].xs(&paper), FIGURE3[2].paper);
        // Only a sub-figure that sweeps around `--nodes` reads it.
        assert_eq!(FIGURE3[2].xs(&nodes(256)), FIGURE3[2].xs(&paper));
        // The ladder is ascending and simulates no size twice.
        for (n, xs) in [
            (8, &[8.0, 16.0, 32.0][..]),
            (16, &[16.0, 32.0]),
            (20, &[16.0, 20.0, 32.0, 40.0]),
            (32, &[16.0, 32.0, 64.0]),
            (64, &[16.0, 32.0, 64.0, 128.0]),
            (256, &[64.0, 128.0, 256.0, 512.0]),
        ] {
            assert_eq!(ladder.xs(&nodes(n)), xs, "--nodes {n}");
        }
        let letters: Vec<&str> = FIGURE3.iter().map(|f| f.letter).collect();
        assert_eq!(letters, ["a", "b", "c"]);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = run_emulated(&small(), PolicyKind::Adapt).unwrap();
        let b = run_emulated(&small(), PolicyKind::Adapt).unwrap();
        assert_eq!(a.elapsed.mean(), b.elapsed.mean());
        assert_eq!(a.locality.mean(), b.locality.mean());
    }
}
