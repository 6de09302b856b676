//! The large-scale trace-driven simulation harness — Figure 5.
//!
//! Reproduces the paper's Section V-C methodology: a synthetic SETI@home-
//! like host population (the real Failure Trace Archive data is not
//! redistributable; see `DESIGN.md`), per-host `(λ, μ)` estimated from
//! each host's own trace (the heartbeat-collector path), placement
//! through the NameNode under the policy being evaluated, and a map-phase
//! simulation whose interruptions replay each host's trace from a
//! run-specific random offset. The harness reports the overhead
//! decomposition (rework / recovery / migration / misc) relative to the
//! aggregated failure-free execution time, exactly the stacks of
//! Figure 5, whose three sweeps [`FIGURE5`] declares.

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_dfs::placement::PlacementPolicy;
use adapt_dfs::NodeId;
use adapt_sim::engine::{MapPhaseSim, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::runner::{aggregate, placement_from_namenode, AggregateReport};
use adapt_traces::record::{HostTrace, Trace};
use adapt_traces::replay::InterruptionSchedule;
use adapt_traces::synthetic::SyntheticPopulation;

use crate::cli::Options;
use crate::config::LargeScaleConfig;
use crate::emulated::{SubFigure, SweepPoint, BANDWIDTHS_MBPS};
use crate::parallel::map_parallel;
use crate::policies::PolicyKind;
use crate::ExperimentError;

/// A generated host population with per-host availability estimates,
/// shared across runs and policies of one configuration (the paper uses
/// one trace selection per scenario).
#[derive(Debug, Clone)]
pub struct World {
    hosts: Vec<HostTrace>,
    availability: Vec<NodeAvailability>,
}

impl World {
    /// Generates the population for a configuration. Deterministic in
    /// `config.seed`.
    ///
    /// The trace window is scaled to a few hundred expected events per
    /// host — long enough for stable per-host estimates and stationary
    /// random-offset replay, short enough to generate quickly.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::Trace`] for invalid trace-calibration
    /// targets.
    pub fn generate(config: &LargeScaleConfig) -> Result<Self, ExperimentError> {
        let window = config.mtbi_mean * 200.0;
        let population = SyntheticPopulation::calibrated(
            config.mtbi_mean,
            config.mtbi_cov,
            config.duration_mean,
            config.duration_cov,
        )?
        .hosts(config.nodes)
        .observation_window(window);
        let trace = population.generate(config.seed)?;
        let availability = trace.iter().map(estimate_availability).collect();
        Ok(World {
            hosts: trace.into_iter().collect(),
            availability,
        })
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the world is empty.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Per-host availability estimates (the placement policies' input).
    pub fn availability(&self) -> &[NodeAvailability] {
        &self.availability
    }

    /// The underlying traces.
    pub fn traces(&self) -> &[HostTrace] {
        &self.hosts
    }

    /// The whole population as a [`Trace`] (for statistics).
    pub fn as_trace(&self) -> Trace {
        Trace::new(self.hosts.clone())
    }

    /// One NameNode spec per host, carrying its availability estimate.
    pub(crate) fn node_specs(&self) -> Vec<NodeSpec> {
        self.availability
            .iter()
            .map(|&a| NodeSpec::new(a))
            .collect()
    }

    /// Sets up the paired trial of `seed`: every host's trace replayed
    /// from a random offset, and a NameNode that knows which hosts are
    /// down at ingest time. A real NameNode never places blocks on
    /// DataNodes that are not heartbeating, so the offsets are drawn
    /// before placement.
    ///
    /// # Errors
    ///
    /// Propagates NameNode failures as [`ExperimentError`].
    pub fn trial(&self, seed: u64) -> Result<Trial, ExperimentError> {
        let mut rotate_rng = StdRng::seed_from_u64(seed ^ 0x0FF5_E715);
        let schedules: Vec<InterruptionSchedule> = self
            .hosts
            .iter()
            .map(|host| InterruptionSchedule::rotated_random(host, &mut rotate_rng))
            .collect();
        let mut namenode = NameNode::new(self.node_specs());
        for (i, schedule) in schedules.iter().enumerate() {
            if schedule.is_down_at(0.0) {
                namenode.mark_down(NodeId(i as u32))?;
            }
        }
        Ok(Trial {
            namenode,
            processes: schedules
                .into_iter()
                .map(InterruptionProcess::trace)
                .collect(),
            place_rng: placement_rng(seed),
        })
    }
}

/// The placement randomness of the trial or job seeded with `seed`.
///
/// Placement and trace rotation draw from independent streams, so every
/// policy placed under the same seed faces the *same* failure
/// realization (the paper's paired comparison on one trace).
pub(crate) fn placement_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x70AC_E5EED)
}

/// One paired trial over a [`World`], from [`World::trial`]: the
/// NameNode at ingest time and each host's interruption process.
#[derive(Debug)]
pub struct Trial {
    /// The NameNode, with the hosts that are down at t = 0 marked down.
    /// Attach a recorder or metrics hub before [`Trial::place`] to
    /// observe the placement.
    pub namenode: NameNode,
    /// Each host's trace, replayed from the trial's random offset.
    pub processes: Vec<InterruptionProcess>,
    place_rng: StdRng,
}

impl Trial {
    /// Places the trial's input, `blocks` blocks at `replication`,
    /// through `policy` under the paper's threshold, and returns each
    /// block's replica nodes (the map phase's input).
    ///
    /// # Errors
    ///
    /// Propagates placement failures as [`ExperimentError`].
    pub fn place(
        &mut self,
        blocks: usize,
        replication: usize,
        policy: &mut dyn PlacementPolicy,
    ) -> Result<Vec<Vec<NodeId>>, ExperimentError> {
        let file = self.namenode.create_file(
            "input",
            blocks,
            replication,
            policy,
            Threshold::PaperDefault,
            &mut self.place_rng,
        )?;
        Ok(placement_from_namenode(&self.namenode, file)?)
    }
}

/// Estimates `(λ, μ)` from one host's trace, as the NameNode's heartbeat
/// collector would: the mean inter-arrival of observed interruptions and
/// their mean duration. Hosts with too few events to estimate a rate are
/// treated as reliable (their weight errs toward the stock behaviour).
pub fn estimate_availability(host: &HostTrace) -> NodeAvailability {
    match (host.mtbi(), host.mean_duration()) {
        (Some(mtbi), Some(mu)) if mtbi > 0.0 => NodeAvailability {
            lambda: 1.0 / mtbi,
            mu: mu.max(0.0),
        },
        _ => NodeAvailability::reliable(),
    }
}

/// Runs one large-scale scenario: `runs` seeds in parallel over a shared
/// [`World`], aggregated. Sweeps that vary bandwidth or block size share
/// one population.
///
/// # Errors
///
/// Returns [`ExperimentError`] for invalid configuration or substrate
/// failures.
pub fn run_largescale_in(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    world: &World,
) -> Result<AggregateReport, ExperimentError> {
    run_largescale_tweaked(config, policy, world, &|cfg| cfg)
}

/// Like [`run_largescale_in`] with a simulator-config tweak applied to
/// every run (scheduling mode, speculation, stream caps, …) — the
/// ablation suite's entry point.
///
/// # Errors
///
/// Same as [`run_largescale_in`].
pub fn run_largescale_tweaked(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    world: &World,
    tweak: &(dyn Fn(SimConfig) -> SimConfig + Sync),
) -> Result<AggregateReport, ExperimentError> {
    if config.runs == 0 {
        return Err(ExperimentError::InvalidConfig {
            name: "runs",
            reason: "at least one run required".into(),
        });
    }
    if world.len() != config.nodes {
        return Err(ExperimentError::InvalidConfig {
            name: "nodes",
            reason: format!(
                "world has {} hosts but config expects {}",
                world.len(),
                config.nodes
            ),
        });
    }
    let seeds: Vec<u64> = (0..config.runs)
        .map(|i| config.seed ^ 0x5EED_0000 ^ (i as u64) << 32)
        .collect();
    let reports = map_parallel(&seeds, |&seed| run_once(config, policy, world, tweak, seed));
    let mut ok = Vec::with_capacity(reports.len());
    for r in reports {
        ok.push(r?);
    }
    Ok(aggregate(ok))
}

fn run_once(
    config: &LargeScaleConfig,
    policy: PolicyKind,
    world: &World,
    tweak: &(dyn Fn(SimConfig) -> SimConfig + Sync),
    seed: u64,
) -> Result<adapt_sim::SimReport, ExperimentError> {
    let gamma = config.gamma();
    let mut trial = world.trial(seed)?;
    let placement = trial.place(
        config.total_blocks(),
        config.replication,
        policy.build(gamma).as_mut(),
    )?;
    let cfg =
        tweak(SimConfig::new(config.bandwidth_mbps, config.block_size, gamma)?.with_horizon(1e7));
    Ok(MapPhaseSim::new(trial.processes, placement, cfg)?.run(seed)?)
}

/// The policy/replication series of Figure 5.
pub const FIGURE5_SERIES: [(PolicyKind, usize); 6] = [
    (PolicyKind::Random, 1),
    (PolicyKind::Random, 2),
    (PolicyKind::Random, 3),
    (PolicyKind::Naive, 1),
    (PolicyKind::Adapt, 1),
    (PolicyKind::Adapt, 2),
];

/// The block sizes (MB) of Figure 5(b).
const BLOCK_SIZES_MB: &[f64] = &[32.0, 64.0, 128.0, 256.0];

/// The sub-figures of Figure 5:
///
/// * `a` — the bandwidth {4, 8, 16, 32 Mb/s};
/// * `b` — the block size {32, 64, 128, 256 MB}: task time scales with
///   block size (12 s per 64 MB) while the *number* of tasks stays
///   fixed, matching the paper's per-scenario workload description;
/// * `c` — the cluster size {128, 256, 512}, or {1 024 … 16 384} under
///   `--paper`; `--nodes N` centres the ladder on N.
pub const FIGURE5: [SubFigure<LargeScaleConfig>; 3] = [
    SubFigure {
        letter: "a",
        label: "bandwidth_mbps",
        set: |config, x| config.bandwidth_mbps = x,
        quick: BANDWIDTHS_MBPS,
        paper: BANDWIDTHS_MBPS,
        around_nodes: false,
    },
    SubFigure {
        letter: "b",
        label: "block_mb",
        set: |config, x| config.block_size = adapt_dfs::BlockSize::from_mb(x as u64),
        quick: BLOCK_SIZES_MB,
        paper: BLOCK_SIZES_MB,
        around_nodes: false,
    },
    SubFigure {
        letter: "c",
        label: "nodes",
        set: |config, x| config.nodes = x as usize,
        quick: &[128.0, 256.0, 512.0],
        paper: &[1_024.0, 2_048.0, 4_096.0, 8_192.0, 16_384.0],
        around_nodes: true,
    },
];

/// The base scenario of the trace-driven binaries: Table 4 under
/// `--paper`, else a quick 256-host population with 20 tasks per node
/// and 3 runs; then `--nodes`, `--runs` and `--seed`.
pub fn base_config(opts: &Options) -> LargeScaleConfig {
    let mut config = LargeScaleConfig::default();
    if !opts.paper {
        (config.nodes, config.tasks_per_node, config.runs) = (256, 20, 3);
    }
    config.nodes = opts.nodes.unwrap_or(config.nodes);
    config.runs = opts.runs.unwrap_or(config.runs);
    config.seed = opts.seed.unwrap_or(config.seed);
    config
}

/// Runs every `series` at each of `xs` on `figure`'s axis of `base`.
/// Points of one node count share one [`World`]; a point that changes
/// the node count generates a population of its own size.
///
/// # Errors
///
/// Propagates the first scenario failure.
pub fn sweep(
    base: &LargeScaleConfig,
    figure: &SubFigure<LargeScaleConfig>,
    xs: &[f64],
    series: &[(PolicyKind, usize)],
) -> Result<Vec<SweepPoint>, ExperimentError> {
    let mut world: Option<World> = None;
    let mut out = Vec::new();
    for &x in xs {
        let mut at = *base;
        (figure.set)(&mut at, x);
        let world = match world {
            Some(ref world) if world.len() == at.nodes => world,
            _ => world.insert(World::generate(&at)?),
        };
        for &(policy, replication) in series {
            let config = LargeScaleConfig { replication, ..at };
            out.push(SweepPoint {
                x,
                policy,
                replication,
                agg: run_largescale_in(&config, policy, world)?,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> LargeScaleConfig {
        LargeScaleConfig {
            nodes: 64,
            tasks_per_node: 10,
            runs: 2,
            ..LargeScaleConfig::default()
        }
    }

    #[test]
    fn world_generation_is_deterministic() {
        let a = World::generate(&small()).unwrap();
        let b = World::generate(&small()).unwrap();
        assert_eq!(a.availability(), b.availability());
        assert_eq!(a.len(), 64);
        assert!(!a.is_empty());
    }

    #[test]
    fn estimates_follow_trace_contents() {
        use adapt_traces::record::{HostId, Interruption};
        let quiet = HostTrace::new(HostId(0), 1e6, vec![]).unwrap();
        assert!(estimate_availability(&quiet).is_reliable());

        let busy = HostTrace::new(
            HostId(1),
            1e6,
            vec![
                Interruption {
                    start: 100.0,
                    duration: 50.0,
                },
                Interruption {
                    start: 1_100.0,
                    duration: 150.0,
                },
            ],
        )
        .unwrap();
        let a = estimate_availability(&busy);
        assert!((a.lambda - 1.0 / 1_000.0).abs() < 1e-12);
        assert!((a.mu - 100.0).abs() < 1e-12);
    }

    #[test]
    fn largescale_run_completes() {
        let world = World::generate(&small()).unwrap();
        let agg = run_largescale_in(&small(), PolicyKind::Adapt, &world).unwrap();
        assert_eq!(agg.runs, 2);
        assert!(agg.all_completed);
        assert!(agg.total_overhead_ratio.mean() >= 0.0);
    }

    #[test]
    fn world_size_mismatch_is_rejected() {
        let world = World::generate(&small()).unwrap();
        let bigger = LargeScaleConfig {
            nodes: 128,
            ..small()
        };
        assert!(run_largescale_in(&bigger, PolicyKind::Random, &world).is_err());
    }

    #[test]
    fn adapt_reduces_migration_relative_to_random() {
        // Figure 5's headline: "ADAPT constantly saves the migration cost
        // by half or more for all the scenarios."
        let config = LargeScaleConfig {
            nodes: 128,
            tasks_per_node: 20,
            runs: 2,
            ..LargeScaleConfig::default()
        };
        let world = World::generate(&config).unwrap();
        let adapt = run_largescale_in(&config, PolicyKind::Adapt, &world).unwrap();
        let random = run_largescale_in(&config, PolicyKind::Random, &world).unwrap();
        assert!(
            adapt.migration_ratio.mean() <= random.migration_ratio.mean(),
            "ADAPT migration {} vs existing {}",
            adapt.migration_ratio.mean(),
            random.migration_ratio.mean()
        );
    }
}
