//! The full-MapReduce shuffle experiment — the `fig-shuffle` binary
//! (DESIGN.md §17).
//!
//! One end-to-end MapReduce job on a volatile cluster over a rack
//! topology: the host population and trace rotation come from the same
//! Table 4 substrate as the large-scale harness, the map phase runs
//! through [`MapPhaseSim`] with ADAPT placement, and the materialized
//! map outputs (with a deterministic per-task skew) are shuffled into
//! [`ReducePhaseSim`] under each of the three reducer-placement
//! strategies — naive, ADAPT, rack-aware — on the *same* failure
//! realization, so the comparison is paired.
//!
//! Everything is a pure function of the config. The report
//! (`adapt-shuffle/1`) is integer-only in its measurements (bytes and
//! microseconds of simulated time) with sorted keys, and CI byte-diffs
//! it against `results/ci-baseline-shuffle.json`.

use adapt_core::AdaptPolicy;
use adapt_dfs::placement::{ClusterView, NodeView};
use adapt_dfs::{BlockSize, NodeId};
use adapt_sim::engine::{MapPhaseSim, SimConfig, SimReport};
use adapt_sim::{
    AdaptStrategy, NaiveStrategy, PlacementStrategy, RackAwareStrategy, ReducePhaseSim,
    ReduceReport, Topology,
};
use adapt_telemetry::{micros, Value};
use adapt_trace::{Trace, TraceRecorder};

use crate::config::LargeScaleConfig;
use crate::largescale::World;
use crate::ExperimentError;

/// Simulation horizon (seconds) — the same guard as the other harnesses.
const HORIZON: f64 = 1e7;

/// Configuration of one shuffle experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShuffleExpConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Map tasks per node (total map tasks = `nodes · tasks_per_node`).
    pub tasks_per_node: usize,
    /// Reduce tasks.
    pub reducers: usize,
    /// Rack count of the network topology.
    pub racks: u32,
    /// Core oversubscription ratio (`1.0` = non-blocking).
    pub oversubscription: f64,
    /// Replication factor for the map inputs.
    pub replication: usize,
    /// Per-node link bandwidth, Mb/s.
    pub bandwidth_mbps: f64,
    /// HDFS block size.
    pub block_size: BlockSize,
    /// Failure-free per-block map time (seconds).
    pub gamma: f64,
    /// Failure-free reduce compute time (seconds).
    pub reduce_gamma: f64,
    /// Map-output skew: every fourth map task emits this many blocks of
    /// intermediate output, the rest one block.
    pub shuffle_skew: u64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ShuffleExpConfig {
    fn default() -> Self {
        ShuffleExpConfig {
            nodes: 64,
            tasks_per_node: 4,
            reducers: 16,
            racks: 4,
            oversubscription: 2.5,
            replication: 2,
            bandwidth_mbps: 8.0,
            block_size: BlockSize::DEFAULT,
            gamma: 12.0,
            reduce_gamma: 30.0,
            shuffle_skew: 4,
            seed: 2012,
        }
    }
}

impl ShuffleExpConfig {
    fn validate(&self) -> Result<Topology, ExperimentError> {
        if self.nodes == 0 || self.tasks_per_node == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "nodes",
                reason: "at least one node and one task per node required".into(),
            });
        }
        if self.reducers == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "reducers",
                reason: "at least one reduce task required".into(),
            });
        }
        if self.replication == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "replication",
                reason: "must be >= 1".into(),
            });
        }
        if self.shuffle_skew == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "shuffle_skew",
                reason: "must be >= 1".into(),
            });
        }
        Topology::new(self.racks, self.oversubscription).map_err(|e| {
            ExperimentError::InvalidConfig {
                name: "topology",
                reason: e.to_string(),
            }
        })
    }

    fn world_config(&self) -> LargeScaleConfig {
        LargeScaleConfig {
            nodes: self.nodes,
            tasks_per_node: self.tasks_per_node,
            runs: 1,
            seed: self.seed,
            ..LargeScaleConfig::default()
        }
    }

    /// Intermediate output of map task `task`, bytes: every fourth task
    /// emits `shuffle_skew` blocks, the rest one block.
    pub fn map_output_bytes(&self, task: usize) -> u64 {
        let block = self.block_size.bytes();
        if task.is_multiple_of(4) {
            block.saturating_mul(self.shuffle_skew)
        } else {
            block
        }
    }
}

/// One policy's reduce-phase result.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyOutcome {
    /// Strategy name (`"naive"`, `"adapt"`, `"rack-aware"`).
    pub policy: &'static str,
    /// The reduce phase's full report.
    pub report: ReduceReport,
}

/// The whole experiment's outcome: one map phase, one reduce phase per
/// placement strategy, all on the same failure realization.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleOutcome {
    /// The shared map phase's report.
    pub map: SimReport,
    /// Map tasks that materialized output within the horizon.
    pub map_outputs: usize,
    /// Total intermediate bytes shuffled (map-output side).
    pub shuffle_input_bytes: u64,
    /// Per-strategy reduce results, in [`POLICY_ORDER`] order.
    pub policies: Vec<PolicyOutcome>,
}

/// The order strategies run and report in.
pub const POLICY_ORDER: [&str; 3] = ["naive", "adapt", "rack-aware"];

fn strategies(reduce_gamma: f64) -> Result<Vec<Box<dyn PlacementStrategy>>, ExperimentError> {
    let adapt = AdaptStrategy::new(reduce_gamma).map_err(ExperimentError::Sim)?;
    Ok(vec![
        Box::new(NaiveStrategy::new()),
        Box::new(adapt),
        Box::new(RackAwareStrategy::new()),
    ])
}

/// Runs the experiment. With `traced`, the ADAPT policy's reduce run
/// records its event trace (returned alongside), exercising the
/// `reduce_started` / `shuffle_fetch` / `link_contention` event kinds;
/// tracing changes no reported number (the zero-overhead contract).
///
/// # Errors
///
/// Returns [`ExperimentError`] for invalid configuration or substrate
/// failures.
pub fn run_shuffle_traced(
    config: &ShuffleExpConfig,
    traced: bool,
) -> Result<(ShuffleOutcome, Option<Trace>), ExperimentError> {
    let topology = config.validate()?;
    let world = World::generate(&config.world_config())?;
    let mut trial = world.trial(config.seed)?;
    let placement = trial.place(
        config.world_config().total_blocks(),
        config.replication,
        &mut AdaptPolicy::new(config.gamma)?,
    )?;
    let processes = trial.processes;
    let cfg = SimConfig::new(config.bandwidth_mbps, config.block_size, config.gamma)?
        .with_horizon(HORIZON)
        .with_topology(topology);

    let map = MapPhaseSim::new(processes.clone(), placement, cfg)?.run_detailed(config.seed)?;

    // The shuffle inputs: every materialized map output, skewed.
    let mut holders: Vec<Vec<NodeId>> = Vec::new();
    let mut output_bytes: Vec<u64> = Vec::new();
    for (task, winner) in map.winners.iter().enumerate() {
        if let Some(node) = winner {
            holders.push(vec![*node]);
            output_bytes.push(config.map_output_bytes(task));
        }
    }
    if holders.is_empty() {
        return Err(ExperimentError::InvalidConfig {
            name: "map",
            reason: "map phase materialized no output within the horizon".into(),
        });
    }

    // The reducer-placement view: every node alive with its estimated
    // availability, racks from the topology.
    let views: Vec<NodeView> = world
        .availability()
        .iter()
        .enumerate()
        .map(|(i, &availability)| NodeView {
            id: NodeId(i as u32),
            availability,
            alive: true,
            stored_blocks: 0,
            capacity_blocks: None,
            rack: topology.rack_of(i as u32),
        })
        .collect();
    let cluster = ClusterView::new(views);

    let mut policies = Vec::with_capacity(POLICY_ORDER.len());
    let mut trace = None;
    for mut strategy in strategies(config.reduce_gamma)? {
        let name = strategy.name();
        let mut reducer_nodes = Vec::with_capacity(config.reducers);
        for r in 0..config.reducers {
            reducer_nodes.push(
                strategy
                    .place_reduce_task(&cluster, &holders, r, config.reducers)
                    .map_err(ExperimentError::Sim)?,
            );
        }
        let mut sim = ReducePhaseSim::new(
            processes.clone(),
            holders.clone(),
            output_bytes.clone(),
            reducer_nodes,
            cfg,
            config.reduce_gamma,
        )?;
        if traced && name == "adapt" {
            sim = sim.with_trace(TraceRecorder::new());
        }
        let detailed = sim.run(config.seed)?;
        if let Some(sealed) = detailed.trace {
            trace = Some(sealed);
        }
        policies.push(PolicyOutcome {
            policy: name,
            report: detailed.report,
        });
    }

    let outcome = ShuffleOutcome {
        map: map.report,
        map_outputs: holders.len(),
        shuffle_input_bytes: output_bytes.iter().sum(),
        policies,
    };
    Ok((outcome, trace))
}

/// [`run_shuffle_traced`] without tracing.
///
/// # Errors
///
/// See [`run_shuffle_traced`].
pub fn run_shuffle(config: &ShuffleExpConfig) -> Result<ShuffleOutcome, ExperimentError> {
    Ok(run_shuffle_traced(config, false)?.0)
}

/// Serializes the experiment as the `adapt-shuffle/1` report: the
/// config, the shared map phase, and one object per placement strategy
/// — all keys sorted, all measurements integers (bytes, counts,
/// microseconds of simulated time).
pub fn report_value(config: &ShuffleExpConfig, outcome: &ShuffleOutcome) -> Value {
    let mut cfg = Value::object();
    cfg.insert("bandwidth_mbps", config.bandwidth_mbps);
    cfg.insert("block_size_mb", config.block_size.as_mb());
    cfg.insert("gamma_s", config.gamma);
    cfg.insert("nodes", config.nodes as u64);
    cfg.insert("oversubscription", config.oversubscription);
    cfg.insert("racks", u64::from(config.racks));
    cfg.insert("reduce_gamma_s", config.reduce_gamma);
    cfg.insert("reducers", config.reducers as u64);
    cfg.insert("replication", config.replication as u64);
    cfg.insert("seed", config.seed);
    cfg.insert("shuffle_skew", config.shuffle_skew);
    cfg.insert("tasks_per_node", config.tasks_per_node as u64);

    let mut map = Value::object();
    map.insert("completed", outcome.map.completed);
    map.insert("elapsed_us", micros(outcome.map.elapsed));
    map.insert("map_outputs", outcome.map_outputs as u64);
    map.insert("shuffle_input_bytes", outcome.shuffle_input_bytes);
    map.insert("tasks", outcome.map.tasks as u64);

    let cells: Vec<Value> = outcome
        .policies
        .iter()
        .map(|p| {
            let r = &p.report;
            let mut v = Value::object();
            v.insert("attempts", r.attempts as u64);
            v.insert("completed", r.completed);
            v.insert("cross_rack_bytes", r.cross_rack_bytes);
            v.insert("elapsed_us", micros(r.elapsed));
            v.insert("fetches", r.fetches as u64);
            v.insert("fetches_aborted", r.fetches_aborted as u64);
            v.insert("interruptions", r.interruptions as u64);
            v.insert("local_bytes", r.local_bytes);
            v.insert("network_bytes", r.network_bytes);
            v.insert("policy", p.policy);
            v.insert("reducer_net_hwm", r.reducer_net_hwm);
            v.insert("rework_us", micros(r.rework));
            v.insert(
                "shuffle_locality_pm",
                (r.shuffle_locality() * 1_000.0).round() as u64,
            );
            v
        })
        .collect();

    let mut v = Value::object();
    v.insert("config", cfg);
    v.insert("map", map);
    v.insert("policies", cells);
    v.insert("schema", "adapt-shuffle/1");
    v
}

/// Renders the experiment as the text table the binary prints.
pub fn render_table(outcome: &ShuffleOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "map: {} tasks, {} outputs, {:.1} s ({}), {:.1} MB shuffled\n\n",
        outcome.map.tasks,
        outcome.map_outputs,
        outcome.map.elapsed,
        if outcome.map.completed {
            "completed"
        } else {
            "horizon cut"
        },
        outcome.shuffle_input_bytes as f64 / 1_048_576.0,
    ));
    out.push_str("policy      elapsed_s  attempts  fetches  aborted  locality  cross-rack_mb\n");
    for p in &outcome.policies {
        let r = &p.report;
        out.push_str(&format!(
            "{:<11} {:>9.1} {:>9} {:>8} {:>8} {:>8.1}% {:>14.1}\n",
            p.policy,
            r.elapsed,
            r.attempts,
            r.fetches,
            r.fetches_aborted,
            r.shuffle_locality() * 100.0,
            r.cross_rack_bytes as f64 / 1_048_576.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ShuffleExpConfig {
        ShuffleExpConfig {
            nodes: 16,
            tasks_per_node: 2,
            reducers: 4,
            racks: 2,
            oversubscription: 2.0,
            ..ShuffleExpConfig::default()
        }
    }

    #[test]
    fn experiment_is_deterministic() {
        let config = small();
        let a = run_shuffle(&config).unwrap();
        let b = run_shuffle(&config).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            report_value(&config, &a).to_json(),
            report_value(&config, &b).to_json()
        );
        let shifted = ShuffleExpConfig {
            seed: config.seed + 1,
            ..config
        };
        assert_ne!(run_shuffle(&shifted).unwrap(), a);
    }

    #[test]
    fn all_three_policies_run_on_the_same_inputs() {
        let outcome = run_shuffle(&small()).unwrap();
        let names: Vec<&str> = outcome.policies.iter().map(|p| p.policy).collect();
        assert_eq!(names, POLICY_ORDER);
        for p in &outcome.policies {
            assert_eq!(p.report.reducers, 4);
            // Every policy shuffles the same bytes when it completes.
            if p.report.completed {
                assert!(
                    p.report.local_bytes + p.report.network_bytes >= outcome.shuffle_input_bytes,
                    "{:?}",
                    p.report
                );
            }
        }
    }

    #[test]
    fn tracing_covers_the_reduce_events_without_perturbing() {
        let config = small();
        let (plain, none) = run_shuffle_traced(&config, false).unwrap();
        assert!(none.is_none());
        let (traced, trace) = run_shuffle_traced(&config, true).unwrap();
        assert_eq!(plain, traced, "tracing perturbed the experiment");
        let trace = trace.unwrap();
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"reduce_started"));
        assert!(kinds.contains(&"shuffle_fetch"));
    }

    #[test]
    fn degenerate_topology_matches_the_flat_run() {
        // One rack, no oversubscription: the topology-aware run must be
        // byte-identical to itself under an explicit flat topology (the
        // engine-level degeneracy is pinned in adapt-sim and
        // adapt-verify; here we pin the experiment surface).
        let flat_cfg = ShuffleExpConfig {
            racks: 1,
            oversubscription: 1.0,
            ..small()
        };
        let a = run_shuffle(&flat_cfg).unwrap();
        let b = run_shuffle(&flat_cfg).unwrap();
        assert_eq!(report_value(&flat_cfg, &a), report_value(&flat_cfg, &b));
        for p in &a.policies {
            assert_eq!(p.report.cross_rack_bytes, 0, "flat run moved rack bytes");
        }
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let config = small();
        let outcome = run_shuffle(&config).unwrap();
        let json = report_value(&config, &outcome).to_json();
        assert!(json.starts_with("{\"config\":{\"bandwidth_mbps\":"));
        assert!(json.contains("\"schema\":\"adapt-shuffle/1\""));
        assert!(json.contains("\"policy\":\"adapt\""));
        assert!(json.contains("\"policy\":\"rack-aware\""));
        let table = render_table(&outcome);
        assert!(table.contains("rack-aware"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(run_shuffle(&ShuffleExpConfig {
            reducers: 0,
            ..small()
        })
        .is_err());
        assert!(run_shuffle(&ShuffleExpConfig {
            racks: 0,
            ..small()
        })
        .is_err());
        assert!(run_shuffle(&ShuffleExpConfig {
            oversubscription: 0.5,
            ..small()
        })
        .is_err());
        assert!(run_shuffle(&ShuffleExpConfig {
            shuffle_skew: 0,
            ..small()
        })
        .is_err());
    }
}
