//! A self-contained, serializable description of one simulation run.
//!
//! A [`Scenario`] pins everything the engines need — cluster makeup,
//! placement, network, scheduler knobs, failure schedules, and the run
//! seed — so the differential oracle can execute the optimized
//! [`adapt_sim::MapPhaseSim`] and the naive
//! [`crate::reference::ReferenceSim`] on *identical*
//! inputs, and so a failing case can be written out as a JSON artifact
//! and replayed later.

use adapt_availability::dist::Dist;
use adapt_dfs::cluster::NodeAvailability;
use adapt_dfs::placement::{ClusterView, NodeView};
use adapt_dfs::{BlockSize, NodeId};
use adapt_sim::engine::{DetailedReport, MapPhaseSim, SchedulingMode, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::{ReduceDetailed, ReducePhaseSim, Topology};
use adapt_telemetry::Value;
use adapt_trace::TraceRecorder;
use adapt_traces::record::Interruption;
use adapt_traces::replay::InterruptionSchedule;

use crate::reference::ReferenceSim;
use crate::reference_reduce::ReferenceReduce;
use crate::VerifyError;

/// The interruption behaviour of one simulated node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A dedicated host: never interrupted.
    Reliable,
    /// Synthetic M/G/1 injection: Poisson arrivals with the given MTBI
    /// and exponentially distributed recoveries with the given mean.
    Synthetic {
        /// Mean time between interruption arrivals, seconds.
        mtbi: f64,
        /// Mean recovery time, seconds.
        mean_recovery: f64,
    },
    /// A fixed outage schedule: `(start, duration)` pairs, sorted and
    /// non-overlapping. Covers the fuzzer's adversarial windows (down at
    /// t = 0, all-nodes-down spans) that a random process rarely hits.
    Scheduled {
        /// The outage windows as `(start, duration)` pairs.
        outages: Vec<(f64, f64)>,
    },
}

/// One complete, reproducible simulation input.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The run seed all randomness derives from.
    pub seed: u64,
    /// One entry per node.
    pub nodes: Vec<NodeKind>,
    /// For each task, the node ids holding its block's replicas.
    pub placement: Vec<Vec<u32>>,
    /// Per-node link bandwidth, Mb/s.
    pub bandwidth_mbps: f64,
    /// HDFS block size in bytes.
    pub block_bytes: u64,
    /// Failure-free map-task time per block, seconds.
    pub gamma: f64,
    /// Whether speculative duplicates are enabled.
    pub speculation: bool,
    /// Maximum concurrent copies of one task (including the original).
    pub max_copies: usize,
    /// Maximum concurrent outbound transfers per node.
    pub max_source_streams: usize,
    /// Whether the steal scan is availability-aware (`false` = FIFO).
    pub availability_aware: bool,
    /// Failure-detection latency, seconds.
    pub detection_delay: f64,
    /// Simulation horizon, seconds.
    pub horizon: f64,
    /// Number of reduce tasks the scenario's reduce phase runs.
    pub reducers: usize,
    /// Failure-free reduce compute time, seconds.
    pub reduce_gamma: f64,
    /// Map-output skew: every fourth map task emits `shuffle_skew`
    /// blocks of intermediate output, the rest one block (`1` = no
    /// skew).
    pub shuffle_skew: u64,
    /// Rack count of the network topology (`1` = single rack).
    pub racks: u32,
    /// Core oversubscription ratio (`1.0` = non-blocking core).
    pub oversubscription: f64,
    /// Holders of each completed map task's output: the map winner plus
    /// `output_holders - 1` further nodes (`1` = the winner alone).
    pub output_holders: usize,
}

/// Builds the per-node interruption processes for a node list — shared
/// between the single-run [`Scenario`] and the multi-job
/// [`crate::jobstream::JobStreamScenario`].
pub(crate) fn build_processes(
    nodes: &[NodeKind],
    horizon: f64,
) -> Result<Vec<InterruptionProcess>, VerifyError> {
    let mut out = Vec::with_capacity(nodes.len());
    for (i, kind) in nodes.iter().enumerate() {
        out.push(match kind {
            NodeKind::Reliable => InterruptionProcess::none(),
            NodeKind::Synthetic {
                mtbi,
                mean_recovery,
            } => {
                let service = Dist::exponential_from_mean(*mean_recovery).map_err(|e| {
                    VerifyError::InvalidScenario {
                        reason: format!("node {i} recovery distribution: {e}"),
                    }
                })?;
                InterruptionProcess::synthetic(*mtbi, service).map_err(|e| {
                    VerifyError::InvalidScenario {
                        reason: format!("node {i}: {e}"),
                    }
                })?
            }
            NodeKind::Scheduled { outages } => {
                let mut events = Vec::with_capacity(outages.len());
                let mut prev_end = 0.0f64;
                for &(start, duration) in outages {
                    if !(start.is_finite() && start >= 0.0 && duration.is_finite())
                        || duration < 0.0
                        || start < prev_end
                    {
                        return Err(VerifyError::InvalidScenario {
                            reason: format!(
                                "node {i} outage ({start}, {duration}) invalid or overlapping"
                            ),
                        });
                    }
                    prev_end = start + duration;
                    events.push(Interruption { start, duration });
                }
                InterruptionProcess::trace(InterruptionSchedule::from_events(
                    events,
                    horizon.max(prev_end),
                ))
            }
        });
    }
    Ok(out)
}

impl Scenario {
    /// Builds the per-node interruption processes.
    ///
    /// # Errors
    ///
    /// [`VerifyError::InvalidScenario`] if a synthetic node's parameters
    /// are out of domain.
    pub fn processes(&self) -> Result<Vec<InterruptionProcess>, VerifyError> {
        build_processes(&self.nodes, self.horizon)
    }

    /// The scenario's network topology.
    ///
    /// # Errors
    ///
    /// [`VerifyError::InvalidScenario`] for zero racks or an
    /// oversubscription ratio outside `[1, ∞)`.
    pub fn topology(&self) -> Result<Topology, VerifyError> {
        Topology::new(self.racks, self.oversubscription).map_err(|e| VerifyError::InvalidScenario {
            reason: format!("topology: {e}"),
        })
    }

    /// Builds the engine configuration with the scenario's topology
    /// installed.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] if any parameter is out of domain,
    /// [`VerifyError::InvalidScenario`] for an invalid topology.
    pub fn sim_config(&self) -> Result<SimConfig, VerifyError> {
        Ok(self.sim_config_flat()?.with_topology(self.topology()?))
    }

    /// [`sim_config`](Self::sim_config) without any topology installed —
    /// the pre-topology flat configuration the degeneracy metamorphic
    /// check compares against.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] if any parameter is out of domain.
    pub fn sim_config_flat(&self) -> Result<SimConfig, VerifyError> {
        let scheduling = if self.availability_aware {
            SchedulingMode::AvailabilityAware
        } else {
            SchedulingMode::Fifo
        };
        Ok(SimConfig::new(
            self.bandwidth_mbps,
            BlockSize::from_bytes(self.block_bytes),
            self.gamma,
        )?
        .with_speculation(self.speculation)
        .with_max_copies(self.max_copies)?
        .with_max_source_streams(self.max_source_streams)?
        .with_detection_delay(self.detection_delay)?
        .with_scheduling(scheduling)
        .with_horizon(self.horizon))
    }

    fn node_placement(&self) -> Vec<Vec<NodeId>> {
        self.placement
            .iter()
            .map(|replicas| replicas.iter().map(|&r| NodeId(r)).collect())
            .collect()
    }

    /// Runs the optimized engine on this scenario.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_optimized(&self, traced: bool) -> Result<DetailedReport, VerifyError> {
        let sim = MapPhaseSim::new(self.processes()?, self.node_placement(), self.sim_config()?)?;
        let sim = if traced {
            sim.with_trace(TraceRecorder::new())
        } else {
            sim
        };
        Ok(sim.run_detailed(self.seed)?)
    }

    /// Runs the optimized engine on the pre-topology flat configuration
    /// (no topology installed), for the degeneracy metamorphic check.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_optimized_flat(&self) -> Result<DetailedReport, VerifyError> {
        let sim = MapPhaseSim::new(
            self.processes()?,
            self.node_placement(),
            self.sim_config_flat()?,
        )?;
        Ok(sim.run_detailed(self.seed)?)
    }

    /// Runs the naive reference engine on this scenario.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_reference(&self, traced: bool) -> Result<DetailedReport, VerifyError> {
        let sim = ReferenceSim::new(self.processes()?, self.node_placement(), self.sim_config()?)?;
        let sim = if traced {
            sim.with_trace(TraceRecorder::new())
        } else {
            sim
        };
        Ok(sim.run_detailed(self.seed)?)
    }

    /// Intermediate output of map task `task`, bytes: every fourth task
    /// emits `shuffle_skew` blocks, the rest one block.
    pub fn map_output_bytes(&self, task: usize) -> u64 {
        if task.is_multiple_of(4) {
            self.block_bytes.saturating_mul(self.shuffle_skew)
        } else {
            self.block_bytes
        }
    }

    /// Builds the reduce phase's inputs from the map phase's winners:
    /// `holders[i]` locates the i-th *completed* map task's output and
    /// `output_bytes[i]` is its size. The holders are the winner and the
    /// next `output_holders - 1` node ids after it (wrapping, at most
    /// every node once), in ascending order. Tasks unfinished at the map
    /// horizon (`None` winners) are skipped, matching a JobTracker that
    /// only shuffles materialized output.
    pub fn reduce_inputs(&self, winners: &[Option<NodeId>]) -> (Vec<Vec<NodeId>>, Vec<u64>) {
        let n = self.nodes.len() as u32;
        let copies = self.output_holders.clamp(1, self.nodes.len().max(1)) as u32;
        let mut holders = Vec::new();
        let mut bytes = Vec::new();
        for (task, winner) in winners.iter().enumerate() {
            if let Some(node) = winner {
                let mut hs: Vec<NodeId> = (0..copies).map(|k| NodeId((node.0 + k) % n)).collect();
                hs.sort_unstable();
                holders.push(hs);
                bytes.push(self.map_output_bytes(task));
            }
        }
        (holders, bytes)
    }

    /// A placement-time cluster snapshot for the task-placement
    /// strategies: every node alive, synthetic nodes carrying their
    /// M/G/1 availability model, reliable and scheduled nodes dedicated
    /// (a fixed schedule has no stationary model), racks from the
    /// scenario topology.
    ///
    /// # Errors
    ///
    /// [`VerifyError::InvalidScenario`] for an invalid topology.
    pub fn cluster_view(&self) -> Result<ClusterView, VerifyError> {
        let topo = self.topology()?;
        let views = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let availability = match kind {
                    NodeKind::Synthetic {
                        mtbi,
                        mean_recovery,
                    } => NodeAvailability::from_mtbi(*mtbi, *mean_recovery)
                        .unwrap_or_else(|_| NodeAvailability::reliable()),
                    NodeKind::Reliable | NodeKind::Scheduled { .. } => NodeAvailability::reliable(),
                };
                NodeView {
                    id: NodeId(i as u32),
                    availability,
                    alive: true,
                    stored_blocks: 0,
                    capacity_blocks: None,
                    rack: topo.rack_of(i as u32),
                }
            })
            .collect();
        Ok(ClusterView::new(views))
    }

    /// Runs the optimized reduce engine on this scenario's cluster with
    /// the given map-output locations and reducer hosts.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_reduce_optimized(
        &self,
        holders: &[Vec<NodeId>],
        output_bytes: &[u64],
        reducer_nodes: &[NodeId],
        traced: bool,
    ) -> Result<ReduceDetailed, VerifyError> {
        let sim = ReducePhaseSim::new(
            self.processes()?,
            holders.to_vec(),
            output_bytes.to_vec(),
            reducer_nodes.to_vec(),
            self.sim_config()?,
            self.reduce_gamma,
        )?;
        let sim = if traced {
            sim.with_trace(TraceRecorder::new())
        } else {
            sim
        };
        Ok(sim.run(self.seed)?)
    }

    /// [`run_reduce_optimized`](Self::run_reduce_optimized) on the
    /// pre-topology flat configuration, for the degeneracy check.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_reduce_optimized_flat(
        &self,
        holders: &[Vec<NodeId>],
        output_bytes: &[u64],
        reducer_nodes: &[NodeId],
    ) -> Result<ReduceDetailed, VerifyError> {
        let sim = ReducePhaseSim::new(
            self.processes()?,
            holders.to_vec(),
            output_bytes.to_vec(),
            reducer_nodes.to_vec(),
            self.sim_config_flat()?,
            self.reduce_gamma,
        )?;
        Ok(sim.run(self.seed)?)
    }

    /// Runs the naive lockstep reduce reference on this scenario's
    /// cluster with the given map-output locations and reducer hosts.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_reduce_reference(
        &self,
        holders: &[Vec<NodeId>],
        output_bytes: &[u64],
        reducer_nodes: &[NodeId],
        traced: bool,
    ) -> Result<ReduceDetailed, VerifyError> {
        let sim = ReferenceReduce::new(
            self.processes()?,
            holders.to_vec(),
            output_bytes.to_vec(),
            reducer_nodes.to_vec(),
            self.sim_config()?,
            self.reduce_gamma,
        )?;
        let sim = if traced {
            sim.with_trace(TraceRecorder::new())
        } else {
            sim
        };
        Ok(sim.run(self.seed)?)
    }

    /// Serializes the scenario as a JSON object with stable keys, the
    /// shape written into fuzz-failure artifacts.
    pub fn to_value(&self) -> Value {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for kind in &self.nodes {
            let mut v = Value::object();
            match kind {
                NodeKind::Reliable => {
                    v.insert("kind", "reliable");
                }
                NodeKind::Synthetic {
                    mtbi,
                    mean_recovery,
                } => {
                    v.insert("kind", "synthetic");
                    v.insert("mean_recovery", *mean_recovery);
                    v.insert("mtbi", *mtbi);
                }
                NodeKind::Scheduled { outages } => {
                    v.insert("kind", "scheduled");
                    let windows: Vec<Value> = outages
                        .iter()
                        .map(|&(start, duration)| {
                            let mut w = Value::object();
                            w.insert("duration", duration);
                            w.insert("start", start);
                            w
                        })
                        .collect();
                    v.insert("outages", windows);
                }
            }
            nodes.push(v);
        }
        let placement: Vec<Value> = self
            .placement
            .iter()
            .map(|replicas| {
                Value::from(
                    replicas
                        .iter()
                        .map(|&r| Value::from(u64::from(r)))
                        .collect::<Vec<Value>>(),
                )
            })
            .collect();

        let mut v = Value::object();
        v.insert("availability_aware", self.availability_aware);
        v.insert("bandwidth_mbps", self.bandwidth_mbps);
        v.insert("block_bytes", self.block_bytes);
        v.insert("detection_delay", self.detection_delay);
        v.insert("gamma", self.gamma);
        v.insert("horizon", self.horizon);
        v.insert("max_copies", self.max_copies);
        v.insert("max_source_streams", self.max_source_streams);
        v.insert("nodes", nodes);
        v.insert("output_holders", self.output_holders);
        v.insert("oversubscription", self.oversubscription);
        v.insert("placement", placement);
        v.insert("racks", u64::from(self.racks));
        v.insert("reduce_gamma", self.reduce_gamma);
        v.insert("reducers", self.reducers);
        v.insert("seed", self.seed);
        v.insert("shuffle_skew", self.shuffle_skew);
        v.insert("speculation", self.speculation);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scenario {
        Scenario {
            seed: 7,
            nodes: vec![NodeKind::Reliable, NodeKind::Reliable],
            placement: vec![vec![0], vec![1], vec![0, 1]],
            bandwidth_mbps: 8.0,
            block_bytes: BlockSize::DEFAULT.bytes(),
            gamma: 12.0,
            speculation: true,
            max_copies: 2,
            max_source_streams: 4,
            availability_aware: false,
            detection_delay: 0.0,
            horizon: 1e6,
            reducers: 2,
            reduce_gamma: 10.0,
            shuffle_skew: 1,
            racks: 1,
            oversubscription: 1.0,
            output_holders: 1,
        }
    }

    #[test]
    fn reliable_scenario_runs_on_both_engines() {
        let s = tiny();
        let a = s.run_optimized(false).unwrap();
        let b = s.run_reference(false).unwrap();
        assert!(a.report.completed);
        assert_eq!(a, b);
    }

    #[test]
    fn scheduled_outages_reject_overlap() {
        let mut s = tiny();
        s.nodes[0] = NodeKind::Scheduled {
            outages: vec![(0.0, 10.0), (5.0, 1.0)],
        };
        assert!(matches!(
            s.processes(),
            Err(VerifyError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn to_value_has_stable_keys() {
        let s = tiny();
        let json = s.to_value().to_json();
        assert_eq!(json, s.to_value().to_json());
        assert!(json.contains("\"seed\":7"));
        assert!(json.contains("\"placement\""));
    }
}
