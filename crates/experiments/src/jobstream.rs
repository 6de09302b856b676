//! The multi-job scheduling experiment — job-slowdown CDFs and
//! sojourn-time percentiles versus offered load, ADAPT against the
//! stock and naive placements (DESIGN.md §14).
//!
//! The paper evaluates one job on an otherwise idle cluster. This
//! harness promotes that setting to a multi-tenant one: an FB-2010-shaped
//! job stream ([`adapt_workload`]) is admitted by the
//! [`JobTracker`], each admitted job's map phase
//! runs on its granted node subset through the deterministic engine, and
//! each job's blocks are placed by a real [`NameNode`] *confined to the
//! job's allocation* ([`NameNode::create_file_on`] — the per-job block
//! namespace). Sweeping the arrival rate yields the queueing-theory
//! picture: sojourn p50/p99/p999 and the job-slowdown CDF as the cluster
//! moves from underloaded to saturated, per placement policy.
//!
//! Everything is a pure function of the config: one host population and
//! one trace rotation are fixed up front and shared across every
//! (load, policy) cell, so the comparison is paired exactly as in the
//! paper's single-job experiments. The report is integer-only
//! (microseconds, per-mille) with sorted keys, and CI byte-diffs it
//! against `results/ci-baseline-jobstream.json`. With a metrics hub
//! ([`run_jobstream_metrics`]) the same sweep also records its
//! saturated ADAPT cell against the declared sojourn SLO.

use adapt_dfs::cluster::NodeSpec;
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_dfs::placement::PlacementPolicy;
use adapt_dfs::{BlockSize, DfsError, FileId, NodeId};
use adapt_metrics::window::nearest_rank;
use adapt_metrics::{MetricsHub, SloTarget};
use adapt_sim::engine::SimConfig;
use adapt_sim::runner::placement_from_namenode;
use adapt_sim::{
    JobPlacer, JobStreamOutcome, JobTracker, JobTrackerConfig, OptimizedEngine, SchedPolicy,
    SimError,
};
use adapt_telemetry::{micros, Value};
use adapt_workload::{generate, JobSpec, WorkloadConfig};

use crate::config::LargeScaleConfig;
use crate::largescale::{placement_rng, World};
use crate::policies::PolicyKind;
use crate::ExperimentError;

/// Offered-load levels swept, in per-mille of cluster capacity
/// (`ρ = 0.5, 1.0, 2.0` — underloaded, critically loaded, saturated).
pub const LOAD_LEVELS_PM: [u64; 3] = [500, 1_000, 2_000];

/// The saturated load level, whose ADAPT cell carries the SLO.
const SATURATED_PM: u64 = LOAD_LEVELS_PM[LOAD_LEVELS_PM.len() - 1];

/// The job-slowdown CDF's evaluation grid (sojourn over contention-free
/// ideal time).
pub const SLOWDOWN_GRID: [f64; 8] = [1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 50.0];

/// Per-job simulation horizon (seconds) — same guard as the large-scale
/// harness.
const JOB_HORIZON: f64 = 1e7;

/// The declared service-level objective on job sojourn: 99% of jobs
/// (target 990‰) finish within 300 simulated seconds. The baseline
/// sweep's p99 sojourns sit at 336–518 s, so the saturated cell burns
/// error budget — the `metrics slo` subcommand reports the rate.
pub const SLO_SOJOURN_OBJECTIVE_US: u64 = 300_000_000;

/// Per-mille of jobs that must meet [`SLO_SOJOURN_OBJECTIVE_US`].
pub const SLO_TARGET_MILLI: u32 = 990;

/// The [`SloTarget`] the metrics cell declares over its
/// `job_sojourn_us` observations.
pub fn slo_target() -> SloTarget {
    SloTarget::new("job_sojourn_us", SLO_SOJOURN_OBJECTIVE_US, SLO_TARGET_MILLI)
}

/// Configuration of one multi-job scheduling experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobStreamConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Jobs per stream.
    pub jobs: usize,
    /// Scheduling policy the JobTracker applies.
    pub sched: SchedPolicy,
    /// Replication factor for each job's blocks.
    pub replication: usize,
    /// Largest node grant any single job receives.
    pub max_nodes_per_job: usize,
    /// Per-node network bandwidth in Mb/s.
    pub bandwidth_mbps: f64,
    /// HDFS block size.
    pub block_size: BlockSize,
    /// Failure-free per-block task time (seconds).
    pub gamma: f64,
    /// Base RNG seed (host population, trace rotation, job stream, and
    /// per-job engine seeds all derive from it).
    pub seed: u64,
}

impl Default for JobStreamConfig {
    fn default() -> Self {
        JobStreamConfig {
            nodes: 48,
            jobs: 60,
            sched: SchedPolicy::FairShare,
            replication: 2,
            max_nodes_per_job: 16,
            bandwidth_mbps: 8.0,
            block_size: BlockSize::DEFAULT,
            gamma: 12.0,
            seed: 2012,
        }
    }
}

impl JobStreamConfig {
    fn validate(&self) -> Result<(), ExperimentError> {
        if self.nodes == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "nodes",
                reason: "at least one node required".into(),
            });
        }
        if self.jobs == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "jobs",
                reason: "at least one job required".into(),
            });
        }
        if self.replication == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "replication",
                reason: "must be >= 1".into(),
            });
        }
        if self.max_nodes_per_job == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "max_nodes_per_job",
                reason: "must be >= 1".into(),
            });
        }
        if !(self.gamma.is_finite() && self.gamma > 0.0) {
            return Err(ExperimentError::InvalidConfig {
                name: "gamma",
                reason: format!("must be finite and positive, got {}", self.gamma),
            });
        }
        Ok(())
    }

    /// The large-scale config the host population is generated from
    /// (Table 4 trace constants at this cluster size).
    fn world_config(&self) -> LargeScaleConfig {
        LargeScaleConfig {
            nodes: self.nodes,
            runs: 1,
            seed: self.seed,
            ..LargeScaleConfig::default()
        }
    }

    /// The host population, and the tracker over its one trace rotation:
    /// every (load, policy) cell faces the same failure realization. Each
    /// cell places its jobs through a NameNode of its own.
    fn tracker(&self) -> Result<(World, JobTracker), ExperimentError> {
        let world = World::generate(&self.world_config())?;
        let processes = world.trial(self.seed)?.processes;
        let sim = SimConfig::new(self.bandwidth_mbps, self.block_size, self.gamma)?
            .with_horizon(JOB_HORIZON);
        let tracker_cfg = JobTrackerConfig::new(sim, self.sched)?
            .with_max_nodes_per_job(self.max_nodes_per_job.min(self.nodes))?;
        let tracker = JobTracker::new(processes, tracker_cfg)?;
        Ok((world, tracker))
    }

    /// The job stream offered at `load_pm`. Its seed depends on the load
    /// only: the *same* stream is replayed under every policy, so within
    /// a load the comparison is job-for-job.
    fn jobs(&self, load_pm: u64) -> Result<Vec<JobSpec>, ExperimentError> {
        let workload = WorkloadConfig::fb2010_like(self.jobs, self.mean_gap(load_pm));
        generate(&workload, self.seed ^ (load_pm << 16)).map_err(|e| {
            ExperimentError::InvalidConfig {
                name: "workload",
                reason: e.to_string(),
            }
        })
    }

    /// Mean inter-arrival gap that offers load `ρ = load_pm / 1000`:
    /// each job brings `E[tasks] · γ` node-seconds of work against
    /// `nodes` node-seconds of capacity per second.
    fn mean_gap(&self, load_pm: u64) -> f64 {
        let mean_tasks = WorkloadConfig::fb2010_like(1, 1.0).size.mean_tasks();
        let rho = load_pm as f64 / 1_000.0;
        mean_tasks * self.gamma / (self.nodes as f64 * rho)
    }
}

fn placement_sim_err(e: DfsError) -> SimError {
    SimError::InvalidConfig {
        name: "placement",
        reason: e.to_string(),
    }
}

/// A [`JobPlacer`] backed by a real [`NameNode`]: each admitted job's
/// blocks become a file placed under the configured policy, confined to
/// the job's granted nodes ([`NameNode::create_file_on`]); releasing the
/// job deletes the file — per-job block namespaces under one shared node
/// state, so the policy's threshold accounting spans concurrent jobs.
///
/// One policy places every job, so ADAPT computes its equation-(5) rates
/// once and builds one table per block count, reusing both while the
/// nodes' availability and liveness are unchanged (which places exactly
/// as a fresh policy per job would).
#[derive(Debug)]
pub struct NameNodePlacer {
    namenode: NameNode,
    policy: Box<dyn PlacementPolicy>,
    replication: usize,
    files: Vec<(u32, FileId)>,
}

impl NameNodePlacer {
    /// A placer over a fresh NameNode with the given per-node
    /// availability specs.
    ///
    /// # Errors
    ///
    /// [`ExperimentError::InvalidConfig`] for zero replication or a
    /// non-positive `gamma`.
    pub fn new(
        specs: Vec<NodeSpec>,
        policy: PolicyKind,
        gamma: f64,
        replication: usize,
    ) -> Result<Self, ExperimentError> {
        if replication == 0 {
            return Err(ExperimentError::InvalidConfig {
                name: "replication",
                reason: "must be >= 1".into(),
            });
        }
        if !(gamma.is_finite() && gamma > 0.0) {
            return Err(ExperimentError::InvalidConfig {
                name: "gamma",
                reason: format!("must be finite and positive, got {gamma}"),
            });
        }
        Ok(NameNodePlacer {
            namenode: NameNode::new(specs),
            policy: policy.build(gamma),
            replication,
            files: Vec::new(),
        })
    }
}

impl JobPlacer for NameNodePlacer {
    fn place(
        &mut self,
        job: &JobSpec,
        alloc: &[NodeId],
        seed: u64,
    ) -> Result<Vec<Vec<NodeId>>, SimError> {
        // Same paired-seed discipline as the single-job harnesses: the
        // placement RNG stream is independent of the engine's.
        let mut rng = placement_rng(seed);
        let replication = self.replication.min(alloc.len()).max(1);
        let file = self
            .namenode
            .create_file_on(
                &format!("job-{}", job.id),
                job.tasks,
                replication,
                self.policy.as_mut(),
                Threshold::PaperDefault,
                &mut rng,
                alloc,
            )
            .map_err(placement_sim_err)?;
        let global = placement_from_namenode(&self.namenode, file).map_err(placement_sim_err)?;
        self.files.push((job.id, file));
        // The engine indexes the job's own process slice, so remap the
        // NameNode's global node ids to local ranks within the (ascending)
        // allocation.
        global
            .iter()
            .map(|replicas| {
                replicas
                    .iter()
                    .map(|g| {
                        alloc
                            .binary_search(g)
                            .map(|local| NodeId(local as u32))
                            .map_err(|_| SimError::InvariantViolation {
                                what: "NameNode placed a replica outside the job's allocation",
                            })
                    })
                    .collect()
            })
            .collect()
    }

    fn release(&mut self, job: &JobSpec) -> Result<(), SimError> {
        if let Some(pos) = self.files.iter().position(|&(id, _)| id == job.id) {
            let (_, file) = self.files.swap_remove(pos);
            self.namenode.delete_file(file).map_err(placement_sim_err)?;
        }
        Ok(())
    }
}

/// One (load, policy) cell of the sweep. All durations are integer
/// microseconds of simulated time; the CDF is per-mille — the report
/// stays byte-stable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadPoint {
    /// Offered load in per-mille of cluster capacity.
    pub load_pm: u64,
    /// Placement policy of this cell.
    pub policy: PolicyKind,
    /// Jobs whose map phase fully completed.
    pub jobs_completed: u64,
    /// Jobs cut by the per-job horizon.
    pub jobs_cut: u64,
    /// Stream makespan (last job release).
    pub makespan_us: u64,
    /// Mean arrival-to-admission wait over all jobs.
    pub mean_wait_us: u64,
    /// Sojourn (arrival-to-release) median.
    pub sojourn_p50_us: u64,
    /// Sojourn 99th percentile.
    pub sojourn_p99_us: u64,
    /// Sojourn 99.9th percentile.
    pub sojourn_p999_us: u64,
    /// Fraction of jobs (per-mille) with slowdown ≤ the matching
    /// [`SLOWDOWN_GRID`] entry.
    pub slowdown_cdf_pm: Vec<u64>,
}

fn summarize(
    load_pm: u64,
    policy: PolicyKind,
    config: &JobStreamConfig,
    outcome: &JobStreamOutcome,
) -> LoadPoint {
    let n = outcome.records.len();
    let mut sojourns_us: Vec<u64> = outcome
        .records
        .iter()
        .map(|r| micros(r.sojourn()))
        .collect();
    sojourns_us.sort_unstable();
    let wait_sum: f64 = outcome.records.iter().map(|r| r.wait()).sum();
    let mut slowdowns: Vec<f64> = outcome
        .records
        .iter()
        .map(|r| r.slowdown(config.gamma, config.max_nodes_per_job))
        .collect();
    slowdowns.sort_unstable_by(f64::total_cmp);
    let slowdown_cdf_pm = SLOWDOWN_GRID
        .iter()
        .map(|&x| {
            let at_or_below = slowdowns.iter().take_while(|&&s| s <= x).count();
            (at_or_below as u64 * 1_000) / n.max(1) as u64
        })
        .collect();
    LoadPoint {
        load_pm,
        policy,
        jobs_completed: outcome.telemetry.jobs_completed,
        jobs_cut: outcome.telemetry.jobs_cut,
        makespan_us: micros(outcome.makespan),
        mean_wait_us: micros(wait_sum / n.max(1) as f64),
        sojourn_p50_us: nearest_rank(&sojourns_us, 1, 2),
        sojourn_p99_us: nearest_rank(&sojourns_us, 99, 100),
        sojourn_p999_us: nearest_rank(&sojourns_us, 999, 1000),
        slowdown_cdf_pm,
    }
}

/// Runs the full sweep: every load level in [`LOAD_LEVELS_PM`] crossed
/// with every policy in [`PolicyKind::ALL`], on one shared host
/// population and trace rotation (paired comparison). Returns the cells
/// in `(load, policy)` order.
///
/// # Errors
///
/// Returns [`ExperimentError`] for invalid configuration or substrate
/// failures.
pub fn run_jobstream(config: &JobStreamConfig) -> Result<Vec<LoadPoint>, ExperimentError> {
    Ok(run_jobstream_metrics(config, None)?.0)
}

/// [`run_jobstream`], with its *metrics cell* instrumented when
/// `interval_us` is given: the saturated load level under the ADAPT
/// placement runs with a [`MetricsHub`] scraping every `interval_us` of
/// simulated time and carrying the declared p99-sojourn [`slo_target`].
/// The hub records tracker gauges on the cadence, per-job
/// `job_sojourn_us` / `job_wait_us` observations, and admission work
/// spans. Observation changes nothing: the points are
/// [`run_jobstream`]'s.
///
/// # Errors
///
/// Same as [`run_jobstream`].
pub fn run_jobstream_metrics(
    config: &JobStreamConfig,
    interval_us: Option<u64>,
) -> Result<(Vec<LoadPoint>, Option<MetricsHub>), ExperimentError> {
    config.validate()?;
    let mut hub = interval_us.map(|us| MetricsHub::new(us).with_slo(slo_target()));
    let (world, tracker) = config.tracker()?;
    let mut points = Vec::with_capacity(LOAD_LEVELS_PM.len() * PolicyKind::ALL.len());
    for load_pm in LOAD_LEVELS_PM {
        let jobs = config.jobs(load_pm)?;
        for policy in PolicyKind::ALL {
            let mut placer =
                NameNodePlacer::new(world.node_specs(), policy, config.gamma, config.replication)?;
            let (seed, engine) = (config.seed, &OptimizedEngine);
            let outcome = match hub.as_mut() {
                Some(hub) if load_pm == SATURATED_PM && policy == PolicyKind::Adapt => {
                    tracker.run_with_metrics(&jobs, seed, engine, &mut placer, false, hub)?
                }
                _ => tracker.run_with(&jobs, seed, engine, &mut placer, false)?,
            };
            points.push(summarize(load_pm, policy, config, &outcome));
        }
    }
    Ok((points, hub))
}

/// Serializes the sweep as the `adapt-jobstream/1` report: the config,
/// the slowdown grid (per-mille), and one object per cell, all keys
/// sorted, all values integers (apart from the config's own floats,
/// which are fixed inputs, not measurements).
pub fn report_value(config: &JobStreamConfig, points: &[LoadPoint]) -> Value {
    let mut cfg = Value::object();
    cfg.insert("bandwidth_mbps", config.bandwidth_mbps);
    cfg.insert("block_size_mb", config.block_size.as_mb());
    cfg.insert("gamma_s", config.gamma);
    cfg.insert("jobs", config.jobs as u64);
    cfg.insert("max_nodes_per_job", config.max_nodes_per_job as u64);
    cfg.insert("nodes", config.nodes as u64);
    cfg.insert("replication", config.replication as u64);
    cfg.insert("sched", config.sched.as_str());
    cfg.insert("seed", config.seed);

    let grid: Vec<Value> = SLOWDOWN_GRID
        .iter()
        .map(|&x| Value::from((x * 1_000.0).round() as u64))
        .collect();
    let cells: Vec<Value> = points
        .iter()
        .map(|p| {
            let cdf: Vec<Value> = p.slowdown_cdf_pm.iter().map(|&v| Value::from(v)).collect();
            let mut v = Value::object();
            v.insert("jobs_completed", p.jobs_completed);
            v.insert("jobs_cut", p.jobs_cut);
            v.insert("load_pm", p.load_pm);
            v.insert("makespan_us", p.makespan_us);
            v.insert("mean_wait_us", p.mean_wait_us);
            v.insert("policy", p.policy.label());
            v.insert("slowdown_cdf_pm", cdf);
            v.insert("sojourn_p50_us", p.sojourn_p50_us);
            v.insert("sojourn_p999_us", p.sojourn_p999_us);
            v.insert("sojourn_p99_us", p.sojourn_p99_us);
            v
        })
        .collect();

    let mut v = Value::object();
    v.insert("config", cfg);
    v.insert("points", cells);
    v.insert("schema", "adapt-jobstream/1");
    v.insert("slowdown_grid_mille", grid);
    v
}

/// Renders the sweep as the text table the `jobstream` binary prints.
pub fn render_table(points: &[LoadPoint]) -> String {
    let mut out = String::new();
    out.push_str(
        "load     policy     done  cut  makespan_s    wait_s   p50_s    p99_s   p999_s  sd<=2\n",
    );
    for p in points {
        let sd2 = p.slowdown_cdf_pm.get(2).copied().unwrap_or(0);
        out.push_str(&format!(
            "{:<8} {:<10} {:>4} {:>4} {:>11.1} {:>9.1} {:>7.1} {:>8.1} {:>8.1} {:>4.1}%\n",
            format!("{:.2}", p.load_pm as f64 / 1_000.0),
            p.policy.label(),
            p.jobs_completed,
            p.jobs_cut,
            p.makespan_us as f64 / 1e6,
            p.mean_wait_us as f64 / 1e6,
            p.sojourn_p50_us as f64 / 1e6,
            p.sojourn_p99_us as f64 / 1e6,
            p.sojourn_p999_us as f64 / 1e6,
            sd2 as f64 / 10.0,
        ));
    }
    out
}

/// Renders the sweep as CSV (the `--csv` flag).
pub fn render_csv(points: &[LoadPoint]) -> String {
    let mut out = String::from(
        "load_pm,policy,jobs_completed,jobs_cut,makespan_us,mean_wait_us,\
         sojourn_p50_us,sojourn_p99_us,sojourn_p999_us\n",
    );
    for p in points {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            p.load_pm,
            p.policy.label(),
            p.jobs_completed,
            p.jobs_cut,
            p.makespan_us,
            p.mean_wait_us,
            p.sojourn_p50_us,
            p.sojourn_p99_us,
            p.sojourn_p999_us,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_dfs::cluster::NodeAvailability;

    fn small() -> JobStreamConfig {
        JobStreamConfig {
            nodes: 8,
            jobs: 10,
            max_nodes_per_job: 4,
            gamma: 4.0,
            ..JobStreamConfig::default()
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let config = small();
        let a = run_jobstream(&config).unwrap();
        // Observing the saturated cell changes no point.
        let b = run_jobstream_metrics(&config, Some(60_000_000)).unwrap().0;
        assert_eq!(a, b);
        assert_eq!(
            report_value(&config, &a).to_json(),
            report_value(&config, &b).to_json()
        );
        let shifted = JobStreamConfig {
            seed: config.seed + 1,
            ..config
        };
        let c = run_jobstream(&shifted).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn sweep_covers_every_load_and_policy() {
        let config = small();
        let points = run_jobstream(&config).unwrap();
        assert_eq!(points.len(), LOAD_LEVELS_PM.len() * PolicyKind::ALL.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.load_pm, LOAD_LEVELS_PM[i / PolicyKind::ALL.len()]);
            assert_eq!(p.policy, PolicyKind::ALL[i % PolicyKind::ALL.len()]);
            assert_eq!(p.jobs_completed + p.jobs_cut, config.jobs as u64);
            // The CDF is monotone and bounded.
            for w in p.slowdown_cdf_pm.windows(2) {
                assert!(w[0] <= w[1]);
            }
            assert!(p.slowdown_cdf_pm.iter().all(|&v| v <= 1_000));
            assert!(p.sojourn_p50_us <= p.sojourn_p99_us);
            assert!(p.sojourn_p99_us <= p.sojourn_p999_us);
            assert!(p.makespan_us > 0);
        }
    }

    #[test]
    fn namenode_placer_confines_remaps_and_releases() {
        let specs: Vec<NodeSpec> = (0..10)
            .map(|_| NodeSpec::new(NodeAvailability::reliable()))
            .collect();
        let mut placer = NameNodePlacer::new(specs, PolicyKind::Adapt, 12.0, 2).unwrap();
        let job = JobSpec {
            id: 3,
            arrival: 0.0,
            tasks: 6,
            priority: 0,
        };
        let alloc = [NodeId(2), NodeId(5), NodeId(7)];
        let placement = placer.place(&job, &alloc, 42).unwrap();
        assert_eq!(placement.len(), 6);
        for replicas in &placement {
            assert_eq!(replicas.len(), 2);
            for node in replicas {
                assert!((node.0 as usize) < alloc.len(), "local index out of range");
            }
        }
        // Released namespaces free the name: the same job id can place
        // again.
        placer.release(&job).unwrap();
        placer.place(&job, &alloc, 42).unwrap();
    }

    /// The placer as it was before it kept one policy: a fresh policy
    /// for every job.
    struct FreshPolicyPlacer {
        namenode: NameNode,
        policy: PolicyKind,
        gamma: f64,
        replication: usize,
        files: Vec<(u32, FileId)>,
    }

    impl JobPlacer for FreshPolicyPlacer {
        fn place(
            &mut self,
            job: &JobSpec,
            alloc: &[NodeId],
            seed: u64,
        ) -> Result<Vec<Vec<NodeId>>, SimError> {
            let mut rng = placement_rng(seed);
            let mut policy = self.policy.build(self.gamma);
            let replication = self.replication.min(alloc.len()).max(1);
            let file = self
                .namenode
                .create_file_on(
                    &format!("job-{}", job.id),
                    job.tasks,
                    replication,
                    policy.as_mut(),
                    Threshold::PaperDefault,
                    &mut rng,
                    alloc,
                )
                .map_err(placement_sim_err)?;
            let global =
                placement_from_namenode(&self.namenode, file).map_err(placement_sim_err)?;
            self.files.push((job.id, file));
            Ok(global
                .iter()
                .map(|replicas| {
                    replicas
                        .iter()
                        .map(|g| NodeId(alloc.binary_search(g).unwrap() as u32))
                        .collect()
                })
                .collect())
        }

        fn release(&mut self, job: &JobSpec) -> Result<(), SimError> {
            if let Some(pos) = self.files.iter().position(|&(id, _)| id == job.id) {
                let (_, file) = self.files.swap_remove(pos);
                self.namenode.delete_file(file).map_err(placement_sim_err)?;
            }
            Ok(())
        }
    }

    /// Every placement a placer returns, in call order.
    struct Recorded<P> {
        inner: P,
        placements: Vec<(u32, Vec<NodeId>, Vec<Vec<NodeId>>)>,
    }

    impl<P: JobPlacer> JobPlacer for Recorded<P> {
        fn place(
            &mut self,
            job: &JobSpec,
            alloc: &[NodeId],
            seed: u64,
        ) -> Result<Vec<Vec<NodeId>>, SimError> {
            let placement = self.inner.place(job, alloc, seed)?;
            self.placements
                .push((job.id, alloc.to_vec(), placement.clone()));
            Ok(placement)
        }

        fn release(&mut self, job: &JobSpec) -> Result<(), SimError> {
            self.inner.release(job)
        }
    }

    #[test]
    fn one_kept_policy_places_every_job_as_a_fresh_policy_would() {
        // Jobs of at most 16 of 256 nodes, whose block counts recur.
        let config = JobStreamConfig {
            nodes: 256,
            jobs: 150,
            ..JobStreamConfig::default()
        };
        let (world, tracker) = config.tracker().unwrap();
        let jobs = config.jobs(SATURATED_PM).unwrap();
        for policy in PolicyKind::ALL {
            let (gamma, replication) = (config.gamma, config.replication);
            let mut kept = Recorded {
                inner: NameNodePlacer::new(world.node_specs(), policy, gamma, replication).unwrap(),
                placements: Vec::new(),
            };
            let mut fresh = Recorded {
                inner: FreshPolicyPlacer {
                    namenode: NameNode::new(world.node_specs()),
                    policy,
                    gamma,
                    replication,
                    files: Vec::new(),
                },
                placements: Vec::new(),
            };
            let engine = &OptimizedEngine;
            let a = tracker.run_with(&jobs, config.seed, engine, &mut kept, false);
            let b = tracker.run_with(&jobs, config.seed, engine, &mut fresh, false);
            assert_eq!(kept.placements.len(), jobs.len(), "{policy}");
            assert_eq!(kept.placements, fresh.placements, "{policy}");
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(a.makespan.to_bits(), b.makespan.to_bits(), "{policy}");
            assert_eq!(a.telemetry, b.telemetry, "{policy}");
        }
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let config = small();
        let points = run_jobstream(&config).unwrap();
        let json = report_value(&config, &points).to_json();
        assert!(json.starts_with("{\"config\":{\"bandwidth_mbps\":"));
        assert!(json.contains("\"schema\":\"adapt-jobstream/1\""));
        assert!(
            json.contains("\"slowdown_grid_mille\":[1000,1500,2000,3000,5000,10000,20000,50000]")
        );
        assert!(json.contains("\"policy\":\"ADAPT\""));
        let table = render_table(&points);
        assert!(table.contains("existing"));
        let csv = render_csv(&points);
        assert_eq!(csv.lines().count(), points.len() + 1);
    }

    #[test]
    fn metrics_cell_is_deterministic_and_carries_the_slo() {
        let config = small();
        let (nodes, seed) = (config.nodes as u64, config.seed);
        let (_, hub) = run_jobstream_metrics(&config, Some(60_000_000)).unwrap();
        let doc_a = hub.unwrap().to_jsonl("jobstream", nodes, seed);
        // The saturated ADAPT cell run on its own, on a fresh tracker,
        // records the same document as inside the sweep.
        let (world, tracker) = config.tracker().unwrap();
        let jobs = config.jobs(SATURATED_PM).unwrap();
        let (gamma, replication) = (config.gamma, config.replication);
        let mut placer =
            NameNodePlacer::new(world.node_specs(), PolicyKind::Adapt, gamma, replication).unwrap();
        let mut cell = MetricsHub::new(60_000_000).with_slo(slo_target());
        tracker
            .run_with_metrics(&jobs, seed, &OptimizedEngine, &mut placer, false, &mut cell)
            .unwrap();
        assert_eq!(doc_a, cell.to_jsonl("jobstream", nodes, seed));
        let doc = adapt_metrics::export::parse_jsonl(&doc_a).unwrap();
        assert_eq!(doc.slo.as_ref(), Some(&slo_target()));
        // Every job contributes exactly one sojourn observation.
        let sojourns: Vec<u64> = doc
            .samples_u64("job_sojourn_us")
            .iter()
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(sojourns.len(), config.jobs);
        // The declared target evaluates to a coherent burn-rate report.
        let report = adapt_metrics::slo::evaluate(sojourns.iter().copied(), &slo_target());
        assert_eq!(report.total, config.jobs as u64);
        let violations = sojourns
            .iter()
            .filter(|&&s| s > SLO_SOJOURN_OBJECTIVE_US)
            .count() as u64;
        assert_eq!(report.violations, violations);
        assert!(doc.series.contains_key("tracker.pending_jobs"));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(run_jobstream(&JobStreamConfig {
            nodes: 0,
            ..small()
        })
        .is_err());
        assert!(run_jobstream(&JobStreamConfig { jobs: 0, ..small() }).is_err());
        assert!(run_jobstream(&JobStreamConfig {
            gamma: 0.0,
            ..small()
        })
        .is_err());
    }
}
