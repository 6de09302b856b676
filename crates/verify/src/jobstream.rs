//! Multi-job lockstep verification: the differential oracle extended
//! from one map phase to a whole job stream.
//!
//! [`JobStreamScenario`] pins everything a tracker run needs — cluster
//! makeup, the job list, scheduling knobs, and the stream seed — and
//! [`check_jobstream`] runs `adapt_sim::JobTracker` (optimized engine)
//! against [`ReferenceJobTracker`] (a naive re-implementation driving
//! [`crate::reference::ReferenceSim`] through the same [`MapEngine`]
//! seam) under **all three** scheduling policies, requiring the full
//! [`JobStreamOutcome`] to be equal: every per-job [`DetailedReport`]
//! (including its event trace), the admission-order records, the
//! tracker telemetry, and the tracker-level job lifecycle trace.
//!
//! The naive tracker mirrors the optimized one decision for decision
//! but builds its state the slow, obvious way: an unsorted `Vec`
//! scanned linearly for the `(time, seq)` minimum instead of the 4-ary
//! heap, class usage recomputed by scanning the running set instead of
//! maintained counters, and the reference map-phase engine underneath.
//! `adapt_sim::job_seed` is *shared* on purpose: per-job seed
//! derivation is part of the determinism contract being verified, so
//! the reference pins it rather than re-rolling it.

use adapt_dfs::{BlockSize, NodeId};
use adapt_sim::engine::{DetailedReport, SchedulingMode, SimConfig};
use adapt_sim::interrupt::InterruptionProcess;
use adapt_sim::jobtracker::{
    job_seed, JobRecord, JobStreamOutcome, JobTracker, JobTrackerConfig, JobTrackerTelemetry,
    MapEngine, OptimizedEngine, SchedPolicy, StripedPlacer,
};
use adapt_telemetry::Value;
use adapt_trace::{TraceEvent, TraceMeta, TraceRecorder};
use adapt_workload::JobSpec;

use crate::naive_queue::NaiveQueue;
use crate::oracle::Divergence;
use crate::reference::ReferenceSim;
use crate::scenario::NodeKind;
use crate::VerifyError;

/// The three policies every job-stream check sweeps.
pub const ALL_POLICIES: [SchedPolicy; 3] = [
    SchedPolicy::Fifo,
    SchedPolicy::FairShare,
    SchedPolicy::Capacity,
];

/// One complete, reproducible job-stream input.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStreamScenario {
    /// The stream seed all per-job randomness derives from.
    pub seed: u64,
    /// One entry per node.
    pub nodes: Vec<NodeKind>,
    /// The job stream: dense ids, non-decreasing arrivals.
    pub jobs: Vec<JobSpec>,
    /// Replication factor of the built-in striping placer.
    pub replication: usize,
    /// Per-job node cap.
    pub max_nodes_per_job: usize,
    /// Production queue share under the capacity policy.
    pub capacity_fraction: f64,
    /// Minimum priority of the production class.
    pub prod_priority_min: u8,
    /// Per-node link bandwidth, Mb/s.
    pub bandwidth_mbps: f64,
    /// HDFS block size in bytes.
    pub block_bytes: u64,
    /// Failure-free map-task time per block, seconds.
    pub gamma: f64,
    /// Whether speculative duplicates are enabled.
    pub speculation: bool,
    /// Maximum concurrent copies of one task.
    pub max_copies: usize,
    /// Maximum concurrent outbound transfers per node.
    pub max_source_streams: usize,
    /// Whether the steal scan is availability-aware.
    pub availability_aware: bool,
    /// Failure-detection latency, seconds.
    pub detection_delay: f64,
    /// Per-job engine horizon, seconds.
    pub horizon: f64,
}

impl JobStreamScenario {
    /// Builds the per-node interruption processes.
    ///
    /// # Errors
    ///
    /// [`VerifyError::InvalidScenario`] for out-of-domain node
    /// parameters.
    pub fn processes(&self) -> Result<Vec<InterruptionProcess>, VerifyError> {
        crate::scenario::build_processes(&self.nodes, self.horizon)
    }

    /// Builds the per-job engine configuration.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] if any parameter is out of domain.
    pub fn sim_config(&self) -> Result<SimConfig, VerifyError> {
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

    /// Builds the tracker configuration for one policy.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] if any knob is out of domain.
    pub fn tracker_config(&self, sched: SchedPolicy) -> Result<JobTrackerConfig, VerifyError> {
        Ok(JobTrackerConfig::new(self.sim_config()?, sched)?
            .with_max_nodes_per_job(self.max_nodes_per_job)?
            .with_capacity_fraction(self.capacity_fraction)?
            .with_prod_priority_min(self.prod_priority_min))
    }

    /// Runs the optimized tracker (optimized engine, built-in striping
    /// placer) under `sched`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_optimized(
        &self,
        sched: SchedPolicy,
        traced: bool,
    ) -> Result<JobStreamOutcome, VerifyError> {
        let tracker = JobTracker::new(self.processes()?, self.tracker_config(sched)?)?;
        let mut placer = StripedPlacer::new(self.replication)?;
        Ok(tracker.run_with(&self.jobs, self.seed, &OptimizedEngine, &mut placer, traced)?)
    }

    /// Runs the naive reference tracker (reference engine underneath)
    /// under `sched`.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on configuration or engine errors.
    pub fn run_reference(
        &self,
        sched: SchedPolicy,
        traced: bool,
    ) -> Result<JobStreamOutcome, VerifyError> {
        let tracker = ReferenceJobTracker::new(self.processes()?, self.tracker_config(sched)?)?;
        tracker.run_with(&self.jobs, self.seed, self.replication, traced)
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
        let jobs: Vec<Value> = self
            .jobs
            .iter()
            .map(|j| {
                let mut v = Value::object();
                v.insert("arrival", j.arrival);
                v.insert("id", j.id);
                v.insert("priority", u64::from(j.priority));
                v.insert("tasks", j.tasks);
                v
            })
            .collect();

        let mut v = Value::object();
        v.insert("availability_aware", self.availability_aware);
        v.insert("bandwidth_mbps", self.bandwidth_mbps);
        v.insert("block_bytes", self.block_bytes);
        v.insert("capacity_fraction", self.capacity_fraction);
        v.insert("detection_delay", self.detection_delay);
        v.insert("gamma", self.gamma);
        v.insert("horizon", self.horizon);
        v.insert("jobs", jobs);
        v.insert("max_copies", self.max_copies);
        v.insert("max_nodes_per_job", self.max_nodes_per_job);
        v.insert("max_source_streams", self.max_source_streams);
        v.insert("nodes", nodes);
        v.insert("prod_priority_min", u64::from(self.prod_priority_min));
        v.insert("replication", self.replication);
        v.insert("seed", self.seed);
        v.insert("speculation", self.speculation);
        v
    }
}

/// The reference map-phase engine behind the [`MapEngine`] seam.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReferenceEngine;

impl MapEngine for ReferenceEngine {
    fn run_map_phase(
        &self,
        processes: Vec<InterruptionProcess>,
        placement: Vec<Vec<NodeId>>,
        cfg: SimConfig,
        seed: u64,
        traced: bool,
    ) -> Result<DetailedReport, adapt_sim::SimError> {
        let sim = ReferenceSim::new(processes, placement, cfg)?;
        let sim = if traced {
            sim.with_trace(TraceRecorder::new())
        } else {
            sim
        };
        sim.run_detailed(seed)
    }
}

/// The naive job tracker: same decisions as `adapt_sim::JobTracker`,
/// naive machinery — an unsorted event list with a linear `(time, seq)`
/// min-scan, per-decision recomputation instead of maintained counters,
/// and [`ReferenceSim`] running every map phase.
#[derive(Debug)]
pub struct ReferenceJobTracker {
    processes: Vec<InterruptionProcess>,
    cfg: JobTrackerConfig,
}

#[derive(Debug, Clone, Copy)]
enum NaiveEvent {
    Arrive(u32),
    Finish(u32),
}

impl ReferenceJobTracker {
    /// A naive tracker over a cluster of `processes.len()` nodes.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] for an empty cluster.
    pub fn new(
        processes: Vec<InterruptionProcess>,
        cfg: JobTrackerConfig,
    ) -> Result<Self, VerifyError> {
        if processes.is_empty() {
            return Err(VerifyError::InvalidScenario {
                reason: "a job stream needs at least one node".into(),
            });
        }
        Ok(ReferenceJobTracker { processes, cfg })
    }

    /// Runs the stream with an explicit striping replication factor.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Sim`] on invalid jobs or engine errors.
    pub fn run_with(
        &self,
        jobs: &[JobSpec],
        seed: u64,
        replication: usize,
        traced: bool,
    ) -> Result<JobStreamOutcome, VerifyError> {
        let n = self.processes.len();
        let engine = ReferenceEngine;
        // Validation mirrors the optimized tracker.
        let mut prev = 0.0f64;
        for (i, j) in jobs.iter().enumerate() {
            if j.id as usize != i
                || !(j.arrival.is_finite() && j.arrival >= 0.0 && j.arrival >= prev)
                || j.tasks == 0
            {
                return Err(VerifyError::InvalidScenario {
                    reason: format!("job at position {i} is invalid"),
                });
            }
            prev = j.arrival;
        }

        let mut queue = NaiveQueue::default();
        for j in jobs {
            queue.push(j.arrival, NaiveEvent::Arrive(j.id))?;
        }
        let mut recorder = if traced {
            Some(TraceRecorder::new())
        } else {
            None
        };
        let mut telemetry = JobTrackerTelemetry::default();
        let mut busy: Vec<bool> = vec![false; n];
        let mut pending: Vec<u32> = Vec::new();
        // (job id, alloc, record index) for jobs currently holding nodes.
        let mut active: Vec<(u32, Vec<u32>, usize)> = Vec::new();
        let mut records: Vec<JobRecord> = Vec::new();
        let mut makespan = 0.0f64;

        while let Some((t, ev)) = queue.pop() {
            match ev {
                NaiveEvent::Arrive(id) => {
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(TraceEvent::JobSubmitted { job: id, t });
                    }
                    pending.push(id);
                    telemetry.jobs_submitted += 1;
                    telemetry.queue_len_hwm = telemetry.queue_len_hwm.max(pending.len() as u64);
                }
                NaiveEvent::Finish(id) => {
                    let Some(pos) = active.iter().position(|(j, _, _)| *j == id) else {
                        return Err(VerifyError::InvalidScenario {
                            reason: "finish event for a job that is not running".into(),
                        });
                    };
                    let (_, alloc, record) = active.remove(pos);
                    for g in alloc {
                        busy[g as usize] = false;
                    }
                    if let Some(rec) = recorder.as_mut() {
                        rec.record(TraceEvent::JobCompleted {
                            job: id,
                            completed: records[record].completed(),
                            start: records[record].start,
                            t,
                        });
                    }
                    makespan = makespan.max(t);
                }
            }
            // Admission pass, recomputing everything from scratch.
            loop {
                let free_count = busy.iter().filter(|&&b| !b).count();
                if free_count == 0 || pending.is_empty() {
                    break;
                }
                let Some((pos, grant)) = self.pick(jobs, &pending, &active, free_count) else {
                    break;
                };
                let id = pending.remove(pos);
                let job = &jobs[id as usize];
                let mut alloc: Vec<u32> = Vec::new();
                for (g, slot) in busy.iter_mut().enumerate() {
                    if alloc.len() == grant {
                        break;
                    }
                    if !*slot {
                        *slot = true;
                        alloc.push(g as u32);
                    }
                }
                let busy_now = busy.iter().filter(|&&b| b).count();
                telemetry.busy_nodes_hwm = telemetry.busy_nodes_hwm.max(busy_now as u64);

                // Naive striping placement: replica r of task i on local
                // node (i + r) mod alloc.
                let k = replication.min(alloc.len()).max(1);
                let placement: Vec<Vec<NodeId>> = (0..job.tasks)
                    .map(|i| {
                        (0..k)
                            .map(|r| NodeId(((i + r) % alloc.len()) as u32))
                            .collect()
                    })
                    .collect();
                let jseed = job_seed(seed, job.id);
                let processes: Vec<InterruptionProcess> = alloc
                    .iter()
                    .map(|&g| self.processes[g as usize].clone())
                    .collect();
                let detailed =
                    engine.run_map_phase(processes, placement, self.cfg.sim(), jseed, traced)?;
                if detailed.report.completed {
                    telemetry.jobs_completed += 1;
                } else {
                    telemetry.jobs_cut += 1;
                }
                telemetry.engine_events += detailed.telemetry.events();
                telemetry.engine_attempts += detailed.telemetry.attempts_started;
                telemetry.engine_queue_depth_hwm = telemetry
                    .engine_queue_depth_hwm
                    .max(detailed.telemetry.queue_depth_hwm);

                let finish = t + detailed.report.elapsed;
                queue.push(finish, NaiveEvent::Finish(id))?;
                if let Some(rec) = recorder.as_mut() {
                    rec.record(TraceEvent::JobStarted {
                        job: id,
                        nodes: alloc.len() as u32,
                        tasks: job.tasks as u32,
                        t,
                    });
                }
                active.push((id, alloc.clone(), records.len()));
                records.push(JobRecord {
                    spec: job.clone(),
                    start: t,
                    finish,
                    alloc,
                    detailed,
                });
            }
        }

        let total_tasks: usize = jobs.iter().map(|j| j.tasks).sum();
        let all_complete = records.len() == jobs.len() && records.iter().all(JobRecord::completed);
        let trace = recorder.map(|rec| {
            rec.finish(TraceMeta {
                nodes: n as u32,
                tasks: total_tasks as u32,
                gamma: self.cfg.sim().gamma(),
                block_bytes: self.cfg.sim().block_size().bytes(),
                seed,
                elapsed: makespan,
                completed: all_complete,
            })
        });
        Ok(JobStreamOutcome {
            records,
            makespan,
            telemetry,
            trace,
        })
    }

    /// The naive admission decision: same semantics as the optimized
    /// tracker's `pick`, with class usage recomputed by scanning the
    /// active set.
    fn pick(
        &self,
        jobs: &[JobSpec],
        pending: &[u32],
        active: &[(u32, Vec<u32>, usize)],
        free_count: usize,
    ) -> Option<(usize, usize)> {
        let demand = |id: u32| -> usize {
            jobs[id as usize]
                .tasks
                .min(self.cfg.max_nodes_per_job())
                .max(1)
        };
        match self.cfg.sched() {
            SchedPolicy::Fifo => {
                let head = *pending.first()?;
                Some((0, demand(head).min(free_count)))
            }
            SchedPolicy::FairShare => {
                let total_weight: u64 = pending.iter().map(|&id| jobs[id as usize].weight()).sum();
                // Heaviest first; ties broken by queue position, found
                // the naive way: scan every candidate.
                let mut best: Option<(usize, u32)> = None;
                for (i, &id) in pending.iter().enumerate() {
                    let better = match best {
                        None => true,
                        Some((bi, bid)) => {
                            let (w, bw) = (jobs[id as usize].weight(), jobs[bid as usize].weight());
                            w > bw || (w == bw && i < bi)
                        }
                    };
                    if better {
                        best = Some((i, id));
                    }
                }
                let (pos, id) = best?;
                let share =
                    ((free_count as u64 * jobs[id as usize].weight()) / total_weight.max(1)).max(1);
                Some((pos, demand(id).min(share as usize).min(free_count)))
            }
            SchedPolicy::Capacity => {
                let n = self.processes.len();
                let cap_prod = ((self.cfg.capacity_fraction() * n as f64).ceil() as usize)
                    .clamp(1, n.saturating_sub(1).max(1));
                let is_prod = |id: u32| jobs[id as usize].priority >= self.cfg.prod_priority_min();
                let used_of = |prod: bool| -> usize {
                    active
                        .iter()
                        .filter(|(id, _, _)| is_prod(*id) == prod)
                        .map(|(_, alloc, _)| alloc.len())
                        .sum()
                };
                let prod_pending = pending.iter().any(|&id| is_prod(id));
                let batch_pending = pending.iter().any(|&id| !is_prod(id));
                let limit_prod = if batch_pending { cap_prod } else { n };
                if prod_pending {
                    let headroom = limit_prod.saturating_sub(used_of(true)).min(free_count);
                    if headroom > 0 {
                        let (pos, &id) =
                            pending.iter().enumerate().find(|&(_, &id)| is_prod(id))?;
                        return Some((pos, demand(id).min(headroom)));
                    }
                }
                let limit_batch = if prod_pending { n - cap_prod } else { n };
                if batch_pending {
                    let headroom = limit_batch.saturating_sub(used_of(false)).min(free_count);
                    if headroom > 0 {
                        if let Some((pos, &id)) =
                            pending.iter().enumerate().find(|&(_, &id)| !is_prod(id))
                        {
                            return Some((pos, demand(id).min(headroom)));
                        }
                    }
                }
                None
            }
        }
    }
}

/// Strips per-record fields tracing is allowed to add (the engine
/// trace), leaving what the zero-overhead contract pins.
fn untraced_view(records: &[JobRecord]) -> Vec<(JobSpec, f64, f64, Vec<u32>)> {
    records
        .iter()
        .map(|r| (r.spec.clone(), r.start, r.finish, r.alloc.clone()))
        .collect()
}

/// Runs optimized and reference trackers on `scenario` under all three
/// policies (traced), requiring full outcome equality, then re-runs the
/// optimized tracker untraced to pin the zero-overhead-tracing
/// contract.
///
/// # Errors
///
/// [`VerifyError`] if either tracker rejects the scenario — a rejection
/// mismatch is reported as a divergence, not an error.
#[expect(clippy::float_cmp, reason = "the oracle requires exact agreement")]
pub fn check_jobstream(scenario: &JobStreamScenario) -> Result<Option<Divergence>, VerifyError> {
    for sched in ALL_POLICIES {
        let optimized = scenario.run_optimized(sched, true);
        let reference = {
            let tracker =
                ReferenceJobTracker::new(scenario.processes()?, scenario.tracker_config(sched)?)?;
            tracker.run_with(&scenario.jobs, scenario.seed, scenario.replication, true)
        };
        let (optimized, reference) = match (optimized, reference) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(_), Err(_)) => continue,
            (Ok(_), Err(e)) => {
                return Ok(Some(Divergence {
                    field: "jobstream:error",
                    details: format!(
                        "[{}] reference rejected what the optimized tracker ran: {e}",
                        sched.as_str()
                    ),
                }));
            }
            (Err(e), Ok(_)) => {
                return Ok(Some(Divergence {
                    field: "jobstream:error",
                    details: format!(
                        "[{}] optimized rejected what the reference tracker ran: {e}",
                        sched.as_str()
                    ),
                }));
            }
        };
        if let Some(d) = compare_outcomes(sched, &optimized, &reference) {
            return Ok(Some(d));
        }
        // Zero-overhead tracing: the untraced optimized run must agree
        // on everything except the traces themselves.
        let untraced = scenario.run_optimized(sched, false)?;
        if untraced_view(&untraced.records) != untraced_view(&optimized.records)
            || untraced.makespan != optimized.makespan
            || untraced.telemetry != optimized.telemetry
        {
            return Ok(Some(Divergence {
                field: "jobstream:trace_overhead",
                details: format!(
                    "[{}] optimized tracker behaves differently with tracing enabled",
                    sched.as_str()
                ),
            }));
        }
    }
    Ok(None)
}

/// Compares two job-stream outcomes, returning the first difference.
#[expect(clippy::float_cmp, reason = "the oracle requires exact agreement")]
pub fn compare_outcomes(
    sched: SchedPolicy,
    optimized: &JobStreamOutcome,
    reference: &JobStreamOutcome,
) -> Option<Divergence> {
    if optimized.records != reference.records {
        let first = optimized
            .records
            .iter()
            .zip(reference.records.iter())
            .position(|(a, b)| a != b);
        return Some(Divergence {
            field: "jobstream:records",
            details: match first {
                Some(i) => format!(
                    "[{}] record {i} (job {}): optimized != reference",
                    sched.as_str(),
                    optimized.records[i].spec.id
                ),
                None => format!(
                    "[{}] record count {} != {}",
                    sched.as_str(),
                    optimized.records.len(),
                    reference.records.len()
                ),
            },
        });
    }
    if optimized.makespan != reference.makespan {
        return Some(Divergence {
            field: "jobstream:makespan",
            details: format!(
                "[{}] optimized {} != reference {}",
                sched.as_str(),
                optimized.makespan,
                reference.makespan
            ),
        });
    }
    if optimized.telemetry != reference.telemetry {
        return Some(Divergence {
            field: "jobstream:telemetry",
            details: format!(
                "[{}] optimized {:?} != reference {:?}",
                sched.as_str(),
                optimized.telemetry,
                reference.telemetry
            ),
        });
    }
    match (&optimized.trace, &reference.trace) {
        (Some(a), Some(b)) if a != b => {
            let first = a
                .events
                .iter()
                .zip(b.events.iter())
                .position(|(x, y)| x != y);
            Some(Divergence {
                field: "jobstream:trace",
                details: match first {
                    Some(i) => format!(
                        "[{}] event {i}: optimized {:?} != reference {:?}",
                        sched.as_str(),
                        a.events[i],
                        b.events[i]
                    ),
                    None => format!(
                        "[{}] event count {} != {} (or meta differs)",
                        sched.as_str(),
                        a.events.len(),
                        b.events.len()
                    ),
                },
            })
        }
        (Some(_), None) | (None, Some(_)) => Some(Divergence {
            field: "jobstream:trace",
            details: format!(
                "[{}] one tracker produced a trace and the other did not",
                sched.as_str()
            ),
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_jobstream;

    fn tiny() -> JobStreamScenario {
        JobStreamScenario {
            seed: 7,
            nodes: vec![NodeKind::Reliable, NodeKind::Reliable, NodeKind::Reliable],
            jobs: vec![
                JobSpec {
                    id: 0,
                    arrival: 0.0,
                    tasks: 4,
                    priority: 1,
                },
                JobSpec {
                    id: 1,
                    arrival: 3.0,
                    tasks: 2,
                    priority: 0,
                },
            ],
            replication: 1,
            max_nodes_per_job: 8,
            capacity_fraction: 0.7,
            prod_priority_min: 1,
            bandwidth_mbps: 8.0,
            block_bytes: BlockSize::DEFAULT.bytes(),
            gamma: 12.0,
            speculation: true,
            max_copies: 2,
            max_source_streams: 4,
            availability_aware: false,
            detection_delay: 0.0,
            horizon: 1e6,
        }
    }

    #[test]
    fn reliable_stream_passes_all_policies() {
        assert_eq!(check_jobstream(&tiny()).unwrap(), None);
    }

    #[test]
    fn generated_streams_pass_the_oracle() {
        for seed in 0..12 {
            let s = generate_jobstream(seed);
            assert_eq!(
                check_jobstream(&s).unwrap(),
                None,
                "seed {seed}: {}",
                s.to_value().to_json()
            );
        }
    }

    #[test]
    fn compare_outcomes_spots_telemetry_drift() {
        let s = tiny();
        let a = s.run_optimized(SchedPolicy::Fifo, false).unwrap();
        let mut b = a.clone();
        b.telemetry.jobs_completed += 1;
        let d = compare_outcomes(SchedPolicy::Fifo, &a, &b).unwrap();
        assert_eq!(d.field, "jobstream:telemetry");
    }

    #[test]
    fn scenario_serializes_with_stable_keys() {
        let s = tiny();
        let json = s.to_value().to_json();
        assert_eq!(json, s.to_value().to_json());
        assert!(json.contains("\"jobs\""));
        assert!(json.contains("\"capacity_fraction\""));
    }
}
