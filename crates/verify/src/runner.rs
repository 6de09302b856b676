//! The corpus runner: one deterministic fuzz sweep over generated
//! scenarios plus the metamorphic gate, summarized as a report.
//!
//! [`run_corpus`] is what CI executes (via the `verify` binary in
//! `adapt-experiments`): it generates `count` scenarios from
//! `base_seed`, runs the differential oracle on each, shrinks any
//! failure to a minimal reproducer, then sweeps the Monte-Carlo,
//! scale-invariance, permutation-equivariance, and threshold-cap
//! checks. The whole sweep is a pure function of `(base_seed, count)`,
//! so a red CI run is replayable locally with the same arguments.

use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_telemetry::Value;

use crate::generator::{
    generate, generate_jobstream, generate_reduce_heavy, generate_wide, generate_wide_reduce,
};
use crate::jobstream::{check_jobstream, JobStreamScenario};
use crate::metamorphic::{
    monte_carlo_check, reduce_monotone_in_bandwidth, shuffle_bytes_conserved, threshold_cap_holds,
    topology_degeneracy, weights_permutation_equivariant, weights_scale_invariant, McCheck,
    MC_REGIMES,
};
use crate::oracle::{check_reduce_scenario, check_scenario, Divergence};
use crate::scenario::{NodeKind, Scenario};
use crate::shrink::shrink;

/// Samples per Monte-Carlo regime check. Large enough that the
/// confidence interval is a few percent of E\[T\] even at ρ = 0.95, small
/// enough that the full sweep stays under a second.
const MC_SAMPLES: usize = 50_000;

/// Tolerance for the scale-invariance diff (round-trips through
/// `1/λ` and `λμ` arithmetic, so allow a few ulps of slack).
const SCALE_TOL: f64 = 1e-9;

/// Tolerance for the permutation-equivariance diff (pure relabeling,
/// so the weights must match almost exactly).
const PERM_TOL: f64 = 1e-12;

/// One oracle failure, shrunk to its minimal reproducer.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureArtifact {
    /// The generator seed that produced the failing scenario.
    pub seed: u64,
    /// The divergence observed on the *minimized* scenario.
    pub divergence: Divergence,
    /// The smallest scenario that still diverges.
    pub minimized: Scenario,
}

impl FailureArtifact {
    /// Serializes the artifact as a JSON object with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("divergence", self.divergence.to_value());
        v.insert("minimized", self.minimized.to_value());
        v.insert("seed", self.seed);
        v
    }
}

/// One multi-job lockstep failure. Job-stream scenarios are not
/// shrunk (the shrinker operates on single-run scenarios); the full
/// generated stream is embedded so the case replays from the artifact
/// alone.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStreamFailure {
    /// The generator seed that produced the failing stream.
    pub seed: u64,
    /// The first divergence observed (field names carry the policy).
    pub divergence: Divergence,
    /// The failing scenario, verbatim.
    pub scenario: JobStreamScenario,
}

impl JobStreamFailure {
    /// Serializes the failure as a JSON object with stable keys.
    pub fn to_value(&self) -> Value {
        let mut v = Value::object();
        v.insert("divergence", self.divergence.to_value());
        v.insert("scenario", self.scenario.to_value());
        v.insert("seed", self.seed);
        v
    }
}

/// The outcome of one full corpus sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The base seed the corpus derives from.
    pub base_seed: u64,
    /// How many scenarios were generated and checked.
    pub seeds_run: usize,
    /// Oracle failures, each shrunk to a minimal reproducer.
    pub failures: Vec<FailureArtifact>,
    /// Reduce-phase lockstep failures (all three placement strategies),
    /// each shrunk to a minimal reproducer.
    pub reduce_failures: Vec<FailureArtifact>,
    /// Multi-job lockstep failures (all three scheduling policies).
    pub jobstream_failures: Vec<JobStreamFailure>,
    /// Monte-Carlo bracketing results, one per regime in
    /// [`MC_REGIMES`].
    pub mc_checks: Vec<McCheck>,
    /// Largest normalized-weight drift under uniform time scaling.
    pub max_scale_diff: f64,
    /// Largest normalized-weight drift under node relabeling.
    pub max_perm_diff: f64,
    /// Largest per-node block count observed across threshold checks.
    pub max_threshold_load: usize,
    /// Non-divergence errors (invariance or threshold check rejections);
    /// any entry fails the sweep.
    pub errors: Vec<String>,
}

impl FuzzReport {
    /// Whether every gate passed: no oracle divergence, every MC regime
    /// bracketed, invariance drifts inside tolerance, no errors.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
            && self.reduce_failures.is_empty()
            && self.jobstream_failures.is_empty()
            && self.errors.is_empty()
            && self.mc_checks.iter().all(|c| c.pass)
            && self.max_scale_diff <= SCALE_TOL
            && self.max_perm_diff <= PERM_TOL
    }

    /// Serializes the report as a JSON object with stable keys — the
    /// artifact CI uploads when the sweep fails.
    pub fn to_value(&self) -> Value {
        let failures: Vec<Value> = self
            .failures
            .iter()
            .map(FailureArtifact::to_value)
            .collect();
        let mc: Vec<Value> = self
            .mc_checks
            .iter()
            .map(|c| {
                let mut v = Value::object();
                v.insert("estimate", c.estimate);
                v.insert("expected", c.expected);
                v.insert("gamma", c.gamma);
                v.insert("halfwidth", c.halfwidth);
                v.insert("lambda", c.lambda);
                v.insert("mu", c.mu);
                v.insert("pass", c.pass);
                v.insert("rho", c.rho);
                v.insert("samples", c.samples);
                v
            })
            .collect();
        let errors: Vec<Value> = self
            .errors
            .iter()
            .map(|e| Value::from(e.as_str()))
            .collect();
        let jobstream_failures: Vec<Value> = self
            .jobstream_failures
            .iter()
            .map(JobStreamFailure::to_value)
            .collect();
        let reduce_failures: Vec<Value> = self
            .reduce_failures
            .iter()
            .map(FailureArtifact::to_value)
            .collect();
        let mut v = Value::object();
        v.insert("base_seed", self.base_seed);
        v.insert("errors", errors);
        v.insert("failures", failures);
        v.insert("jobstream_failures", jobstream_failures);
        v.insert("max_perm_diff", self.max_perm_diff);
        v.insert("max_scale_diff", self.max_scale_diff);
        v.insert("max_threshold_load", self.max_threshold_load);
        v.insert("mc_checks", mc);
        v.insert("passed", self.passed());
        v.insert("reduce_failures", reduce_failures);
        v.insert("seeds_run", self.seeds_run);
        v
    }
}

/// The availability specs a scenario's cluster implies for the
/// placement-layer checks: synthetic nodes keep their M/G/1 model,
/// scheduled and reliable nodes are dedicated (a fixed schedule has no
/// stationary availability model).
fn availability_specs(scenario: &Scenario) -> Vec<NodeAvailability> {
    scenario
        .nodes
        .iter()
        .map(|kind| match kind {
            NodeKind::Synthetic {
                mtbi,
                mean_recovery,
            } => NodeAvailability::from_mtbi(*mtbi, *mean_recovery)
                .unwrap_or_else(|_| NodeAvailability::reliable()),
            NodeKind::Reliable | NodeKind::Scheduled { .. } => NodeAvailability::reliable(),
        })
        .collect()
}

/// Runs the placement-layer metamorphic checks for one scenario,
/// folding drifts and violations into the report.
fn check_placement_layer(report: &mut FuzzReport, seed: u64, scenario: &Scenario) {
    let specs = availability_specs(scenario);
    let n = specs.len();
    if n >= 2 {
        match weights_scale_invariant(scenario.gamma, &specs, 2.0) {
            Ok(diff) => report.max_scale_diff = report.max_scale_diff.max(diff),
            Err(e) => report
                .errors
                .push(format!("seed {seed}: scale invariance: {e}")),
        }
        // Rotate by one: a non-trivial permutation for every n >= 2.
        let perm: Vec<usize> = (0..n).map(|i| (i + 1) % n).collect();
        match weights_permutation_equivariant(scenario.gamma, &specs, &perm) {
            Ok(diff) => report.max_perm_diff = report.max_perm_diff.max(diff),
            Err(e) => report
                .errors
                .push(format!("seed {seed}: permutation equivariance: {e}")),
        }
    }
    let blocks = scenario.placement.len();
    let replication = scenario
        .placement
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(1)
        .min(n);
    if blocks > 0 && replication >= 1 {
        let node_specs: Vec<NodeSpec> = specs.into_iter().map(NodeSpec::new).collect();
        match threshold_cap_holds(scenario.gamma, node_specs, blocks, replication, seed) {
            Ok(max) => report.max_threshold_load = report.max_threshold_load.max(max),
            Err(e) => report
                .errors
                .push(format!("seed {seed}: threshold cap: {e}")),
        }
    }
}

/// Runs the map-phase differential oracle on one scenario of `corpus`,
/// shrinking any failure to a minimal reproducer.
fn check_map_layer(report: &mut FuzzReport, seed: u64, scenario: &Scenario, corpus: &str) {
    match check_scenario(scenario) {
        Ok(None) => {}
        Ok(Some(_)) => {
            let minimized = shrink(scenario.clone(), |c| {
                matches!(check_scenario(c), Ok(Some(_)))
            });
            // Re-derive the divergence on the minimized scenario so the
            // artifact's explanation matches its reproducer.
            if let Ok(Some(divergence)) = check_scenario(&minimized) {
                report.failures.push(FailureArtifact {
                    seed,
                    divergence,
                    minimized,
                });
            } else {
                report.errors.push(format!(
                    "seed {seed}: {corpus} divergence vanished while shrinking"
                ));
            }
        }
        Err(e) => report
            .errors
            .push(format!("seed {seed}: {corpus} oracle error: {e}")),
    }
}

/// Runs the reduce-phase lockstep oracle on one scenario of `corpus`,
/// shrinking any failure to its kernel across every dimension — tasks,
/// nodes, failure processes, scheduler flags, reducers, skew, topology,
/// and holders per map output.
fn check_reduce_layer(report: &mut FuzzReport, seed: u64, scenario: &Scenario, corpus: &str) {
    match check_reduce_scenario(scenario) {
        Ok(None) => {}
        Ok(Some(_)) => {
            let minimized = shrink(scenario.clone(), |c| {
                matches!(check_reduce_scenario(c), Ok(Some(_)))
            });
            if let Ok(Some(divergence)) = check_reduce_scenario(&minimized) {
                report.reduce_failures.push(FailureArtifact {
                    seed,
                    divergence,
                    minimized,
                });
            } else {
                report.errors.push(format!(
                    "seed {seed}: {corpus} reduce divergence vanished while shrinking"
                ));
            }
        }
        Err(e) => report
            .errors
            .push(format!("seed {seed}: {corpus} reduce oracle error: {e}")),
    }
}

/// Runs the reduce/shuffle metamorphic properties on one scenario,
/// folding violations into the report's error list.
fn check_reduce_metamorphic(report: &mut FuzzReport, seed: u64, scenario: &Scenario) {
    let checks = [
        ("shuffle conservation", shuffle_bytes_conserved(scenario)),
        ("topology degeneracy", topology_degeneracy(scenario)),
        (
            "bandwidth monotonicity",
            reduce_monotone_in_bandwidth(scenario),
        ),
    ];
    for (name, result) in checks {
        match result {
            Ok(None) => {}
            Ok(Some(violation)) => report
                .errors
                .push(format!("seed {seed}: {name}: {violation}")),
            Err(e) => report.errors.push(format!("seed {seed}: {name}: {e}")),
        }
    }
}

/// Runs the full verification sweep: `count` generated scenarios from
/// `base_seed` through the differential oracle (shrinking any failure)
/// on the plain, reduce-heavy and wide corpora, the reduce-phase
/// lockstep oracle on the plain corpus, its reduce-heavy re-draw and
/// the wide reduce corpus, the reduce/shuffle metamorphic properties, the
/// placement-layer metamorphic checks per scenario, and the Monte-Carlo
/// regime gate.
pub fn run_corpus(base_seed: u64, count: usize) -> FuzzReport {
    let mut report = FuzzReport {
        base_seed,
        seeds_run: count,
        failures: Vec::new(),
        reduce_failures: Vec::new(),
        jobstream_failures: Vec::new(),
        mc_checks: Vec::new(),
        max_scale_diff: 0.0,
        max_perm_diff: 0.0,
        max_threshold_load: 0,
        errors: Vec::new(),
    };
    for offset in 0..count {
        let seed = base_seed.wrapping_add(offset as u64);
        let scenario = generate(seed);
        check_map_layer(&mut report, seed, &scenario, "plain");
        check_placement_layer(&mut report, seed, &scenario);
        // The reduce-phase lockstep oracle on the plain corpus, then on
        // its reduce-heavy re-draw (same map inputs, shuffle-dominant
        // dimensions), which also runs through the map oracle — the
        // multi-rack topology changes map-phase transfers too.
        check_reduce_layer(&mut report, seed, &scenario, "plain");
        let heavy = generate_reduce_heavy(seed);
        check_map_layer(&mut report, seed, &heavy, "reduce-heavy");
        check_reduce_layer(&mut report, seed, &heavy, "reduce-heavy");
        check_reduce_metamorphic(&mut report, seed, &heavy);
        // The wide corpus: task and node sets across many 64-id words,
        // saturated sources and +∞-slowdown hosts, through the map
        // oracle.
        check_map_layer(&mut report, seed, &generate_wide(seed), "wide");
        // The wide reduce corpus: dozens of reducers per source and
        // uplink, several holders per map output, through the reduce
        // oracle.
        check_reduce_layer(
            &mut report,
            seed,
            &generate_wide_reduce(seed),
            "wide-reduce",
        );
        // The multi-job lockstep check: both trackers, all three
        // scheduling policies, full-outcome equality.
        let stream = generate_jobstream(seed);
        match check_jobstream(&stream) {
            Ok(None) => {}
            Ok(Some(divergence)) => report.jobstream_failures.push(JobStreamFailure {
                seed,
                divergence,
                scenario: stream,
            }),
            Err(e) => report
                .errors
                .push(format!("seed {seed}: jobstream oracle error: {e}")),
        }
    }
    for (i, &(lambda, mu, gamma)) in MC_REGIMES.iter().enumerate() {
        match monte_carlo_check(
            lambda,
            mu,
            gamma,
            MC_SAMPLES,
            base_seed.wrapping_add(i as u64),
        ) {
            Ok(check) => report.mc_checks.push(check),
            Err(e) => report
                .errors
                .push(format!("mc regime ({lambda}, {mu}, {gamma}): {e}")),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_passes() {
        let report = run_corpus(0, 8);
        assert!(report.passed(), "{:?}", report.to_value().to_json());
        assert_eq!(report.seeds_run, 8);
        assert_eq!(report.mc_checks.len(), MC_REGIMES.len());
        assert!(report.mc_checks.iter().any(|c| c.rho >= 0.9));
    }

    #[test]
    fn corpus_is_deterministic() {
        assert_eq!(run_corpus(3, 4), run_corpus(3, 4));
    }

    #[test]
    fn report_serializes_with_stable_keys() {
        let report = run_corpus(1, 2);
        let json = report.to_value().to_json();
        assert_eq!(json, report.to_value().to_json());
        assert!(json.contains("\"passed\":true"));
        assert!(json.contains("\"seeds_run\":2"));
    }
}
