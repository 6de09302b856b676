//! Metamorphic properties of the availability model and the placement
//! algorithm.
//!
//! These checks do not need a second implementation to compare against;
//! they exploit relations the *mathematics* guarantees:
//!
//! 1. **Monte Carlo ↔ equation (5)** — simulating the generative process
//!    of equation (1) (Poisson interruptions, restart-from-scratch,
//!    M/G/1 recovery busy periods) must reproduce the closed-form
//!    E\[T\] = (e^{γλ} − 1)(1/λ + μ/(1 − λμ)) within the sampling error of
//!    the estimate ([`monte_carlo_check`]).
//! 2. **Time-scaling invariance** — rescaling every rate consistently
//!    (λ → λ/c, μ → μ·c, γ → γ·c) multiplies every node's E\[T\] by
//!    exactly c, so ADAPT's *normalized* placement weights are invariant
//!    ([`weights_scale_invariant`]).
//! 3. **Permutation equivariance** — relabeling nodes permutes the
//!    weights the same way ([`weights_permutation_equivariant`]).
//! 4. **Threshold cap** — any file placed under the paper's default
//!    threshold stores at most ⌈m(k+1)/n⌉ blocks on any node, except
//!    where the NameNode explicitly recorded a cap relaxation to keep a
//!    replica placeable — and then the total excess is bounded by the
//!    relaxation count ([`threshold_cap_holds`]).
//! 5. **Shuffle-bytes conservation** — on a reliable cluster the reduce
//!    phase's local plus network bytes equal the total map-output bytes
//!    exactly, as `u64`s: `slice_bytes` partitions without creating or
//!    losing a byte and nothing is re-fetched
//!    ([`shuffle_bytes_conserved`]).
//! 6. **Topology degeneracy** — installing an explicit 1-rack,
//!    non-oversubscribed topology reproduces the pre-topology flat
//!    engine byte-identically, for both the map and the reduce phase
//!    ([`topology_degeneracy`]).
//! 7. **Bandwidth monotonicity** — on a reliable cluster, doubling every
//!    link's bandwidth can only finish the reduce phase earlier
//!    ([`reduce_monotone_in_bandwidth`]).

use rand::rngs::StdRng;
use rand::SeedableRng;

use adapt_availability::dist::Dist;
use adapt_availability::{Moments, TaskModel};
use adapt_core::{AdaptPolicy, PerformancePredictor};
use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
use adapt_dfs::namenode::{NameNode, Threshold};
use adapt_dfs::placement::{ClusterView, NodeView};
use adapt_dfs::NodeId;
use adapt_sim::{NaiveStrategy, PlacementStrategy, ReduceDetailed};

use crate::oracle::compare_reports;
use crate::scenario::{NodeKind, Scenario};
use crate::VerifyError;

/// Result of one Monte-Carlo bracketing check of equation (5).
#[derive(Debug, Clone, PartialEq)]
pub struct McCheck {
    /// Interruption rate λ.
    pub lambda: f64,
    /// Mean recovery μ.
    pub mu: f64,
    /// Failure-free task time γ.
    pub gamma: f64,
    /// The load factor ρ = λμ.
    pub rho: f64,
    /// The closed-form E\[T\] of equation (5).
    pub expected: f64,
    /// The Monte-Carlo estimate of E\[T\].
    pub estimate: f64,
    /// Half-width of the confidence interval around the estimate.
    pub halfwidth: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Whether `expected` lies inside `estimate ± halfwidth`.
    pub pass: bool,
}

/// The z-score used for the Monte-Carlo confidence interval: 3.89
/// corresponds to a two-sided confidence level of 99.99%, so a fixed
/// seed corpus of dozens of regime checks has comfortably less than a
/// percent total false-alarm budget while still detecting any real
/// model/simulation disagreement (which grows with √n, not a constant).
pub const MC_Z: f64 = 3.89;

/// Simulates `samples` task executions under exponential recoveries and
/// checks that the closed-form E\[T\] lies within the `MC_Z`-sigma
/// confidence interval of the sample mean.
///
/// # Errors
///
/// [`VerifyError::Availability`] for out-of-domain parameters (including
/// unstable ρ = λμ ≥ 1, which equation (5) excludes).
pub fn monte_carlo_check(
    lambda: f64,
    mu: f64,
    gamma: f64,
    samples: usize,
    seed: u64,
) -> Result<McCheck, VerifyError> {
    let model = TaskModel::new(lambda, mu, gamma)?;
    let recovery = Dist::exponential_from_mean(mu)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut moments = Moments::new();
    for _ in 0..samples {
        moments.push(model.simulate_completion(&recovery, &mut rng));
    }
    let estimate = moments.mean();
    let halfwidth = MC_Z * moments.std_dev() / (samples as f64).sqrt();
    let expected = model.expected_completion();
    Ok(McCheck {
        lambda,
        mu,
        gamma,
        rho: lambda * mu,
        expected,
        estimate,
        halfwidth,
        samples,
        pass: (estimate - expected).abs() <= halfwidth,
    })
}

/// The `(γλ, ρ)` regimes the CI gate runs [`monte_carlo_check`] over.
/// Three span light to heavy interruption pressure; the last two sit at
/// and above ρ = 0.9, the near-saturation regime the paper's placement
/// advantage depends on.
pub const MC_REGIMES: [(f64, f64, f64); 4] = [
    // (lambda, mu, gamma): gamma*lambda = 0.12, rho = 0.2
    (0.01, 20.0, 12.0),
    // gamma*lambda = 1.2, rho = 0.8
    (0.1, 8.0, 12.0),
    // gamma*lambda = 0.6, rho = 0.9
    (0.05, 18.0, 12.0),
    // gamma*lambda = 0.6, rho = 0.95
    (0.05, 19.0, 12.0),
];

fn view(specs: &[NodeAvailability]) -> ClusterView {
    ClusterView::new(
        specs
            .iter()
            .enumerate()
            .map(|(i, &availability)| NodeView {
                id: NodeId(i as u32),
                availability,
                alive: true,
                stored_blocks: 0,
                capacity_blocks: None,
                rack: 0,
            })
            .collect(),
    )
}

fn normalized_rates(gamma: f64, specs: &[NodeAvailability]) -> Result<Vec<f64>, VerifyError> {
    let mut predictor = PerformancePredictor::new(gamma)?;
    let rates = predictor.rates(&view(specs));
    let total: f64 = rates.rates().iter().sum();
    if total <= 0.0 {
        return Err(VerifyError::InvalidScenario {
            reason: "cluster has no usable node".into(),
        });
    }
    Ok(rates.rates().iter().map(|r| r / total).collect())
}

/// Checks that uniformly rescaling time — λ → λ/c, μ → μ·c, γ → γ·c —
/// leaves the normalized ADAPT weights unchanged (every E\[T\] scales by
/// exactly c, which cancels in the normalization). Returns the largest
/// absolute weight difference observed.
///
/// # Errors
///
/// [`VerifyError`] if either cluster has no usable node or a parameter
/// leaves its domain after scaling.
pub fn weights_scale_invariant(
    gamma: f64,
    specs: &[NodeAvailability],
    c: f64,
) -> Result<f64, VerifyError> {
    let base = normalized_rates(gamma, specs)?;
    let scaled_specs: Result<Vec<NodeAvailability>, VerifyError> = specs
        .iter()
        .map(|a| {
            if a.is_reliable() {
                Ok(NodeAvailability::reliable())
            } else {
                let model = a.task_model(gamma)?.ok_or(VerifyError::InvalidScenario {
                    reason: "non-reliable node without a task model".into(),
                })?;
                let mtbi = c / model.lambda();
                Ok(NodeAvailability::from_mtbi(mtbi, model.mu() * c)?)
            }
        })
        .collect();
    let scaled = normalized_rates(gamma * c, &scaled_specs?)?;
    Ok(base
        .iter()
        .zip(scaled.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max))
}

/// Checks that relabeling nodes permutes the normalized weights the same
/// way. `perm[i]` is the new index of original node `i`. Returns the
/// largest absolute weight difference observed.
///
/// # Errors
///
/// [`VerifyError`] if the cluster has no usable node or `perm` is not a
/// permutation of `0..specs.len()`.
pub fn weights_permutation_equivariant(
    gamma: f64,
    specs: &[NodeAvailability],
    perm: &[usize],
) -> Result<f64, VerifyError> {
    if perm.len() != specs.len() {
        return Err(VerifyError::InvalidScenario {
            reason: "permutation length mismatch".into(),
        });
    }
    let mut seen = vec![false; specs.len()];
    let mut permuted = vec![NodeAvailability::reliable(); specs.len()];
    for (i, &p) in perm.iter().enumerate() {
        if p >= specs.len() || seen[p] {
            return Err(VerifyError::InvalidScenario {
                reason: "perm is not a permutation".into(),
            });
        }
        seen[p] = true;
        permuted[p] = specs[i];
    }
    let base = normalized_rates(gamma, specs)?;
    let after = normalized_rates(gamma, &permuted)?;
    Ok(perm
        .iter()
        .enumerate()
        .map(|(i, &p)| (base[i] - after[p]).abs())
        .fold(0.0, f64::max))
}

/// Places a file of `blocks` blocks with `replication` replicas under
/// ADAPT and [`Threshold::PaperDefault`], then checks the paper's
/// `⌈m(k+1)/n⌉` cap against its exact contract: the NameNode relaxes
/// the cap only when a replica has *no* under-cap candidate (counting
/// each relaxation in its `threshold_rejections` telemetry), so the
/// total over-cap placement excess across all nodes can never exceed
/// the recorded relaxation count — and with zero relaxations the cap
/// holds hard on every node. Returns the observed per-node maximum.
///
/// # Errors
///
/// [`VerifyError::Dfs`] if placement fails, [`VerifyError`] variants for
/// invalid model parameters or a cap violation.
pub fn threshold_cap_holds(
    gamma: f64,
    specs: Vec<NodeSpec>,
    blocks: usize,
    replication: usize,
    seed: u64,
) -> Result<usize, VerifyError> {
    let n = specs.len();
    let mut namenode = NameNode::new(specs);
    let mut policy = AdaptPolicy::new(gamma)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let file = namenode.create_file(
        "verify-threshold",
        blocks,
        replication,
        &mut policy,
        Threshold::PaperDefault,
        &mut rng,
    )?;
    let distribution = namenode.file_distribution(file)?;
    let observed_max = distribution.iter().copied().max().unwrap_or(0);
    let cap = Threshold::PaperDefault
        .cap(blocks, replication, n)
        .unwrap_or(usize::MAX);
    let relaxations = namenode.telemetry_snapshot().threshold_rejections as usize;
    let excess: usize = distribution
        .iter()
        .map(|&count| count.saturating_sub(cap))
        .sum();
    if excess > relaxations {
        return Err(VerifyError::InvalidScenario {
            reason: format!(
                "threshold violated: over-cap excess {excess} exceeds the {relaxations} \
                 recorded relaxations (max load {observed_max}, cap {cap}, \
                 m={blocks}, k={replication}, n={n})"
            ),
        });
    }
    Ok(observed_max)
}

/// `scenario` with every node replaced by a reliable one. Conservation
/// and monotonicity are exact/sound only without outages: a restart
/// re-fetches slices (double-counting network bytes), and outage timing
/// need not respect a bandwidth ordering.
fn reliable_variant(scenario: &Scenario) -> Scenario {
    let mut s = scenario.clone();
    s.nodes = vec![NodeKind::Reliable; scenario.nodes.len()];
    s
}

/// Runs the map phase of `scenario` and places its reducers with the
/// naive strategy, returning `None` when there is nothing to shuffle.
type ReduceSetup = (Vec<Vec<NodeId>>, Vec<u64>, Vec<NodeId>);
fn reduce_setup(scenario: &Scenario) -> Result<Option<ReduceSetup>, VerifyError> {
    let map = scenario.run_optimized(false)?;
    let (holders, output_bytes) = scenario.reduce_inputs(&map.winners);
    if holders.is_empty() || scenario.reducers == 0 {
        return Ok(None);
    }
    let cluster = scenario.cluster_view()?;
    let mut strategy = NaiveStrategy::new();
    let mut reducer_nodes = Vec::with_capacity(scenario.reducers);
    for r in 0..scenario.reducers {
        reducer_nodes.push(strategy.place_reduce_task(&cluster, &holders, r, scenario.reducers)?);
    }
    Ok(Some((holders, output_bytes, reducer_nodes)))
}

/// Checks shuffle-bytes conservation on the reliable variant of
/// `scenario`: once every reducer has finished, the bytes read locally
/// plus the bytes fetched over the network must equal the total
/// map-output bytes *exactly* (integer equality — the slice partition
/// neither creates nor loses a byte, and a reliable cluster never
/// re-fetches). Returns a violation description, `None` on pass
/// (vacuously when there is nothing to shuffle or the horizon cuts the
/// phase with fetches still in flight).
///
/// # Errors
///
/// [`VerifyError`] if the scenario is invalid or an engine rejects it.
pub fn shuffle_bytes_conserved(scenario: &Scenario) -> Result<Option<String>, VerifyError> {
    let s = reliable_variant(scenario);
    let Some((holders, output_bytes, reducer_nodes)) = reduce_setup(&s)? else {
        return Ok(None);
    };
    let detailed = s.run_reduce_optimized(&holders, &output_bytes, &reducer_nodes, false)?;
    if !detailed.report.completed {
        return Ok(None);
    }
    let expected: u64 = output_bytes.iter().sum();
    let moved = detailed.report.local_bytes + detailed.report.network_bytes;
    if moved != expected {
        return Ok(Some(format!(
            "shuffle bytes not conserved: local {} + network {} = {moved} != map output {expected}",
            detailed.report.local_bytes, detailed.report.network_bytes
        )));
    }
    Ok(None)
}

/// Checks topology degeneracy: `scenario` rewritten to one rack with no
/// oversubscription, run through the topology-aware engines, must
/// reproduce the pre-topology flat configuration byte-identically —
/// map phase ([`compare_reports`] over the full
/// [`DetailedReport`](adapt_sim::DetailedReport))
/// and reduce phase (exact [`ReduceDetailed`] equality). Returns a
/// violation description, `None` on pass.
///
/// # Errors
///
/// [`VerifyError`] if the scenario is invalid or an engine rejects it.
pub fn topology_degeneracy(scenario: &Scenario) -> Result<Option<String>, VerifyError> {
    let mut s = scenario.clone();
    s.racks = 1;
    s.oversubscription = 1.0;
    let with_topology = s.run_optimized(false)?;
    let flat = s.run_optimized_flat()?;
    if let Some(d) = compare_reports(&with_topology, &flat) {
        return Ok(Some(format!(
            "map phase diverges from the flat engine under a degenerate topology: {} ({})",
            d.field, d.details
        )));
    }
    let Some((holders, output_bytes, reducer_nodes)) = reduce_setup(&s)? else {
        return Ok(None);
    };
    let reduce_topo = s.run_reduce_optimized(&holders, &output_bytes, &reducer_nodes, false)?;
    let reduce_flat = s.run_reduce_optimized_flat(&holders, &output_bytes, &reducer_nodes)?;
    if reduce_topo != reduce_flat {
        return Ok(Some(format!(
            "reduce phase diverges from the flat engine under a degenerate topology: \
             {:?} != {:?}",
            reduce_topo.report, reduce_flat.report
        )));
    }
    Ok(None)
}

/// Numerical slack for the bandwidth-monotonicity comparison: transfer
/// times are computed in floating point, so "no later" allows an
/// epsilon.
pub const MONOTONE_TOL: f64 = 1e-9;

fn completions(detailed: &ReduceDetailed) -> usize {
    detailed.report.finish.iter().flatten().count()
}

/// Checks reduce-phase monotonicity in link bandwidth on the reliable
/// variant of `scenario`: with the same shuffle inputs and reducer
/// placement, doubling every per-node link bandwidth must not finish
/// the phase later (within [`MONOTONE_TOL`]) and must not complete
/// fewer reducers. Sound only on a reliable cluster, where reducers
/// interact solely through link contention. Returns a violation
/// description, `None` on pass.
///
/// # Errors
///
/// [`VerifyError`] if the scenario is invalid or an engine rejects it.
pub fn reduce_monotone_in_bandwidth(scenario: &Scenario) -> Result<Option<String>, VerifyError> {
    let slow = reliable_variant(scenario);
    let Some((holders, output_bytes, reducer_nodes)) = reduce_setup(&slow)? else {
        return Ok(None);
    };
    let mut fast = slow.clone();
    fast.bandwidth_mbps = slow.bandwidth_mbps * 2.0;
    let at_base = slow.run_reduce_optimized(&holders, &output_bytes, &reducer_nodes, false)?;
    let at_double = fast.run_reduce_optimized(&holders, &output_bytes, &reducer_nodes, false)?;
    if completions(&at_double) < completions(&at_base) {
        return Ok(Some(format!(
            "doubling bandwidth completed fewer reducers: {} < {}",
            completions(&at_double),
            completions(&at_base)
        )));
    }
    if at_base.report.completed && at_double.report.elapsed > at_base.report.elapsed + MONOTONE_TOL
    {
        return Ok(Some(format!(
            "doubling bandwidth finished the reduce phase later: {} > {}",
            at_double.report.elapsed, at_base.report.elapsed
        )));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_cluster() -> Vec<NodeAvailability> {
        vec![
            NodeAvailability::reliable(),
            NodeAvailability::from_mtbi(100.0, 20.0).expect("valid"),
            NodeAvailability::from_mtbi(10.0, 4.0).expect("valid"),
            NodeAvailability::from_mtbi(50.0, 45.0).expect("valid"),
        ]
    }

    #[test]
    fn monte_carlo_brackets_light_regime() {
        let check = monte_carlo_check(0.01, 20.0, 12.0, 40_000, 11).unwrap();
        assert!(check.pass, "{check:?}");
    }

    #[test]
    fn scale_invariance_on_mixed_cluster() {
        for c in [2.0, 10.0, 0.5] {
            let diff = weights_scale_invariant(12.0, &mixed_cluster(), c).unwrap();
            assert!(diff < 1e-9, "weights moved by {diff} under c={c}");
        }
    }

    #[test]
    fn permutation_equivariance_on_mixed_cluster() {
        let diff = weights_permutation_equivariant(12.0, &mixed_cluster(), &[2, 0, 3, 1]).unwrap();
        assert!(diff < 1e-12, "weights moved by {diff} under relabeling");
    }

    #[test]
    fn permutation_validation_rejects_bad_perm() {
        assert!(weights_permutation_equivariant(12.0, &mixed_cluster(), &[0, 0, 1, 2]).is_err());
        assert!(weights_permutation_equivariant(12.0, &mixed_cluster(), &[0]).is_err());
    }

    #[test]
    fn shuffle_bytes_conserved_on_generated_scenarios() {
        for seed in [1, 4] {
            let s = crate::generator::generate_reduce_heavy(seed);
            assert_eq!(shuffle_bytes_conserved(&s).unwrap(), None, "seed {seed}");
        }
    }

    #[test]
    fn topology_degeneracy_on_generated_scenarios() {
        for seed in [2, 7] {
            let s = crate::generator::generate(seed);
            assert_eq!(topology_degeneracy(&s).unwrap(), None, "seed {seed}");
        }
    }

    #[test]
    fn bandwidth_monotonicity_on_generated_scenarios() {
        for seed in [3, 6] {
            let s = crate::generator::generate_reduce_heavy(seed);
            assert_eq!(
                reduce_monotone_in_bandwidth(&s).unwrap(),
                None,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn threshold_cap_on_a_skewed_cluster() {
        let mut specs = vec![NodeSpec::new(NodeAvailability::reliable()); 2];
        for _ in 0..6 {
            specs.push(NodeSpec::new(
                NodeAvailability::from_mtbi(10.0, 9.0).expect("valid"),
            ));
        }
        // Heavily skewed weights: without the cap the two reliable nodes
        // would absorb nearly everything.
        let max = threshold_cap_holds(12.0, specs, 64, 2, 3).unwrap();
        let cap = Threshold::PaperDefault.cap(64, 2, 8).unwrap();
        assert!(max <= cap);
    }
}
