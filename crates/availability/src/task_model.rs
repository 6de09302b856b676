//! The ADAPT task-completion-time model (paper equations (1)–(5)).
//!
//! A map task of failure-free length `γ` runs on a host whose interruptions
//! arrive as a Poisson process with rate `λ` and whose recoveries take mean
//! time `μ` (M/G/1, FCFS). Every interruption before the task finishes
//! destroys the work in progress; the task restarts from scratch once the
//! host recovers (equation (1)):
//!
//! ```text
//! T = γ + Σ_{i=1..S} X_i + Σ_{i=1..S} Y_i
//! ```
//!
//! where `S` is the number of failed attempts, `X_i` the rework lost to
//! attempt `i`, and `Y_i` the downtime after attempt `i`. The closed forms
//! (equations (2)–(5)) are implemented here, together with a Monte-Carlo
//! reference simulator used to validate them.

use crate::dist::{uniform_open01, Sample};
use crate::error::require_positive;
use crate::AvailabilityError;
use rand::Rng;

/// Steady-state host availability in `[0, 1]`.
///
/// The paper's naive baseline policy weighs hosts by
/// `(MTBI − μ)/MTBI = 1 − λμ` (Section V-C); this newtype carries that
/// quantity and clamps it into `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Availability(f64);

impl Availability {
    /// Creates an availability value, clamping into `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `value` is NaN.
    pub fn new(value: f64) -> Result<Self, AvailabilityError> {
        if value.is_nan() {
            return Err(AvailabilityError::InvalidParameter {
                name: "availability",
                value,
                requirement: "must not be NaN",
            });
        }
        Ok(Availability(value.clamp(0.0, 1.0)))
    }

    /// The inner value in `[0, 1]`.
    pub fn value(&self) -> f64 {
        self.0
    }
}

/// The per-host task execution model: interruption rate `λ`, mean recovery
/// `μ`, and failure-free task length `γ`.
///
/// # Examples
///
/// A perfectly reliable host takes exactly `γ`; a flaky one takes longer:
///
/// ```
/// use adapt_availability::TaskModel;
///
/// # fn main() -> Result<(), adapt_availability::AvailabilityError> {
/// let reliable = TaskModel::new(1e-12, 4.0, 12.0)?;
/// let flaky = TaskModel::new(0.1, 4.0, 12.0)?;
/// assert!((reliable.expected_completion() - 12.0).abs() < 1e-6);
/// assert!(flaky.expected_completion() > 12.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskModel {
    lambda: f64,
    mu: f64,
    gamma: f64,
}

impl TaskModel {
    /// Creates a task model.
    ///
    /// * `lambda` — interruption arrival rate (`1/MTBI`), must be `> 0`.
    /// * `mu` — mean interruption recovery time, must be `> 0`.
    /// * `gamma` — failure-free task execution time, must be `> 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] for out-of-domain
    /// parameters and [`AvailabilityError::UnstableQueue`] when `λμ ≥ 1`
    /// (the host is down in the long run and never completes any task).
    pub fn new(lambda: f64, mu: f64, gamma: f64) -> Result<Self, AvailabilityError> {
        let lambda = require_positive("lambda", lambda)?;
        let mu = require_positive("mu", mu)?;
        let gamma = require_positive("gamma", gamma)?;
        let rho = lambda * mu;
        if rho >= 1.0 {
            return Err(AvailabilityError::UnstableQueue { rho });
        }
        Ok(TaskModel { lambda, mu, gamma })
    }

    /// Creates a task model from an MTBI instead of a rate.
    ///
    /// # Errors
    ///
    /// Same as [`TaskModel::new`].
    pub fn from_mtbi(mtbi: f64, mu: f64, gamma: f64) -> Result<Self, AvailabilityError> {
        TaskModel::new(1.0 / require_positive("mtbi", mtbi)?, mu, gamma)
    }

    /// Interruption arrival rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean recovery time `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Failure-free task length `γ`.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Expected rework per failed attempt, equation (2):
    /// `E[X] = 1/λ − γ/(e^{γλ} − 1)`.
    ///
    /// This is the mean of an exponential truncated to `(0, γ)` — the point
    /// within the attempt at which the interruption strikes.
    pub fn expected_rework(&self) -> f64 {
        let gl = self.gamma * self.lambda;
        // exp_m1 keeps precision when γλ is tiny; as γλ → 0, E[X] → γ/2.
        1.0 / self.lambda - self.gamma / gl.exp_m1()
    }

    /// Expected downtime per interruption, equation (3):
    /// `E[Y] = μ/(1 − λμ)` (the M/G/1 mean busy period).
    pub fn expected_downtime(&self) -> f64 {
        // Constructor guarantees stability, so this cannot fail.
        self.mu / (1.0 - self.lambda * self.mu)
    }

    /// Expected number of interruptions during the task, equation (4):
    /// `E[S] = e^{γλ} − 1` (geometric with success probability `e^{−γλ}`).
    pub fn expected_interruptions(&self) -> f64 {
        (self.gamma * self.lambda).exp_m1()
    }

    /// Variance of the number of interruptions:
    /// `Var[S] = (1 − p)/p²` with `p = e^{−γλ}`.
    pub fn interruption_variance(&self) -> f64 {
        let p = (-self.gamma * self.lambda).exp();
        (1.0 - p) / (p * p)
    }

    /// Probability that the task completes without any interruption,
    /// `P(S = 0) = e^{−γλ}`.
    pub fn success_probability(&self) -> f64 {
        (-self.gamma * self.lambda).exp()
    }

    /// Expected completion time, equation (5):
    ///
    /// ```text
    /// E[T] = (e^{γλ} − 1) (1/λ + μ/(1 − λμ))
    /// ```
    ///
    /// Equivalently `γ + E[S]·(E[X] + E[Y])` — the identity is verified by
    /// the test suite.
    pub fn expected_completion(&self) -> f64 {
        self.expected_interruptions() * (1.0 / self.lambda + self.expected_downtime())
    }

    /// The node's task-processing rate `1/E[T]`, the weight ADAPT assigns
    /// in Algorithm 1.
    pub fn completion_rate(&self) -> f64 {
        1.0 / self.expected_completion()
    }

    /// Slowdown relative to a failure-free host, `E[T]/γ ≥ 1`.
    pub fn slowdown(&self) -> f64 {
        self.expected_completion() / self.gamma
    }

    /// The naive availability weight `(1 − λμ)` used by the baseline
    /// policy of Section V-C.
    pub fn naive_availability(&self) -> Availability {
        // λμ < 1 by construction; the clamp keeps the newtype's [0, 1]
        // contract explicit without an unreachable error path.
        Availability((1.0 - self.lambda * self.mu).clamp(0.0, 1.0))
    }

    /// Monte-Carlo simulation of one task execution (the generative analog
    /// of equation (1)): exponential interruption inter-arrivals, recovery
    /// times drawn from `recovery`, work restarted from scratch after each
    /// interruption.
    ///
    /// Used to validate the closed forms and exposed so the model-accuracy
    /// example and bench can reproduce Figure 1's composition.
    pub fn simulate_completion(&self, recovery: &dyn Sample, rng: &mut dyn Rng) -> f64 {
        let mut elapsed = 0.0;
        loop {
            // Time until the next interruption on this host.
            let next_interruption = -uniform_open01(rng).ln() / self.lambda;
            if next_interruption >= self.gamma {
                return elapsed + self.gamma;
            }
            // The attempt failed after `next_interruption` seconds of work
            // (rework X_i), then the host is down for a full M/G/1 busy
            // period: its own recovery plus recoveries of interruptions
            // that arrive during any ongoing recovery (FCFS).
            elapsed += next_interruption;
            let mut backlog = recovery.sample(rng);
            while backlog > 0.0 {
                let gap = -uniform_open01(rng).ln() / self.lambda;
                if gap >= backlog {
                    elapsed += backlog;
                    break;
                }
                // Another interruption arrives mid-recovery and queues.
                elapsed += gap;
                backlog = backlog - gap + recovery.sample(rng);
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::dist::Exponential;
    use crate::Moments;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_unstable_hosts() {
        // MTBI 10 s with 10 s recovery: rho = 1.
        assert!(matches!(
            TaskModel::new(0.1, 10.0, 12.0),
            Err(AvailabilityError::UnstableQueue { .. })
        ));
        assert!(TaskModel::new(0.1, 20.0, 12.0).is_err());
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(TaskModel::new(0.0, 1.0, 1.0).is_err());
        assert!(TaskModel::new(0.1, -1.0, 1.0).is_err());
        assert!(TaskModel::new(0.1, 1.0, 0.0).is_err());
        assert!(TaskModel::from_mtbi(0.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn from_mtbi_matches_rate_constructor() {
        let a = TaskModel::from_mtbi(100.0, 5.0, 12.0).unwrap();
        let b = TaskModel::new(0.01, 5.0, 12.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn equation_5_equals_decomposed_form() {
        // E[T] = γ + E[S](E[X] + E[Y]) must equal the closed form.
        for (lambda, mu, gamma) in [
            (0.1, 4.0, 12.0),
            (0.05, 8.0, 12.0),
            (0.001, 100.0, 60.0),
            (1.0 / 160_290.0, 1_000.0, 12.0),
        ] {
            let m = TaskModel::new(lambda, mu, gamma).unwrap();
            let decomposed =
                gamma + m.expected_interruptions() * (m.expected_rework() + m.expected_downtime());
            let closed = m.expected_completion();
            assert!(
                (decomposed - closed).abs() / closed < 1e-10,
                "decomposed {decomposed} vs closed {closed}"
            );
        }
    }

    #[test]
    fn reliable_host_completion_approaches_gamma() {
        let m = TaskModel::new(1e-9, 4.0, 12.0).unwrap();
        assert!((m.expected_completion() - 12.0).abs() < 1e-6);
        assert!((m.slowdown() - 1.0).abs() < 1e-7);
        assert!(m.success_probability() > 0.9999);
    }

    #[test]
    fn expected_rework_is_half_gamma_in_the_limit() {
        // As γλ → 0 an interruption is uniform over the attempt.
        let m = TaskModel::new(1e-8, 1.0, 10.0).unwrap();
        assert!((m.expected_rework() - 5.0).abs() < 1e-3);
    }

    #[test]
    fn expected_rework_is_below_gamma_and_mean() {
        let m = TaskModel::new(0.1, 4.0, 12.0).unwrap();
        let x = m.expected_rework();
        assert!(x > 0.0 && x < 12.0);
        assert!(x < 1.0 / 0.1); // truncation can only reduce the mean
    }

    #[test]
    fn table2_groups_are_ordered_by_severity() {
        // Table 2: group 2 (MTBI 10, mu 8) is the most hostile, group 3
        // (MTBI 20, mu 4) the least. E[T] must order accordingly.
        let g1 = TaskModel::from_mtbi(10.0, 4.0, 12.0).unwrap();
        let g2 = TaskModel::from_mtbi(10.0, 8.0, 12.0).unwrap();
        let g3 = TaskModel::from_mtbi(20.0, 4.0, 12.0).unwrap();
        let g4 = TaskModel::from_mtbi(20.0, 8.0, 12.0).unwrap();
        let (t1, t2, t3, t4) = (
            g1.expected_completion(),
            g2.expected_completion(),
            g3.expected_completion(),
            g4.expected_completion(),
        );
        assert!(t2 > t1, "shorter MTBI + longer recovery is worst");
        assert!(t1 > t3, "same recovery, shorter MTBI is worse");
        assert!(t4 > t3);
        assert!(t2 > t4);
        // Eq. (3) at group 1 (λ = 0.1, μ = 4): 4/(1 − 0.4) = 20/3 s.
        assert!((g1.expected_downtime() - 20.0 / 3.0).abs() < 1e-12);
        // At a fixed μ, more frequent interruptions lengthen the downtime.
        assert!(g1.expected_downtime() > g3.expected_downtime());
        assert!(g2.expected_downtime() > g4.expected_downtime());
    }

    #[test]
    fn success_probability_matches_geometric_mean_count() {
        let m = TaskModel::new(0.05, 4.0, 12.0).unwrap();
        let p = m.success_probability();
        assert!((m.expected_interruptions() - (1.0 - p) / p).abs() < 1e-12);
        let var = m.interruption_variance();
        assert!((var - (1.0 - p) / (p * p)).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_validates_equation_5() {
        // The headline validation: simulate equation (1) and compare with
        // the closed form within Monte-Carlo error.
        let m = TaskModel::new(0.1, 4.0, 12.0).unwrap();
        let recovery = Exponential::from_mean(4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2012);
        let sim: Moments = (0..40_000)
            .map(|_| m.simulate_completion(&recovery, &mut rng))
            .collect();
        let analytic = m.expected_completion();
        let rel = (sim.mean() - analytic).abs() / analytic;
        assert!(
            rel < 0.03,
            "simulated {} vs analytic {} (rel err {})",
            sim.mean(),
            analytic,
            rel
        );
    }

    #[test]
    fn monte_carlo_validates_heavy_load() {
        // rho = 0.8: heavy interference, busy periods dominate.
        let m = TaskModel::new(0.1, 8.0, 12.0).unwrap();
        let recovery = Exponential::from_mean(8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let sim: Moments = (0..60_000)
            .map(|_| m.simulate_completion(&recovery, &mut rng))
            .collect();
        let analytic = m.expected_completion();
        let rel = (sim.mean() - analytic).abs() / analytic;
        assert!(
            rel < 0.05,
            "simulated {} vs analytic {} (rel err {})",
            sim.mean(),
            analytic,
            rel
        );
    }

    #[test]
    fn naive_availability_matches_definition() {
        let m = TaskModel::from_mtbi(20.0, 8.0, 12.0).unwrap();
        assert!((m.naive_availability().value() - (1.0 - 8.0 / 20.0)).abs() < 1e-12);
    }

    #[test]
    fn availability_clamps_and_rejects_nan() {
        assert_eq!(Availability::new(-0.5).unwrap().value(), 0.0);
        assert_eq!(Availability::new(1.5).unwrap().value(), 1.0);
        assert!(Availability::new(f64::NAN).is_err());
    }

    proptest! {
        #[test]
        fn completion_exceeds_gamma(
            lambda in 1e-6f64..0.2,
            mu in 0.1f64..4.9,
            gamma in 0.1f64..1000.0,
        ) {
            prop_assume!(lambda * mu < 0.99);
            let m = TaskModel::new(lambda, mu, gamma).unwrap();
            prop_assert!(m.expected_completion() >= gamma * (1.0 - 1e-9));
            prop_assert!(m.slowdown() >= 1.0 - 1e-9);
            // A busy period lasts at least the recovery that opens it.
            prop_assert!(m.expected_downtime() >= mu);
        }

        #[test]
        fn completion_is_monotone_in_each_parameter(
            lambda in 1e-5f64..0.1,
            mu in 0.1f64..4.9,
            gamma in 1.0f64..500.0,
        ) {
            prop_assume!(lambda * mu < 0.5);
            let model = TaskModel::new(lambda, mu, gamma).unwrap();
            let busier = TaskModel::new(lambda * 1.5, mu, gamma).unwrap();
            prop_assert!(busier.expected_downtime() > model.expected_downtime());
            let base = model.expected_completion();
            let more_failures = busier.expected_completion();
            let slower_recovery =
                TaskModel::new(lambda, mu * 1.5, gamma).unwrap().expected_completion();
            let longer_task =
                TaskModel::new(lambda, mu, gamma * 1.5).unwrap().expected_completion();
            prop_assert!(more_failures >= base - 1e-9);
            prop_assert!(slower_recovery >= base - 1e-9);
            prop_assert!(longer_task >= base - 1e-9);
        }

        #[test]
        fn rework_is_within_attempt(
            lambda in 1e-6f64..1.0,
            mu in 0.01f64..0.9,
            gamma in 0.01f64..1e4,
        ) {
            prop_assume!(lambda * mu < 0.99);
            let m = TaskModel::new(lambda, mu, gamma).unwrap();
            let x = m.expected_rework();
            prop_assert!(x > 0.0, "rework {x}");
            prop_assert!(x < gamma, "rework {x} not below gamma {gamma}");
        }

        #[test]
        fn completion_rate_inverts_completion(
            lambda in 1e-5f64..0.1,
            mu in 0.1f64..4.9,
            gamma in 1.0f64..100.0,
        ) {
            prop_assume!(lambda * mu < 0.9);
            let m = TaskModel::new(lambda, mu, gamma).unwrap();
            prop_assert!((m.completion_rate() * m.expected_completion() - 1.0).abs() < 1e-12);
        }
    }
}
