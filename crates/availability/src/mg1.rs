//! M/G/1 queue quantities for host interruption processing.
//!
//! The paper (Section III-A) models each non-dedicated host as an M/G/1
//! queue in which *interruptions* are the customers: they arrive as a
//! Poisson process with rate `λ = 1/MTBI`, their "service" is the recovery
//! of the host (general distribution, mean `μ`), and overlapping
//! interruptions are serviced FCFS — an interruption that arrives while a
//! previous one is still being recovered waits in the queue.
//!
//! The single quantity the ADAPT model consumes from queueing theory is the
//! expected *downtime contributed per interruption*, `E[Y] = μ/(1 − λμ)`
//! (equation (3)), which is the mean busy period of an M/G/1 queue. This
//! module provides that, plus the surrounding standard quantities
//! (utilization, Pollaczek–Khinchine waiting time, busy-period second-order
//! behaviour) used by the service-time-sensitivity ablation.

use crate::error::require_positive;
use crate::AvailabilityError;

/// An M/G/1 queue described by its arrival rate and the first two moments
/// of its service-time distribution.
///
/// # Examples
///
/// ```
/// use adapt_availability::mg1::Mg1;
///
/// # fn main() -> Result<(), adapt_availability::AvailabilityError> {
/// // Interruptions every 100 s on average, 20 s mean recovery,
/// // exponential recovery (second moment = 2μ²).
/// let q = Mg1::new(0.01, 20.0, 2.0 * 20.0 * 20.0)?;
/// assert!((q.utilization() - 0.2).abs() < 1e-12);
/// assert!((q.mean_busy_period()? - 25.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mg1 {
    lambda: f64,
    service_mean: f64,
    service_second_moment: f64,
}

impl Mg1 {
    /// Creates an M/G/1 description.
    ///
    /// `service_second_moment` is `E[B²]` of the service distribution; for
    /// an exponential service with mean `μ` it is `2μ²`, for a
    /// deterministic service `μ²`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if any argument is
    /// not finite and positive, or if `service_second_moment < service_mean²`
    /// (which no distribution can realize).
    pub fn new(
        lambda: f64,
        service_mean: f64,
        service_second_moment: f64,
    ) -> Result<Self, AvailabilityError> {
        let lambda = require_positive("lambda", lambda)?;
        let service_mean = require_positive("service_mean", service_mean)?;
        let service_second_moment =
            require_positive("service_second_moment", service_second_moment)?;
        if service_second_moment < service_mean * service_mean {
            return Err(AvailabilityError::InvalidParameter {
                name: "service_second_moment",
                value: service_second_moment,
                requirement: "must be >= service_mean^2 (Jensen)",
            });
        }
        Ok(Mg1 {
            lambda,
            service_mean,
            service_second_moment,
        })
    }

    /// Convenience constructor for exponential (M/M/1) service, which is
    /// what the emulated experiments inject.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if either argument
    /// is not finite and positive.
    pub fn with_exponential_service(
        lambda: f64,
        service_mean: f64,
    ) -> Result<Self, AvailabilityError> {
        Mg1::new(lambda, service_mean, 2.0 * service_mean * service_mean)
    }

    /// Crate-internal constructor for exponential service from parameters
    /// a caller has already validated (finite, positive). Public
    /// construction goes through the checked constructors; this exists so
    /// infallible conversions (e.g. [`TaskModel::queue`]) need no
    /// `expect` on an error path that cannot occur.
    ///
    /// [`TaskModel::queue`]: crate::task_model::TaskModel::queue
    pub(crate) fn exponential_from_validated(lambda: f64, service_mean: f64) -> Self {
        debug_assert!(lambda.is_finite() && lambda > 0.0);
        debug_assert!(service_mean.is_finite() && service_mean > 0.0);
        Mg1 {
            lambda,
            service_mean,
            service_second_moment: 2.0 * service_mean * service_mean,
        }
    }

    /// Convenience constructor for deterministic (M/D/1) service.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if either argument
    /// is not finite and positive.
    pub fn with_deterministic_service(
        lambda: f64,
        service_mean: f64,
    ) -> Result<Self, AvailabilityError> {
        Mg1::new(lambda, service_mean, service_mean * service_mean)
    }

    /// Arrival rate `λ`.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Mean service time `μ`.
    pub fn service_mean(&self) -> f64 {
        self.service_mean
    }

    /// Second moment of the service time, `E[B²]`.
    pub fn service_second_moment(&self) -> f64 {
        self.service_second_moment
    }

    /// Offered load `ρ = λμ`.
    pub fn utilization(&self) -> f64 {
        self.lambda * self.service_mean
    }

    /// Whether the queue is stable (`ρ < 1`), i.e. the host spends a
    /// non-zero long-run fraction of time available.
    pub fn is_stable(&self) -> bool {
        self.utilization() < 1.0
    }

    /// Mean busy period `μ/(1 − ρ)` — the paper's `E[Y]` (equation (3)):
    /// the expected total downtime triggered by one interruption, including
    /// the recovery of any interruptions that pile up behind it.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::UnstableQueue`] when `ρ ≥ 1`.
    pub fn mean_busy_period(&self) -> Result<f64, AvailabilityError> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(AvailabilityError::UnstableQueue { rho });
        }
        Ok(self.service_mean / (1.0 - rho))
    }

    /// Pollaczek–Khinchine mean waiting time
    /// `W_q = λE[B²] / (2(1 − ρ))`: how long a newly arrived interruption
    /// waits before its own recovery begins. Exposed for the service-time
    /// variance ablation — `E[Y]` is insensitive to service variance but
    /// `W_q` is not, which is why the ADAPT model only needs `μ`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::UnstableQueue`] when `ρ ≥ 1`.
    pub fn mean_waiting_time(&self) -> Result<f64, AvailabilityError> {
        let rho = self.utilization();
        if rho >= 1.0 {
            return Err(AvailabilityError::UnstableQueue { rho });
        }
        Ok(self.lambda * self.service_second_moment / (2.0 * (1.0 - rho)))
    }

    /// Mean sojourn time (waiting plus own service).
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::UnstableQueue`] when `ρ ≥ 1`.
    pub fn mean_sojourn_time(&self) -> Result<f64, AvailabilityError> {
        Ok(self.mean_waiting_time()? + self.service_mean)
    }

    /// Long-run fraction of time the host is *available* (queue empty):
    /// `1 − ρ` for a stable queue, `0` otherwise.
    pub fn availability(&self) -> f64 {
        (1.0 - self.utilization()).max(0.0)
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn utilization_is_lambda_times_mu() {
        let q = Mg1::with_exponential_service(0.05, 4.0).unwrap();
        assert!((q.utilization() - 0.2).abs() < 1e-12);
        assert!(q.is_stable());
    }

    #[test]
    fn busy_period_diverges_at_saturation() {
        let q = Mg1::with_exponential_service(0.5, 2.0).unwrap(); // rho = 1
        assert!(!q.is_stable());
        assert!(matches!(
            q.mean_busy_period(),
            Err(AvailabilityError::UnstableQueue { .. })
        ));
        assert!(q.mean_waiting_time().is_err());
        assert_eq!(q.availability(), 0.0);
    }

    #[test]
    fn busy_period_matches_formula() {
        // Table 2 group 1: MTBI 10 s, service 4 s => lambda 0.1, mu 4.
        let q = Mg1::with_exponential_service(0.1, 4.0).unwrap();
        let expected = 4.0 / (1.0 - 0.4);
        assert!((q.mean_busy_period().unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn deterministic_service_halves_pk_waiting_time() {
        let exp = Mg1::with_exponential_service(0.1, 4.0).unwrap();
        let det = Mg1::with_deterministic_service(0.1, 4.0).unwrap();
        let w_exp = exp.mean_waiting_time().unwrap();
        let w_det = det.mean_waiting_time().unwrap();
        assert!((w_det / w_exp - 0.5).abs() < 1e-12);
        // ...but the busy period (and hence E[Y]) is identical.
        assert_eq!(
            exp.mean_busy_period().unwrap(),
            det.mean_busy_period().unwrap()
        );
    }

    #[test]
    fn second_moment_below_square_of_mean_is_rejected() {
        assert!(Mg1::new(0.1, 4.0, 10.0).is_err()); // 10 < 16
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(Mg1::with_exponential_service(0.0, 4.0).is_err());
        assert!(Mg1::with_exponential_service(0.1, 0.0).is_err());
        assert!(Mg1::with_exponential_service(f64::NAN, 4.0).is_err());
    }

    #[test]
    fn sojourn_is_waiting_plus_service() {
        let q = Mg1::with_exponential_service(0.02, 10.0).unwrap();
        let w = q.mean_waiting_time().unwrap();
        assert!((q.mean_sojourn_time().unwrap() - (w + 10.0)).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn stable_queue_invariants(
            rho in 1e-6f64..0.99,
            mu in 1e-6f64..10.0,
        ) {
            let lambda = rho / mu;
            let q = Mg1::with_exponential_service(lambda, mu).unwrap();
            let busy = q.mean_busy_period().unwrap();
            // Busy period always at least one service time.
            prop_assert!(busy >= mu - 1e-12);
            // Availability in (0, 1].
            prop_assert!(q.availability() > 0.0 && q.availability() <= 1.0);
            // Waiting time non-negative.
            prop_assert!(q.mean_waiting_time().unwrap() >= 0.0);
        }

        #[test]
        fn busy_period_is_monotone_in_load(
            mu in 0.1f64..10.0,
            l1 in 1e-4f64..0.09,
            dl in 1e-4f64..0.01,
        ) {
            let l2 = l1 + dl;
            prop_assume!(l2 * mu < 1.0);
            let b1 = Mg1::with_exponential_service(l1, mu).unwrap().mean_busy_period().unwrap();
            let b2 = Mg1::with_exponential_service(l2, mu).unwrap().mean_busy_period().unwrap();
            prop_assert!(b2 >= b1);
        }
    }
}
