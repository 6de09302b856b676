//! Streaming moment accumulation (Welford's algorithm).
//!
//! Every statistics-reporting component of the reproduction — the Table 1
//! trace summary, the per-figure experiment harnesses, and the simulator's
//! multi-seed aggregation — funnels observations through [`Moments`], which
//! computes the sample mean, variance, standard deviation, and coefficient
//! of variation in a single numerically stable pass.

/// A single-pass, numerically stable accumulator of sample moments.
///
/// Uses Welford's online algorithm; two accumulators can be [merged]
/// (`Moments::merge`) exactly, which the parallel experiment runner relies
/// on.
///
/// # Examples
///
/// ```
/// use adapt_availability::Moments;
///
/// let mut m = Moments::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     m.push(x);
/// }
/// assert_eq!(m.count(), 8);
/// assert!((m.mean() - 5.0).abs() < 1e-12);
/// assert!((m.population_variance() - 4.0).abs() < 1e-12);
/// ```
///
/// [merged]: Moments::merge
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Moments {
    count: u64,
    mean: f64,
    /// Sum of squared deviations from the running mean (Welford's `M2`).
    m2: f64,
    min: f64,
    max: f64,
}

impl Moments {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Moments {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// Non-finite values are ignored (and not counted), so a single NaN
    /// cannot poison an aggregate report.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / crate::num::widen_u64(self.count);
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) observations pushed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `0.0` when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n − 1` denominator), or `0.0` with fewer
    /// than two observations.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / crate::num::widen_u64(self.count - 1)
        }
    }

    /// Population variance (`n` denominator), or `0.0` when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / crate::num::widen_u64(self.count)
        }
    }

    /// Sample standard deviation (square root of [`sample_variance`]).
    ///
    /// [`sample_variance`]: Moments::sample_variance
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Coefficient of variation `σ/μ` (sample standard deviation over mean).
    ///
    /// Returns `0.0` when the mean is zero or the accumulator is empty; the
    /// paper's Table 1 reports this quantity for MTBI and interruption
    /// durations.
    pub fn cov(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// Smallest observation, or `+∞` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation, or `−∞` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Returns `true` if no observations have been pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merges another accumulator into this one, as if every observation
    /// pushed to `other` had been pushed here (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Moments) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = crate::num::widen_u64(self.count);
        let n2 = crate::num::widen_u64(other.count);
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Moments {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut m = Moments::new();
        for x in iter {
            m.push(x);
        }
        m
    }
}

impl Extend<f64> for Moments {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::dist::{Exponential, Sample};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_accumulator_reports_zeroes() {
        let m = Moments::new();
        assert!(m.is_empty());
        assert_eq!(m.count(), 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.population_variance(), 0.0);
        assert_eq!(m.cov(), 0.0);
    }

    #[test]
    fn single_observation_has_zero_variance() {
        let m: Moments = [42.0].into_iter().collect();
        assert_eq!(m.count(), 1);
        assert_eq!(m.mean(), 42.0);
        assert_eq!(m.sample_variance(), 0.0);
        assert_eq!(m.min(), 42.0);
        assert_eq!(m.max(), 42.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data = [1.5, 2.5, 2.5, 2.75, 3.25, 4.75];
        let m: Moments = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.sample_variance() - var).abs() < 1e-12);
    }

    #[test]
    fn nan_and_infinite_inputs_are_ignored() {
        let mut m = Moments::new();
        m.push(1.0);
        m.push(f64::NAN);
        m.push(f64::INFINITY);
        m.push(3.0);
        assert_eq!(m.count(), 2);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: Moments = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&Moments::new());
        assert_eq!(a, before);

        let mut b = Moments::new();
        b.merge(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn cov_of_constant_data_is_zero() {
        let m: Moments = std::iter::repeat_n(7.0, 10).collect();
        assert_eq!(m.cov(), 0.0);
    }

    #[test]
    fn exponential_moments_match_closed_form() {
        // Exp with mean μ has variance μ² and coefficient of variation 1;
        // the streaming accumulator must agree with the closed forms
        // within sampling error.
        for (mu, seed) in [(0.5, 21u64), (3.0, 22), (20.0, 23)] {
            let d = Exponential::new(1.0 / mu).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let m: Moments = (0..200_000).map(|_| d.sample(&mut rng)).collect();
            assert!(
                (m.mean() - mu).abs() < 0.02 * mu,
                "mean {} vs closed-form {mu}",
                m.mean()
            );
            assert!(
                (m.sample_variance() - mu * mu).abs() < 0.05 * mu * mu,
                "variance {} vs closed-form {}",
                m.sample_variance(),
                mu * mu
            );
            assert!((m.cov() - 1.0).abs() < 0.05, "cov {} vs 1", m.cov());
        }
    }

    #[test]
    fn extend_appends_observations() {
        let mut m: Moments = [1.0].into_iter().collect();
        m.extend([2.0, 3.0]);
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn merge_equals_sequential(
            xs in prop::collection::vec(-1e6f64..1e6, 0..200),
            split in 0usize..200,
        ) {
            let split = split.min(xs.len());
            let (left, right) = xs.split_at(split);
            let mut merged: Moments = left.iter().copied().collect();
            let right_acc: Moments = right.iter().copied().collect();
            merged.merge(&right_acc);
            let sequential: Moments = xs.iter().copied().collect();
            prop_assert_eq!(merged.count(), sequential.count());
            prop_assert!((merged.mean() - sequential.mean()).abs() <= 1e-6 * (1.0 + sequential.mean().abs()));
            prop_assert!(
                (merged.sample_variance() - sequential.sample_variance()).abs()
                    <= 1e-5 * (1.0 + sequential.sample_variance().abs())
            );
        }

        #[test]
        fn variance_is_non_negative(xs in prop::collection::vec(-1e9f64..1e9, 0..100)) {
            let m: Moments = xs.iter().copied().collect();
            prop_assert!(m.sample_variance() >= 0.0);
            prop_assert!(m.population_variance() >= 0.0);
        }

        #[test]
        fn mean_is_bounded_by_min_and_max(xs in prop::collection::vec(-1e9f64..1e9, 1..100)) {
            let m: Moments = xs.iter().copied().collect();
            prop_assert!(m.min() <= m.mean() + 1e-9);
            prop_assert!(m.mean() <= m.max() + 1e-9);
        }

        #[test]
        fn deterministic_stream_matches_closed_form(
            c in -1e6f64..1e6,
            n in 1usize..500,
        ) {
            // A deterministic (constant) distribution has mean c and
            // variance 0; the accumulator must report both without
            // catastrophic cancellation regardless of magnitude.
            let m: Moments = std::iter::repeat_n(c, n).collect();
            prop_assert_eq!(m.count(), n as u64);
            prop_assert!((m.mean() - c).abs() <= 1e-9 * (1.0 + c.abs()));
            prop_assert!(m.sample_variance().abs() <= 1e-9 * (1.0 + c * c));
            prop_assert_eq!(m.min(), c);
            prop_assert_eq!(m.max(), c);
        }

        #[test]
        fn mean_is_monotone_under_one_sided_pushes(
            xs in prop::collection::vec(-1e6f64..1e6, 1..100),
            y in -1e6f64..1e6,
        ) {
            // Pushing a value at or above the current mean never lowers
            // it, and symmetrically below: the running mean responds
            // monotonically to where new mass lands.
            let mut m: Moments = xs.iter().copied().collect();
            let before = m.mean();
            m.push(y);
            if y >= before {
                prop_assert!(m.mean() >= before - 1e-9 * (1.0 + before.abs()));
            } else {
                prop_assert!(m.mean() <= before + 1e-9 * (1.0 + before.abs()));
            }
        }
    }
}
