//! Probability distributions with analytic moments.
//!
//! The ADAPT model needs distributions twice over: *analytically* (the
//! Performance Predictor consumes means and coefficients of variation) and
//! *generatively* (the simulator injects interruptions by sampling
//! inter-arrival and service times; the synthetic SETI@home trace generator
//! samples heavy-tailed host profiles). This module provides both faces
//! behind one object-safe trait, [`Sample`], plus a closed enum,
//! [`Dist`], that holds any of them by value.
//!
//! All samplers draw through [`rand::Rng`] so they can be used behind trait
//! objects, and all are implemented from first principles (inverse-CDF
//! where tractable, Box–Muller for normals, Marsaglia–Tsang for gamma).

use crate::error::require_positive;
use crate::AvailabilityError;
use rand::Rng;

/// Draws a `f64` uniformly from the open interval `(0, 1)`.
///
/// Uses the top 53 bits of a `u64` and rejects exact zeroes so that
/// `ln(u)`-style transforms never see `−∞`.
pub fn uniform_open01(rng: &mut dyn Rng) -> f64 {
    loop {
        let u =
            crate::num::widen_u64(rng.next_u64() >> 11) * (1.0 / crate::num::widen_u64(1u64 << 53));
        if u > 0.0 {
            return u;
        }
    }
}

/// Draws a standard normal variate via the Box–Muller transform.
pub fn standard_normal(rng: &mut dyn Rng) -> f64 {
    let u1 = uniform_open01(rng);
    let u2 = uniform_open01(rng);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// An object-safe, samplable, non-negative continuous distribution with
/// analytic first and second moments.
///
/// Implementors promise that [`sample`](Sample::sample) returns finite,
/// non-negative values (all quantities modeled — inter-arrival times,
/// recovery durations, task lengths — are durations).
pub trait Sample: std::fmt::Debug + Send + Sync {
    /// Draws one value.
    fn sample(&self, rng: &mut dyn Rng) -> f64;

    /// The distribution mean. May be `+∞` (e.g. Pareto with `α ≤ 1`).
    fn mean(&self) -> f64;

    /// The distribution variance. May be `+∞`.
    fn variance(&self) -> f64;

    /// Coefficient of variation `σ/μ`, the heterogeneity measure the paper
    /// reports in Table 1.
    fn cov(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 || !m.is_finite() {
            0.0
        } else {
            self.variance().sqrt() / m
        }
    }
}

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// The paper assumes interruption inter-arrival times are exponential; the
/// memorylessness of this distribution is what makes equations (2)–(5)
/// closed-form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `rate` is not
    /// finite and positive.
    pub fn new(rate: f64) -> Result<Self, AvailabilityError> {
        Ok(Exponential {
            rate: require_positive("rate", rate)?,
        })
    }

    /// Creates an exponential distribution from its mean (`1/λ`).
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `mean` is not
    /// finite and positive.
    pub fn from_mean(mean: f64) -> Result<Self, AvailabilityError> {
        Ok(Exponential {
            rate: 1.0 / require_positive("mean", mean)?,
        })
    }

    /// The rate parameter `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        -uniform_open01(rng).ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
}

/// Weibull distribution with shape `k` and scale `λ`.
///
/// `k < 1` yields a decreasing hazard rate, the empirically observed shape
/// for desktop-grid host failures; the synthetic trace generator uses it
/// for per-host availability periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// Creates a Weibull distribution with shape `k > 0` and scale `λ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if either parameter
    /// is not finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, AvailabilityError> {
        Ok(Weibull {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `λ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Sample for Weibull {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        // Inverse CDF: x = λ (−ln U)^{1/k}.
        self.scale * (-uniform_open01(rng).ln()).powf(1.0 / self.shape)
    }

    fn mean(&self) -> f64 {
        self.scale * gamma_fn(1.0 + 1.0 / self.shape)
    }

    fn variance(&self) -> f64 {
        let g1 = gamma_fn(1.0 + 1.0 / self.shape);
        let g2 = gamma_fn(1.0 + 2.0 / self.shape);
        self.scale * self.scale * (g2 - g1 * g1)
    }
}

/// Log-normal distribution parameterized by the mean `μ` and standard
/// deviation `σ` of the underlying normal.
///
/// Log-normals reproduce the "CoV several-fold above 1" heterogeneity of
/// the SETI@home data in Table 1 and are the default hyper-distribution of
/// the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-space location `mu` (any finite value)
    /// and log-space scale `sigma > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `mu` is not finite
    /// or `sigma` is not finite and positive.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, AvailabilityError> {
        if !mu.is_finite() {
            return Err(AvailabilityError::InvalidParameter {
                name: "mu",
                value: mu,
                requirement: "must be finite",
            });
        }
        Ok(LogNormal {
            mu,
            sigma: require_positive("sigma", sigma)?,
        })
    }

    /// Creates a log-normal that has the given *linear-space* mean and
    /// coefficient of variation.
    ///
    /// This is the constructor the trace generator uses: Table 1 of the
    /// paper reports mean and CoV directly, and this solves
    /// `σ² = ln(1 + CoV²)`, `μ = ln(mean) − σ²/2` for the log-space
    /// parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `mean` or `cov`
    /// is not finite and positive.
    pub fn from_mean_cov(mean: f64, cov: f64) -> Result<Self, AvailabilityError> {
        let mean = require_positive("mean", mean)?;
        let cov = require_positive("cov", cov)?;
        let sigma2 = (1.0 + cov * cov).ln();
        LogNormal::new(mean.ln() - sigma2 / 2.0, sigma2.sqrt())
    }

    /// Log-space location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Log-space scale parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
}

/// Pareto (type I) distribution with minimum `xm` and tail index `α`.
///
/// The heaviest-tailed option for interruption durations; with `α ≤ 2` the
/// variance is infinite, matching the extreme CoV values of production
/// desktop-grid traces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with scale `xm > 0` and shape `α > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if either parameter
    /// is not finite and positive.
    pub fn new(xm: f64, alpha: f64) -> Result<Self, AvailabilityError> {
        Ok(Pareto {
            xm: require_positive("xm", xm)?,
            alpha: require_positive("alpha", alpha)?,
        })
    }

    /// The scale (minimum value) parameter.
    pub fn xm(&self) -> f64 {
        self.xm
    }

    /// The tail index.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.xm / uniform_open01(rng).powf(1.0 / self.alpha)
    }

    fn mean(&self) -> f64 {
        if self.alpha <= 1.0 {
            f64::INFINITY
        } else {
            self.alpha * self.xm / (self.alpha - 1.0)
        }
    }

    fn variance(&self) -> f64 {
        if self.alpha <= 2.0 {
            f64::INFINITY
        } else {
            let a = self.alpha;
            self.xm * self.xm * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        }
    }
}

/// Gamma distribution with shape `k` and scale `θ` (mean `kθ`).
///
/// Serves as the tunable-CoV "G" in M/G/1 service-time ablations:
/// `CoV = 1/√k`, so `k > 1` is *less* variable than exponential and
/// `k < 1` more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with shape `k > 0` and scale `θ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if either parameter
    /// is not finite and positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, AvailabilityError> {
        Ok(Gamma {
            shape: require_positive("shape", shape)?,
            scale: require_positive("scale", scale)?,
        })
    }

    /// Creates a gamma distribution with the given mean and coefficient of
    /// variation (`k = 1/CoV²`, `θ = mean·CoV²`).
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `mean` or `cov`
    /// is not finite and positive.
    pub fn from_mean_cov(mean: f64, cov: f64) -> Result<Self, AvailabilityError> {
        let mean = require_positive("mean", mean)?;
        let cov = require_positive("cov", cov)?;
        let shape = 1.0 / (cov * cov);
        Gamma::new(shape, mean / shape)
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Marsaglia–Tsang sampling for shape ≥ 1.
    fn sample_shape_ge1(shape: f64, rng: &mut dyn Rng) -> f64 {
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = uniform_open01(rng);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }
}

impl Sample for Gamma {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        if self.shape >= 1.0 {
            self.scale * Gamma::sample_shape_ge1(self.shape, rng)
        } else {
            // Boost for shape < 1: sample Gamma(shape + 1) and scale by
            // U^{1/shape}.
            let g = Gamma::sample_shape_ge1(self.shape + 1.0, rng);
            let u = uniform_open01(rng);
            self.scale * g * u.powf(1.0 / self.shape)
        }
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// Continuous uniform distribution on `[low, high)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    low: f64,
    high: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[low, high)` with
    /// `0 ≤ low < high`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if the bounds are
    /// not finite, `low` is negative, or `low >= high`.
    pub fn new(low: f64, high: f64) -> Result<Self, AvailabilityError> {
        if !low.is_finite() || low < 0.0 {
            return Err(AvailabilityError::InvalidParameter {
                name: "low",
                value: low,
                requirement: "must be finite and >= 0",
            });
        }
        if !high.is_finite() || high <= low {
            return Err(AvailabilityError::InvalidParameter {
                name: "high",
                value: high,
                requirement: "must be finite and > low",
            });
        }
        Ok(Uniform { low, high })
    }

    /// Lower bound (inclusive).
    pub fn low(&self) -> f64 {
        self.low
    }

    /// Upper bound (exclusive).
    pub fn high(&self) -> f64 {
        self.high
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.low + (self.high - self.low) * uniform_open01(rng)
    }

    fn mean(&self) -> f64 {
        (self.low + self.high) / 2.0
    }

    fn variance(&self) -> f64 {
        let w = self.high - self.low;
        w * w / 12.0
    }
}

/// A point mass: always returns the same value.
///
/// Used for failure-free task lengths (the paper's `γ` is deterministic:
/// "12 s per 64 MB block") and for the threshold ablation's control runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value ≥ 0`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `value` is not
    /// finite and non-negative.
    pub fn new(value: f64) -> Result<Self, AvailabilityError> {
        Ok(Deterministic {
            value: crate::error::require_non_negative("value", value)?,
        })
    }

    /// The constant value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Sample for Deterministic {
    fn sample(&self, _rng: &mut dyn Rng) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn variance(&self) -> f64 {
        0.0
    }
}

/// A closed sum of every distribution in this module: a `Copy` value
/// that compares with `==`, which a boxed [`Sample`] is not. Synthetic
/// interruption processes hold their service time as one.
///
/// # Examples
///
/// ```
/// use adapt_availability::dist::{Dist, Sample};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), adapt_availability::AvailabilityError> {
/// let d = Dist::exponential_from_mean(10.0)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// assert!((d.mean() - 10.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Dist {
    /// See [`Exponential`].
    Exponential(Exponential),
    /// See [`Weibull`].
    Weibull(Weibull),
    /// See [`LogNormal`].
    LogNormal(LogNormal),
    /// See [`Pareto`].
    Pareto(Pareto),
    /// See [`Gamma`].
    Gamma(Gamma),
    /// See [`Uniform`].
    Uniform(Uniform),
    /// See [`Deterministic`].
    Deterministic(Deterministic),
}

impl Dist {
    /// Shorthand for an exponential distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `mean` is not
    /// finite and positive.
    pub fn exponential_from_mean(mean: f64) -> Result<Self, AvailabilityError> {
        Ok(Dist::Exponential(Exponential::from_mean(mean)?))
    }

    /// Shorthand for a point mass at `value`.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `value` is not
    /// finite and non-negative.
    pub fn constant(value: f64) -> Result<Self, AvailabilityError> {
        Ok(Dist::Deterministic(Deterministic::new(value)?))
    }

    fn as_sample(&self) -> &dyn Sample {
        match self {
            Dist::Exponential(d) => d,
            Dist::Weibull(d) => d,
            Dist::LogNormal(d) => d,
            Dist::Pareto(d) => d,
            Dist::Gamma(d) => d,
            Dist::Uniform(d) => d,
            Dist::Deterministic(d) => d,
        }
    }
}

impl Sample for Dist {
    fn sample(&self, rng: &mut dyn Rng) -> f64 {
        self.as_sample().sample(rng)
    }

    fn mean(&self) -> f64 {
        self.as_sample().mean()
    }

    fn variance(&self) -> f64 {
        self.as_sample().variance()
    }
}

impl From<Exponential> for Dist {
    fn from(d: Exponential) -> Self {
        Dist::Exponential(d)
    }
}

impl From<Weibull> for Dist {
    fn from(d: Weibull) -> Self {
        Dist::Weibull(d)
    }
}

impl From<LogNormal> for Dist {
    fn from(d: LogNormal) -> Self {
        Dist::LogNormal(d)
    }
}

impl From<Pareto> for Dist {
    fn from(d: Pareto) -> Self {
        Dist::Pareto(d)
    }
}

impl From<Gamma> for Dist {
    fn from(d: Gamma) -> Self {
        Dist::Gamma(d)
    }
}

impl From<Uniform> for Dist {
    fn from(d: Uniform) -> Self {
        Dist::Uniform(d)
    }
}

impl From<Deterministic> for Dist {
    fn from(d: Deterministic) -> Self {
        Dist::Deterministic(d)
    }
}

/// Lanczos approximation of the gamma function `Γ(x)` for `x > 0`.
///
/// Accuracy is better than 1e-10 over the range used by [`Weibull`]
/// moments (`x ∈ (1, 3]`), verified against known values in the tests.
fn gamma_fn(x: f64) -> f64 {
    // g = 7, n = 9 Lanczos coefficients.
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + crate::num::exact_f64(i));
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::Moments;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 60_000;

    fn empirical(d: &dyn Sample, seed: u64) -> Moments {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..N).map(|_| d.sample(&mut rng)).collect()
    }

    /// Asserts that empirical mean/variance track analytic values within a
    /// Monte-Carlo tolerance.
    fn check_moments(d: &dyn Sample, seed: u64, mean_tol: f64, var_tol: f64) {
        let m = empirical(d, seed);
        let mean_err = (m.mean() - d.mean()).abs() / d.mean().abs().max(1e-9);
        assert!(
            mean_err < mean_tol,
            "{d:?}: empirical mean {} vs analytic {} (rel err {mean_err})",
            m.mean(),
            d.mean()
        );
        if d.variance().is_finite() {
            let var_err = (m.sample_variance() - d.variance()).abs() / d.variance().max(1e-9);
            assert!(
                var_err < var_tol,
                "{d:?}: empirical var {} vs analytic {} (rel err {var_err})",
                m.sample_variance(),
                d.variance()
            );
        }
    }

    #[test]
    fn gamma_function_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(3) = 2, Γ(4) = 6, Γ(0.5) = √π, Γ(1.5) = √π/2.
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-10);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-10);
        assert!((gamma_fn(3.0) - 2.0).abs() < 1e-9);
        assert!((gamma_fn(4.0) - 6.0).abs() < 1e-9);
        let sqrt_pi = std::f64::consts::PI.sqrt();
        assert!((gamma_fn(0.5) - sqrt_pi).abs() < 1e-9);
        assert!((gamma_fn(1.5) - sqrt_pi / 2.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_moments_match() {
        let d = Exponential::from_mean(5.0).unwrap();
        assert!((d.mean() - 5.0).abs() < 1e-12);
        assert!((d.cov() - 1.0).abs() < 1e-12); // exponential CoV is exactly 1
        check_moments(&d, 1, 0.02, 0.06);
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::from_mean(0.0).is_err());
    }

    #[test]
    fn weibull_moments_match() {
        // Shape 1 degenerates to exponential with mean = scale.
        let d = Weibull::new(1.0, 3.0).unwrap();
        assert!((d.mean() - 3.0).abs() < 1e-9);
        check_moments(&d, 2, 0.02, 0.06);

        // Heavy-ish tail.
        let d = Weibull::new(0.7, 100.0).unwrap();
        check_moments(&d, 3, 0.03, 0.12);

        // Light tail.
        let d = Weibull::new(2.0, 10.0).unwrap();
        check_moments(&d, 4, 0.02, 0.05);
    }

    #[test]
    fn lognormal_moments_match() {
        let d = LogNormal::new(1.0, 0.5).unwrap();
        check_moments(&d, 5, 0.02, 0.1);
    }

    #[test]
    fn lognormal_from_mean_cov_roundtrips() {
        // Table 1 values: MTBI mean 160290 s, CoV 4.376.
        let d = LogNormal::from_mean_cov(160_290.0, 4.376).unwrap();
        assert!((d.mean() - 160_290.0).abs() / 160_290.0 < 1e-12);
        assert!((d.cov() - 4.376).abs() < 1e-9);
    }

    #[test]
    fn pareto_moments_match() {
        let d = Pareto::new(1.0, 3.5).unwrap();
        check_moments(&d, 6, 0.03, 0.35); // heavy tail: loose variance tolerance

        // Infinite-moment regimes are flagged, not mis-computed.
        assert!(Pareto::new(1.0, 0.9).unwrap().mean().is_infinite());
        assert!(Pareto::new(1.0, 1.5).unwrap().variance().is_infinite());
    }

    #[test]
    fn gamma_moments_match() {
        let d = Gamma::new(2.5, 4.0).unwrap();
        check_moments(&d, 7, 0.02, 0.07);

        // Shape below 1 exercises the boost path.
        let d = Gamma::new(0.5, 2.0).unwrap();
        check_moments(&d, 8, 0.03, 0.12);
    }

    #[test]
    fn gamma_from_mean_cov_roundtrips() {
        let d = Gamma::from_mean_cov(8.0, 0.5).unwrap();
        assert!((d.mean() - 8.0).abs() < 1e-9);
        assert!((d.cov() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uniform_moments_match() {
        let d = Uniform::new(2.0, 6.0).unwrap();
        assert!((d.mean() - 4.0).abs() < 1e-12);
        assert!((d.variance() - 16.0 / 12.0).abs() < 1e-12);
        check_moments(&d, 9, 0.01, 0.04);
    }

    #[test]
    fn uniform_rejects_bad_bounds() {
        assert!(Uniform::new(-1.0, 2.0).is_err());
        assert!(Uniform::new(3.0, 3.0).is_err());
        assert!(Uniform::new(3.0, 1.0).is_err());
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(12.0).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 12.0);
        }
        assert_eq!(d.variance(), 0.0);
        assert_eq!(d.cov(), 0.0);
    }

    #[test]
    fn dist_enum_delegates() {
        let d: Dist = Exponential::from_mean(10.0).unwrap().into();
        assert!((d.mean() - 10.0).abs() < 1e-12);
        let d = Dist::constant(3.0).unwrap();
        assert_eq!(d.mean(), 3.0);
        assert_eq!(d.variance(), 0.0);
    }

    #[test]
    fn sampling_is_deterministic_under_fixed_seed() {
        let d = LogNormal::new(0.0, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..32 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn sample_trait_is_object_safe() {
        let dists: Vec<Box<dyn Sample>> = vec![
            Box::new(Exponential::from_mean(1.0).unwrap()),
            Box::new(Deterministic::new(1.0).unwrap()),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for d in &dists {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    proptest! {
        #[test]
        fn samples_are_non_negative_and_finite(
            mean in 0.1f64..1e5,
            cov in 0.1f64..5.0,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dists: Vec<Dist> = vec![
                Exponential::from_mean(mean).unwrap().into(),
                LogNormal::from_mean_cov(mean, cov).unwrap().into(),
                Gamma::from_mean_cov(mean, cov).unwrap().into(),
                Weibull::new(1.0 / cov.max(0.2), mean).unwrap().into(),
                Pareto::new(mean, 1.0 + cov).unwrap().into(),
            ];
            for d in &dists {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite(), "{d:?} produced {x}");
                prop_assert!(x >= 0.0, "{d:?} produced {x}");
            }
        }

        #[test]
        fn uniform_open01_stays_in_open_interval(seed in 0u64..2000) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                let u = uniform_open01(&mut rng);
                prop_assert!(u > 0.0 && u < 1.0);
            }
        }

        #[test]
        fn lognormal_mean_cov_solver_is_exact(
            mean in 1e-3f64..1e9,
            cov in 0.01f64..20.0,
        ) {
            let d = LogNormal::from_mean_cov(mean, cov).unwrap();
            prop_assert!((d.mean() - mean).abs() / mean < 1e-9);
            prop_assert!((d.cov() - cov).abs() / cov < 1e-9);
        }
    }
}
