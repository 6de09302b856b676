//! Distribution fitting from observed samples.
//!
//! The heartbeat collector yields raw interval samples; the Performance
//! Predictor needs *parameters*. This module fits the crate's
//! distributions to samples — maximum likelihood for the exponential,
//! method of moments for log-normal and gamma — and quantifies fit
//! quality with the Kolmogorov–Smirnov statistic, so callers can decide
//! whether the exponential inter-arrival assumption of equations (2)–(5)
//! actually holds for a given host before trusting the model.

#![expect(
    clippy::as_conversions,
    reason = "histogram bin indices and sample counts widened to f64 for least-squares fitting"
)]

use crate::dist::{Dist, Exponential, Gamma, LogNormal};
use crate::moments::Moments;
use crate::AvailabilityError;

/// Fits an exponential by maximum likelihood (`λ̂ = 1/mean`).
///
/// # Errors
///
/// Returns [`AvailabilityError::InvalidParameter`] if fewer than one
/// finite positive sample is present.
pub fn fit_exponential(samples: &[f64]) -> Result<Exponential, AvailabilityError> {
    let m = positive_moments(samples)?;
    Exponential::from_mean(m.mean())
}

/// Fits a log-normal by matching the sample mean and CoV.
///
/// # Errors
///
/// Returns [`AvailabilityError::InvalidParameter`] if fewer than two
/// samples are present or they have zero variance.
pub fn fit_lognormal(samples: &[f64]) -> Result<LogNormal, AvailabilityError> {
    let m = positive_moments(samples)?;
    if m.count() < 2 || m.sample_variance() == 0.0 {
        return Err(AvailabilityError::InvalidParameter {
            name: "samples",
            value: m.count() as f64,
            requirement: "need >= 2 samples with positive variance",
        });
    }
    LogNormal::from_mean_cov(m.mean(), m.cov())
}

/// Fits a gamma by the method of moments (`k = 1/CoV²`, `θ = mean·CoV²`).
///
/// # Errors
///
/// Returns [`AvailabilityError::InvalidParameter`] if fewer than two
/// samples are present or they have zero variance.
pub fn fit_gamma(samples: &[f64]) -> Result<Gamma, AvailabilityError> {
    let m = positive_moments(samples)?;
    if m.count() < 2 || m.sample_variance() == 0.0 {
        return Err(AvailabilityError::InvalidParameter {
            name: "samples",
            value: m.count() as f64,
            requirement: "need >= 2 samples with positive variance",
        });
    }
    Gamma::from_mean_cov(m.mean(), m.cov())
}

/// The Kolmogorov–Smirnov statistic `sup |F̂(x) − F(x)|` between the
/// samples' empirical CDF and a fitted distribution's CDF (closed-form
/// CDFs for the supported families).
///
/// Lower is better; as a rule of thumb, `D > 1.36/√n` rejects the fit at
/// the 5 % level.
///
/// # Errors
///
/// Returns [`AvailabilityError::InvalidParameter`] for an empty sample
/// set or a distribution family without a closed-form CDF here.
pub fn ks_statistic(samples: &[f64], dist: &Dist) -> Result<f64, AvailabilityError> {
    let mut xs: Vec<f64> = samples
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .collect();
    if xs.is_empty() {
        return Err(AvailabilityError::InvalidParameter {
            name: "samples",
            value: 0.0,
            requirement: "need at least one finite non-negative sample",
        });
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let f = cdf(dist, x)?;
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    Ok(d)
}

/// Closed-form CDF for the families with tractable CDFs.
fn cdf(dist: &Dist, x: f64) -> Result<f64, AvailabilityError> {
    if x <= 0.0 {
        return Ok(0.0);
    }
    match dist {
        Dist::Exponential(d) => Ok(1.0 - (-d.rate() * x).exp()),
        Dist::Weibull(d) => Ok(1.0 - (-(x / d.scale()).powf(d.shape())).exp()),
        Dist::LogNormal(d) => {
            let z = (x.ln() - d.mu()) / (d.sigma() * std::f64::consts::SQRT_2);
            Ok(0.5 * (1.0 + erf(z)))
        }
        Dist::Pareto(d) => {
            if x < d.xm() {
                Ok(0.0)
            } else {
                Ok(1.0 - (d.xm() / x).powf(d.alpha()))
            }
        }
        Dist::Uniform(d) => Ok(((x - d.low()) / (d.high() - d.low())).clamp(0.0, 1.0)),
        Dist::Deterministic(d) => Ok(if x >= d.value() { 1.0 } else { 0.0 }),
        Dist::Gamma(_) => Err(AvailabilityError::InvalidParameter {
            name: "dist",
            value: f64::NAN,
            requirement: "no closed-form CDF for this family here (gamma)",
        }),
    }
}

/// Abramowitz–Stegun 7.1.26 rational approximation of `erf` (|ε| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

fn positive_moments(samples: &[f64]) -> Result<Moments, AvailabilityError> {
    let m: Moments = samples
        .iter()
        .copied()
        .filter(|x| x.is_finite() && *x > 0.0)
        .collect();
    if m.is_empty() {
        return Err(AvailabilityError::InvalidParameter {
            name: "samples",
            value: samples.len() as f64,
            requirement: "need at least one finite positive sample",
        });
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Sample;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw(d: &dyn Sample, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn erf_matches_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-5);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-5);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-5);
    }

    #[test]
    fn exponential_fit_recovers_rate() {
        let truth = Exponential::from_mean(42.0).unwrap();
        let samples = draw(&truth, 20_000, 1);
        let fitted = fit_exponential(&samples).unwrap();
        assert!((fitted.mean() - 42.0).abs() / 42.0 < 0.03);
    }

    #[test]
    fn lognormal_fit_recovers_parameters() {
        let truth = LogNormal::from_mean_cov(100.0, 1.5).unwrap();
        let samples = draw(&truth, 50_000, 2);
        let fitted = fit_lognormal(&samples).unwrap();
        assert!((fitted.mean() - 100.0).abs() / 100.0 < 0.08);
        assert!((fitted.cov() - 1.5).abs() < 0.25);
    }

    #[test]
    fn gamma_fit_recovers_parameters() {
        let truth = Gamma::from_mean_cov(20.0, 0.5).unwrap();
        let samples = draw(&truth, 30_000, 3);
        let fitted = fit_gamma(&samples).unwrap();
        assert!((fitted.mean() - 20.0).abs() / 20.0 < 0.03);
        assert!((fitted.cov() - 0.5).abs() < 0.05);
    }

    #[test]
    fn fits_reject_degenerate_samples() {
        assert!(fit_exponential(&[]).is_err());
        assert!(fit_exponential(&[f64::NAN, -1.0]).is_err());
        assert!(fit_lognormal(&[5.0]).is_err());
        assert!(fit_lognormal(&[5.0, 5.0]).is_err(), "zero variance");
        assert!(fit_gamma(&[1.0]).is_err());
    }

    #[test]
    fn ks_accepts_correct_family_and_flags_wrong_one() {
        let truth = Exponential::from_mean(10.0).unwrap();
        let samples = draw(&truth, 5_000, 4);
        let good: Dist = fit_exponential(&samples).unwrap().into();
        let d_good = ks_statistic(&samples, &good).unwrap();
        let threshold = 1.36 / (samples.len() as f64).sqrt();
        assert!(d_good < threshold, "D {d_good} vs threshold {threshold}");

        // A deterministic point mass is a terrible fit for exponential data.
        let bad = Dist::constant(10.0).unwrap();
        let d_bad = ks_statistic(&samples, &bad).unwrap();
        assert!(d_bad > 10.0 * d_good, "good {d_good} vs bad {d_bad}");
    }

    #[test]
    fn ks_handles_every_closed_form_family() {
        let samples = [0.5, 1.0, 2.0, 4.0];
        for d in [
            Dist::Exponential(Exponential::from_mean(2.0).unwrap()),
            Dist::Weibull(crate::dist::Weibull::new(1.5, 2.0).unwrap()),
            Dist::LogNormal(LogNormal::from_mean_cov(2.0, 1.0).unwrap()),
            Dist::Pareto(crate::dist::Pareto::new(0.5, 2.0).unwrap()),
            Dist::Uniform(crate::dist::Uniform::new(0.0, 5.0).unwrap()),
            Dist::constant(2.0).unwrap(),
        ] {
            let d_stat = ks_statistic(&samples, &d).unwrap();
            assert!((0.0..=1.0).contains(&d_stat), "{d:?}: D {d_stat}");
        }
        // Gamma has no closed-form CDF here.
        let gamma: Dist = Gamma::new(2.0, 1.0).unwrap().into();
        assert!(ks_statistic(&samples, &gamma).is_err());
    }

    #[test]
    fn ks_rejects_empty_samples() {
        let d = Dist::constant(1.0).unwrap();
        assert!(ks_statistic(&[], &d).is_err());
        assert!(ks_statistic(&[f64::NAN], &d).is_err());
    }
}
