//! Calibrated synthetic SETI@home-like failure-trace generation.
//!
//! We do not have the Failure Trace Archive's SETI@home dataset, but the
//! paper tells us exactly which of its properties matter (Table 1): the
//! pooled inter-arrival time of interruptions has mean 160 290 s with a
//! coefficient of variation of 4.376, and interruption durations have mean
//! 109 380 s with CoV 7.387 — *heterogeneity far beyond exponential*
//! (CoV 1), caused by host-to-host variability.
//!
//! The generator mirrors the paper's own stochastic model (Section III-A):
//!
//! 1. **Between hosts** — each host draws a personal mean inter-arrival
//!    time (its MTBI) from a log-normal *hyper-distribution*.
//! 2. **Within a host** — interruption *starts* form a Poisson process
//!    with the host's rate, exactly the exponential inter-arrival
//!    assumption of equations (2)–(5). Each event's unavailability
//!    duration is drawn from a heavy-tailed log-normal and clipped to the
//!    gap before the next interruption (a host cannot be doubly down in an
//!    observed availability trace).
//!
//! The MTBI hyper-parameters are *calibrated analytically*: pooling
//! per-event samples weights each host by its event count (≈ window /
//! MTBI), so for a log-normal hyper-distribution the pooled mean is the
//! *harmonic* host mean `M/(1+c²)` and the pooled CoV is `√(1+2c²)`
//! (hyper-mean `M`, hyper-CoV `c`, exponential within-host gaps).
//! [`calibrate_hyper`] inverts these identities. Duration clipping biases
//! the pooled duration mean downward, so the raw duration distribution is
//! *pilot-calibrated*: a small deterministic pilot population is generated
//! and the raw mean inflated until the clipped pooled mean matches the
//! target. The tests verify both calibrations empirically.

use adapt_availability::dist::{LogNormal, Sample};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::record::{HostId, HostTrace, Interruption, Trace};
use crate::stats::summarize;
use crate::TraceError;

/// Paper Table 1: pooled MTBI mean for SETI@home (seconds).
pub const SETI_MTBI_MEAN: f64 = 160_290.0;
/// Paper Table 1: pooled MTBI coefficient of variation.
pub const SETI_MTBI_COV: f64 = 4.376;
/// Paper Table 1: pooled interruption duration mean (seconds).
pub const SETI_DURATION_MEAN: f64 = 109_380.0;
/// Paper Table 1: pooled interruption duration coefficient of variation.
pub const SETI_DURATION_COV: f64 = 7.3869;
/// Paper Section V-C: SETI@home trace population size.
pub const SETI_HOSTS: usize = 226_208;
/// Paper Section V-C: SETI@home trace observation window (1.5 years).
pub const SETI_WINDOW: f64 = 1.5 * 365.25 * 86_400.0;

/// Hyper-distribution parameters (mean, CoV of a log-normal over hosts)
/// that make the *pooled per-event* statistics match a target, assuming
/// exponential within-host samples.
///
/// Derivation: hosts contribute events proportionally to `1/mᵢ`, so the
/// pooled mean is the harmonic mean of host means — for a log-normal with
/// arithmetic mean `M` and CoV `c` that is `M/(1+c²)` — and the pooled
/// second moment is `2·M·harmonic`, giving pooled `CoV² = 1 + 2c²`.
///
/// Returns `(hyper_mean, hyper_cov)`.
///
/// # Errors
///
/// Returns [`TraceError::InvalidConfig`] if `pooled_mean` is not positive
/// or `pooled_cov` is not greater than 1 (a mixture of exponentials cannot
/// have pooled CoV below 1).
pub fn calibrate_hyper(pooled_mean: f64, pooled_cov: f64) -> Result<(f64, f64), TraceError> {
    if !(pooled_mean.is_finite() && pooled_mean > 0.0) {
        return Err(TraceError::InvalidConfig {
            name: "pooled_mean",
            reason: format!("{pooled_mean} must be finite and > 0"),
        });
    }
    if !(pooled_cov.is_finite() && pooled_cov > 1.0) {
        return Err(TraceError::InvalidConfig {
            name: "pooled_cov",
            reason: format!("{pooled_cov} must be > 1 (exponential mixture lower bound)"),
        });
    }
    let c2 = (pooled_cov * pooled_cov - 1.0) / 2.0;
    let hyper_mean = pooled_mean * (1.0 + c2);
    Ok((hyper_mean, c2.sqrt()))
}

/// Builder for a synthetic host population.
///
/// # Examples
///
/// ```
/// use adapt_traces::synthetic::SyntheticPopulation;
///
/// # fn main() -> Result<(), adapt_traces::TraceError> {
/// let trace = SyntheticPopulation::seti_like()?
///     .hosts(500)
///     .generate(7)?;
/// assert_eq!(trace.len(), 500);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticPopulation {
    hosts: usize,
    window: f64,
    mtbi_hyper: LogNormal,
    duration_raw: LogNormal,
    max_events_per_host: usize,
}

/// Fixed seed for the deterministic pilot population used to calibrate
/// duration clipping.
const PILOT_SEED: u64 = 0xADA9_7000;
const PILOT_HOSTS: usize = 400;
const PILOT_ROUNDS: usize = 4;
/// Safety bound on the duration inflation factor per pilot round.
const MAX_INFLATION_PER_ROUND: f64 = 10.0;

impl SyntheticPopulation {
    /// Creates a population whose pooled statistics are calibrated to the
    /// given targets (see the module docs for the method).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] for out-of-domain targets
    /// (both CoVs must exceed 1; means must be positive).
    pub fn calibrated(
        pooled_mtbi_mean: f64,
        pooled_mtbi_cov: f64,
        pooled_duration_mean: f64,
        pooled_duration_cov: f64,
    ) -> Result<Self, TraceError> {
        let (mtbi_mean, mtbi_cov) = calibrate_hyper(pooled_mtbi_mean, pooled_mtbi_cov)?;
        let mtbi_hyper = LogNormal::from_mean_cov(mtbi_mean, mtbi_cov).map_err(|e| {
            TraceError::InvalidConfig {
                name: "mtbi_hyper",
                reason: e.to_string(),
            }
        })?;
        if !(pooled_duration_mean.is_finite() && pooled_duration_mean > 0.0) {
            return Err(TraceError::InvalidConfig {
                name: "pooled_duration_mean",
                reason: format!("{pooled_duration_mean} must be finite and > 0"),
            });
        }
        if !(pooled_duration_cov.is_finite() && pooled_duration_cov > 0.0) {
            return Err(TraceError::InvalidConfig {
                name: "pooled_duration_cov",
                reason: format!("{pooled_duration_cov} must be finite and > 0"),
            });
        }
        let mut pop = SyntheticPopulation {
            hosts: 1_024,
            window: SETI_WINDOW,
            mtbi_hyper,
            duration_raw: LogNormal::from_mean_cov(pooled_duration_mean, pooled_duration_cov)
                .map_err(|e| TraceError::InvalidConfig {
                    name: "duration_raw",
                    reason: e.to_string(),
                })?,
            max_events_per_host: 100_000,
        };
        pop.calibrate_durations(pooled_duration_mean, pooled_duration_cov)?;
        Ok(pop)
    }

    /// Pilot-calibrates the raw duration mean so the *clipped* pooled
    /// duration mean lands on the target.
    ///
    /// The pilot window is scaled to the target MTBI (a few hundred events
    /// per typical host) — the clipping bias depends only on the gap
    /// distribution, which scales with the host MTBI, not on the window.
    fn calibrate_durations(&mut self, target_mean: f64, cov: f64) -> Result<(), TraceError> {
        let pilot_window = self.window.min(self.mtbi_hyper.mean() * 200.0);
        let mut raw_mean = target_mean;
        for _ in 0..PILOT_ROUNDS {
            self.duration_raw =
                LogNormal::from_mean_cov(raw_mean, cov).map_err(|e| TraceError::InvalidConfig {
                    name: "duration_raw",
                    reason: e.to_string(),
                })?;
            let pilot = self
                .clone()
                .hosts(PILOT_HOSTS)
                .observation_window(pilot_window)
                .max_events_per_host(10_000)
                .generate(PILOT_SEED)?;
            let measured = summarize(&pilot).duration.mean();
            if !(measured.is_finite() && measured > 0.0) {
                break;
            }
            let factor = (target_mean / measured)
                .clamp(1.0 / MAX_INFLATION_PER_ROUND, MAX_INFLATION_PER_ROUND);
            if (factor - 1.0).abs() < 0.02 {
                break;
            }
            raw_mean *= factor;
        }
        Ok(())
    }

    /// The default SETI@home-like population, calibrated to Table 1 of the
    /// paper.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in constants; the `Result` mirrors
    /// [`SyntheticPopulation::calibrated`].
    pub fn seti_like() -> Result<Self, TraceError> {
        SyntheticPopulation::calibrated(
            SETI_MTBI_MEAN,
            SETI_MTBI_COV,
            SETI_DURATION_MEAN,
            SETI_DURATION_COV,
        )
    }

    /// Sets the number of hosts to generate.
    pub fn hosts(mut self, hosts: usize) -> Self {
        self.hosts = hosts;
        self
    }

    /// Sets the observation window in seconds.
    pub fn observation_window(mut self, window: f64) -> Self {
        self.window = window;
        self
    }

    /// Caps the number of events generated per host (a guard against
    /// pathological hyper-draws producing near-zero MTBIs).
    pub fn max_events_per_host(mut self, cap: usize) -> Self {
        self.max_events_per_host = cap;
        self
    }

    /// Observation window currently configured.
    pub fn window(&self) -> f64 {
        self.window
    }

    /// Generates the population deterministically from a seed.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] if the window is not positive
    /// and finite.
    pub fn generate(&self, seed: u64) -> Result<Trace, TraceError> {
        if !(self.window.is_finite() && self.window > 0.0) {
            return Err(TraceError::InvalidConfig {
                name: "window",
                reason: format!("{} must be finite and > 0", self.window),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hosts = Vec::with_capacity(self.hosts);
        for id in 0..self.hosts {
            hosts.push(self.generate_host(HostId(id as u64), &mut rng)?);
        }
        Ok(Trace::new(hosts))
    }

    /// Generates one host trace using the provided RNG.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidConfig`] if the window is invalid.
    pub fn generate_host(&self, id: HostId, rng: &mut dyn Rng) -> Result<HostTrace, TraceError> {
        // Per-host profile: mean inter-start (MTBI).
        let host_mtbi = self.mtbi_hyper.sample(rng);

        // Interruption starts: Poisson process with rate 1/host_mtbi
        // (the paper's exponential inter-arrival assumption).
        let mut starts = Vec::new();
        let mut t = sample_exponential(host_mtbi, rng);
        while t < self.window && starts.len() < self.max_events_per_host {
            starts.push(t);
            t += sample_exponential(host_mtbi, rng);
        }

        // Durations: heavy-tailed, clipped to the gap before the next
        // start (an availability trace cannot overlap interruptions).
        let mut events = Vec::with_capacity(starts.len());
        for (i, &start) in starts.iter().enumerate() {
            let gap = match starts.get(i + 1) {
                Some(&next) => next - start,
                None => self.window - start,
            };
            let duration = self.duration_raw.sample(rng).min(gap);
            events.push(Interruption { start, duration });
        }
        HostTrace::new(id, self.window, events)
    }
}

/// Samples an exponential with the given mean through a `dyn Rng`.
fn sample_exponential(mean: f64, rng: &mut dyn Rng) -> f64 {
    -adapt_availability::dist::uniform_open01(rng).ln() * mean
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn calibrate_hyper_inverts_pooled_identities() {
        let (m, c) = calibrate_hyper(100.0, 3.0).unwrap();
        // pooled mean = M/(1+c²), pooled CoV = sqrt(1+2c²).
        assert!((m / (1.0 + c * c) - 100.0).abs() < 1e-9);
        assert!(((1.0 + 2.0 * c * c).sqrt() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn calibrate_hyper_rejects_low_cov() {
        assert!(calibrate_hyper(100.0, 1.0).is_err());
        assert!(calibrate_hyper(100.0, 0.5).is_err());
        assert!(calibrate_hyper(0.0, 2.0).is_err());
        assert!(calibrate_hyper(f64::NAN, 2.0).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let pop = SyntheticPopulation::seti_like().unwrap().hosts(32);
        let a = pop.generate(1).unwrap();
        let b = pop.generate(1).unwrap();
        assert_eq!(a, b);
        let c = pop.generate(2).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_hosts_have_requested_count_and_window() {
        let pop = SyntheticPopulation::seti_like()
            .unwrap()
            .hosts(17)
            .observation_window(1e6);
        let t = pop.generate(3).unwrap();
        assert_eq!(t.len(), 17);
        for h in &t {
            assert_eq!(h.window(), 1e6);
        }
    }

    #[test]
    fn generated_traces_satisfy_record_invariants() {
        // HostTrace::new validates; generating many hosts exercises it.
        let pop = SyntheticPopulation::seti_like().unwrap().hosts(200);
        let t = pop.generate(11).unwrap();
        assert!(t.event_count() > 0);
    }

    #[test]
    fn event_cap_limits_pathological_hosts() {
        let pop = SyntheticPopulation::calibrated(10.0, 2.0, 5.0, 2.0)
            .unwrap()
            .hosts(4)
            .observation_window(1e7)
            .max_events_per_host(50);
        let t = pop.generate(5).unwrap();
        for h in &t {
            assert!(h.interruptions().len() <= 50);
        }
    }

    #[test]
    fn pooled_statistics_match_table1_targets() {
        // The headline calibration test: a moderately large population's
        // pooled statistics should land near Table 1. Tolerances account
        // for window censoring and the heavy hyper tail.
        let pop = SyntheticPopulation::seti_like().unwrap().hosts(4_000);
        let t = pop.generate(2012).unwrap();
        let s = summarize(&t);

        let mtbi_mean = s.mtbi.mean();
        let mtbi_cov = s.mtbi.cov();
        let dur_mean = s.duration.mean();
        let dur_cov = s.duration.cov();

        assert!(
            (mtbi_mean - SETI_MTBI_MEAN).abs() / SETI_MTBI_MEAN < 0.35,
            "pooled MTBI mean {mtbi_mean} vs target {SETI_MTBI_MEAN}"
        );
        assert!(
            mtbi_cov > 2.5,
            "pooled MTBI CoV {mtbi_cov} should be far above exponential"
        );
        assert!(
            (dur_mean - SETI_DURATION_MEAN).abs() / SETI_DURATION_MEAN < 0.45,
            "pooled duration mean {dur_mean} vs target {SETI_DURATION_MEAN}"
        );
        assert!(
            dur_cov > 2.0,
            "pooled duration CoV {dur_cov} should be far above deterministic"
        );
    }

    #[test]
    fn heterogeneity_across_hosts_is_substantial() {
        // Per-host mean MTBIs should themselves vary wildly (that is the
        // availability heterogeneity ADAPT exploits).
        let pop = SyntheticPopulation::seti_like().unwrap().hosts(2_000);
        let t = pop.generate(9).unwrap();
        let per_host: adapt_availability::Moments = t.iter().filter_map(|h| h.mtbi()).collect();
        assert!(per_host.count() > 100);
        assert!(per_host.cov() > 1.0, "per-host CoV {}", per_host.cov());
    }

    #[test]
    fn durations_never_overlap_next_start() {
        let pop = SyntheticPopulation::seti_like().unwrap().hosts(100);
        let t = pop.generate(21).unwrap();
        for h in &t {
            for w in h.interruptions().windows(2) {
                assert!(w[0].end() <= w[1].start + 1e-9);
            }
        }
    }
}
