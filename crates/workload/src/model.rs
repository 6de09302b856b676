//! Arrival-process and job-size laws.
//!
//! Both models expose their analytic first moment
//! ([`ArrivalModel::mean_gap`], [`SizeModel::mean_tasks`]) so tests can
//! bound the empirical moments of a generated stream against the
//! configured distribution — the CI property gate on `adapt-workload`.

use adapt_availability::dist::uniform_open01;
use rand::rngs::StdRng;

use crate::WorkloadError;

/// The inter-arrival process of a job stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Poisson arrivals: i.i.d. exponential gaps with the given mean.
    Poisson {
        /// Mean inter-arrival gap, seconds.
        mean_gap: f64,
    },
    /// A two-phase modulated Poisson process: the stream alternates
    /// between an ON phase with gaps compressed by `burst_factor` and an
    /// OFF phase with gaps stretched to compensate, so the *overall*
    /// mean gap stays `mean_gap`. Phase lengths (in jobs) are geometric
    /// with mean `mean_burst_len`. This is the burstiness production
    /// MapReduce traces show (diurnal + batch-submission spikes)
    /// collapsed to its first-order shape.
    Bursty {
        /// Overall mean inter-arrival gap, seconds.
        mean_gap: f64,
        /// Gap compression inside a burst (> 1).
        burst_factor: f64,
        /// Mean phase length in jobs (>= 1).
        mean_burst_len: f64,
    },
}

impl ArrivalModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidConfig`] when a parameter is out of
    /// domain.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            ArrivalModel::Poisson { mean_gap } => {
                if !(mean_gap.is_finite() && mean_gap > 0.0) {
                    return Err(WorkloadError::InvalidConfig {
                        name: "mean_gap",
                        reason: format!("{mean_gap} must be finite and > 0"),
                    });
                }
            }
            ArrivalModel::Bursty {
                mean_gap,
                burst_factor,
                mean_burst_len,
            } => {
                if !(mean_gap.is_finite() && mean_gap > 0.0) {
                    return Err(WorkloadError::InvalidConfig {
                        name: "mean_gap",
                        reason: format!("{mean_gap} must be finite and > 0"),
                    });
                }
                if !(burst_factor.is_finite() && burst_factor > 1.0) {
                    return Err(WorkloadError::InvalidConfig {
                        name: "burst_factor",
                        reason: format!("{burst_factor} must be finite and > 1"),
                    });
                }
                if !(mean_burst_len.is_finite() && mean_burst_len >= 1.0) {
                    return Err(WorkloadError::InvalidConfig {
                        name: "mean_burst_len",
                        reason: format!("{mean_burst_len} must be finite and >= 1"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The analytic mean inter-arrival gap, seconds.
    pub fn mean_gap(&self) -> f64 {
        match *self {
            ArrivalModel::Poisson { mean_gap } | ArrivalModel::Bursty { mean_gap, .. } => mean_gap,
        }
    }
}

/// Samples the gaps of an arrival model. Kept crate-internal so the only
/// public entry is the pure generator.
#[derive(Debug)]
pub(crate) struct GapSampler {
    model: ArrivalModel,
    /// Remaining jobs in the current phase (bursty only).
    phase_left: u64,
    /// Whether the current phase is the compressed (ON) one.
    in_burst: bool,
}

impl GapSampler {
    pub(crate) fn new(model: ArrivalModel) -> GapSampler {
        GapSampler {
            model,
            phase_left: 0,
            in_burst: false,
        }
    }

    /// Draws a geometric phase length with the given mean (support
    /// >= 1): inverse-CDF on p = 1/mean.
    fn phase_len(mean: f64, rng: &mut StdRng) -> u64 {
        let p = (1.0 / mean).clamp(f64::MIN_POSITIVE, 1.0);
        let u = uniform_open01(rng);
        // ceil(ln(u)/ln(1-p)) is Geometric(p) on {1, 2, ...}; at p = 1
        // the phase is always a single job.
        if p >= 1.0 {
            1
        } else {
            let len = (u.ln() / (1.0 - p).ln()).ceil();
            if len.is_finite() && len >= 1.0 {
                len as u64
            } else {
                1
            }
        }
    }

    /// Samples the next inter-arrival gap.
    pub(crate) fn next_gap(&mut self, rng: &mut StdRng) -> f64 {
        match self.model {
            ArrivalModel::Poisson { mean_gap } => -uniform_open01(rng).ln() * mean_gap,
            ArrivalModel::Bursty {
                mean_gap,
                burst_factor,
                mean_burst_len,
            } => {
                if self.phase_left == 0 {
                    self.in_burst = !self.in_burst;
                    self.phase_left = Self::phase_len(mean_burst_len, rng);
                }
                self.phase_left -= 1;
                // ON gaps are mean_gap/f; OFF gaps are chosen so the
                // two-phase average (equal expected jobs per phase) is
                // exactly mean_gap: off = 2*mean_gap - mean_gap/f.
                let mean = if self.in_burst {
                    mean_gap / burst_factor
                } else {
                    2.0 * mean_gap - mean_gap / burst_factor
                };
                -uniform_open01(rng).ln() * mean
            }
        }
    }
}

/// The distribution of a job's map-task count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeModel {
    /// Every job carries the same number of tasks.
    Fixed {
        /// Map tasks per job.
        tasks: usize,
    },
    /// Uniform on `[min_tasks, max_tasks]` (inclusive).
    Uniform {
        /// Smallest job, tasks.
        min_tasks: usize,
        /// Largest job, tasks.
        max_tasks: usize,
    },
    /// A bounded Pareto tail: mostly tiny jobs with a heavy tail of
    /// large ones — the canonical production-trace shape (the FB-2010
    /// sample is dominated by single-block jobs with a few
    /// thousand-block outliers).
    BoundedPareto {
        /// Tail index (> 0; smaller = heavier tail).
        alpha: f64,
        /// Smallest job, tasks (>= 1).
        min_tasks: usize,
        /// Truncation point, tasks (>= `min_tasks`).
        max_tasks: usize,
    },
}

impl SizeModel {
    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::InvalidConfig`] when a parameter is out of
    /// domain.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        match *self {
            SizeModel::Fixed { tasks } => {
                if tasks == 0 {
                    return Err(WorkloadError::InvalidConfig {
                        name: "tasks",
                        reason: "must be > 0".into(),
                    });
                }
            }
            SizeModel::Uniform {
                min_tasks,
                max_tasks,
            } => {
                if min_tasks == 0 || max_tasks < min_tasks {
                    return Err(WorkloadError::InvalidConfig {
                        name: "min_tasks/max_tasks",
                        reason: format!("need 1 <= {min_tasks} <= {max_tasks}"),
                    });
                }
            }
            SizeModel::BoundedPareto {
                alpha,
                min_tasks,
                max_tasks,
            } => {
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err(WorkloadError::InvalidConfig {
                        name: "alpha",
                        reason: format!("{alpha} must be finite and > 0"),
                    });
                }
                if min_tasks == 0 || max_tasks < min_tasks {
                    return Err(WorkloadError::InvalidConfig {
                        name: "min_tasks/max_tasks",
                        reason: format!("need 1 <= {min_tasks} <= {max_tasks}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The analytic mean task count of the *continuous* law underlying
    /// the sampler (sampling truncates to an integer, which biases the
    /// realized mean down by strictly less than one task — the bound the
    /// moment tests use).
    #[expect(clippy::float_cmp, reason = "`l` and `h` are whole numbers")]
    pub fn mean_tasks(&self) -> f64 {
        match *self {
            SizeModel::Fixed { tasks } => tasks as f64,
            SizeModel::Uniform {
                min_tasks,
                max_tasks,
            } => (min_tasks as f64 + max_tasks as f64) / 2.0,
            SizeModel::BoundedPareto {
                alpha,
                min_tasks,
                max_tasks,
            } => {
                let l = min_tasks as f64;
                let h = max_tasks as f64;
                if l == h {
                    return l;
                }
                // E[X] of Pareto(alpha, L) truncated at H. The alpha = 1
                // limit is L*ln(H/L)/(1 - L/H).
                if (alpha - 1.0).abs() < 1e-12 {
                    l * (h / l).ln() / (1.0 - l / h)
                } else {
                    (alpha * l.powf(alpha)) / (1.0 - (l / h).powf(alpha))
                        * (l.powf(1.0 - alpha) - h.powf(1.0 - alpha))
                        / (alpha - 1.0)
                }
            }
        }
    }

    /// Samples one job size.
    pub(crate) fn sample(&self, rng: &mut StdRng) -> usize {
        match *self {
            SizeModel::Fixed { tasks } => tasks,
            SizeModel::Uniform {
                min_tasks,
                max_tasks,
            } => {
                let span = (max_tasks - min_tasks) as u64 + 1;
                min_tasks + (rand::Rng::next_u64(rng) % span) as usize
            }
            SizeModel::BoundedPareto {
                alpha,
                min_tasks,
                max_tasks,
            } => {
                let l = min_tasks as f64;
                let h = max_tasks as f64;
                if min_tasks == max_tasks {
                    return min_tasks;
                }
                // Inverse CDF of the bounded Pareto on [L, H].
                let u = uniform_open01(rng);
                let ratio = (l / h).powf(alpha);
                let x = l / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha);
                let t = x.floor();
                if t.is_finite() && t >= l {
                    (t as usize).min(max_tasks)
                } else {
                    min_tasks
                }
            }
        }
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_bad_params() {
        assert!(ArrivalModel::Poisson { mean_gap: 0.0 }.validate().is_err());
        assert!(ArrivalModel::Bursty {
            mean_gap: 1.0,
            burst_factor: 1.0,
            mean_burst_len: 4.0
        }
        .validate()
        .is_err());
        assert!(SizeModel::Fixed { tasks: 0 }.validate().is_err());
        assert!(SizeModel::BoundedPareto {
            alpha: 0.0,
            min_tasks: 1,
            max_tasks: 2
        }
        .validate()
        .is_err());
        assert!(SizeModel::Uniform {
            min_tasks: 5,
            max_tasks: 4
        }
        .validate()
        .is_err());
    }

    #[test]
    fn bounded_pareto_samples_stay_in_range() {
        let m = SizeModel::BoundedPareto {
            alpha: 1.25,
            min_tasks: 1,
            max_tasks: 500,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let s = m.sample(&mut rng);
            assert!((1..=500).contains(&s));
        }
    }

    #[test]
    fn bounded_pareto_mean_matches_degenerate_cases() {
        let m = SizeModel::BoundedPareto {
            alpha: 2.0,
            min_tasks: 4,
            max_tasks: 4,
        };
        assert_eq!(m.mean_tasks(), 4.0);
        let m = SizeModel::Fixed { tasks: 9 };
        assert_eq!(m.mean_tasks(), 9.0);
        let m = SizeModel::Uniform {
            min_tasks: 1,
            max_tasks: 3,
        };
        assert_eq!(m.mean_tasks(), 2.0);
    }

    #[test]
    fn bursty_overall_mean_matches_poisson_mean() {
        // Empirical mean of many bursty gaps must be close to mean_gap
        // by construction of the OFF-phase stretch.
        let model = ArrivalModel::Bursty {
            mean_gap: 10.0,
            burst_factor: 4.0,
            mean_burst_len: 6.0,
        };
        let mut sampler = GapSampler::new(model);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let total: f64 = (0..n).map(|_| sampler.next_gap(&mut rng)).sum();
        let mean = total / n as f64;
        assert!((mean - 10.0).abs() < 0.5, "empirical mean {mean}");
    }
}
