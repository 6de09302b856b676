use std::error::Error;
use std::fmt;

/// Errors produced when constructing or evaluating availability models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AvailabilityError {
    /// A model parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter (e.g. `"lambda"`).
        name: &'static str,
        /// The value that was rejected.
        value: f64,
        /// Human-readable domain description (e.g. `"must be finite and > 0"`).
        requirement: &'static str,
    },
    /// The interruption queue is unstable: `ρ = λμ ≥ 1`, so the expected
    /// downtime `μ/(1 − λμ)` diverges and no finite completion time exists.
    UnstableQueue {
        /// The offered load `ρ = λμ`.
        rho: f64,
    },
}

impl fmt::Display for AvailabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AvailabilityError::InvalidParameter {
                name,
                value,
                requirement,
            } => write!(f, "invalid parameter `{name}` = {value}: {requirement}"),
            AvailabilityError::UnstableQueue { rho } => write!(
                f,
                "interruption queue is unstable (utilization rho = {rho} >= 1)"
            ),
        }
    }
}

impl Error for AvailabilityError {}

/// Validates that `value` is finite and strictly positive.
pub(crate) fn require_positive(name: &'static str, value: f64) -> Result<f64, AvailabilityError> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(AvailabilityError::InvalidParameter {
            name,
            value,
            requirement: "must be finite and > 0",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_invalid_parameter_mentions_name_and_requirement() {
        let err = AvailabilityError::InvalidParameter {
            name: "lambda",
            value: -1.0,
            requirement: "must be finite and > 0",
        };
        let msg = err.to_string();
        assert!(msg.contains("lambda"));
        assert!(msg.contains("must be finite and > 0"));
    }

    #[test]
    fn display_unstable_queue_mentions_rho() {
        let err = AvailabilityError::UnstableQueue { rho: 1.5 };
        assert!(err.to_string().contains("1.5"));
    }

    #[test]
    fn require_positive_accepts_positive() {
        assert_eq!(require_positive("x", 0.5), Ok(0.5));
    }

    #[test]
    fn require_positive_rejects_zero_negative_nan_inf() {
        for v in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(require_positive("x", v).is_err(), "accepted {v}");
        }
    }

    #[test]
    fn error_implements_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<AvailabilityError>();
    }
}
