//! Per-node cluster specifications.
//!
//! Each participating host contributes storage (DataNode) and compute
//! (TaskTracker). What the NameNode knows about a host, beyond its stored
//! blocks, is the pair of interruption parameters `(λ, μ)` maintained by
//! the heartbeat collector — the paper stresses this is deliberately tiny
//! state ("a data structure with two double data types").

use adapt_availability::{AvailabilityError, TaskModel};

/// Interruption parameters of one host as known to the NameNode.
///
/// `lambda == 0` denotes a host never observed to fail (e.g. a dedicated
/// server in a MOON-style deployment); the predictor treats its expected
/// task time as exactly the failure-free length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeAvailability {
    /// Interruption arrival rate (`1/MTBI`), `>= 0`.
    pub lambda: f64,
    /// Mean interruption recovery time, `>= 0`.
    pub mu: f64,
}

impl NodeAvailability {
    /// A host with no observed interruptions.
    pub fn reliable() -> Self {
        NodeAvailability {
            lambda: 0.0,
            mu: 0.0,
        }
    }

    /// Creates availability parameters from an MTBI and mean recovery
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::InvalidParameter`] if `mtbi` is not
    /// finite and positive or `mu` is negative or non-finite.
    pub fn from_mtbi(mtbi: f64, mu: f64) -> Result<Self, AvailabilityError> {
        if !(mtbi.is_finite() && mtbi > 0.0) {
            return Err(AvailabilityError::InvalidParameter {
                name: "mtbi",
                value: mtbi,
                requirement: "must be finite and > 0",
            });
        }
        if !(mu.is_finite() && mu >= 0.0) {
            return Err(AvailabilityError::InvalidParameter {
                name: "mu",
                value: mu,
                requirement: "must be finite and >= 0",
            });
        }
        Ok(NodeAvailability {
            lambda: 1.0 / mtbi,
            mu,
        })
    }

    /// Whether the host has ever been observed to fail.
    pub fn is_reliable(&self) -> bool {
        self.lambda == 0.0
    }

    /// The task model for a task of failure-free length `gamma` on this
    /// host, or `None` for a reliable host (whose expected time is just
    /// `gamma`).
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::UnstableQueue`] if `λμ ≥ 1`.
    pub fn task_model(&self, gamma: f64) -> Result<Option<TaskModel>, AvailabilityError> {
        if self.is_reliable() {
            return Ok(None);
        }
        // A reliable host has mu possibly 0; an unreliable one needs mu>0
        // for the M/G/1 model — treat mu == 0 as instant recovery via a
        // tiny epsilon-free special case: the closed form with mu → 0
        // reduces to E[T] = (e^{γλ}-1)/λ, equivalent to TaskModel with a
        // vanishing mu. We use a small positive floor to stay in-domain.
        let mu = if self.mu > 0.0 {
            self.mu
        } else {
            f64::MIN_POSITIVE
        };
        Ok(Some(TaskModel::new(self.lambda, mu, gamma)?))
    }

    /// Expected completion time of a task of length `gamma` on this host
    /// (equation (5)), or `gamma` itself for a reliable host.
    ///
    /// # Errors
    ///
    /// Returns [`AvailabilityError::UnstableQueue`] if `λμ ≥ 1`.
    pub fn expected_completion(&self, gamma: f64) -> Result<f64, AvailabilityError> {
        Ok(match self.task_model(gamma)? {
            None => gamma,
            Some(model) => model.expected_completion(),
        })
    }
}

impl Default for NodeAvailability {
    fn default() -> Self {
        NodeAvailability::reliable()
    }
}

/// Static description of one DataNode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    availability: NodeAvailability,
    capacity_blocks: Option<usize>,
}

impl NodeSpec {
    /// Creates a node with unlimited storage capacity.
    pub fn new(availability: NodeAvailability) -> Self {
        NodeSpec {
            availability,
            capacity_blocks: None,
        }
    }

    /// Limits the node to at most `blocks` stored blocks (the paper's VMs
    /// had ~5 GB ≈ 80 blocks of space).
    pub fn with_capacity(mut self, blocks: usize) -> Self {
        self.capacity_blocks = Some(blocks);
        self
    }

    /// The node's interruption parameters.
    pub fn availability(&self) -> NodeAvailability {
        self.availability
    }

    /// Storage capacity in blocks, if limited.
    pub fn capacity_blocks(&self) -> Option<usize> {
        self.capacity_blocks
    }
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec::new(NodeAvailability::reliable())
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    #[test]
    fn reliable_node_expected_time_is_gamma() {
        let a = NodeAvailability::reliable();
        assert!(a.is_reliable());
        assert_eq!(a.expected_completion(12.0).unwrap(), 12.0);
        assert!(a.task_model(12.0).unwrap().is_none());
    }

    #[test]
    fn from_mtbi_builds_rate() {
        let a = NodeAvailability::from_mtbi(20.0, 4.0).unwrap();
        assert!((a.lambda - 0.05).abs() < 1e-12);
        assert_eq!(a.mu, 4.0);
        assert!(!a.is_reliable());
    }

    #[test]
    fn from_mtbi_rejects_bad_input() {
        assert!(NodeAvailability::from_mtbi(0.0, 1.0).is_err());
        assert!(NodeAvailability::from_mtbi(10.0, -1.0).is_err());
        assert!(NodeAvailability::from_mtbi(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn unreliable_node_uses_equation_5() {
        let a = NodeAvailability::from_mtbi(10.0, 4.0).unwrap();
        let expected = a.expected_completion(12.0).unwrap();
        let direct = adapt_availability::TaskModel::new(0.1, 4.0, 12.0)
            .unwrap()
            .expected_completion();
        assert!((expected - direct).abs() < 1e-12);
    }

    #[test]
    fn unstable_node_is_an_error() {
        let a = NodeAvailability::from_mtbi(4.0, 8.0).unwrap();
        assert!(a.expected_completion(12.0).is_err());
    }

    #[test]
    fn zero_mu_host_still_models() {
        // Interruptions with instant recovery still force rework.
        let a = NodeAvailability {
            lambda: 0.1,
            mu: 0.0,
        };
        let t = a.expected_completion(12.0).unwrap();
        let pure_rework = (12.0f64 * 0.1).exp_m1() / 0.1;
        assert!((t - pure_rework).abs() / pure_rework < 1e-9);
    }

    #[test]
    fn node_spec_capacity_builder() {
        let s = NodeSpec::default().with_capacity(80);
        assert_eq!(s.capacity_blocks(), Some(80));
        assert!(s.availability().is_reliable());
        let s2 = NodeSpec::new(NodeAvailability::from_mtbi(10.0, 4.0).unwrap());
        assert_eq!(s2.capacity_blocks(), None);
    }
}
