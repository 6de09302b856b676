//! The placement-policy lineup every experiment compares.

use adapt_core::{AdaptPolicy, NaivePolicy};
use adapt_dfs::placement::{PlacementPolicy, RandomPolicy};

/// Which placement policy a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Stock HDFS uniform-random placement ("existing" in the paper).
    Random,
    /// Availability-proportional weights, `(MTBI − μ)/MTBI` (Section V-C).
    Naive,
    /// ADAPT: weights `1/E[T]` from equation (5) via Algorithm 1.
    Adapt,
}

impl PolicyKind {
    /// Every policy, in the order the paper introduces them.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Random, PolicyKind::Naive, PolicyKind::Adapt];

    /// The label used in experiment reports (matches the paper's series
    /// names).
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Random => "existing",
            PolicyKind::Naive => "naive",
            PolicyKind::Adapt => "ADAPT",
        }
    }

    /// Instantiates the policy. `gamma` is the failure-free per-block
    /// task time ADAPT's predictor needs; the other policies ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is not finite and positive (validated by every
    /// experiment config before use).
    #[expect(clippy::expect_used, reason = "experiment configs validate gamma")]
    pub fn build(&self, gamma: f64) -> Box<dyn PlacementPolicy> {
        match self {
            PolicyKind::Random => Box::new(RandomPolicy::new()),
            PolicyKind::Naive => Box::new(NaivePolicy::new()),
            PolicyKind::Adapt => {
                Box::new(AdaptPolicy::new(gamma).expect("experiment configs validate gamma"))
            }
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(PolicyKind::Random.label(), "existing");
        assert_eq!(PolicyKind::Naive.label(), "naive");
        assert_eq!(PolicyKind::Adapt.label(), "ADAPT");
        assert_eq!(PolicyKind::Adapt.to_string(), "ADAPT");
    }

    #[test]
    fn build_constructs_each_policy() {
        for kind in PolicyKind::ALL {
            let policy = kind.build(12.0);
            assert!(!policy.name().is_empty());
        }
    }
}
