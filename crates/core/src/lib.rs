//! The ADAPT availability-aware data placement algorithm.
//!
//! This crate is the paper's primary contribution (Sections III-C and IV):
//! given per-node interruption parameters `(λᵢ, μᵢ)` and the failure-free
//! task length `γ`, dispatch data blocks so that every node is expected to
//! finish processing its local blocks at the same time. Nodes are weighted
//! by their task-processing *rate* `1/E[Tᵢ]` (equation (5)), a weighted
//! hash table maps block keys to nodes (Algorithm 1, `buildHashTable`),
//! and each block placement draws from the table (`dataPlacement`).
//!
//! * [`predictor`] — the Performance Predictor: per-node expected task
//!   times and normalized placement rates from a cluster view.
//! * [`hash_table`] — Algorithm 1's weighted hash table with collision
//!   chains, plus an exact-overlap chain weighting as an ablation.
//! * [`policy`] — [`AdaptPolicy`], the `PlacementPolicy` implementation
//!   that plugs into the `adapt-dfs` NameNode.
//! * [`naive`] — the naive availability-proportional baseline of Section
//!   V-C (`(MTBI − μ)/MTBI` weights).
//! * [`spread`] — an exactly balanced, availability-blind round-robin
//!   baseline used by the ablation suite.
//! * [`weighted`] — the shared weighted-selection primitive.
//!
//! # The equivalence property
//!
//! Section III-C notes that ADAPT "is logically equivalent to the existing
//! data placement algorithm if all the nodes share the same availability
//! pattern": with homogeneous weights the hash table degenerates to a
//! uniform map. The test suite verifies this degeneration statistically.
//!
//! # Example
//!
//! ```
//! use adapt_core::AdaptPolicy;
//! use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
//! use adapt_dfs::namenode::{NameNode, Threshold};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two reliable nodes, two flaky ones.
//! let mut specs = vec![NodeSpec::new(NodeAvailability::reliable()); 2];
//! specs.push(NodeSpec::new(NodeAvailability::from_mtbi(10.0, 4.0)?));
//! specs.push(NodeSpec::new(NodeAvailability::from_mtbi(10.0, 8.0)?));
//! let mut namenode = NameNode::new(specs);
//!
//! let mut policy = AdaptPolicy::new(12.0)?; // 12 s failure-free map task
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let file = namenode.create_file(
//!     "input", 200, 1, &mut policy, Threshold::PaperDefault, &mut rng,
//! )?;
//! let dist = namenode.file_distribution(file)?;
//! // Reliable nodes receive more blocks than flaky ones.
//! assert!(dist[0] > dist[3]);
//! # Ok(())
//! # }
//! ```

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![cfg_attr(not(test), deny(clippy::as_conversions))]
#![warn(missing_debug_implementations)]

pub mod hash_table;
pub mod naive;
pub mod policy;
pub mod predictor;
pub mod spread;
pub mod telemetry;
pub mod weighted;

pub use adapt_availability::num;
pub use hash_table::{ChainWeighting, PlacementHashTable};
pub use naive::NaivePolicy;
pub use policy::AdaptPolicy;
pub use predictor::{NodeRates, PerformancePredictor};
pub use spread::SpreadPolicy;
pub use telemetry::PolicyTelemetrySnapshot;
