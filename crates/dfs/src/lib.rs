//! HDFS-model distributed filesystem substrate.
//!
//! ADAPT is implemented inside HDFS's NameNode (paper Section IV): the
//! NameNode holds all file→block→replica metadata in memory and decides,
//! for every new block, which DataNodes receive its replicas. This crate
//! reproduces that substrate faithfully enough for the paper's evaluation:
//!
//! * [`block`] — identifier newtypes ([`BlockId`], [`FileId`], [`NodeId`])
//!   and [`BlockSize`].
//! * [`cluster`] — per-node specifications: storage capacity and the
//!   interruption parameters `(λ, μ)` the heartbeat collector estimates.
//! * [`namenode`] — the metadata manager: file creation drives the
//!   pluggable placement policy, enforcing replica distinctness, capacity,
//!   liveness, and the paper's per-node threshold `m(k+1)/n`.
//! * [`placement`] — the [`PlacementPolicy`] trait (object-safe), the
//!   [`Eligible`] set of nodes a session lets it choose from, and the
//!   stock HDFS behaviour, [`RandomPolicy`]: replicas land on nodes chosen
//!   uniformly at random ("data blocks are dispatched randomly onto the
//!   participating nodes for balanced data distribution").
//! * [`rebalance`] — the analogue of the paper's new `adapt` shell
//!   command: re-places an existing file's blocks under a (different)
//!   policy and reports how many replicas had to move.
//! * [`replication`] — HDFS's replication monitor: under-replication
//!   detection after node deaths, re-replication through any policy, and
//!   over-replication trimming when offline hosts return with their
//!   persistent copies.
//!
//! The ADAPT policy itself lives in the `adapt-core` crate; this crate
//! only knows the *interface* a policy implements, mirroring how the
//! paper's prototype makes ADAPT "an add-on feature of Hadoop \[that\] can
//! be enabled/disabled flexibly".
//!
//! # Example
//!
//! ```
//! use adapt_dfs::cluster::{NodeAvailability, NodeSpec};
//! use adapt_dfs::namenode::{NameNode, Threshold};
//! use adapt_dfs::placement::RandomPolicy;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), adapt_dfs::DfsError> {
//! let specs = vec![NodeSpec::new(NodeAvailability::reliable()); 8];
//! let mut namenode = NameNode::new(specs);
//! let mut policy = RandomPolicy::new();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let file = namenode.create_file(
//!     "input",
//!     64,
//!     2,
//!     &mut policy,
//!     Threshold::PaperDefault,
//!     &mut rng,
//! )?;
//! assert_eq!(namenode.file(file).unwrap().blocks().len(), 64);
//! namenode.validate()?;
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
#![warn(missing_debug_implementations)]

pub mod block;
pub mod cluster;
pub mod namenode;
pub mod placement;
pub mod rebalance;
pub mod replication;
pub mod telemetry;

mod error;

pub use block::{BlockId, BlockSize, FileId, NodeId};
pub use cluster::{NodeAvailability, NodeSpec};
pub use error::DfsError;
pub use namenode::{NameNode, Threshold};
pub use placement::{ClusterView, Eligible, PlacementPolicy, RandomPolicy};
pub use telemetry::NameNodeTelemetrySnapshot;
