//! Deterministic index-keyed data structures for the simulation engine's
//! hot path.
//!
//! The map-phase simulator keeps its scheduling state in sets of small
//! dense integer ids (task indices, node ids). `std::collections::BTreeSet`
//! gives those sets the *semantics* the engine's determinism contract
//! needs — ascending iteration, `first()` = minimum — but pays pointer
//! chasing and per-node allocation on every operation. The types here
//! provide the same observable semantics over flat, preallocated storage:
//!
//! * [`IdSet`] — a two-level bitset over `0..capacity` with O(1)
//!   insert/remove/contains and ascending iteration (summary-word
//!   skipping makes sparse scans cheap);
//! * [`SortedVecSet`] — a sorted vector for small sets (a node's local
//!   pending tasks) with binary-search insert/remove and index access,
//!   so callers can iterate without cloning the set;
//! * [`ThresholdIndex`] — ids carrying two keys, with O(log n) "lowest
//!   id at or after `start` whose keys clear a pair of thresholds"
//!   queries over a max-tree of 64-id words (the engine's speculation
//!   candidates);
//! * [`MinHeap4`] — a 4-ary min-heap: same pop order as
//!   `std::collections::BinaryHeap` with reversed ordering (a total
//!   order makes arity unobservable), but a shallower tree, flatter
//!   sift loops, and `with_capacity` preallocation.
//!
//! Every structure iterates in ascending key order, so swapping one in
//! for a `BTreeSet` changes no scheduling decision — the property tests
//! in `tests/` assert behavioural equality against the `std` reference
//! models, including FIFO tie-breaking for the heap.

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_debug_implementations)]

mod heap;
mod idset;
mod sorted;
mod threshold;

pub use heap::MinHeap4;
pub use idset::{IdSet, IdSetIter};
pub use sorted::SortedVecSet;
pub use threshold::ThresholdIndex;
