//! A deterministic discrete-event queue.
//!
//! Events pop in non-decreasing time order; equal-time events pop in
//! insertion order (a monotone sequence number breaks ties), which makes
//! whole-cluster simulations bit-for-bit reproducible under a fixed seed.
//!
//! Backed by a 4-ary min-heap ([`adapt_ds::MinHeap4`]): over the total
//! `(time, seq)` order the pop sequence is identical to the binary
//! `std::collections::BinaryHeap` it replaced — heap arity is
//! unobservable — but the tree is half as deep and
//! [`with_capacity`](EventQueue::with_capacity) lets a simulation
//! preallocate the queue once instead of growing it mid-run.

use std::cmp::Ordering;

use adapt_ds::MinHeap4;

use crate::SimError;

#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Natural ascending order: the min-heap pops the earliest entry,
        // FIFO among equal times.
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// A min-time event queue with stable FIFO ordering at equal times.
///
/// # Examples
///
/// ```
/// use adapt_sim::event::EventQueue;
///
/// # fn main() -> Result<(), adapt_sim::SimError> {
/// let mut q = EventQueue::new();
/// q.push(2.0, "b")?;
/// q.push(1.0, "a")?;
/// q.push(2.0, "c")?;
/// assert_eq!(q.pop(), Some((1.0, "a")));
/// assert_eq!(q.pop(), Some((2.0, "b"))); // FIFO among ties
/// assert_eq!(q.pop(), Some((2.0, "c")));
/// assert_eq!(q.pop(), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: MinHeap4<Entry<E>>,
    seq: u64,
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: MinHeap4::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with room for `capacity` events before any
    /// reallocation.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: MinHeap4::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    ///
    /// # Errors
    ///
    /// [`SimError::InvariantViolation`] if `time` is NaN. The heap would
    /// still order it (`f64::total_cmp` gives NaN a fixed place), but a
    /// NaN reaching the simulation clock would poison every later
    /// timestamp, so a NaN time signals an engine bug.
    pub fn push(&mut self, time: f64, event: E) -> Result<(), SimError> {
        if time.is_nan() {
            return Err(SimError::InvariantViolation {
                what: "event scheduled at a NaN time",
            });
        }
        self.heap.push(Entry {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        Ok(())
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
    }

    /// The time of the earliest event, without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 3).unwrap();
        q.push(1.0, 1).unwrap();
        q.push(2.0, 2).unwrap();
        assert_eq!(q.peek_time(), Some(1.0));
        assert_eq!(q.len(), 3, "peeking removes nothing");
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((2.0, 2)));
        assert_eq!(q.pop(), Some((3.0, 3)));
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(5.0, i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn len_tracks_push_and_pop() {
        let mut q = EventQueue::new();
        q.push(1.5, "x").unwrap();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn nan_time_is_an_error() {
        let mut q = EventQueue::new();
        assert!(matches!(
            q.push(f64::NAN, 0),
            Err(SimError::InvariantViolation { .. })
        ));
        // The rejected event was not scheduled, and the queue still works.
        assert!(q.is_empty());
        q.push(f64::INFINITY, 1).unwrap();
        assert_eq!(q.pop(), Some((f64::INFINITY, 1)));
    }

    #[test]
    fn zero_and_negative_times_are_ordered() {
        let mut q = EventQueue::new();
        q.push(0.0, "zero").unwrap();
        q.push(-1.0, "neg").unwrap();
        assert_eq!(q.pop(), Some((-1.0, "neg")));
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(100);
        assert!(q.is_empty());
        q.push(1.0, "a").unwrap();
        assert_eq!(q.pop(), Some((1.0, "a")));
    }

    proptest! {
        #[test]
        fn pop_sequence_is_sorted(times in prop::collection::vec(0.0f64..1e6, 0..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i).unwrap();
            }
            let mut prev = f64::NEG_INFINITY;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= prev);
                prev = t;
            }
        }

        /// The 4-ary queue must agree with the `BinaryHeap` reference
        /// model event for event — including FIFO order at duplicated
        /// timestamps (`t` values are drawn from a small grid to force
        /// collisions).
        #[test]
        fn matches_binary_heap_reference(times in prop::collection::vec(0u8..8, 0..200)) {
            use std::collections::BinaryHeap;
            #[derive(PartialEq, Eq, PartialOrd, Ord)]
            struct RefEntry(std::cmp::Reverse<(u8, usize)>);

            let mut q = EventQueue::new();
            let mut model = BinaryHeap::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(f64::from(t), i).unwrap();
                model.push(RefEntry(std::cmp::Reverse((t, i))));
            }
            while let Some(RefEntry(std::cmp::Reverse((t, i)))) = model.pop() {
                prop_assert_eq!(q.pop(), Some((f64::from(t), i)));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
