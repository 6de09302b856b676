//! The reference engines' event queue: an unsorted `Vec` scanned
//! linearly for the entry minimal under `(time, seq)` — the same total
//! order the engines' 4-ary heap pops in, arrived at the slow, obvious
//! way. The map, reduce and job-stream references share it.

use std::cmp::Ordering;

use adapt_sim::SimError;

/// Naive `(time, insertion seq)`-ordered event queue.
#[derive(Debug)]
pub(crate) struct NaiveQueue<E> {
    entries: Vec<(f64, u64, E)>,
    next_seq: u64,
}

impl<E> Default for NaiveQueue<E> {
    fn default() -> Self {
        NaiveQueue {
            entries: Vec::new(),
            next_seq: 0,
        }
    }
}

impl<E> NaiveQueue<E> {
    /// Schedules `event` at `time`.
    ///
    /// # Errors
    ///
    /// The engine queue's error for a NaN time, so the lockstep oracle
    /// compares error behaviour too.
    pub(crate) fn push(&mut self, time: f64, event: E) -> Result<(), SimError> {
        if time.is_nan() {
            return Err(SimError::InvariantViolation {
                what: "event scheduled at a NaN time",
            });
        }
        self.entries.push((time, self.next_seq, event));
        self.next_seq += 1;
        Ok(())
    }

    /// Removes and returns the earliest event, FIFO among equal times.
    pub(crate) fn pop(&mut self) -> Option<(f64, E)> {
        let mut best: Option<usize> = None;
        for (i, &(time, seq, _)) in self.entries.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let (bt, bs) = (self.entries[b].0, self.entries[b].1);
                    time.total_cmp(&bt).then_with(|| seq.cmp(&bs)) == Ordering::Less
                }
            };
            if better {
                best = Some(i);
            }
        }
        best.map(|i| {
            let (time, _, event) = self.entries.remove(i);
            (time, event)
        })
    }

    /// Number of scheduled events.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapt_sim::event::EventQueue;

    #[test]
    fn nan_time_is_the_engine_queue_error() {
        let mut naive = NaiveQueue::default();
        let nan = naive.push(f64::NAN, 0);
        assert!(matches!(nan, Err(SimError::InvariantViolation { .. })));
        assert_eq!(nan, EventQueue::new().push(f64::NAN, 0));
        assert_eq!(naive.len(), 0);
    }
}
