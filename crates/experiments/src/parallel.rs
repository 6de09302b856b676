//! A small parallel sweep runner on `std::thread::scope`.
//!
//! Experiment sweeps are embarrassingly parallel (one simulation per
//! scenario × seed); this runs a worklist across scoped threads and
//! returns results in input order.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Best-effort text of a caught panic payload (`panic!` with a string
/// literal or a formatted message covers both arms; anything else gets a
/// placeholder rather than losing the panic).
fn panic_text(payload: &(dyn Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// Re-raises a caught closure panic with the item index that produced it.
fn raise_item_panic(i: usize, payload: &(dyn Any + Send)) -> ! {
    panic!(
        "map_parallel: closure panicked on item {i}: {}",
        panic_text(payload)
    );
}

/// Applies `f` to every item on up to `available_parallelism` worker
/// threads, preserving input order in the output.
///
/// # Panics
///
/// If `f` panics for some item, the panic is caught (on the worker, or
/// inline on the sequential fallback path), carried back, and re-raised
/// here with the *originating item index* and the original message —
/// `map_parallel: closure panicked on item {i}: {msg}` — instead of the
/// bare "worker thread panicked" a scoped join would produce. When
/// several items panic concurrently, the lowest-indexed one wins
/// (deterministic across thread schedules).
///
/// # Examples
///
/// ```
/// use adapt_experiments::parallel::map_parallel;
///
/// let squares = map_parallel(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn map_parallel<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(
                |(i, item)| match catch_unwind(AssertUnwindSafe(|| f(item))) {
                    Ok(r) => r,
                    Err(payload) => raise_item_panic(i, payload.as_ref()),
                },
            )
            .collect();
    }

    // Workers claim items in index order from a shared counter, so every
    // index below a claimed one is already claimed: a worker that stops
    // after a panic never leaves a lower index unclaimed.
    let next = AtomicUsize::new(0);
    let (result_tx, result_rx) = mpsc::channel::<(usize, Result<R, Box<dyn Any + Send>>)>();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            let (next, f) = (&next, &f);
            scope.spawn(move || loop {
                // The counter only hands out indices; the results travel
                // through the channel, so no ordering beyond the
                // atomicity of the increment is needed.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                // Catch instead of unwinding across the scope join: the
                // payload travels back tagged with `i`, so the re-raise
                // can say *which item* blew up. Propagating the panic
                // keeps AssertUnwindSafe honest — no broken state is ever
                // observed.
                let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
                let failed = outcome.is_err();
                if result_tx.send((i, outcome)).is_err() || failed {
                    break;
                }
            });
        }
    });
    drop(result_tx);

    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut first_panic: Option<(usize, Box<dyn Any + Send>)> = None;
    for (i, outcome) in result_rx {
        match outcome {
            Ok(r) => results[i] = Some(r),
            Err(payload) => {
                if first_panic.as_ref().is_none_or(|(pi, _)| i < *pi) {
                    first_panic = Some((i, payload));
                }
            }
        }
    }
    if let Some((i, payload)) = first_panic {
        raise_item_panic(i, payload.as_ref());
    }
    results
        .into_iter()
        .enumerate()
        .map(|(i, r)| match r {
            Some(r) => r,
            None => panic!("map_parallel: item {i} produced no result"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let input: Vec<usize> = (0..100).collect();
        let output = map_parallel(&input, |&x| x * 2);
        assert_eq!(output, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_input() {
        let out: Vec<i32> = map_parallel(&[], |x: &i32| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn handles_single_item() {
        assert_eq!(map_parallel(&[7], |&x: &i32| x + 1), vec![8]);
    }

    #[test]
    fn panicking_closure_reports_item_index() {
        let input: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_parallel(&input, |&x| {
                if x == 11 {
                    panic!("boom on {x}");
                }
                x * 2
            })
        }))
        .expect_err("a panicking closure must propagate");
        let msg = panic_text(caught.as_ref());
        assert!(
            msg.contains("item 11") && msg.contains("boom on 11"),
            "panic message must name the originating item and carry the \
             original payload, got: {msg}"
        );
    }

    #[test]
    fn lowest_panicking_index_wins() {
        let input: Vec<usize> = (0..64).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            map_parallel(&input, |&x| {
                if x % 2 == 1 {
                    panic!("odd item");
                }
                x
            })
        }))
        .expect_err("a panicking closure must propagate");
        let msg = panic_text(caught.as_ref());
        // Whatever the thread schedule, item 1 panics before any worker
        // can drain the queue past it, and ties resolve to the lowest
        // index deterministically.
        assert!(msg.contains("item 1:"), "expected item 1, got: {msg}");
    }

    #[test]
    fn results_match_sequential_for_stateful_work() {
        let input: Vec<u64> = (0..32).collect();
        let f = |&x: &u64| {
            // Some nontrivial deterministic work.
            (0..x).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        assert_eq!(
            map_parallel(&input, f),
            input.iter().map(f).collect::<Vec<_>>()
        );
    }
}
