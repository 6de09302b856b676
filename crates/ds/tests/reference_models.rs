//! Property tests: every `adapt-ds` structure must be observationally
//! equivalent to the `std` collection or linear scan it replaces on the
//! engine hot path — same membership answers, same ascending order, same
//! pop sequence, same first match.
//! These are the proofs behind the bit-identical-output optimisation
//! rule (see `DESIGN.md` §12): swapping the structures in changes no
//! scheduling decision.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use adapt_ds::{IdSet, MinHeap4, SortedVecSet, ThresholdIndex};
use proptest::prelude::*;

/// Keys and thresholds the `ThresholdIndex` tests draw from: a few small
/// values, so ties (`a == x`, `b == y`) are common, plus ±∞ and NaN.
const KEYS: [f64; 8] = [
    -1.0,
    0.0,
    1.0,
    2.0,
    3.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
];

/// Universes around the 64-id word boundary, and one past 64 words.
const UNIVERSES: [usize; 5] = [1, 63, 64, 65, 4_097];

/// One scripted index step: `(op, id, a, b, start, x, y)`, where op 0–1
/// makes `id` live with keys `(a, b)`, op 2 clears it and op 3 re-keys it
/// without changing liveness; then a query from `start` with thresholds
/// `(x, y)`. Keys and thresholds index [`KEYS`]; ids and starts are
/// reduced modulo the universe.
type IndexStep = (u8, usize, u8, u8, usize, u8, u8);

fn index_steps() -> impl Strategy<Value = Vec<IndexStep>> {
    let key = 0u8..KEYS.len() as u8;
    prop::collection::vec(
        (
            0u8..4,
            0usize..1 << 16,
            key.clone(),
            key.clone(),
            0usize..1 << 16,
            key.clone(),
            key,
        ),
        0..200,
    )
}

/// The index's match rule, written out: `a > x || b >= y`, where any NaN
/// counts as a match.
fn clears((a, b): (f64, f64), x: f64, y: f64) -> bool {
    a.is_nan() || b.is_nan() || x.is_nan() || y.is_nan() || a > x || b >= y
}

/// For every start in `0..=len`, the first live id at or after it that
/// matches `rule` — a linear scan, run backwards once.
fn linear_answers(live: &[bool], matches: impl Fn(usize) -> bool) -> Vec<Option<usize>> {
    let mut answers = vec![None; live.len() + 1];
    for id in (0..live.len()).rev() {
        answers[id] = if live[id] && matches(id) {
            Some(id)
        } else {
            answers[id + 1]
        };
    }
    answers
}

/// One scripted mutation against a set: `(op, id)` where an even op
/// inserts and an odd op removes.
fn set_ops(universe: usize) -> impl Strategy<Value = Vec<(u8, usize)>> {
    prop::collection::vec((0u8..2, 0..universe), 0..300)
}

proptest! {
    /// `IdSet` vs `BTreeSet<usize>`: identical return values, length,
    /// minimum, and ascending iteration after every operation.
    #[test]
    fn idset_matches_btreeset(ops in set_ops(4_096)) {
        let mut ids = IdSet::new(4_096);
        let mut model = BTreeSet::new();
        for (op, x) in ops {
            if op == 0 {
                prop_assert_eq!(ids.insert(x), model.insert(x));
            } else {
                prop_assert_eq!(ids.remove(x), model.remove(&x));
            }
            prop_assert_eq!(ids.len(), model.len());
            prop_assert_eq!(ids.is_empty(), model.is_empty());
            prop_assert_eq!(ids.first(), model.first().copied());
        }
        let got: Vec<usize> = ids.iter().collect();
        let want: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(got, want);
        // Spot-check membership across the whole universe.
        for x in (0..4_096).step_by(7) {
            prop_assert_eq!(ids.contains(x), model.contains(&x));
        }
    }

    /// A bounded ascending scan (the engine's steal scan is
    /// `iter().take(MAX_STEAL_SCAN)`) sees the same prefix a `BTreeSet`
    /// scan would, even over a sparse 10 000-id universe.
    #[test]
    fn idset_prefix_scan_matches(xs in prop::collection::vec(0usize..10_000, 0..200)) {
        let model: BTreeSet<usize> = xs.iter().copied().collect();
        let mut ids = IdSet::new(10_000);
        for &x in &xs {
            ids.insert(x);
        }
        let got: Vec<usize> = ids.iter().take(32).collect();
        let want: Vec<usize> = model.iter().copied().take(32).collect();
        prop_assert_eq!(got, want);
    }

    /// `SortedVecSet` vs `BTreeSet<usize>`: same answers, same order.
    #[test]
    fn sorted_vec_set_matches_btreeset(ops in set_ops(64)) {
        let mut s = SortedVecSet::new();
        let mut model = BTreeSet::new();
        for (op, x) in ops {
            if op == 0 {
                prop_assert_eq!(s.insert(x), model.insert(x));
            } else {
                prop_assert_eq!(s.remove(x), model.remove(&x));
            }
            prop_assert_eq!(s.first(), model.first().copied());
            prop_assert_eq!(s.len(), model.len());
            prop_assert_eq!(s.contains(x), model.contains(&x));
        }
        let got: Vec<usize> = s.iter().collect();
        let want: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(got.as_slice(), s.as_slice());
        prop_assert_eq!(got, want);
        // Index access agrees with iteration order.
        for (i, want) in model.iter().copied().enumerate() {
            prop_assert_eq!(s.get(i), Some(want));
        }
        prop_assert_eq!(s.get(model.len()), None);
    }

    /// `MinHeap4` vs `BinaryHeap<Reverse<T>>`: interleaved push/pop
    /// sequences produce identical outputs over a total order.
    #[test]
    fn minheap4_matches_binaryheap(script in prop::collection::vec(
        prop::option::weighted(0.7, 0u64..1_000),
        0..300,
    )) {
        let mut h = MinHeap4::with_capacity(8);
        let mut model: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        for step in script {
            match step {
                Some(x) => {
                    h.push(x);
                    model.push(Reverse(x));
                }
                None => {
                    prop_assert_eq!(h.pop(), model.pop().map(|r| r.0));
                }
            }
            prop_assert_eq!(h.len(), model.len());
            prop_assert_eq!(h.peek(), model.peek().map(|r| &r.0));
        }
        // Drain: the remaining pop sequence is fully sorted.
        let mut out = Vec::new();
        while let Some(x) = h.pop() {
            out.push(x);
        }
        let mut want = Vec::new();
        while let Some(Reverse(x)) = model.pop() {
            want.push(x);
        }
        prop_assert_eq!(out, want);
    }

    /// `ThresholdIndex` vs a linear scan over a key table: after every
    /// set, clear or re-key, the same length, membership and first match
    /// from a random start; at the end, the same first match from every
    /// start offset. A NaN key never hides a match: the answer is never
    /// past the first id with `a > x || b >= y` taken literally.
    #[test]
    fn threshold_index_matches_linear_scan(
        universe in 0usize..UNIVERSES.len(),
        steps in index_steps(),
        sweeps in prop::collection::vec((0u8..KEYS.len() as u8, 0u8..KEYS.len() as u8), 1..4),
    ) {
        let cap = UNIVERSES[universe];
        let mut index = ThresholdIndex::new(cap);
        let mut keys = vec![(0.0, 0.0); cap];
        let mut live = vec![false; cap];
        for (op, id, a, b, start, x, y) in steps {
            let id = id % cap;
            match op {
                0 | 1 => {
                    keys[id] = (KEYS[a as usize], KEYS[b as usize]);
                    live[id] = true;
                }
                2 => live[id] = false,
                _ => keys[id] = (KEYS[a as usize], KEYS[b as usize]),
            }
            index.update(id, live[id], |i| keys[i]);
            prop_assert_eq!(index.len(), live.iter().filter(|&&l| l).count());
            prop_assert_eq!(index.contains(id), live[id]);
            let start = start % (cap + 1);
            let (x, y) = (KEYS[x as usize], KEYS[y as usize]);
            let want = (start..cap).find(|&i| live[i] && clears(keys[i], x, y));
            prop_assert_eq!(index.first(start, x, y, |i| keys[i]), want);
        }
        for (x, y) in sweeps {
            let (x, y) = (KEYS[x as usize], KEYS[y as usize]);
            let want = linear_answers(&live, |i| clears(keys[i], x, y));
            let literal = linear_answers(&live, |i| keys[i].0 > x || keys[i].1 >= y);
            for start in 0..=cap {
                let got = index.first(start, x, y, |i| keys[i]);
                prop_assert_eq!(got, want[start], "start {} of {}, x {}, y {}", start, cap, x, y);
                if let Some(must) = literal[start] {
                    prop_assert!(got.is_some_and(|g| g <= must), "skipped {}", must);
                }
            }
        }
    }

    /// FIFO tie-breaking: with `(key, seq)` elements — the event queue's
    /// shape — equal keys pop in insertion order.
    #[test]
    fn minheap4_ties_pop_in_insertion_order(keys in prop::collection::vec(0u8..4, 1..120)) {
        let mut h = MinHeap4::new();
        for (seq, &k) in keys.iter().enumerate() {
            h.push((k, seq as u64));
        }
        let mut prev: Option<(u8, u64)> = None;
        while let Some((k, seq)) = h.pop() {
            if let Some((pk, pseq)) = prev {
                prop_assert!(pk < k || (pk == k && pseq < seq),
                    "({pk},{pseq}) then ({k},{seq}) violates FIFO-at-equal-keys");
            }
            prev = Some((k, seq));
        }
    }
}
