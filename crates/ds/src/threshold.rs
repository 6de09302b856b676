//! [`ThresholdIndex`]: first-match queries over ids that carry two keys.

/// The NaN-propagating maxima of both keys over a group of live ids;
/// `EMPTY` for a group with none.
#[derive(Debug, Clone, Copy)]
struct Max2 {
    a: f64,
    b: f64,
}

const EMPTY: Max2 = Max2 {
    a: f64::NEG_INFINITY,
    b: f64::NEG_INFINITY,
};

/// `max` that returns NaN when either side is NaN, so a NaN key keeps
/// every summary above it "possibly matching".
fn max_nan(p: f64, q: f64) -> f64 {
    if p.is_nan() || q.is_nan() {
        f64::NAN
    } else {
        p.max(q)
    }
}

impl Max2 {
    fn join(self, other: Max2) -> Max2 {
        Max2 {
            a: max_nan(self.a, other.a),
            b: max_nan(self.b, other.b),
        }
    }

    fn same_bits(self, other: Max2) -> bool {
        self.a.to_bits() == other.a.to_bits() && self.b.to_bits() == other.b.to_bits()
    }
}

/// Whether keys `(a, b)` clear thresholds `(x, y)`: `a > x` or `b >= y`,
/// written so that a NaN on either side counts as clearing.
fn clears(a: f64, b: f64, x: f64, y: f64) -> bool {
    !(a <= x && b < y)
}

/// A set of ids over a fixed universe `0..capacity` in which every live
/// id carries a key pair `(a, b)`, answering "the lowest live id at or
/// after `start` whose keys clear `(x, y)`" — `a > x` or `b >= y` — in
/// O(log n) instead of a scan.
///
/// The keys are not stored: the caller computes them in a callback, and
/// must call [`update`](ThresholdIndex::update) for an id whenever its
/// liveness or its keys change. Per id the index keeps one live bit; per
/// 64-id word it keeps the maxima of both keys over the word's live ids,
/// in a binary max-tree whose root covers the universe. A query descends
/// to the leftmost word whose maxima clear the thresholds and checks that
/// word's live ids one by one.
///
/// A NaN key or threshold is never proof that an id fails, so a query
/// treats it as clearing: an id is skipped only when `a <= x` and
/// `b < y` both hold. Over NaN-free values that is exactly `a > x || b >=
/// y`.
#[derive(Debug, Clone, Default)]
pub struct ThresholdIndex {
    /// One bit per id.
    live: Vec<u64>,
    /// Heap-shaped max-tree: node `i` joins `2i` and `2i + 1`; the leaf
    /// of word `w` is node `leaves + w`.
    tree: Vec<Max2>,
    /// Leaf count: the word count rounded up to a power of two.
    leaves: usize,
    len: usize,
    capacity: usize,
}

impl ThresholdIndex {
    /// An index over `0..capacity` with no live id.
    pub fn new(capacity: usize) -> ThresholdIndex {
        let words = capacity.div_ceil(64);
        let leaves = words.next_power_of_two();
        ThresholdIndex {
            live: vec![0; words],
            tree: vec![EMPTY; 2 * leaves],
            leaves,
            len: 0,
            capacity,
        }
    }

    /// Number of live ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no id is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is live.
    pub fn contains(&self, id: usize) -> bool {
        id < self.capacity && self.live[id / 64] & (1u64 << (id % 64)) != 0
    }

    /// Marks `id` live or not, then recomputes the maxima of its word
    /// from `keys` of the word's live ids. Call it whenever the keys of
    /// a live id change, too. Ids at or beyond the capacity are ignored.
    pub fn update(&mut self, id: usize, live: bool, mut keys: impl FnMut(usize) -> (f64, f64)) {
        if id >= self.capacity {
            return;
        }
        let (w, bit) = (id / 64, 1u64 << (id % 64));
        let was = self.live[w] & bit != 0;
        if !was && !live {
            // A dead id is in no maximum.
            return;
        }
        if live {
            self.live[w] |= bit;
        } else {
            self.live[w] &= !bit;
        }
        self.len = self.len + usize::from(live) - usize::from(was);
        let mut leaf = EMPTY;
        let mut bits = self.live[w];
        while bits != 0 {
            let (a, b) = keys(w * 64 + bits.trailing_zeros() as usize);
            leaf = leaf.join(Max2 { a, b });
            bits &= bits - 1;
        }
        let mut i = self.leaves + w;
        self.tree[i] = leaf;
        while i > 1 {
            i /= 2;
            let joined = self.tree[2 * i].join(self.tree[2 * i + 1]);
            if joined.same_bits(self.tree[i]) {
                break;
            }
            self.tree[i] = joined;
        }
    }

    /// The lowest live id `>= start` whose keys clear `(x, y)` (`a > x`
    /// or `b >= y`; see the type's NaN rule), or `None`. `keys` must
    /// return what it returned at each id's last
    /// [`update`](ThresholdIndex::update).
    pub fn first(
        &self,
        start: usize,
        x: f64,
        y: f64,
        mut keys: impl FnMut(usize) -> (f64, f64),
    ) -> Option<usize> {
        let start_word = start / 64;
        let mut w = start_word;
        while let Some(found) = self.first_word(w, x, y) {
            let mut bits = self.live[found];
            if found == start_word {
                bits &= u64::MAX << (start % 64);
            }
            while bits != 0 {
                let id = found * 64 + bits.trailing_zeros() as usize;
                let (a, b) = keys(id);
                if clears(a, b, x, y) {
                    return Some(id);
                }
                bits &= bits - 1;
            }
            // A word comes up empty only when its clearing ids all sit
            // before `start`, or when thresholds that every pair clears
            // (a NaN, or y = −∞) pass even empty words.
            w = found + 1;
        }
        None
    }

    /// The lowest word `>= w` whose maxima clear `(x, y)`.
    fn first_word(&self, w: usize, x: f64, y: f64) -> Option<usize> {
        if w >= self.live.len() {
            return None;
        }
        let pass = |i: usize| clears(self.tree[i].a, self.tree[i].b, x, y);
        let mut i = self.leaves + w;
        // Climb: past each failing subtree, on to the next one to its
        // right.
        while !pass(i) {
            while i % 2 == 1 {
                i /= 2;
            }
            if i == 0 {
                return None;
            }
            i += 1;
        }
        // Descend to the leftmost clearing leaf; a clearing node always
        // has a clearing child, since its maxima are its children's.
        while i < self.leaves {
            i *= 2;
            if !pass(i) {
                i += 1;
            }
        }
        // Padding leaves past the last word hold no ids.
        let w = i - self.leaves;
        (w < self.live.len()).then_some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_the_lowest_clearing_id_across_words() {
        let mut keys = vec![(0.0, 0.0); 300];
        keys[5] = (10.0, 0.0);
        keys[70] = (0.0, 3.0);
        keys[299] = (f64::INFINITY, 0.0);
        let mut index = ThresholdIndex::new(300);
        for id in [5, 70, 100, 299] {
            index.update(id, true, |i| keys[i]);
        }
        assert_eq!(index.len(), 4);
        let key = |i: usize| keys[i];
        assert_eq!(index.first(0, 5.0, 2.0, key), Some(5));
        assert_eq!(index.first(6, 5.0, 2.0, key), Some(70));
        assert_eq!(index.first(71, 5.0, 2.0, key), Some(299));
        assert_eq!(index.first(0, 5.0, 4.0, key), Some(5));
        assert_eq!(index.first(6, 20.0, 4.0, key), Some(299));
        assert_eq!(index.first(0, f64::INFINITY, 4.0, key), None);
        assert_eq!(index.first(300, 0.0, 0.0, key), None);
        index.update(5, false, key);
        assert!(!index.contains(5));
        assert_eq!(index.first(0, 5.0, 2.0, key), Some(70));
    }

    #[test]
    fn nan_keys_and_degenerate_thresholds_clear() {
        let keys = [(f64::NAN, 0.0), (0.0, 0.0), (0.0, f64::NAN)];
        let key = |i: usize| keys[i];
        let mut index = ThresholdIndex::new(3);
        index.update(1, true, key);
        index.update(2, true, key);
        assert_eq!(index.first(0, 1.0, 1.0, key), Some(2));
        index.update(0, true, key);
        assert_eq!(index.first(0, 1.0, 1.0, key), Some(0));
        assert_eq!(index.first(1, f64::NAN, 1.0, key), Some(1));
        assert_eq!(index.first(1, 1.0, f64::NEG_INFINITY, key), Some(1));
    }

    #[test]
    fn empty_universe() {
        let mut index = ThresholdIndex::new(0);
        index.update(0, true, |_| (0.0, 0.0));
        assert!(index.is_empty());
        assert_eq!(index.first(0, f64::NAN, 0.0, |_| (0.0, 0.0)), None);
        assert_eq!(index.first(0, 0.0, 0.0, |_| (0.0, 0.0)), None);
    }
}
