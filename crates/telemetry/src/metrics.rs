//! Lock-free metric instruments and their mergeable snapshots.
//!
//! Everything here is designed for hot paths inside the simulator and the
//! NameNode: recording is one or two relaxed atomic RMWs on preallocated
//! storage — no locks, no allocation, no branching beyond a `leading_zeros`.
//! Relaxed ordering is sufficient because instruments are only read after
//! the instrumented phase has completed (joins/scope exits provide the
//! happens-before edge), and every operation is a commutative add/max, so
//! totals are independent of thread interleaving.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::json::Value;

/// Monotonic event counter.
///
/// `Clone` copies the current value into a fresh counter (instruments are
/// embedded in components like the NameNode that are themselves `Clone`).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

/// High-water mark: retains the maximum value ever recorded.
#[derive(Debug, Default)]
pub struct HighWater(AtomicU64);

impl HighWater {
    /// A zeroed mark.
    pub const fn new() -> Self {
        HighWater(AtomicU64::new(0))
    }

    /// Raises the mark to `v` if `v` exceeds it.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.fetch_max(v, Relaxed);
    }

    /// Current mark.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

impl Clone for HighWater {
    fn clone(&self) -> Self {
        HighWater(AtomicU64::new(self.get()))
    }
}

/// Accumulator for simulated-time durations, stored as integer
/// microseconds.
///
/// Floating-point accumulation is not associative, so summing `f64`
/// seconds across threads (or in different orders) can produce
/// different low bits — fatal for byte-stable reports. Rounding each
/// contribution to integer microseconds once, then summing exactly in
/// `u64`, makes the total commutative and identical on every run.
#[derive(Debug, Default)]
pub struct SecondsAccum(AtomicU64);

impl SecondsAccum {
    /// A zeroed accumulator.
    pub const fn new() -> Self {
        SecondsAccum(AtomicU64::new(0))
    }

    /// Adds a duration in (simulated) seconds. Negative, NaN, and
    /// non-finite durations contribute nothing.
    #[inline]
    pub fn add_secs(&self, secs: f64) {
        if secs.is_finite() && secs > 0.0 {
            self.0.fetch_add((secs * 1e6).round() as u64, Relaxed);
        }
    }

    /// Total in microseconds.
    #[inline]
    pub fn micros(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Total in seconds (derived from the exact microsecond total).
    #[inline]
    pub fn secs(&self) -> f64 {
        self.micros() as f64 / 1e6
    }
}

impl Clone for SecondsAccum {
    fn clone(&self) -> Self {
        SecondsAccum(AtomicU64::new(self.micros()))
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds zeros, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, so bucket 64 holds
/// `[2^63, u64::MAX]` and every `u64` has a bucket.
pub const NUM_BUCKETS: usize = 65;

/// Maps a value to its log2 bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i` (0 for buckets 0 and 1).
pub fn bucket_lower_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        _ => 1u64 << (i - 1),
    }
}

/// Fixed-size log2 histogram over `u64` values (durations in
/// microseconds, byte sizes, chain lengths, ...).
///
/// All 65 buckets are preallocated inline; `record` is two relaxed
/// atomic adds and a `leading_zeros`, safe to call from any thread on
/// the hottest simulator paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    /// Records a duration in simulated seconds as integer microseconds
    /// (the same quantization as [`SecondsAccum`]).
    #[inline]
    pub fn record_secs(&self, secs: f64) {
        if secs.is_finite() && secs >= 0.0 {
            self.record((secs * 1e6).round() as u64);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Copies the current contents into a plain-integer snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            buckets,
        }
    }
}

impl Clone for Histogram {
    fn clone(&self) -> Self {
        let snap = self.snapshot();
        let h = Histogram::new();
        for (dst, v) in h.buckets.iter().zip(snap.buckets.iter()) {
            dst.store(*v, Relaxed);
        }
        h.count.store(snap.count, Relaxed);
        h.sum.store(snap.sum, Relaxed);
        h
    }
}

/// Plain-integer copy of a [`Histogram`], mergeable and serializable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow is acceptable:
    /// the histogram is diagnostic, and inputs are bounded in practice).
    pub sum: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; NUM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: [0; NUM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Adds `other`'s observations into `self`. Merging is commutative
    /// and associative, so aggregation order cannot affect totals.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }

    /// Serializes to a JSON value: `count`, `sum`, and the non-empty
    /// buckets as an ascending array of `[bucket_index, count]` pairs
    /// (sparse, so reports stay readable; ordering is fixed by index).
    pub fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Value::Array(vec![Value::U64(i as u64), Value::U64(c)]))
            .collect();
        let mut obj = Value::object();
        obj.insert("buckets", Value::Array(buckets));
        obj.insert("count", Value::U64(self.count));
        obj.insert("sum", Value::U64(self.sum));
        obj
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        assert_eq!(c.clone().get(), 42);
    }

    #[test]
    fn high_water_keeps_max() {
        let h = HighWater::new();
        h.record(3);
        h.record(9);
        h.record(5);
        assert_eq!(h.get(), 9);
    }

    #[test]
    fn seconds_accum_is_exact_in_micros() {
        let s = SecondsAccum::new();
        for _ in 0..10 {
            s.add_secs(0.1);
        }
        assert_eq!(s.micros(), 1_000_000);
        assert_eq!(s.secs(), 1.0);
        s.add_secs(f64::NAN);
        s.add_secs(-5.0);
        s.add_secs(f64::INFINITY);
        assert_eq!(s.micros(), 1_000_000);
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_lower_bounds_map_to_their_bucket() {
        for i in 1..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_lower_bound(i)), i, "bucket {i}");
            // One below the lower bound falls in the previous bucket.
            assert_eq!(
                bucket_index(bucket_lower_bound(i) - 1),
                i - 1,
                "bucket {i} - 1"
            );
        }
    }

    #[test]
    fn histogram_records_extremes() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[64], 1);
        assert_eq!(snap.sum, u64::MAX);
        assert_eq!(snap.max_bucket(), Some(64));
    }

    #[test]
    fn histogram_merge_commutes() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(1);
        a.record(100);
        b.record(0);
        b.record(u64::MAX - 1);
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 4);
    }

    #[test]
    fn histogram_to_value_is_sparse_and_sorted() {
        let h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(0);
        let json = h.snapshot().to_value().to_json();
        assert_eq!(json, r#"{"buckets":[[0,1],[3,2]],"count":3,"sum":10}"#);
    }
}
