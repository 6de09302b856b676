//! Plain-integer instruments: the seconds→microseconds conversion and a
//! mergeable log2 histogram.
//!
//! Each instrumented component (the sim engine, the NameNode, the ADAPT
//! policy) owns one counter struct of plain `u64`s and updates it in
//! place; a simulation run is single-threaded, and parallel runs merge
//! their finished structs in input order. Durations are carried as
//! integer microseconds through [`micros`], so sums are exact and
//! independent of accumulation order.

use crate::json::Value;

/// Converts simulated seconds to integer microseconds, rounded to
/// nearest — the one quantization every report, trace and metrics
/// document uses. Negative, zero, NaN and infinite inputs give 0.
///
/// Floating-point accumulation is not associative, so summing `f64`
/// seconds in different orders can produce different low bits — fatal
/// for byte-stable reports. Rounding each contribution once, then
/// summing exactly in `u64`, makes totals identical on every run.
///
/// ```
/// use adapt_telemetry::micros;
///
/// assert_eq!(micros(1.5), 1_500_000);
/// assert_eq!(micros(-5.0), 0);
/// ```
#[inline]
pub fn micros(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e6).round() as u64
    } else {
        0
    }
}

/// Number of buckets in a [`HistogramSnapshot`]: bucket 0 holds zeros,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, so bucket 64 holds
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

/// Fixed-size log2 histogram over `u64` values (durations in
/// microseconds, byte sizes, chain lengths, ...), mergeable and
/// serializable. All 65 buckets are inline, so recording never
/// allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, wrapping on overflow (the histogram
    /// is diagnostic, and inputs are bounded in practice).
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
    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    /// Records a duration in simulated seconds as [`micros`]. Negative,
    /// NaN and infinite durations are skipped; zero is recorded.
    #[inline]
    pub fn record_secs(&mut self, secs: f64) {
        if secs.is_finite() && secs >= 0.0 {
            self.record(micros(secs));
        }
    }

    /// Adds `other`'s observations into `self`. Merging is commutative
    /// and associative, so aggregation order cannot affect totals.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
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
mod tests {
    use super::*;

    #[test]
    fn seconds_accum_is_exact_in_micros() {
        let total: u64 = (0..10).map(|_| micros(0.1)).sum();
        assert_eq!(total, 1_000_000);
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            assert_eq!(micros(bad), 0, "{bad}");
        }
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
            let lower = 1u64 << (i - 1);
            assert_eq!(bucket_index(lower), i, "bucket {i}");
            // One below the lower bound falls in the previous bucket.
            assert_eq!(bucket_index(lower - 1), i - 1, "bucket {i} - 1");
        }
    }

    #[test]
    fn histogram_records_extremes() {
        let mut h = HistogramSnapshot::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[64], 1);
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn histogram_sum_wraps() {
        let mut h = HistogramSnapshot::default();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, u64::MAX - 1);
        assert_eq!(h.buckets[64], 2);
    }

    #[test]
    fn record_secs_skips_invalid_durations() {
        let mut h = HistogramSnapshot::default();
        for bad in [f64::NAN, -5.0, f64::INFINITY] {
            h.record_secs(bad);
        }
        assert_eq!(h, HistogramSnapshot::default());
        h.record_secs(0.0);
        h.record_secs(0.25);
        assert_eq!(h.count, 2);
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.sum, 250_000);
    }

    #[test]
    fn histogram_merge_commutes() {
        let mut a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        a.record(1);
        a.record(100);
        b.record(0);
        b.record(u64::MAX - 1);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 4);
    }

    #[test]
    fn histogram_to_value_is_sparse_and_sorted() {
        let mut h = HistogramSnapshot::default();
        h.record(5);
        h.record(5);
        h.record(0);
        let json = h.to_value().to_json();
        assert_eq!(json, r#"{"buckets":[[0,1],[3,2]],"count":3,"sum":10}"#);
    }
}
