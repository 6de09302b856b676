//! Checked integer→float widening helpers.
//!
//! The model crates widen counts and indices to `f64` constantly (sample
//! means, moment accumulators, series sums). A bare
//! `expr as f64` is silent about its precondition — exactness requires
//! the value to fit in the 53-bit mantissa — so these helpers name the
//! conversion and `debug_assert!` the precondition, while compiling to
//! exactly the same cast in release builds (the CI byte-stable baselines
//! rely on bit-identical arithmetic).

#![expect(
    clippy::as_conversions,
    reason = "the checked conversion helpers: each cast sits behind a debug_assert that the value is exactly representable"
)]

/// The largest integer magnitude `f64` represents exactly (2⁵³).
pub const MAX_EXACT_F64: u64 = 1u64 << 53;

/// Widens a `u64` count to `f64`, asserting (debug) that the conversion
/// is exact.
#[inline]
pub fn widen_u64(n: u64) -> f64 {
    debug_assert!(
        n <= MAX_EXACT_F64,
        "u64 -> f64 widening of {n} loses precision (> 2^53)"
    );
    n as f64
}

/// Widens a `usize` index or length to `f64` exactly.
#[inline]
pub fn exact_f64(n: usize) -> f64 {
    widen_u64(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_is_bit_identical_to_the_bare_cast() {
        for n in [0u64, 1, 42, 1_000_000, MAX_EXACT_F64] {
            assert_eq!(widen_u64(n).to_bits(), (n as f64).to_bits());
        }
        assert_eq!(exact_f64(12345).to_bits(), 12345.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "loses precision")]
    #[cfg(debug_assertions)]
    fn inexact_widening_asserts_in_debug() {
        widen_u64(MAX_EXACT_F64 + 1);
    }
}
