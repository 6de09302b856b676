//! Rack-level network topology for the ADAPT simulators.
//!
//! The map-phase engine and the reduce-phase shuffle both model block
//! movement as point-to-point flows. Historically every flow drew from a
//! flat per-node bandwidth pool — one link class, no structure. This
//! crate adds the two-level structure every real Hadoop deployment has
//! (and that the rack-aware replica-placement baseline in the related
//! replica-management study assumes): nodes grouped into racks behind a
//! top-of-rack switch, with an oversubscribed uplink toward the core.
//!
//! The model is deliberately first-order and fully deterministic:
//!
//! * **Rack labels.** Node `i` lives in rack `i mod racks` — a pure
//!   function, so every layer (DFS placement, engine, shuffle, verify)
//!   derives the same labels with no shared state.
//! * **Intra-rack flows** run at the full per-node link rate: a transfer
//!   of `b` bits takes exactly `b / bandwidth` seconds — bit-for-bit the
//!   flat model, which is what makes the 1-rack topology *byte-identical*
//!   to the pre-topology engine (the degeneracy the verification suite
//!   pins).
//! * **Cross-rack flows** traverse the source rack's uplink, whose
//!   capacity is the node rate divided by the oversubscription ratio
//!   and fair-shared over the cross-rack flows active at the moment the
//!   transfer starts (`committed-at-start`: the duration is fixed then
//!   and never re-negotiated, mirroring how the engines commit flat
//!   transfer times). With `streams` concurrent cross-rack flows the
//!   transfer takes `base · oversubscription · streams` seconds.
//!
//! Soundness limits are documented in `DESIGN.md` §17: committed-at-start
//! fair share ignores mid-flight re-sharing, the downlink of the
//! destination rack is not separately modeled, and rack labels are
//! static (no topology churn).

#![forbid(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_debug_implementations)]

use std::fmt;

/// An invalid topology parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A constructor argument was out of domain.
    InvalidTopology {
        /// Parameter name.
        name: &'static str,
        /// What the parameter must satisfy.
        reason: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidTopology { name, reason } => {
                write!(f, "invalid topology parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for NetError {}

/// A two-level rack topology with an oversubscribed core.
///
/// The flat (pre-topology) network is the degenerate single-rack case
/// with no oversubscription — [`Topology::flat`] — under which every
/// transfer-time computation reduces to exactly the flat formula.
///
/// # Examples
///
/// ```
/// use adapt_net::Topology;
///
/// let topo = Topology::new(4, 2.5).unwrap();
/// assert_eq!(topo.rack_of(0), 0);
/// assert_eq!(topo.rack_of(5), 1);
/// assert!(!topo.same_rack(0, 5));
/// // One uncontended cross-rack flow pays the oversubscription ratio:
/// // a 512-s flat transfer takes 512 × 2.5 s.
/// assert!((topo.fair_share_seconds(512.0, 0, 5, 1) - 1280.0).abs() < 1e-12);
/// // The same flow inside a rack runs at the full link rate.
/// assert!((topo.fair_share_seconds(512.0, 0, 4, 1) - 512.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Topology {
    racks: u32,
    oversubscription: f64,
}

impl Topology {
    /// The degenerate flat network: one rack, no oversubscription.
    pub fn flat() -> Self {
        Topology {
            racks: 1,
            oversubscription: 1.0,
        }
    }

    /// Creates a topology of `racks` racks with the given core
    /// oversubscription ratio (`1.0` = non-blocking core; datacenter
    /// fabrics commonly run 2.5:1 to 5:1).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidTopology`] for zero racks or an
    /// oversubscription ratio that is not finite and `>= 1`.
    pub fn new(racks: u32, oversubscription: f64) -> Result<Self, NetError> {
        if racks == 0 {
            return Err(NetError::InvalidTopology {
                name: "racks",
                reason: "at least one rack required".into(),
            });
        }
        if !(oversubscription.is_finite() && oversubscription >= 1.0) {
            return Err(NetError::InvalidTopology {
                name: "oversubscription",
                reason: format!("{oversubscription} must be finite and >= 1"),
            });
        }
        Ok(Topology {
            racks,
            oversubscription,
        })
    }

    /// Number of racks.
    pub fn racks(&self) -> u32 {
        self.racks
    }

    /// Core oversubscription ratio (`1.0` = non-blocking).
    pub fn oversubscription(&self) -> f64 {
        self.oversubscription
    }

    /// The rack holding node `node` (`node mod racks` — a pure function,
    /// shared by every layer).
    pub fn rack_of(&self, node: u32) -> u32 {
        node % self.racks
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: u32, b: u32) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// Seconds to move a flow whose flat (uncontended, intra-rack)
    /// transfer time is `base_seconds` from `source` to `dest`, given
    /// `streams` cross-rack flows (including this one) active on the
    /// source rack's uplink at commit time.
    ///
    /// Intra-rack flows return `base_seconds` *unchanged* — the same
    /// `f64`, not merely an equal value — which is the bit-identical
    /// degeneracy contract the verification suite relies on.
    pub fn fair_share_seconds(
        &self,
        base_seconds: f64,
        source: u32,
        dest: u32,
        streams: usize,
    ) -> f64 {
        if self.same_rack(source, dest) {
            return base_seconds;
        }
        base_seconds * self.oversubscription * (streams.max(1) as f64)
    }
}

impl Default for Topology {
    fn default() -> Self {
        Topology::flat()
    }
}

#[cfg(test)]
#[expect(clippy::float_cmp, reason = "exact reruns and representable values")]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn flat_topology_is_degenerate() {
        let t = Topology::flat();
        assert_eq!(t.racks(), 1);
        assert_eq!(t.oversubscription(), 1.0);
        for n in 0..64 {
            assert_eq!(t.rack_of(n), 0);
        }
        assert!(t.same_rack(3, 59));
    }

    #[test]
    fn constructor_validates() {
        assert!(Topology::new(0, 1.0).is_err());
        assert!(Topology::new(2, 0.5).is_err());
        assert!(Topology::new(2, f64::NAN).is_err());
        assert!(Topology::new(2, f64::INFINITY).is_err());
        assert!(Topology::new(2, 1.0).is_ok());
    }

    #[test]
    fn one_rack_with_oversubscription_is_not_flat() {
        // Oversubscription can never bite with a single rack (no flow is
        // cross-rack), but the config still differs from the flat one so
        // callers don't silently collapse a deliberate setting.
        let t = Topology::new(1, 4.0).unwrap();
        assert_ne!(t, Topology::flat());
        // ... yet every flow is intra-rack, so times match flat exactly.
        assert_eq!(t.fair_share_seconds(12.5, 0, 9, 3), 12.5);
    }

    #[test]
    fn rack_labels_are_modular() {
        let t = Topology::new(3, 2.0).unwrap();
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(1), 1);
        assert_eq!(t.rack_of(2), 2);
        assert_eq!(t.rack_of(3), 0);
        assert!(t.same_rack(1, 4));
        assert!(!t.same_rack(1, 5));
    }

    #[test]
    fn intra_rack_base_is_bit_identical() {
        let t = Topology::new(4, 5.0).unwrap();
        let base = 0.1 + 0.2; // deliberately non-representable sum
        assert_eq!(
            t.fair_share_seconds(base, 0, 4, 7).to_bits(),
            base.to_bits()
        );
    }

    #[test]
    fn cross_rack_pays_oversubscription_and_sharing() {
        let t = Topology::new(2, 2.5).unwrap();
        let base = 10.0;
        assert_eq!(t.fair_share_seconds(base, 0, 1, 1), 25.0);
        assert_eq!(t.fair_share_seconds(base, 0, 1, 3), 75.0);
        // A zero stream count is clamped to one flow (the caller's own).
        assert_eq!(t.fair_share_seconds(base, 0, 1, 0), 25.0);
    }

    proptest! {
        #[test]
        fn fair_share_is_monotone_in_streams(
            racks in 1u32..8,
            oversub in 1.0f64..8.0,
            base in 0.0f64..1e6,
            a in 0u32..64,
            b in 0u32..64,
            s in 1usize..16,
        ) {
            let t = Topology::new(racks, oversub).unwrap();
            let lo = t.fair_share_seconds(base, a, b, s);
            let hi = t.fair_share_seconds(base, a, b, s + 1);
            prop_assert!(hi >= lo);
        }

        #[test]
        fn intra_rack_never_pays(
            oversub in 1.0f64..8.0,
            base in 0.0f64..1e6,
            a in 0u32..64,
            s in 1usize..16,
        ) {
            let t = Topology::new(1, oversub).unwrap();
            prop_assert_eq!(t.fair_share_seconds(base, a, a + 1, s).to_bits(), base.to_bits());
        }
    }
}
