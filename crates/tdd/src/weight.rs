//! Handles to interned complex edge weights.
//!
//! Decision-diagram canonicity requires that "the same" weight always maps
//! to the same identity, even after different round-off histories. The
//! store interns values ([`crate::SharedTddStore`]) and each manager
//! glues or snaps them within the tolerance first (see
//! [`crate::manager`]'s interning families). Edges then carry a `u32`
//! [`WeightId`], making unique-table and computed-table keys exact and
//! cheap to hash.

/// Handle to an interned complex weight.
///
/// # Example
///
/// ```
/// use qaec_math::C64;
/// use qaec_tdd::{TddManager, WeightId};
///
/// let mut m = TddManager::new();
/// let a = m.intern_weight(C64::new(0.5, 0.0));
/// let b = m.intern_weight(C64::new(0.5 + 1e-12, -1e-13));
/// assert_eq!(a, b); // merged within tolerance
/// assert_eq!(m.intern_weight(C64::ONE), WeightId::ONE);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WeightId(pub(crate) u32);

impl WeightId {
    /// The interned value 0.
    pub const ZERO: WeightId = WeightId(0);
    /// The interned value 1.
    pub const ONE: WeightId = WeightId(1);

    /// Whether this is the interned zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == WeightId::ZERO
    }

    /// Whether this is the interned one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == WeightId::ONE
    }
}

#[cfg(test)]
mod tests {
    //! The one-worker interning rules behind these handles: first-seen
    //! tolerance gluing over a manager's whole life, seeded with exact 0
    //! and 1 (see `crate::manager`).

    use super::*;
    use crate::TddManager;
    use qaec_math::C64;

    #[test]
    fn constants() {
        let m = TddManager::new();
        assert_eq!(m.weight_value(WeightId::ZERO), C64::ZERO);
        assert_eq!(m.weight_value(WeightId::ONE), C64::ONE);
        assert!(WeightId::ZERO.is_zero());
        assert!(WeightId::ONE.is_one());
        assert_eq!(m.store().weight_count(), 2);
    }

    #[test]
    fn near_values_merge() {
        let mut m = TddManager::new();
        let a = m.intern_weight(C64::new(0.25, 0.75));
        let b = m.intern_weight(C64::new(0.25 + 5e-11, 0.75 - 5e-11));
        assert_eq!(a, b);
        assert_eq!(m.weight_value(b), C64::new(0.25, 0.75), "first seen wins");
        let c = m.intern_weight(C64::new(0.25 + 5e-9, 0.75));
        assert_ne!(a, c);
    }

    #[test]
    fn near_one_glues_to_the_exact_one() {
        let mut m = TddManager::new();
        assert_eq!(
            m.intern_weight(C64::new(1.0 + 5e-11, -5e-11)),
            WeightId::ONE
        );
        assert_eq!(m.intern_weight(C64::new(1.0 - 1e-15, 0.0)), WeightId::ONE);
    }

    #[test]
    fn near_zero_snaps() {
        let mut m = TddManager::new();
        assert_eq!(m.intern_weight(C64::new(1e-12, -1e-12)), WeightId::ZERO);
        assert_ne!(m.intern_weight(C64::new(1e-8, 0.0)), WeightId::ZERO);
    }

    #[test]
    fn boundary_values_across_buckets_still_merge() {
        // Values straddling a bucket boundary must still be unified by the
        // 3×3 probe.
        let mut m = TddManager::new();
        let w = 2e-10; // bucket width
        let base = 17.0 * w + w / 2.0; // near a boundary
        let a = m.intern_weight(C64::new(base - 4e-11, 0.0));
        let b = m.intern_weight(C64::new(base + 4e-11, 0.0));
        assert_eq!(a, b);
    }

    #[test]
    fn arithmetic() {
        let mut m = TddManager::new();
        let half = m.intern_weight(C64::real(0.5));
        let two = m.intern_weight(C64::real(2.0));
        assert_eq!(m.wmul(half, two), WeightId::ONE);
        assert_eq!(m.wmul(half, WeightId::ZERO), WeightId::ZERO);
        assert_eq!(m.wadd(WeightId::ZERO, half), half);
        let one = m.wadd(half, half);
        assert_eq!(one, WeightId::ONE);
        assert_eq!(m.wdiv(half, half), WeightId::ONE);
        assert_eq!(m.wdiv(WeightId::ZERO, two), WeightId::ZERO);
        let i = m.intern_weight(C64::I);
        let minus_i = m.intern_weight(m.weight_value(i).conj());
        assert_eq!(m.weight_value(minus_i), C64::new(0.0, -1.0));
        assert_eq!(m.wscale_real(half, 4.0), two);
    }

    #[test]
    #[should_panic(expected = "division by the zero weight")]
    fn division_by_zero_panics() {
        let mut m = TddManager::new();
        m.wdiv(WeightId::ONE, WeightId::ZERO);
    }

    #[test]
    fn cancellation_in_add_returns_zero() {
        let mut m = TddManager::new();
        let a = m.intern_weight(C64::real(0.3));
        let b = m.intern_weight(C64::real(-0.3));
        assert_eq!(m.wadd(a, b), WeightId::ZERO);
    }

    #[test]
    fn magnitudes() {
        let mut m = TddManager::new();
        let z = m.intern_weight(C64::new(3.0, 4.0));
        assert!((m.wmagnitude(z) - 5.0).abs() < 1e-12);
    }
}
