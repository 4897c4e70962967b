//! Saturating confidence counters.
//!
//! Both pHIST and bHIST are tables of 3-bit saturating counters with a
//! prediction threshold (default 6). [`SatCounter`] is the shared
//! implementation; the width is a runtime parameter so sensitivity studies
//! can vary it.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An unsigned saturating counter of configurable bit width.
///
/// ```
/// use dpc_types::SatCounter;
///
/// let mut c = SatCounter::new(3);
/// for _ in 0..10 { c.increment(); }
/// assert_eq!(c.value(), 7); // saturates at 2^3 - 1
/// c.clear();
/// assert_eq!(c.value(), 0);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SatCounter {
    value: u8,
    max: u8,
}

impl SatCounter {
    /// Creates a counter of `bits` width, initialized to zero.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8.
    pub fn new(bits: u32) -> Self {
        assert!(bits > 0 && bits <= 8, "SatCounter width must be 1..=8 bits");
        Self { value: 0, max: ((1u16 << bits) - 1) as u8 }
    }

    /// Current value.
    #[inline]
    pub const fn value(self) -> u8 {
        self.value
    }

    /// Maximum (saturated) value, `2^bits - 1`.
    #[inline]
    pub const fn max(self) -> u8 {
        self.max
    }

    /// Increments, saturating at [`max`](Self::max).
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
        crate::invariant!(
            self.value <= self.max,
            "counter {} above ceiling {}",
            self.value,
            self.max
        );
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(1);
        crate::invariant!(
            self.value <= self.max,
            "counter {} above ceiling {}",
            self.value,
            self.max
        );
    }

    /// Resets the counter to zero (the paper's negative-feedback action).
    #[inline]
    pub fn clear(&mut self) {
        self.value = 0;
    }

    /// Whether the counter strictly exceeds `threshold` — the paper's
    /// prediction condition (*"if the counter value ... is more than a
    /// threshold value (here, 6 by default)"*).
    #[inline]
    pub const fn exceeds(self, threshold: u8) -> bool {
        self.value > threshold
    }
}

impl fmt::Debug for SatCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SatCounter({}/{})", self.value, self.max)
    }
}

impl fmt::Display for SatCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn increments_saturate() {
        let mut c = SatCounter::new(3);
        for _ in 0..100 {
            c.increment();
        }
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn decrements_saturate() {
        let mut c = SatCounter::new(2);
        c.decrement();
        assert_eq!(c.value(), 0);
        c.increment();
        c.increment();
        c.decrement();
        assert_eq!(c.value(), 1);
    }

    #[test]
    fn threshold_is_strict() {
        let mut c = SatCounter::new(3);
        for _ in 0..6 {
            c.increment();
        }
        assert!(!c.exceeds(6), "counter == threshold must not predict");
        c.increment();
        assert!(c.exceeds(6));
    }

    #[test]
    fn clear_resets() {
        let mut c = SatCounter::new(4);
        c.increment();
        c.clear();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn width_one_toggles_between_zero_and_one() {
        let mut c = SatCounter::new(1);
        assert_eq!(c.max(), 1);
        c.increment();
        assert_eq!(c.value(), 1);
        c.increment();
        assert_eq!(c.value(), 1, "1-bit counter saturates at 1");
        c.decrement();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn width_eight_saturates_at_255() {
        let mut c = SatCounter::new(8);
        assert_eq!(c.max(), u8::MAX);
        for _ in 0..300 {
            c.increment();
        }
        assert_eq!(c.value(), u8::MAX, "the 2^8-1 ceiling must not wrap u8");
        c.increment();
        assert_eq!(c.value(), u8::MAX);
    }

    #[test]
    fn increment_at_saturation_holds() {
        let mut c = SatCounter::new(3);
        for _ in 0..7 {
            c.increment();
        }
        assert_eq!(c.value(), c.max());
        c.increment();
        assert_eq!(c.value(), c.max());
    }

    #[test]
    fn decrement_at_zero_holds() {
        let mut c = SatCounter::new(5);
        assert_eq!(c.value(), 0);
        c.decrement();
        c.decrement();
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "SatCounter")]
    fn zero_bits_rejected() {
        SatCounter::new(0);
    }

    #[test]
    #[should_panic(expected = "SatCounter")]
    fn nine_bits_rejected() {
        SatCounter::new(9);
    }

    proptest! {
        #[test]
        fn value_never_exceeds_max(bits in 1u32..=8, ops in proptest::collection::vec(any::<bool>(), 0..200)) {
            let mut c = SatCounter::new(bits);
            for up in ops {
                if up { c.increment() } else { c.decrement() }
                prop_assert!(c.value() <= c.max());
            }
        }
    }
}
