//! The `invariant!` macro: structural checks compiled in with
//! `debug_assertions`.
//!
//! The simulator's hot paths bank on structural invariants (a saturating
//! counter never exceeds its ceiling, the shadow buffer never holds more
//! than two entries, a folded-XOR index is always in table range). In
//! release builds those checks would cost real time per simulated memory
//! operation, so they compile to nothing there; debug and test builds
//! (`cargo test`) arm every one.
//!
//! `invariant!` sites also serve as the visible bounds reasoning that the
//! `hot-path::index` rule of `cargo xtask lint` looks for: an index that
//! is asserted in range is an index a reviewer can trust.

/// Asserts a structural invariant when `debug_assertions` is on (debug
/// and test builds); compiles to nothing in release builds.
///
/// # Examples
///
/// ```
/// use dpc_types::invariant;
///
/// let idx = 3_usize;
/// let table = [0u8; 8];
/// invariant!(idx < table.len(), "index {idx} out of range");
/// ```
#[macro_export]
macro_rules! invariant {
    ($cond:expr $(, $($arg:tt)+)?) => {
        if cfg!(debug_assertions) {
            assert!($cond $(, $($arg)+)?);
        }
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn invariant_passes_when_true() {
        invariant!(1 + 1 == 2);
        invariant!(1 + 1 == 2, "math works: {}", 2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "needs debug assertions")]
    #[should_panic(expected = "shadow occupancy")]
    fn invariant_fires_when_enabled() {
        invariant!(false, "shadow occupancy exceeded");
    }

    #[test]
    fn invariant_is_armed_exactly_under_debug_assertions() {
        // Without debug assertions the check compiles to a constant-false
        // branch and must not panic.
        let fired = std::panic::catch_unwind(|| invariant!(false, "armed")).is_err();
        assert_eq!(fired, cfg!(debug_assertions));
    }
}
