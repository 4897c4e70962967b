//! Runtime-dispatched SIMD kernels for the predictor history tables.
//!
//! All `unsafe` SIMD code of this crate is confined to this module (the
//! dpc-lint `simd::confined-unsafe` rule enforces the confinement); the
//! predictors call the safe dispatch wrappers exported here. Dispatch
//! follows the platform through [`dpc_types::simd::enabled`]: AVX2 where
//! the x86-64 host has it, scalar under Miri and on non-x86 targets
//! (DESIGN.md §12).

#![allow(unsafe_code)]

use dpc_types::SatCounter;

/// Clears every counter in `row` to zero — the batched form of calling
/// [`SatCounter::clear`] on each element, used by dpPred's
/// negative-feedback row flush (2^pc_bits = 64 counters per shadow hit
/// with the paper configuration).
///
/// The vector kernel zeroes the `value` byte of each counter while
/// preserving the `max` (width) byte, relying on the `repr(C)` layout
/// contract documented on [`SatCounter`].
#[inline]
pub fn clear_counters(row: &mut [SatCounter]) {
    #[cfg(target_arch = "x86_64")]
    if dpc_types::simd::enabled() {
        // SAFETY: `enabled()` returns true only after
        // `is_x86_feature_detected!("avx2")` confirmed AVX2 support.
        unsafe { clear_counters_avx2(row) };
        return;
    }
    clear_counters_scalar(row);
}

/// Scalar twin of [`clear_counters`] — the reference semantics the
/// vector kernel must reproduce bit for bit, and the path under Miri
/// and off x86.
#[inline]
pub fn clear_counters_scalar(row: &mut [SatCounter]) {
    for counter in row {
        counter.clear();
    }
}

/// AVX2 [`clear_counters`]: masks out the value bytes of 16 counters per
/// 256-bit store. `SatCounter` is `repr(C) { value: u8, max: u8 }`, so a
/// counter row is an alternating `value, max, value, max, ...` byte
/// sequence; ANDing with the splatted 16-bit mask `0xFF00` zeroes every
/// value byte (offset 0, little-endian low byte) and keeps every width
/// byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn clear_counters_avx2(row: &mut [SatCounter]) {
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi16, _mm256_storeu_si256,
    };

    const LANES: usize = 16; // counters per 256-bit vector (2 bytes each)
                             // 0xFF00 per 16-bit lane: little-endian low byte (value) is zeroed,
                             // high byte (max) is kept.
    let keep = _mm256_set1_epi16(!0xFF_i16);
    let mut chunks = row.chunks_exact_mut(LANES);
    for chunk in &mut chunks {
        let ptr = chunk.as_mut_ptr().cast::<__m256i>();
        // SAFETY: `chunk` is exactly 16 `SatCounter`s = 32 bytes
        // (chunks_exact_mut) and `SatCounter` is a plain repr(C) pair of
        // u8s, so the unaligned 256-bit load/store stay inside the slice
        // and every resulting byte pattern is a valid `SatCounter`.
        unsafe {
            let values = _mm256_loadu_si256(ptr);
            _mm256_storeu_si256(ptr, _mm256_and_si256(values, keep));
        }
    }
    clear_counters_scalar(chunks.into_remainder());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a row of `len` counters of `bits` width, pre-trained to
    /// staggered values including both saturation boundaries.
    fn trained_row(len: usize, bits: u32) -> Vec<SatCounter> {
        (0..len)
            .map(|i| {
                let mut c = SatCounter::new(bits);
                for _ in 0..(i % (c.max() as usize + 2)) {
                    c.increment();
                }
                c
            })
            .collect()
    }

    #[test]
    fn scalar_clear_zeroes_values_and_keeps_width() {
        let mut row = trained_row(7, 3);
        clear_counters_scalar(&mut row);
        for c in &row {
            assert_eq!(c.value(), 0);
            assert_eq!(c.max(), 7);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[cfg_attr(miri, ignore = "vendor intrinsics are outside Miri's subset")]
    fn avx2_clear_matches_scalar_at_all_lengths_and_widths() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Lengths straddling the 16-counter vector width (tails of every
        // size) and every counter width, so saturated (value == max) and
        // zero counters both cross the kernel.
        for bits in 1..=8u32 {
            for len in 0..=40usize {
                let mut want = trained_row(len, bits);
                let mut got = want.clone();
                clear_counters_scalar(&mut want);
                // SAFETY: guarded by the is_x86_feature_detected check above.
                unsafe { clear_counters_avx2(&mut got) };
                assert_eq!(got, want, "bits {bits}, len {len}");
            }
        }
    }

    #[test]
    fn dispatch_wrapper_clears_saturated_row() {
        let mut row = trained_row(64, 3);
        clear_counters(&mut row);
        assert!(row.iter().all(|c| c.value() == 0 && c.max() == 7));
        // Cleared counters must still increment/saturate normally.
        for _ in 0..10 {
            row[0].increment();
        }
        assert_eq!(row[0].value(), 7);
    }
}
