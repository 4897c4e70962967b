//! Runtime-dispatched SIMD kernels for the set-associative hot path.
//!
//! All `unsafe` SIMD code of this crate is confined to this module (the
//! dpc-lint `simd::confined-unsafe` rule enforces the confinement); the
//! rest of the crate calls the safe dispatch wrappers exported here.
//! Dispatch follows the platform through [`dpc_types::simd::enabled`]:
//! AVX2 where the x86-64 host has it, scalar under Miri and on non-x86
//! targets (DESIGN.md §12).

#![allow(unsafe_code)]

/// Way-match bitmask over a set's contiguous tag column: bit `w` of the
/// result is set iff `tags[w] == needle`. Validity intersection is the
/// caller's job ([`crate::soa::SetBlocks::match_mask`]), which keeps
/// this kernel a pure column compare.
///
/// First-match-wins order is the bit order, so `trailing_zeros` on the
/// result recovers the same way the original linear scan found.
#[inline]
pub fn match_mask(tags: &[u64], needle: u64) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if dpc_types::simd::enabled() {
        // SAFETY: `enabled()` returns true only after
        // `is_x86_feature_detected!("avx2")` confirmed AVX2 support.
        return unsafe { match_mask_avx2(tags, needle) };
    }
    match_mask_scalar(tags, needle)
}

/// Scalar twin of [`match_mask`] — the reference semantics the vector
/// kernel must reproduce bit for bit, and the path under Miri and off
/// x86.
///
/// The paper-baseline associativities (4-way L1 TLB, 8-way L1D/L2/LLT,
/// 16-way LLC) are dispatched to fixed-width comparisons so the compiler
/// sees a compile-time trip count and can fully unroll; any other
/// geometry takes the generic loop.
#[inline]
pub fn match_mask_scalar(tags: &[u64], needle: u64) -> u64 {
    match tags.len() {
        4 => fixed_match::<4>(tags, needle),
        8 => fixed_match::<8>(tags, needle),
        16 => fixed_match::<16>(tags, needle),
        _ => generic_match(tags, needle),
    }
}

/// Tag compare with a compile-time way count: converting the slice to a
/// fixed-size array reference lets the compiler unroll the loop with no
/// per-iteration bounds checks. Falls back to [`generic_match`] if the
/// slice length does not match `N` (cannot happen for callers that
/// dispatch on `tags.len()`, but keeps the function total without
/// panicking).
#[inline]
fn fixed_match<const N: usize>(tags: &[u64], needle: u64) -> u64 {
    let Ok(tags) = <&[u64; N]>::try_from(tags) else {
        return generic_match(tags, needle);
    };
    let mut mask = 0u64;
    for (way, &t) in tags.iter().enumerate() {
        mask |= u64::from(t == needle) << way;
    }
    mask
}

/// Tag compare for arbitrary associativity.
#[inline]
fn generic_match(tags: &[u64], needle: u64) -> u64 {
    let mut mask = 0u64;
    for (way, &t) in tags.iter().enumerate() {
        mask |= u64::from(t == needle) << way;
    }
    mask
}

/// AVX2 [`match_mask`]: compares four ways per `_mm256_cmpeq_epi64` and
/// packs the lane results into the way bitmask via `movemask`. Covers
/// every paper-baseline associativity with whole vectors (4-way = 1,
/// 8-way = 2, 16-way = 4) and handles other geometries with a scalar
/// tail; the `SetBlocks` 64-way ceiling bounds every shift below 64.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn match_mask_avx2(tags: &[u64], needle: u64) -> u64 {
    use core::arch::x86_64::{
        _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_set1_epi64x,
    };

    let needle_v = _mm256_set1_epi64x(needle as i64);
    let mut mask = 0u64;
    let mut way = 0u32;
    let chunks = tags.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 4 u64s = 32 bytes (chunks_exact), so
        // the unaligned 256-bit load stays inside the slice.
        let block = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
        let eq = _mm256_cmpeq_epi64(block, needle_v);
        let lanes = _mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u64;
        mask |= (lanes & 0xF) << way;
        way += 4;
    }
    for &t in tail {
        mask |= u64::from(t == needle) << way;
        way += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic LCG so the differential sweep needs no external RNG.
    fn lcg(state: &mut u64) -> u64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn scalar_matches_are_positional() {
        let tags = [7u64, 9, 7, 1];
        assert_eq!(match_mask_scalar(&tags, 7), 0b0101);
        assert_eq!(match_mask_scalar(&tags, 1), 0b1000);
        assert_eq!(match_mask_scalar(&tags, 2), 0);
        assert_eq!(match_mask_scalar(&[], 2), 0);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[cfg_attr(miri, ignore = "vendor intrinsics are outside Miri's subset")]
    fn avx2_matches_scalar_on_random_columns() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut state = 0xFEED_u64;
        // Every width up to the 64-way bitmask ceiling, including the
        // fixed-dispatch widths and non-multiple-of-4 tails.
        for ways in 0..=64usize {
            for round in 0..50 {
                // Narrow tag range so collisions (multi-way matches) occur.
                let tags: Vec<u64> = (0..ways).map(|_| lcg(&mut state) % 8).collect();
                let needle = lcg(&mut state) % 8;
                let want = match_mask_scalar(&tags, needle);
                // SAFETY: guarded by the is_x86_feature_detected check above.
                let got = unsafe { match_mask_avx2(&tags, needle) };
                assert_eq!(got, want, "ways {ways}, round {round}, needle {needle}");
            }
        }
    }

    #[test]
    fn dispatch_wrapper_matches_scalar() {
        let tags: Vec<u64> = (0..16).map(|i| i % 4).collect();
        for needle in 0..5 {
            assert_eq!(match_mask(&tags, needle), match_mask_scalar(&tags, needle));
        }
    }
}
