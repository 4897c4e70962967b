//! Runtime-dispatched SIMD kernels shared by the event-replay hot path.
//!
//! All `unsafe` SIMD code of this crate is confined to this module (the
//! dpc-lint `simd::confined-unsafe` rule enforces the confinement); the
//! rest of the crate calls the safe dispatch wrappers exported here.
//!
//! # Dispatch contract (DESIGN.md §12)
//!
//! The platform alone picks the path; nothing at run time overrides it:
//!
//! * under Miri the scalar path is always taken (vendor intrinsics are
//!   outside Miri's supported subset);
//! * otherwise x86-64 probes AVX2 with `is_x86_feature_detected!`, whose
//!   answer std caches for the life of the process; non-x86 builds
//!   always take the scalar path.
//!
//! Every vector kernel has a scalar twin with identical semantics, and
//! the pinned golden output plus the differential tests in this module
//! hold the two bit-identical.

#![allow(unsafe_code)]

/// Whether the vector kernels are active for this process: AVX2 on an
/// x86-64 host that has it, scalar under Miri and on every other
/// architecture (see the module docs). The feature probe is cached by
/// std, so the per-call cost on the hot path is one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    {
        false
    }
}

/// Scans a tag window and returns `(take, mem_take)`: how many leading
/// tags a replay chunk may consume without exceeding a budget of
/// `max_mem` tags that differ from `compute_tag` (i.e. memory events),
/// and how many such tags the prefix contains.
///
/// The cut lands directly *after* the budget-th memory tag, so trailing
/// compute tags beyond the last in-budget memory event are **not** taken
/// — exactly the gate-before-every-event semantics of a
/// `while mem_ops < budget` replay loop.
#[inline]
pub fn classify_tags(tags: &[u8], compute_tag: u8, max_mem: u64) -> (usize, u64) {
    #[cfg(target_arch = "x86_64")]
    if enabled() {
        // SAFETY: `enabled()` returns true only after
        // `is_x86_feature_detected!("avx2")` confirmed AVX2 support.
        return unsafe { classify_tags_avx2(tags, compute_tag, max_mem) };
    }
    classify_tags_scalar(tags, compute_tag, max_mem)
}

/// Scalar twin of [`classify_tags`] — the reference semantics the vector
/// kernel must reproduce bit for bit.
#[inline]
pub fn classify_tags_scalar(tags: &[u8], compute_tag: u8, max_mem: u64) -> (usize, u64) {
    if max_mem == 0 {
        return (0, 0);
    }
    let mut mem = 0u64;
    for (i, &tag) in tags.iter().enumerate() {
        if tag != compute_tag {
            mem += 1;
            if mem == max_mem {
                return (i + 1, mem);
            }
        }
    }
    (tags.len(), mem)
}

/// AVX2 [`classify_tags`]: classifies 32 tags per compare against a
/// splatted `compute_tag`, popcounts the memory lanes, and only descends
/// to bit arithmetic for the single block containing the budget boundary.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn classify_tags_avx2(tags: &[u8], compute_tag: u8, max_mem: u64) -> (usize, u64) {
    use core::arch::x86_64::{
        _mm256_cmpeq_epi8, _mm256_loadu_si256, _mm256_movemask_epi8, _mm256_set1_epi8,
    };

    if max_mem == 0 {
        return (0, 0);
    }
    let needle = _mm256_set1_epi8(compute_tag as i8);
    let mut taken = 0usize;
    let mut mem = 0u64;
    let chunks = tags.chunks_exact(32);
    let tail_start = tags.len() - chunks.remainder().len();
    for chunk in chunks {
        // SAFETY: `chunk` is exactly 32 bytes (chunks_exact), so the
        // unaligned 256-bit load stays inside the slice.
        let block = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
        let compute_mask = _mm256_movemask_epi8(_mm256_cmpeq_epi8(block, needle)) as u32;
        let mem_mask = !compute_mask;
        let block_mem = u64::from(mem_mask.count_ones());
        if mem + block_mem < max_mem {
            mem += block_mem;
            taken += 32;
        } else {
            // The budget boundary falls inside this block: cut directly
            // after its (max_mem - mem)-th memory tag. The loop invariant
            // `mem < max_mem` makes `need` at least 1, and the branch
            // condition makes it at most `block_mem`.
            let need = (max_mem - mem) as u32;
            return (taken + cut_after_nth_set_bit(mem_mask, need), max_mem);
        }
    }
    let (tail_take, tail_mem) =
        classify_tags_scalar(&tags[tail_start..], compute_tag, max_mem - mem);
    (taken + tail_take, mem + tail_mem)
}

/// Position directly after the `n`-th (1-based) set bit of `mask`.
/// Requires `1 <= n <= mask.count_ones()`.
#[cfg(target_arch = "x86_64")]
#[inline]
fn cut_after_nth_set_bit(mut mask: u32, n: u32) -> usize {
    for _ in 1..n {
        mask &= mask - 1; // clear the lowest set bit
    }
    mask.trailing_zeros() as usize + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMPUTE: u8 = 3;

    /// Deterministic LCG so the differential sweep needs no external RNG.
    fn lcg(state: &mut u64) -> u64 {
        *state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn scalar_cuts_after_budget_mem_tag() {
        // mem compute mem compute mem compute
        let tags = [0u8, COMPUTE, 1, COMPUTE, 2, COMPUTE];
        assert_eq!(classify_tags_scalar(&tags, COMPUTE, 2), (3, 2));
        assert_eq!(classify_tags_scalar(&tags, COMPUTE, 3), (5, 3));
        assert_eq!(classify_tags_scalar(&tags, COMPUTE, 4), (6, 3));
        assert_eq!(classify_tags_scalar(&tags, COMPUTE, 0), (0, 0));
    }

    #[test]
    fn scalar_takes_everything_under_budget() {
        let tags = [COMPUTE; 100];
        assert_eq!(classify_tags_scalar(&tags, COMPUTE, 5), (100, 0));
        assert_eq!(classify_tags_scalar(&[], COMPUTE, 5), (0, 0));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[cfg_attr(miri, ignore = "vendor intrinsics are outside Miri's subset")]
    fn avx2_matches_scalar_on_random_windows() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut state = 0xD15EA5E_u64;
        for round in 0..500 {
            let len = (lcg(&mut state) % 300) as usize;
            let tags: Vec<u8> = (0..len)
                .map(|_| {
                    if lcg(&mut state).is_multiple_of(3) {
                        COMPUTE
                    } else {
                        (lcg(&mut state) % 5) as u8
                    }
                })
                .collect();
            for max_mem in [0u64, 1, 2, 31, 32, 33, 64, 100, u64::MAX] {
                let want = classify_tags_scalar(&tags, COMPUTE, max_mem);
                // SAFETY: guarded by the is_x86_feature_detected check above.
                let got = unsafe { classify_tags_avx2(&tags, COMPUTE, max_mem) };
                assert_eq!(got, want, "round {round}, len {len}, budget {max_mem}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    #[cfg_attr(miri, ignore = "vendor intrinsics are outside Miri's subset")]
    fn avx2_handles_boundary_inside_each_lane() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // All-memory block: the boundary can land on every lane of the
        // first vector, and on the scalar tail beyond it.
        let tags = [0u8; 40];
        for budget in 1..=40u64 {
            // SAFETY: guarded by the is_x86_feature_detected check above.
            let got = unsafe { classify_tags_avx2(&tags, COMPUTE, budget) };
            assert_eq!(got, (budget as usize, budget));
        }
    }

    #[test]
    fn cut_after_nth_set_bit_selects_correct_position() {
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(cut_after_nth_set_bit(0b1, 1), 1);
            assert_eq!(cut_after_nth_set_bit(0b1010_0110, 1), 2);
            assert_eq!(cut_after_nth_set_bit(0b1010_0110, 2), 3);
            assert_eq!(cut_after_nth_set_bit(0b1010_0110, 3), 6);
            assert_eq!(cut_after_nth_set_bit(0b1010_0110, 4), 8);
            assert_eq!(cut_after_nth_set_bit(u32::MAX, 32), 32);
        }
    }

    #[test]
    fn dispatch_wrapper_is_total() {
        // Whatever path `enabled()` picked, the wrapper must agree with
        // the scalar reference.
        let tags = [0u8, COMPUTE, 1, 4, COMPUTE, 2];
        for max_mem in 0..6 {
            assert_eq!(
                classify_tags(&tags, COMPUTE, max_mem),
                classify_tags_scalar(&tags, COMPUTE, max_mem)
            );
        }
    }
}
