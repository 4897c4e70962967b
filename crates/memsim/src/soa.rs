//! Set-blocked backing store for [`SetAssoc`](crate::set_assoc::SetAssoc).
//!
//! The hot path of the simulator is the tag search in `SetAssoc::lookup`,
//! and a simulated 2 MB LLC holds 32768 lines, so the host bytes and host
//! cache lines each simulated line costs decide how fast the cache ladder
//! runs (DESIGN.md §10). Storage is two arrays:
//!
//! * **set blocks** — one block of `u64` words per set, holding everything
//!   a lookup or a victim search reads, in this order:
//!
//!   | words | contents |
//!   |---|---|
//!   | `0` | validity mask: bit `w` set ⇔ way `w` holds valid contents |
//!   | `1 ..= ways` | the tags, one per way, contiguous |
//!   | `ways + 1 ..` | the `u32` replacement stamps, two per word (way `w` in the low half of word `w / 2` when `w` is even, the high half when odd) |
//!
//!   A stamp is the LRU/FIFO recency stamp or, under SRRIP, the 2-bit
//!   re-reference prediction value: one array uses one replacement kind,
//!   so the two never share a slot. The block stride is `1 + ways +
//!   ceil(ways / 2)` words (200 bytes for the paper's 16-way LLC) and is
//!   not padded; the first block starts on a 64-byte boundary (a safe
//!   word offset into the allocation, see `AlignedWords`). Validity
//!   first means the mask and a 16-way set's tags always span three host
//!   lines, the same count a 64-byte-padded stride would give, for 22%
//!   fewer bytes.
//! * **line records** — one `LineRecord` per line, `set * ways + way`:
//!   the line's lifetime statistics as three `u32`s next to its payload
//!   (16 bytes for a cache block's 4-byte payload).
//!
//! Every clock stored here is a `u32`. The owning array's clocks advance
//! at most [`MAX_CLOCK_STEPS_PER_MEM_OP`](crate::set_assoc::MAX_CLOCK_STEPS_PER_MEM_OP)
//! times per simulated memory operation, and runs longer than
//! [`MAX_RUN_MEM_OPS`](crate::set_assoc::MAX_RUN_MEM_OPS) are refused
//! before they start, so no stored value wraps; `LineRecord::life`
//! widens to the public `u64` [`LineLife`].
//!
//! `SetBlocks::match_mask` compares every tag of a set without
//! branching and intersects with the validity mask; `trailing_zeros` on
//! the result recovers the first matching way, preserving the
//! first-match-wins semantics of a linear scan bit for bit.
//!
//! Bounds evidence for the dpc-lint `hot-path::index` rule: every block
//! base is `start + set * stride` and every record index `set * ways +
//! way`, where `set` comes from `SetAssoc::set_of` (reduced modulo /
//! masked by the set count) and `way < ways` is asserted by `invariant!`
//! at the call sites, so all accesses stay inside the `sets` blocks and
//! `sets * ways` records allocated by `SetBlocks::new`.

use crate::set_assoc::LineLife;
use dpc_types::invariant;

/// Maximum associativity representable by the per-set `u64` validity
/// bitmask.
pub const MAX_WAYS: usize = 64;

/// Host cache-line size the block array is aligned to, in `u64` words.
const ALIGN_WORDS: usize = 8;

/// Word offset of the tags inside a set block (the validity mask is
/// word 0).
const TAGS: usize = 1;

/// Lifetime statistics and payload of one line, stored side by side.
#[derive(Clone, Debug, Default)]
pub(crate) struct LineRecord<P> {
    /// Lookup sequence number at fill.
    pub(crate) fill_seq: u32,
    /// Lookup sequence number of the most recent hit.
    pub(crate) last_hit_seq: u32,
    /// Hits since fill.
    pub(crate) hits: u32,
    /// The structure-specific payload (TLB translation, cache block
    /// flags, PWC node, ...).
    pub(crate) payload: P,
}

impl<P> LineRecord<P> {
    /// The record's lifetime statistics, widened to the public form.
    #[inline]
    pub(crate) fn life(&self) -> LineLife {
        LineLife {
            fill_seq: u64::from(self.fill_seq),
            last_hit_seq: u64::from(self.last_hit_seq),
            hits: u64::from(self.hits),
        }
    }
}

/// A `u64` array whose usable part, `words[start..]`, begins on a
/// 64-byte boundary: the allocation is over-sized by up to seven words
/// and `start` skips to the first aligned one, so no raw allocator call
/// is needed. A clone keeps the offset, so its blocks may start off
/// a host-line boundary; only speed, never contents, depends on it.
#[derive(Clone, Debug)]
pub(crate) struct AlignedWords {
    words: Vec<u64>,
    start: usize,
}

impl AlignedWords {
    fn new(len: usize) -> Self {
        let words = vec![0u64; len + ALIGN_WORDS - 1];
        let misalign = (words.as_ptr().addr() / 8) % ALIGN_WORDS;
        let start = (ALIGN_WORDS - misalign) % ALIGN_WORDS;
        AlignedWords { words, start }
    }

    fn len(&self) -> usize {
        self.words.len() + 1 - ALIGN_WORDS
    }

    fn as_slice(&self) -> &[u64] {
        let end = self.start + self.len();
        invariant!(end <= self.words.len(), "the offset skips less than one host line");
        &self.words[self.start..end]
    }
}

/// The set blocks and line records of a set-associative array.
///
/// Field layout is crate-internal; [`SetAssoc`](crate::set_assoc::SetAssoc)
/// is the only consumer and re-exposes typed accessors.
#[derive(Clone, Debug)]
pub struct SetBlocks<P> {
    ways: usize,
    /// `u64` words per set block.
    stride: usize,
    /// All set blocks, set `s` at words `start + s * stride ..`.
    blocks: AlignedWords,
    /// One record per line, `set * ways + way`.
    pub(crate) records: Vec<LineRecord<P>>,
}

impl<P: Default> SetBlocks<P> {
    /// Allocates empty storage for `sets × ways` lines: every way
    /// invalid, every tag and stamp 0. Victim search takes an invalid way
    /// before it reads any stamp, and a fill sets the stamp of the way it
    /// validates, so no initial stamp is ever read.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds [`MAX_WAYS`] (the validity bitmask is one
    /// `u64` per set).
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= MAX_WAYS, "associativity {ways} exceeds the {MAX_WAYS}-way bitmask limit");
        let stride = TAGS + ways + ways.div_ceil(2);
        let blocks = AlignedWords::new(sets * stride);
        let lines = sets * ways;
        let mut records = Vec::with_capacity(lines);
        records.resize_with(lines, LineRecord::default);
        SetBlocks { ways, stride, blocks, records }
    }
}

impl<P> SetBlocks<P> {
    /// Word index of set `set`'s block (its validity mask).
    #[inline]
    pub(crate) fn block(&self, set: usize) -> usize {
        self.blocks.start + set * self.stride
    }

    /// Validity mask of the block at `block`.
    #[inline]
    pub(crate) fn valid(&self, block: usize) -> u64 {
        invariant!(block < self.blocks.words.len(), "block() stays inside the blocks");
        self.blocks.words[block]
    }

    /// Mutable validity mask of the block at `block`.
    #[inline]
    pub(crate) fn valid_mut(&mut self, block: usize) -> &mut u64 {
        invariant!(block < self.blocks.words.len(), "block() stays inside the blocks");
        &mut self.blocks.words[block]
    }

    /// Tag of `way` in the block at `block`.
    #[inline]
    pub(crate) fn tag(&self, block: usize, way: usize) -> u64 {
        invariant!(way < self.ways, "way {way} beyond the {}-way set", self.ways);
        self.blocks.words[block + TAGS + way]
    }

    /// Stores `tag` in `way` of the block at `block`.
    #[inline]
    pub(crate) fn set_tag(&mut self, block: usize, way: usize, tag: u64) {
        invariant!(way < self.ways, "way {way} beyond the {}-way set", self.ways);
        self.blocks.words[block + TAGS + way] = tag;
    }

    /// Word index and bit shift of `way`'s stamp in the block at `block`.
    #[inline]
    fn stamp_slot(&self, block: usize, way: usize) -> (usize, u32) {
        invariant!(way < self.ways, "way {way} beyond the {}-way set", self.ways);
        (block + TAGS + self.ways + way / 2, 32 * (way as u32 & 1))
    }

    /// Replacement stamp of `way` in the block at `block`.
    #[inline]
    pub(crate) fn stamp(&self, block: usize, way: usize) -> u32 {
        let (word, shift) = self.stamp_slot(block, way);
        invariant!(word < self.blocks.words.len(), "block() stays inside the blocks");
        (self.blocks.words[word] >> shift) as u32
    }

    /// Stores `stamp` as `way`'s replacement stamp in the block at `block`.
    #[inline]
    pub(crate) fn set_stamp(&mut self, block: usize, way: usize, stamp: u32) {
        let (word, shift) = self.stamp_slot(block, way);
        invariant!(word < self.blocks.words.len(), "block() stays inside the blocks");
        let slot = &mut self.blocks.words[word];
        *slot = (*slot & !(u64::from(u32::MAX) << shift)) | (u64::from(stamp) << shift);
    }

    /// Branchless tag compare over the set's contiguous tags
    /// ([`match_tags`]), intersected with the validity mask. Bit `w` of
    /// the result is set iff way `w` is valid and holds `tag`;
    /// `trailing_zeros` recovers the first match.
    #[inline]
    pub(crate) fn match_mask(&self, block: usize, tag: u64) -> u64 {
        let words = &self.blocks.words;
        invariant!(block + TAGS + self.ways <= words.len(), "block() stays inside the blocks");
        match_tags(&words[block + TAGS..block + TAGS + self.ways], tag) & words[block]
    }

    /// The way holding the least replacement stamp in the block at
    /// `block`, the lowest such way on a tie ([`min_key_way`]).
    #[inline]
    pub(crate) fn min_stamp_way(&self, block: usize) -> usize {
        let words = &self.blocks.words;
        let start = block + TAGS + self.ways;
        let end = start + self.ways.div_ceil(2);
        invariant!(end <= words.len(), "block() stays inside the blocks");
        min_key_way(&words[start..end], self.ways)
    }

    /// Iterates over all valid lines in storage order.
    pub(crate) fn iter_valid(&self) -> impl Iterator<Item = LineRef<'_, P>> {
        let sets = self.records.len() / self.ways;
        (0..sets).flat_map(move |set| {
            let block = self.block(set);
            BitIter(self.valid(block)).map(move |way| {
                let idx = set * self.ways + way;
                let record = &self.records[idx];
                LineRef { tag: self.tag(block, way), life: record.life(), payload: &record.payload }
            })
        })
    }

    /// Number of valid lines across all sets.
    #[inline]
    pub(crate) fn valid_count(&self) -> usize {
        self.blocks.as_slice().chunks_exact(self.stride).map(|b| b[0].count_ones() as usize).sum()
    }

    /// Host bytes this storage occupies: the block words (alignment slack
    /// included) plus the records.
    #[cfg(test)]
    pub(crate) fn host_bytes(&self) -> usize {
        self.blocks.words.capacity() * std::mem::size_of::<u64>()
            + self.records.capacity() * std::mem::size_of::<LineRecord<P>>()
    }
}

/// A read-only view of one valid line, yielded by
/// [`SetAssoc::iter_valid`](crate::set_assoc::SetAssoc::iter_valid).
#[derive(Clone, Copy, Debug)]
pub struct LineRef<'a, P> {
    tag: u64,
    life: LineLife,
    /// The line's payload.
    pub payload: &'a P,
}

impl<P> LineRef<'_, P> {
    /// The line's tag.
    #[inline]
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Lifetime statistics of the current contents.
    #[inline]
    pub fn life(&self) -> LineLife {
        self.life
    }
}

/// Way-match bitmask over a set's contiguous tag column: bit `w` of the
/// result is set iff `tags[w] == needle`. First-match-wins order is the
/// bit order, so `trailing_zeros` on the result recovers the same way a
/// linear scan finds.
///
/// The paper-baseline associativities (4-way L1 TLB, 8-way L1D/L2/LLT,
/// 16-way LLC) are dispatched to fixed-width comparisons so the compiler
/// sees a compile-time trip count and can fully unroll; any other
/// geometry takes the generic loop. The predictors' ghost rings
/// (`dpc_predictors::GhostTracker`) match their slots with it too.
#[inline]
pub fn match_tags(tags: &[u64], needle: u64) -> u64 {
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

/// Way of the least stamp among the first `ways` stamps packed two per
/// word in `stamps` (way `w` in the low half of word `w / 2` when even,
/// the high half when odd), the lowest way among equal stamps.
///
/// Each way's key is `(stamp << 6) | way`: a `u32` stamp over a 6-bit way
/// number, so keys are distinct and the least key is the first least
/// stamp, exactly what a first-minimum linear scan picks. The
/// paper-baseline widths (4, 8, 16) reduce their keys pairwise, a tree of
/// independent `min`s instead of a serial compare chain; any other
/// geometry takes the generic loop.
#[inline]
fn min_key_way(stamps: &[u64], ways: usize) -> usize {
    match ways {
        4 => fixed_min_key_way::<4>(stamps),
        8 => fixed_min_key_way::<8>(stamps),
        16 => fixed_min_key_way::<16>(stamps),
        _ => generic_min_key_way(stamps, ways),
    }
}

/// The key of way `way`, whose stamp shares `word` with its pair.
#[inline]
fn way_key(word: u64, way: usize) -> u64 {
    (((word >> (32 * (way % 2))) & u64::from(u32::MAX)) << 6) | way as u64
}

/// [`min_key_way`] at a compile-time width `N` (even): every key is built
/// into a fixed array, then halved pairwise until one is left. Falls back
/// to [`generic_min_key_way`] if `stamps` is not exactly `N / 2` words
/// (cannot happen for callers that dispatch on the way count, but keeps
/// the function total without panicking).
#[inline]
fn fixed_min_key_way<const N: usize>(stamps: &[u64]) -> usize {
    if stamps.len() != N / 2 {
        return generic_min_key_way(stamps, N);
    }
    let mut keys = [0u64; N];
    for (way, key) in keys.iter_mut().enumerate() {
        *key = way_key(stamps[way / 2], way);
    }
    let mut width = N;
    while width > 1 {
        width /= 2;
        let (low, high) = keys.split_at_mut(width);
        for (a, &b) in low.iter_mut().zip(high.iter()) {
            *a = (*a).min(b);
        }
    }
    (keys[0] & 63) as usize
}

/// [`min_key_way`] for arbitrary associativity.
#[inline]
fn generic_min_key_way(stamps: &[u64], ways: usize) -> usize {
    let mut best = u64::MAX;
    for way in 0..ways.min(2 * stamps.len()) {
        best = best.min(way_key(stamps[way / 2], way));
    }
    (best & 63) as usize
}

/// Iterator over the set bit positions of a `u64` mask, ascending.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_mask_respects_validity_and_order() {
        let mut store: SetBlocks<u32> = SetBlocks::new(2, 4);
        // Set 1: ways 0 and 2 hold tag 7, but only way 2 is valid.
        let block = store.block(1);
        store.set_tag(block, 0, 7);
        store.set_tag(block, 2, 7);
        *store.valid_mut(block) = 0b0100;
        assert_eq!(store.match_mask(block, 7), 0b0100);
        // Making way 0 valid restores first-match-wins via trailing_zeros.
        *store.valid_mut(block) = 0b0101;
        let mask = store.match_mask(block, 7);
        assert_eq!(mask, 0b0101);
        assert_eq!(mask.trailing_zeros(), 0);
        // An invalid set contributes nothing.
        assert_eq!(store.match_mask(store.block(0), 0), 0);
    }

    #[test]
    fn match_tags_is_positional() {
        let tags = [7u64, 9, 7, 1];
        assert_eq!(match_tags(&tags, 7), 0b0101);
        assert_eq!(match_tags(&tags, 1), 0b1000);
        assert_eq!(match_tags(&tags, 2), 0);
        assert_eq!(match_tags(&[], 2), 0);
    }

    #[test]
    fn match_tags_matches_a_fold_at_every_width() {
        let mut state = 0xFEED_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        // Every width up to the 64-way bitmask ceiling: the fixed-width
        // arms and the generic loop alike.
        for ways in 0..=MAX_WAYS {
            for round in 0..50 {
                // Narrow tag range so collisions (multi-way matches) occur.
                let tags: Vec<u64> = (0..ways).map(|_| next() % 8).collect();
                let needle = next() % 8;
                let want =
                    tags.iter().enumerate().fold(0, |m, (w, &t)| m | u64::from(t == needle) << w);
                assert_eq!(match_tags(&tags, needle), want, "ways {ways}, round {round}");
            }
        }
    }

    /// The tree-reduced argmin must pick what a first-minimum linear scan
    /// picks, at every width, with stamps at the top of the `u32` range
    /// (the key's high bits) and with ties (a narrow stamp range).
    #[test]
    fn min_key_way_matches_a_first_minimum_scan_at_every_width() {
        let mut next = {
            let mut state = 0xA4611_u64;
            move || {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 33
            }
        };
        for ways in 1..=MAX_WAYS {
            for round in 0..50 {
                let stamps: Vec<u32> = (0..ways)
                    .map(|_| match round % 3 {
                        0 => u32::MAX - (next() % 4) as u32,
                        1 => (next() % 3) as u32,
                        _ => next() as u32,
                    })
                    .collect();
                let mut words = vec![0u64; ways.div_ceil(2)];
                for (way, &stamp) in stamps.iter().enumerate() {
                    words[way / 2] |= u64::from(stamp) << (32 * (way % 2));
                }
                let mut want = 0;
                for way in 1..ways {
                    if stamps[way] < stamps[want] {
                        want = way;
                    }
                }
                assert_eq!(min_key_way(&words, ways), want, "ways {ways}, round {round}");
            }
        }
    }

    #[test]
    fn bit_iter_ascends() {
        let bits: Vec<usize> = BitIter(0b1010_0110).collect();
        assert_eq!(bits, vec![1, 2, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
    }

    #[test]
    fn iter_valid_walks_storage_order() {
        let mut store: SetBlocks<u32> = SetBlocks::new(2, 2);
        let (b0, b1) = (store.block(0), store.block(1));
        store.set_tag(b0, 1, 11);
        store.set_tag(b1, 0, 22);
        *store.valid_mut(b0) = 0b10;
        *store.valid_mut(b1) = 0b01;
        let tags: Vec<u64> = store.iter_valid().map(|l| l.tag()).collect();
        assert_eq!(tags, vec![11, 22]);
        assert_eq!(store.valid_count(), 2);
    }

    /// Stamps share words in pairs; writing one way's stamp must leave
    /// its neighbour, the tags and the validity mask alone, for odd and
    /// even associativities.
    #[test]
    fn stamps_pack_two_per_word_without_clobbering() {
        for ways in [1usize, 3, 4, 12, 16, 64] {
            let mut store: SetBlocks<u32> = SetBlocks::new(3, ways);
            let block = store.block(1);
            for way in 0..ways {
                assert_eq!(store.stamp(block, way), 0, "{ways}-way initial stamp");
                store.set_tag(block, way, 1000 + way as u64);
            }
            *store.valid_mut(block) = 0b1;
            for way in 0..ways {
                store.set_stamp(block, way, u32::MAX - way as u32);
            }
            for way in 0..ways {
                assert_eq!(store.stamp(block, way), u32::MAX - way as u32, "{ways}-way stamp");
                assert_eq!(store.tag(block, way), 1000 + way as u64, "{ways}-way tag");
            }
            assert_eq!(store.valid(block), 0b1);
            // The neighbouring sets' blocks are untouched.
            for set in [0, 2] {
                let other = store.block(set);
                assert_eq!(store.valid(other), 0);
                assert!((0..ways).all(|w| store.stamp(other, w) == 0 && store.tag(other, w) == 0));
            }
        }
    }

    #[test]
    fn blocks_start_on_a_host_line() {
        for (sets, ways) in [(1, 1), (4, 16), (3, 12), (2, 64)] {
            let store: SetBlocks<u32> = SetBlocks::new(sets, ways);
            let first = store.blocks.as_slice().as_ptr();
            assert_eq!(first.addr() % 64, 0, "{sets}x{ways}: block array is line-aligned");
            assert_eq!(store.blocks.as_slice().len(), sets * store.stride);
        }
    }

    #[test]
    #[should_panic(expected = "bitmask limit")]
    fn over_wide_sets_rejected() {
        let _: SetBlocks<u32> = SetBlocks::new(1, 65);
    }
}
