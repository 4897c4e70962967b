//! Struct-of-arrays backing store for [`SetAssoc`](crate::set_assoc::SetAssoc).
//!
//! The hot path of the simulator is the tag search in `SetAssoc::lookup`;
//! with an array-of-structs layout every probed way drags a whole
//! `Line<P>` (tag + stamp + rrpv + lifetime stats + payload) through the
//! data cache. This module stores each field in its own dense column so a
//! set's tags occupy one contiguous run of `ways` × 8 bytes — a 16-way
//! set's tags fit in two hardware cache lines — and validity is a single
//! `u64` bitmask per set:
//!
//! * `valid[set]` — bit `w` set ⇔ way `w` holds valid contents;
//! * `tags[set * ways + w]` — the tag stored in way `w`;
//! * `stamps` / `rrpvs` — LRU/FIFO recency stamps and SRRIP re-reference
//!   values, only touched by the replacement policy;
//! * `lives` — [`LineLife`] lifetime statistics for the deadness
//!   characterization;
//! * `payloads` — the structure-specific payload (TLB translation, cache
//!   block flags, PWC node, ...).
//!
//! [`SoaColumns::match_mask`] compares every tag of a set without
//! branching and intersects with the validity mask; `trailing_zeros` on
//! the result recovers the first matching way, preserving the
//! first-match-wins semantics of the original linear scan bit for bit.
//!
//! Bounds evidence for the dpc-lint `hot-path::index` rule: every flat
//! index is `set * ways + way` where `set` comes from
//! `SetAssoc::set_of` (reduced modulo / masked by the set count) and
//! `way < ways` is asserted by `invariant!` at the call sites, so all
//! column accesses stay inside the `sets * ways` allocation made by
//! [`SoaColumns::new`].

use crate::set_assoc::LineLife;
use dpc_types::invariant;

/// Maximum associativity representable by the per-set `u64` validity
/// bitmask.
pub const MAX_WAYS: usize = 64;

/// The dense parallel columns of a set-associative array.
///
/// Field layout is crate-internal; [`SetAssoc`](crate::set_assoc::SetAssoc)
/// is the only consumer and re-exposes typed accessors.
#[derive(Clone, Debug)]
pub struct SoaColumns<P> {
    ways: usize,
    /// One validity bitmask per set (bit `w` = way `w` is valid).
    pub(crate) valid: Vec<u64>,
    /// Packed tags, `ways` consecutive entries per set.
    pub(crate) tags: Vec<u64>,
    /// LRU/FIFO recency stamps, same layout as `tags`.
    pub(crate) stamps: Vec<u64>,
    /// SRRIP re-reference prediction values, same layout as `tags`.
    pub(crate) rrpvs: Vec<u8>,
    /// Per-line lifetime statistics, same layout as `tags`.
    pub(crate) lives: Vec<LineLife>,
    /// Per-line payloads, same layout as `tags`.
    pub(crate) payloads: Vec<P>,
}

impl<P: Default> SoaColumns<P> {
    /// Allocates empty columns for `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics if `ways` exceeds [`MAX_WAYS`] (the validity bitmask is one
    /// `u64` per set).
    pub(crate) fn new(sets: usize, ways: usize, initial_rrpv: u8) -> Self {
        assert!(ways <= MAX_WAYS, "associativity {ways} exceeds the {MAX_WAYS}-way bitmask limit");
        let lines = sets * ways;
        let mut payloads = Vec::with_capacity(lines);
        payloads.resize_with(lines, P::default);
        SoaColumns {
            ways,
            valid: vec![0; sets],
            tags: vec![0; lines],
            stamps: vec![0; lines],
            rrpvs: vec![initial_rrpv; lines],
            lives: vec![LineLife::default(); lines],
            payloads,
        }
    }
}

impl<P> SoaColumns<P> {
    /// Branchless tag compare over the set's contiguous tag column,
    /// intersected with the validity mask. Bit `w` of the result is set
    /// iff way `w` is valid and holds `tag`; `trailing_zeros` recovers
    /// the first match.
    ///
    /// The compare itself is [`crate::simd::match_mask`]: 256-bit AVX2
    /// tag compares (four ways per vector) when the runtime SIMD gate is
    /// on, fixed-width unrolled scalar comparisons otherwise — both
    /// producing the identical way bitmask.
    #[inline]
    pub(crate) fn match_mask(&self, set: usize, base: usize, tag: u64) -> u64 {
        invariant!(set < self.valid.len(), "caller masks the set index into range");
        invariant!(base + self.ways <= self.tags.len(), "base = set * ways stays inside the tags");
        crate::simd::match_mask(&self.tags[base..base + self.ways], tag) & self.valid[set]
    }

    /// Iterates over all valid lines in storage order, with the owning
    /// array's lazily buffered hit-promotion merged in: the line at flat index
    /// `pending_idx` is yielded with `pending_hits` extra hits and
    /// `pending_seq` as its last-hit time, exactly the state eager
    /// updates would have left in the columns. Pass `usize::MAX` (never
    /// a valid index) when nothing is buffered.
    pub(crate) fn iter_valid_pending(
        &self,
        pending_idx: usize,
        pending_hits: u64,
        pending_seq: u64,
    ) -> impl Iterator<Item = LineRef<'_, P>> {
        self.valid.iter().enumerate().flat_map(move |(set, &mask)| {
            let base = set * self.ways;
            BitIter(mask).map(move |way| {
                let idx = base + way;
                let mut life = self.lives[idx];
                if idx == pending_idx {
                    life.hits += pending_hits;
                    life.last_hit_seq = pending_seq;
                }
                LineRef { tag: self.tags[idx], life, payload: &self.payloads[idx] }
            })
        })
    }

    /// Number of valid lines across all sets.
    #[inline]
    pub(crate) fn valid_count(&self) -> usize {
        self.valid.iter().map(|m| m.count_ones() as usize).sum()
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
        let mut cols: SoaColumns<u32> = SoaColumns::new(2, 4, 0);
        // Set 1: ways 0 and 2 hold tag 7, but only way 2 is valid.
        let base = 4;
        cols.tags[base] = 7;
        cols.tags[base + 2] = 7;
        cols.valid[1] = 0b0100;
        assert_eq!(cols.match_mask(1, base, 7), 0b0100);
        // Making way 0 valid restores first-match-wins via trailing_zeros.
        cols.valid[1] = 0b0101;
        let mask = cols.match_mask(1, base, 7);
        assert_eq!(mask, 0b0101);
        assert_eq!(mask.trailing_zeros(), 0);
        // An invalid set contributes nothing.
        assert_eq!(cols.match_mask(0, 0, 0), 0);
    }

    #[test]
    fn bit_iter_ascends() {
        let bits: Vec<usize> = BitIter(0b1010_0110).collect();
        assert_eq!(bits, vec![1, 2, 5, 7]);
        assert_eq!(BitIter(0).count(), 0);
    }

    #[test]
    fn iter_valid_walks_storage_order() {
        let mut cols: SoaColumns<u32> = SoaColumns::new(2, 2, 0);
        cols.tags[1] = 11; // set 0, way 1
        cols.tags[2] = 22; // set 1, way 0
        cols.valid[0] = 0b10;
        cols.valid[1] = 0b01;
        let tags: Vec<u64> = cols.iter_valid_pending(usize::MAX, 0, 0).map(|l| l.tag()).collect();
        assert_eq!(tags, vec![11, 22]);
        assert_eq!(cols.valid_count(), 2);
    }

    #[test]
    fn iter_valid_pending_merges_the_buffered_promotion() {
        let mut cols: SoaColumns<u32> = SoaColumns::new(1, 2, 0);
        cols.valid[0] = 0b11;
        cols.lives[0] = LineLife { fill_seq: 1, last_hit_seq: 1, hits: 0 };
        cols.lives[1] = LineLife { fill_seq: 2, last_hit_seq: 2, hits: 5 };
        let lives: Vec<LineLife> = cols.iter_valid_pending(1, 3, 9).map(|l| l.life()).collect();
        assert_eq!(lives[0], cols.lives[0], "unbuffered line is yielded verbatim");
        assert_eq!(lives[1], LineLife { fill_seq: 2, last_hit_seq: 9, hits: 8 });
        // The columns themselves stay untouched: merge, not flush.
        assert_eq!(cols.lives[1].hits, 5);
    }

    #[test]
    #[should_panic(expected = "bitmask limit")]
    fn over_wide_sets_rejected() {
        let _: SoaColumns<u32> = SoaColumns::new(1, 65, 0);
    }
}
