//! A generic set-associative array with pluggable replacement.
//!
//! Caches, TLBs and the (fully-associative) page-walk caches are all
//! instances of [`SetAssoc`] with different payload types. Replacement is
//! selected by [`ReplacementKind`]: LRU keeps a per-line recency stamp,
//! SRRIP a 2-bit re-reference prediction value, FIFO an insertion stamp.
//!
//! Storage is the set-blocked layout of [`crate::soa`]: each set's
//! validity mask, contiguous tags and `u32` replacement stamps share one
//! block, so a lookup is a branchless tag compare plus one mask
//! intersection inside a few adjacent host lines, and each line's
//! payload sits in a record of its own. Set indexing uses a precomputed
//! mask when the set count is a power of two (every paper-baseline
//! structure) and falls back to modulo otherwise (e.g. a 3 MB LLC with
//! 3072 sets).
//!
//! Only [`Lived`] payloads, those of the two levels a ledger reads (the
//! LLT and the LLC), keep the lifetime statistics of the paper's deadness
//! characterization (fill time, last-hit time, hit count), read as
//! [`LineLife`]; every other level stores its payload alone ([`Line`]).
//! The array's two clocks and everything stamped from them are `u32`:
//! [`MAX_CLOCK_STEPS_PER_MEM_OP`] bounds how fast any array's clocks
//! advance per simulated memory operation, and [`MAX_RUN_MEM_OPS`] is the
//! longest run that bound keeps below `u32::MAX` (DESIGN.md §10).
//!
//! The victim-selection hooks ([`SetAssoc::with_set_views`]) reuse a
//! scratch buffer owned by the array, so steady-state operation performs
//! **zero heap allocations per event** (see DESIGN.md §10).

use crate::policy::PolicyLineView;
use crate::soa::SetBlocks;
use dpc_types::{invariant, ReplacementKind};
use std::ops::Deref;

/// Payloads that expose 32 bits of policy scratch state to the
/// [`policy`](crate::policy) hooks.
pub trait HasPolicyState {
    /// Mutable access to the per-line policy state.
    fn policy_state_mut(&mut self) -> &mut u32;
}

/// The most any one array's lookup clock or recency clock advances per
/// simulated memory operation.
///
/// A memory operation makes at most two translations (instruction side,
/// data side), each with at most one page walk of at most four PTE loads
/// through the caches, plus its own data access: at most 9 cache
/// accesses, and each advances a cache's lookup clock once and its
/// recency clock once (a hit, or the fill after a miss). A translation
/// advances an L1 TLB member's clocks at most once each, the LLT's lookup
/// clock once per enabled page size (at most 3) and its recency clock at
/// most twice (a hit or fill, plus an L1 victim written back under
/// `L1ThenVictim`), and each PWC level's clocks at most once per walk.
/// The largest of these is the caches' 9. `System` tests pin this on
/// walk-heavy streams.
pub const MAX_CLOCK_STEPS_PER_MEM_OP: u64 = 9;

/// The longest run, warm-up plus measured memory operations, whose array
/// clocks stay below `u32::MAX`: `u32::MAX / MAX_CLOCK_STEPS_PER_MEM_OP`
/// (477 218 588). The experiment runner refuses longer runs before
/// anything simulates.
pub const MAX_RUN_MEM_OPS: u64 = u32::MAX as u64 / MAX_CLOCK_STEPS_PER_MEM_OP;

/// Maximum RRPV for 2-bit SRRIP (2^2 - 1).
pub const RRPV_MAX: u8 = 3;
/// SRRIP "long re-reference interval" insertion value (RRPV_MAX - 1).
pub const RRPV_LONG: u8 = 2;

/// Where a newly inserted line lands in the replacement order.
///
/// Mirrors how the paper adapts SHiP to both base policies: under LRU, a
/// distant prediction inserts at the LRU position; under SRRIP it inserts
/// with RRPV = 3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum InsertPriority {
    /// Most-recently-used position (LRU base) / RRPV = 2 (SRRIP base) — the
    /// default insertion of the respective policy.
    #[default]
    Normal,
    /// LRU position (LRU base) / RRPV = 3 (SRRIP base): predicted to be
    /// re-referenced in the distant future.
    Distant,
    /// MRU position / RRPV = 0: predicted imminent reuse.
    High,
}

/// Per-line lifetime statistics, in units of the owning structure's lookup
/// sequence numbers. Stored as `u32`s (see [`MAX_RUN_MEM_OPS`]) and
/// widened on read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LineLife {
    /// Lookup sequence number at fill.
    pub fill_seq: u64,
    /// Lookup sequence number of the most recent hit (equals `fill_seq`
    /// until the first hit).
    pub last_hit_seq: u64,
    /// Number of hits the line has received since fill.
    pub hits: u64,
}

/// A line's payload, told of its fill and of every hit at the array's
/// lookup clock. Only [`Lived`] records them: every other payload keeps
/// the empty defaults, so a hit stores nothing outside the set block.
pub trait Line: Default {
    /// The line was filled at lookup clock `seq`.
    #[inline(always)]
    fn stamp_fill(&mut self, _seq: u32) {}
    /// The line was hit at lookup clock `seq`.
    #[inline(always)]
    fn stamp_hit(&mut self, _seq: u32) {}
}

impl Line for () {}
/// The equivalence suites' test payload.
impl Line for u32 {}

/// A payload `P` with its line's lifetime as `u32` clocks (see
/// [`MAX_RUN_MEM_OPS`]): the payload of the two levels a
/// [`Ledger`](crate::stats::Ledger) reads, the LLT and the LLC. It
/// dereferences to `P`, and its policy state is `P`'s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lived<P> {
    fill_seq: u32,
    last_hit_seq: u32,
    hits: u32,
    payload: P,
}

impl<P> Lived<P> {
    /// `payload` before its fill; the fill stamps the clocks.
    pub fn new(payload: P) -> Self {
        Lived { fill_seq: 0, last_hit_seq: 0, hits: 0, payload }
    }

    /// The lifetime statistics, widened to the public form.
    pub fn life(&self) -> LineLife {
        LineLife {
            fill_seq: u64::from(self.fill_seq),
            last_hit_seq: u64::from(self.last_hit_seq),
            hits: u64::from(self.hits),
        }
    }

    /// The paper's `Accessed` bit: was the line hit since its fill?
    pub fn accessed(&self) -> bool {
        self.hits > 0
    }
}

impl<P: Default> Line for Lived<P> {
    #[inline(always)]
    fn stamp_fill(&mut self, seq: u32) {
        (self.fill_seq, self.last_hit_seq, self.hits) = (seq, seq, 0);
    }
    #[inline(always)]
    fn stamp_hit(&mut self, seq: u32) {
        self.hits += 1;
        self.last_hit_seq = seq;
    }
}

impl<P> Deref for Lived<P> {
    type Target = P;
    fn deref(&self) -> &P {
        &self.payload
    }
}

impl<P: HasPolicyState> HasPolicyState for Lived<P> {
    fn policy_state_mut(&mut self) -> &mut u32 {
        self.payload.policy_state_mut()
    }
}

/// Contents evicted by an insertion.
#[derive(Clone, Debug)]
pub struct Evicted<P> {
    /// Tag of the evicted line.
    pub tag: u64,
    /// The evicted payload (with its lifetime, for a [`Lived`] one).
    pub payload: P,
}

/// A set-associative array of `sets × ways` lines holding payload `P`,
/// stored as set blocks plus payload records ([`SetBlocks`]).
#[derive(Clone, Debug)]
pub struct SetAssoc<P> {
    sets: usize,
    ways: usize,
    /// `sets - 1` when the set count is a power of two (mask indexing).
    set_mask: u64,
    /// Whether `set_mask` is usable (power-of-two set count).
    sets_pow2: bool,
    /// Bitmask with the low `ways` bits set (a full set's validity mask).
    way_mask: u64,
    replacement: ReplacementKind,
    store: SetBlocks<P>,
    /// Reusable buffer for [`SetAssoc::with_set_views`]; preallocated to
    /// `ways` so the hot path never reallocates.
    scratch: Vec<PolicyLineView>,
    /// Monotonic recency clock (advanced on every touch/insert).
    tick: u32,
    /// Monotonic lookup sequence (advanced on every lookup), the clock
    /// the [`Line`] hooks are given.
    seq: u32,
}

impl<P: Line> SetAssoc<P> {
    /// Creates an array with `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `ways` exceeds the
    /// 64-way validity-bitmask limit.
    pub fn new(sets: usize, ways: usize, replacement: ReplacementKind) -> Self {
        assert!(sets > 0 && ways > 0, "SetAssoc requires nonzero geometry");
        let sets_pow2 = sets.is_power_of_two();
        let way_mask = if ways == 64 { u64::MAX } else { (1u64 << ways) - 1 };
        SetAssoc {
            sets,
            ways,
            set_mask: (sets as u64).wrapping_sub(1),
            sets_pow2,
            way_mask,
            replacement,
            store: SetBlocks::new(sets, ways),
            scratch: Vec::with_capacity(ways),
            tick: 0,
            seq: 0,
        }
    }

    /// Number of sets.
    #[inline]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    #[inline]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Set index for a line address (block address, VPN, ...): a mask when
    /// the set count is a power of two, modulo otherwise (which also
    /// handles non-power-of-two organizations such as a 3 MB LLC).
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        if self.sets_pow2 {
            (addr & self.set_mask) as usize
        } else {
            (addr % self.sets as u64) as usize
        }
    }

    /// Current lookup sequence number (the structure-local clock used by
    /// [`LineLife`]).
    #[inline]
    pub fn seq(&self) -> u64 {
        u64::from(self.seq)
    }

    /// Current recency clock (advanced on every hit and fill).
    #[cfg(test)]
    pub(crate) fn tick(&self) -> u64 {
        u64::from(self.tick)
    }

    /// Starts both clocks at `start`, so tests can drive an array across
    /// the top of the `u32` clock range without simulating 4 billion
    /// lookups first.
    #[cfg(test)]
    pub(crate) fn start_clocks_at(&mut self, start: u32) {
        self.seq = start;
        self.tick = start;
    }

    /// The block (word index) of the set `addr` maps to and the record
    /// index of `way` in that set (`way` checked against the
    /// associativity).
    #[inline]
    fn locate(&self, addr: u64, way: usize) -> (usize, usize) {
        let set = self.set_of(addr);
        invariant!(way < self.ways, "way {way} out of range for {}-way array", self.ways);
        (self.store.block(set), set * self.ways + way)
    }

    /// Records a hit on `way` (record index `idx`, set block `block`):
    /// the payload's [`Line::stamp_hit`] at the current lookup clock, and
    /// the replacement promotion in its stamp (the recency clock under
    /// LRU, RRPV 0 under SRRIP, nothing under FIFO). Must run *after* the
    /// hit advanced `seq` and `tick`.
    #[inline]
    fn note_hit(&mut self, block: usize, way: usize, idx: usize) {
        invariant!(idx < self.store.records.len(), "set * ways + way stays inside the records");
        self.store.records[idx].stamp_hit(self.seq);
        match self.replacement {
            ReplacementKind::Lru => self.store.set_stamp(block, way, self.tick),
            ReplacementKind::Srrip => self.store.set_stamp(block, way, 0),
            ReplacementKind::Fifo => {}
        }
    }

    /// Looks up `tag` in its set. On a hit, advances the lookup clock,
    /// updates recency and the payload's [`Line::stamp_hit`], and returns
    /// the way index. On a miss, only the lookup clock advances.
    #[inline]
    pub fn lookup(&mut self, addr: u64, tag: u64) -> Option<usize> {
        self.lookup_payload(addr, tag).map(|(way, _)| way)
    }

    /// [`lookup`](Self::lookup) that also returns a reference to the hit
    /// line's payload, saving the re-derivation of its record index that
    /// a separate [`payload`](Self::payload) call would perform.
    #[inline]
    pub fn lookup_payload(&mut self, addr: u64, tag: u64) -> Option<(usize, &P)> {
        advance(&mut self.seq);
        let set = self.set_of(addr);
        let block = self.store.block(set);
        let hit = self.store.match_mask(block, tag);
        if hit == 0 {
            return None;
        }
        // First-match-wins, exactly like a linear scan.
        let way = hit.trailing_zeros() as usize;
        let idx = set * self.ways + way;
        advance(&mut self.tick);
        self.note_hit(block, way, idx);
        Some((way, &self.store.records[idx]))
    }

    /// Probes for `tag` without advancing any clock or updating recency
    /// (used by inclusion checks and tests).
    #[inline]
    pub fn peek(&self, addr: u64, tag: u64) -> Option<usize> {
        let hit = self.store.match_mask(self.store.block(self.set_of(addr)), tag);
        if hit == 0 {
            None
        } else {
            Some(hit.trailing_zeros() as usize)
        }
    }

    /// Payload of a way in the set that `addr` maps to (contents are
    /// meaningful only while the way is valid).
    #[inline]
    pub fn payload(&self, addr: u64, way: usize) -> &P {
        let (_, idx) = self.locate(addr, way);
        invariant!(idx < self.store.records.len(), "locate() stays inside the records");
        &self.store.records[idx]
    }

    /// Mutable payload of a way in the set that `addr` maps to.
    #[inline]
    pub fn payload_mut(&mut self, addr: u64, way: usize) -> &mut P {
        let (_, idx) = self.locate(addr, way);
        invariant!(idx < self.store.records.len(), "locate() stays inside the records");
        &mut self.store.records[idx]
    }

    /// The way the base replacement policy would evict from the set `addr`
    /// maps to: the same choice [`fill`](Self::fill) makes. Invalid ways
    /// are preferred. SRRIP ages lines as a side effect (that *is* the
    /// SRRIP victim-search algorithm).
    #[inline]
    pub fn victim_way(&mut self, addr: u64) -> usize {
        let block = self.store.block(self.set_of(addr));
        self.victim_in(block)
    }

    /// The base policy's victim in the set block at `block`. The first
    /// invalid way wins; otherwise
    /// LRU/FIFO take the least stamp, the lowest way among equal stamps
    /// (a `Distant` insertion stamps 0, so ties occur), and SRRIP ages the
    /// set until some way reaches [`RRPV_MAX`].
    #[inline]
    fn victim_in(&mut self, block: usize) -> usize {
        let invalid = !self.store.valid(block) & self.way_mask;
        if invalid != 0 {
            return invalid.trailing_zeros() as usize;
        }
        match self.replacement {
            ReplacementKind::Lru | ReplacementKind::Fifo => self.store.min_stamp_way(block),
            ReplacementKind::Srrip => loop {
                let max = u32::from(RRPV_MAX);
                if let Some(way) = (0..self.ways).find(|&w| self.store.stamp(block, w) >= max) {
                    return way;
                }
                for way in 0..self.ways {
                    let rrpv = self.store.stamp(block, way);
                    self.store.set_stamp(block, way, rrpv + 1);
                }
            },
        }
    }

    /// Inserts `payload` under `tag` into the given `way` of the set `addr`
    /// maps to, returning the previous contents if the way was valid.
    /// Only a policy that picks its own victim needs this; everything
    /// else calls [`fill`](Self::fill).
    #[inline]
    pub fn fill_way(
        &mut self,
        addr: u64,
        way: usize,
        tag: u64,
        payload: P,
        priority: InsertPriority,
    ) -> Option<Evicted<P>> {
        assert!(way < self.ways, "way {way} out of range (ways = {})", self.ways);
        let (block, idx) = self.locate(addr, way);
        self.install(block, way, idx, tag, payload, priority)
    }

    /// Inserts via the base replacement policy's victim choice, in one
    /// pass over the set: one set lookup, the victim search of
    /// [`victim_way`](Self::victim_way), then the install
    /// [`fill_way`](Self::fill_way) shares.
    #[inline]
    pub fn fill(
        &mut self,
        addr: u64,
        tag: u64,
        payload: P,
        priority: InsertPriority,
    ) -> Option<Evicted<P>> {
        let set = self.set_of(addr);
        let block = self.store.block(set);
        let way = self.victim_in(block);
        self.install(block, way, set * self.ways + way, tag, payload, priority)
    }

    /// Writes a fresh line into `way` (record index `idx`) of the set
    /// block at `block` and stamps it for `priority`, returning the
    /// previous contents if the way was valid.
    #[inline(always)]
    fn install(
        &mut self,
        block: usize,
        way: usize,
        idx: usize,
        tag: u64,
        mut payload: P,
        priority: InsertPriority,
    ) -> Option<Evicted<P>> {
        invariant!(idx < self.store.records.len(), "the victim's record lies inside its set");
        advance(&mut self.tick);
        let tick = self.tick;
        let way_bit = 1u64 << way;
        let old_tag = self.store.tag(block, way);
        let was_valid = self.store.valid(block) & way_bit != 0;
        payload.stamp_fill(self.seq);
        let old = std::mem::replace(&mut self.store.records[idx], payload);
        let evicted = was_valid.then_some(Evicted { tag: old_tag, payload: old });
        *self.store.valid_mut(block) |= way_bit;
        self.store.set_tag(block, way, tag);
        let stamp = match self.replacement {
            ReplacementKind::Lru => match priority {
                InsertPriority::Normal | InsertPriority::High => tick,
                InsertPriority::Distant => 0,
            },
            ReplacementKind::Fifo => tick,
            ReplacementKind::Srrip => u32::from(match priority {
                InsertPriority::Normal => RRPV_LONG,
                InsertPriority::Distant => RRPV_MAX,
                InsertPriority::High => 0,
            }),
        };
        self.store.set_stamp(block, way, stamp);
        evicted
    }

    /// Invalidates `tag` if present, returning the evicted contents
    /// (used for LLC-inclusion back-invalidation).
    pub fn invalidate(&mut self, addr: u64, tag: u64) -> Option<Evicted<P>> {
        let way = self.peek(addr, tag)?;
        let (block, idx) = self.locate(addr, way);
        *self.store.valid_mut(block) &= !(1u64 << way);
        let tag = self.store.tag(block, way);
        Some(Evicted { tag, payload: std::mem::take(&mut self.store.records[idx]) })
    }

    /// Whether every way of the set `addr` maps to holds valid contents.
    #[inline]
    pub fn set_full(&self, addr: u64) -> bool {
        self.store.valid(self.store.block(self.set_of(addr))) == self.way_mask
    }

    /// Runs `f` over [`PolicyLineView`]s of all *valid* lines in the set
    /// `addr` maps to. `hit_way` marks which view (if any) corresponds to
    /// the line the current lookup hit.
    ///
    /// The views carry a *copy* of each line's policy state; whatever the
    /// hook leaves in [`PolicyLineView::state`] is written back to the
    /// line afterwards. The view buffer is owned by the array and reused
    /// across calls — building views allocates nothing in steady state.
    #[inline]
    pub fn with_set_views<R>(
        &mut self,
        addr: u64,
        hit_way: Option<usize>,
        f: impl FnOnce(&mut [PolicyLineView]) -> R,
    ) -> R
    where
        P: HasPolicyState,
    {
        let set = self.set_of(addr);
        let block = self.store.block(set);
        let base = set * self.ways;
        self.scratch.clear();
        let mut mask = self.store.valid(block);
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let state = *self.store.records[base + way].policy_state_mut();
            self.scratch.push(PolicyLineView {
                way,
                tag: self.store.tag(block, way),
                is_hit: hit_way == Some(way),
                state,
            });
        }
        let result = f(&mut self.scratch);
        for view in &self.scratch {
            invariant!(
                view.way < self.ways,
                "policy moved a view beyond the {}-way set",
                self.ways
            );
            *self.store.records[base + view.way].policy_state_mut() = view.state;
        }
        result
    }

    /// Iterates over all valid lines as (tag, payload), in storage order
    /// (used by the deadness sampler's final flush and by tests).
    pub fn iter_valid(&self) -> impl Iterator<Item = (u64, &P)> {
        self.store.iter_valid()
    }

    /// Number of currently valid lines.
    pub fn valid_count(&self) -> usize {
        self.store.valid_count()
    }

    /// Host bytes of this array's line storage (set blocks and payload
    /// records).
    #[cfg(test)]
    pub(crate) fn host_bytes(&self) -> usize {
        self.store.host_bytes()
    }
}

/// Advances an array clock. [`MAX_RUN_MEM_OPS`] keeps every clock of a
/// run below `u32::MAX`.
#[inline]
fn advance(clock: &mut u32) {
    invariant!(*clock < u32::MAX, "array clock overflow: the run exceeds MAX_RUN_MEM_OPS");
    *clock += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(sets: usize, ways: usize, kind: ReplacementKind) -> SetAssoc<u32> {
        SetAssoc::new(sets, ways, kind)
    }

    fn lived(sets: usize, ways: usize, kind: ReplacementKind) -> SetAssoc<Lived<u32>> {
        SetAssoc::new(sets, ways, kind)
    }

    /// The lifetime of the line `tag` occupies.
    fn life_of<P: Default>(s: &SetAssoc<Lived<P>>, addr: u64, tag: u64) -> LineLife {
        s.payload(addr, s.peek(addr, tag).expect("resident")).life()
    }

    #[test]
    fn miss_then_hit() {
        let mut s = lived(4, 2, ReplacementKind::Lru);
        assert_eq!(s.lookup(5, 5), None);
        assert!(s.fill(5, 5, Lived::new(99), InsertPriority::Normal).is_none());
        let way = s.lookup(5, 5).expect("filled tag must hit");
        assert_eq!(**s.payload(5, way), 99);
        assert_eq!(s.payload(5, way).life().hits, 1);
        assert!(s.payload(5, way).accessed());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut s = sa(1, 2, ReplacementKind::Lru);
        s.fill(0, 10, 0, InsertPriority::Normal);
        s.fill(0, 20, 0, InsertPriority::Normal);
        // Touch 10 so 20 becomes LRU.
        assert!(s.lookup(0, 10).is_some());
        let evicted = s.fill(0, 30, 0, InsertPriority::Normal).expect("set full");
        assert_eq!(evicted.tag, 20);
        assert!(s.peek(0, 10).is_some());
        assert!(s.peek(0, 30).is_some());
    }

    #[test]
    fn distant_insertion_is_first_victim_under_lru() {
        let mut s = sa(1, 4, ReplacementKind::Lru);
        for tag in 1..=3 {
            s.fill(0, tag, 0, InsertPriority::Normal);
        }
        s.fill(0, 4, 0, InsertPriority::Distant);
        let evicted = s.fill(0, 5, 0, InsertPriority::Normal).expect("set full");
        assert_eq!(evicted.tag, 4, "distant-inserted line must be evicted first");
    }

    #[test]
    fn srrip_victimizes_rrpv_max() {
        let mut s = sa(1, 2, ReplacementKind::Srrip);
        s.fill(0, 1, 0, InsertPriority::Normal); // rrpv 2
        s.fill(0, 2, 0, InsertPriority::Normal); // rrpv 2
        assert!(s.lookup(0, 1).is_some()); // rrpv -> 0
                                           // Victim search ages both to find an RRPV_MAX line; tag 2 ages
                                           // 2 -> 3 first.
        let evicted = s.fill(0, 3, 0, InsertPriority::Normal).unwrap();
        assert_eq!(evicted.tag, 2);
        assert!(s.peek(0, 1).is_some());
    }

    #[test]
    fn srrip_distant_insert_is_immediate_victim() {
        let mut s = sa(1, 2, ReplacementKind::Srrip);
        s.fill(0, 1, 0, InsertPriority::Normal);
        s.fill(0, 2, 0, InsertPriority::Distant); // rrpv 3
        let evicted = s.fill(0, 3, 0, InsertPriority::Normal).unwrap();
        assert_eq!(evicted.tag, 2);
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut s = sa(1, 2, ReplacementKind::Fifo);
        s.fill(0, 1, 0, InsertPriority::Normal);
        s.fill(0, 2, 0, InsertPriority::Normal);
        assert!(s.lookup(0, 1).is_some()); // does not refresh under FIFO
        let evicted = s.fill(0, 3, 0, InsertPriority::Normal).unwrap();
        assert_eq!(evicted.tag, 1, "FIFO evicts oldest insertion regardless of hits");
    }

    #[test]
    fn invalidate_removes() {
        let mut s = sa(2, 2, ReplacementKind::Lru);
        s.fill(7, 7, 42, InsertPriority::Normal);
        let gone = s.invalidate(7, 7).expect("present");
        assert_eq!(gone.payload, 42);
        assert!(s.peek(7, 7).is_none());
        assert!(s.invalidate(7, 7).is_none());
        assert_eq!(s.valid_count(), 0);
    }

    #[test]
    fn stale_tag_in_invalid_way_never_hits() {
        let mut s = sa(1, 2, ReplacementKind::Lru);
        s.fill(0, 9, 1, InsertPriority::Normal);
        s.invalidate(0, 9);
        // The tag column still holds 9, but the validity mask excludes it.
        assert_eq!(s.lookup(0, 9), None);
        assert_eq!(s.peek(0, 9), None);
        // Refilling lands in the freed way (first invalid way preferred).
        assert!(s.fill(0, 8, 2, InsertPriority::Normal).is_none());
    }

    #[test]
    fn lifetime_stats_track_hits() {
        let mut s = lived(1, 1, ReplacementKind::Lru);
        s.lookup(0, 9); // seq 1, miss
        s.fill(0, 9, Lived::new(0), InsertPriority::Normal); // fill_seq = 1
        s.lookup(0, 9); // seq 2, hit
        s.lookup(0, 9); // seq 3, hit
        s.lookup(0, 8); // seq 4, miss
        let evicted = s.fill(0, 8, Lived::new(0), InsertPriority::Normal).unwrap();
        let life = evicted.payload.life();
        assert_eq!(life.fill_seq, 1);
        assert_eq!(life.last_hit_seq, 3);
        assert_eq!(life.hits, 2);
        assert!(evicted.payload.accessed());
    }

    #[test]
    fn doa_lifetime() {
        let mut s = lived(1, 1, ReplacementKind::Lru);
        s.lookup(0, 9);
        s.fill(0, 9, Lived::new(0), InsertPriority::Normal);
        s.lookup(0, 8);
        let evicted = s.fill(0, 8, Lived::new(0), InsertPriority::Normal).unwrap();
        let life = evicted.payload.life();
        assert_eq!(life.hits, 0, "never-hit line is DOA");
        assert_eq!(life.last_hit_seq, life.fill_seq);
        assert!(!evicted.payload.accessed());
    }

    /// A refill restamps a `Lived` payload whatever clocks it came with,
    /// and a lifetime-free payload comes back as it went in.
    #[test]
    fn fill_stamps_only_lived_payloads() {
        let mut s = lived(1, 1, ReplacementKind::Lru);
        s.lookup(0, 9); // seq 1
        let mut stale = Lived::new(7);
        stale.stamp_fill(40);
        stale.stamp_hit(41);
        s.fill(0, 9, stale, InsertPriority::Normal);
        let want = LineLife { fill_seq: 1, last_hit_seq: 1, hits: 0 };
        assert_eq!(life_of(&s, 0, 9), want);
        assert_eq!(**s.payload(0, 0), 7);
        let mut plain = sa(1, 1, ReplacementKind::Lru);
        plain.fill(0, 9, 7, InsertPriority::Normal);
        plain.lookup(0, 9);
        assert_eq!(plain.invalidate(0, 9).map(|e| e.payload), Some(7));
    }

    #[test]
    fn modulo_set_indexing_handles_non_power_of_two() {
        let s: SetAssoc<u32> = SetAssoc::new(3072, 16, ReplacementKind::Lru);
        assert_eq!(s.set_of(3072), 0);
        assert_eq!(s.set_of(3073), 1);
    }

    #[test]
    fn pow2_set_indexing_matches_modulo() {
        let s: SetAssoc<u32> = SetAssoc::new(128, 8, ReplacementKind::Lru);
        for addr in [0u64, 1, 127, 128, 129, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(s.set_of(addr), (addr % 128) as usize, "addr {addr:#x}");
        }
    }

    #[test]
    fn set_view_state_written_back() {
        #[derive(Clone, Copy, Debug, Default)]
        struct S(u32);
        impl HasPolicyState for S {
            fn policy_state_mut(&mut self) -> &mut u32 {
                &mut self.0
            }
        }
        impl Line for S {}
        let mut s: SetAssoc<S> = SetAssoc::new(1, 2, ReplacementKind::Lru);
        s.fill(0, 1, S(5), InsertPriority::Normal);
        s.fill(0, 2, S(6), InsertPriority::Normal);
        let seen = s.with_set_views(0, Some(1), |views| {
            views[0].state += 10;
            views[1].state += 10;
            (views[0].is_hit, views[1].is_hit, views.len())
        });
        assert_eq!(seen, (false, true, 2));
        assert_eq!(s.payload(0, 0).0, 15, "hook state must be written back");
        assert_eq!(s.payload(0, 1).0, 16);
    }

    /// The `u32` storage must hand back exactly the `u64` clock values a
    /// run near the top of the clock range produced: through a run of
    /// hits to one line, an eviction, the resident payload, `iter_valid`
    /// and `with_set_views` (which sees the policy state through the
    /// `Lived` wrapper), for every replacement kind.
    #[test]
    fn lifetimes_round_trip_near_the_top_of_the_clock_range() {
        #[derive(Clone, Copy, Debug, Default, PartialEq)]
        struct S(u32);
        impl HasPolicyState for S {
            fn policy_state_mut(&mut self) -> &mut u32 {
                &mut self.0
            }
        }
        let start = u32::MAX - 40;
        let top = u64::from(start);
        for kind in [ReplacementKind::Lru, ReplacementKind::Srrip, ReplacementKind::Fifo] {
            let mut s: SetAssoc<Lived<S>> = SetAssoc::new(1, 2, kind);
            s.start_clocks_at(start);
            assert_eq!(s.lookup(0, 10), None); // seq top+1
            s.fill(0, 10, Lived::new(S(1)), InsertPriority::Normal); // fill_seq top+1
            s.lookup(0, 20); // seq top+2, miss
            s.fill(0, 20, Lived::new(S(2)), InsertPriority::Normal); // fill_seq top+2
            for _ in 0..3 {
                s.lookup(0, 10).expect("resident"); // seq top+3..=top+5
            }
            let way = s.peek(0, 10).expect("resident");
            let want = LineLife { fill_seq: top + 1, last_hit_seq: top + 5, hits: 3 };
            assert_eq!(s.payload(0, way).life(), want, "{kind:?} payload sees the hit run");
            let lives: Vec<LineLife> = s.iter_valid().map(|(_, l)| l.life()).collect();
            assert!(lives.contains(&want), "{kind:?} iter_valid: {lives:?}");
            let state = s.with_set_views(0, Some(way), |views| views[way].state);
            assert_eq!(state, 1, "{kind:?} set views see the wrapped policy state");
            s.lookup(0, 10).expect("resident"); // seq top+6
            assert_eq!(s.lookup(0, 50), None); // seq top+7
            let evicted = s.invalidate(0, 10).expect("resident");
            assert_eq!(
                evicted.payload.life(),
                LineLife { fill_seq: top + 1, last_hit_seq: top + 6, hits: 4 },
                "{kind:?} invalidation"
            );
            // Fill the freed way, then force an eviction of the other line
            // through the replacement policy.
            s.fill(0, 30, Lived::new(S(3)), InsertPriority::Normal);
            s.lookup(0, 30).expect("resident"); // seq top+8
                                                // Every kind evicts the never-hit, earlier-filled tag 20.
            let evicted = s.fill(0, 40, Lived::new(S(4)), InsertPriority::Normal);
            let evicted = evicted.expect("set full");
            assert_eq!(evicted.tag, 20, "{kind:?} victim");
            assert_eq!(
                evicted.payload.life(),
                LineLife { fill_seq: top + 2, last_hit_seq: top + 2, hits: 0 },
                "{kind:?} eviction"
            );
            assert_eq!(
                life_of(&s, 0, 30),
                LineLife { fill_seq: top + 7, last_hit_seq: top + 8, hits: 1 },
                "{kind:?} survivor"
            );
            assert_eq!(s.seq(), top + 8);
            assert!(s.tick() > top, "{kind:?} recency clock kept its range");
        }
    }

    /// LRU victim order through the one-pass fill, at the fixed-width
    /// victim searches (4, 8, 16 ways) and the generic loop (3, 12), with
    /// every stamp near `u32::MAX`: lines leave in the order they were
    /// last touched, and lines tied at a `Distant` stamp of 0 leave lowest
    /// way first.
    #[test]
    fn lru_victims_near_the_top_of_the_clock_range() {
        for ways in [3usize, 4, 8, 12, 16] {
            let mut s = sa(2, ways, ReplacementKind::Lru);
            s.start_clocks_at(u32::MAX - 500);
            for way in 0..ways {
                assert!(s.fill(1, 100 + way as u64, 0, InsertPriority::Normal).is_none());
            }
            // Touch every line once in a scrambled order (7 is coprime to
            // every width here): that order is the eviction order.
            let order: Vec<u64> = (0..ways).map(|i| 100 + ((i * 7 + 3) % ways) as u64).collect();
            for &tag in &order {
                s.lookup(1, tag).expect("resident");
            }
            for (i, &tag) in order.iter().enumerate() {
                let way = s.peek(1, tag).expect("resident");
                assert_eq!(s.victim_way(1), way, "{ways}-way victim {i}");
                let evicted = s.fill(1, 200 + i as u64, 0, InsertPriority::Normal);
                assert_eq!(evicted.expect("set full").tag, tag, "{ways}-way eviction {i}");
            }
            assert!(s.tick() > u64::from(u32::MAX - 500), "clocks stayed near the top");

            let mut s = sa(1, ways, ReplacementKind::Lru);
            s.start_clocks_at(u32::MAX - 500);
            for way in 0..ways {
                s.fill(0, 300 + way as u64, 0, InsertPriority::Distant);
            }
            for way in 0..ways {
                assert_eq!(s.victim_way(0), way, "{ways}-way tie: lowest way first");
                let evicted = s.fill(0, 400 + way as u64, 0, InsertPriority::Normal);
                assert_eq!(evicted.expect("set full").tag, 300 + way as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_geometry_rejected() {
        let _ = sa(0, 1, ReplacementKind::Lru);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fill_way_bounds_checked() {
        let mut s = sa(1, 1, ReplacementKind::Lru);
        s.fill_way(0, 1, 0, 0, InsertPriority::Normal);
    }
}
