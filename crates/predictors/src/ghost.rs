//! Ghost-FIFO accuracy tracking for bypass predictors.
//!
//! A bypassed entry never resides in the structure, so whether the bypass
//! was correct cannot be observed directly. [`GhostTracker`] keeps, per
//! set, the tags of recently bypassed entries. A ghost entry that is
//! looked up again while still "resident" in the ghost would have produced
//! a hit had it been allocated — the bypass was a **misprediction**. A
//! ghost entry that survives `associativity` subsequent fills to its set
//! without being re-referenced would have been evicted unhit — the bypass
//! was **correct** (the entry was truly DOA).
//!
//! This mirrors how sampled shadow structures are used to evaluate dead
//! block predictors (e.g. Khan et al., MICRO'10) and approximates the
//! entry's hypothetical residency by its set's fill activity.
//!
//! Each set's FIFO is a ring of `assoc` tag slots plus a two-word header
//! (DESIGN.md §18). A ghost born when its set's fill-attempt count became
//! `b` sits in slot `b mod assoc` and expires when the count reaches
//! `b + assoc`, so the slot implies the birth and the ring never grows:
//! both arrays are allocated once, in [`GhostTracker::new`].

use dpc_memsim::soa::match_tags;
use dpc_types::invariant;

/// Most ways a set's ring can hold: its live slots are one `u64` mask.
const MAX_ASSOC: u64 = 64;

/// A set's ring header, two words: its fill-attempt count and the mask
/// of its occupied slots.
#[derive(Clone, Copy, Debug, Default)]
struct SetHead {
    fills: u64,
    live: u64,
}

/// Per-set ghost FIFOs measuring bypass-prediction outcomes.
#[derive(Clone, Debug)]
pub struct GhostTracker {
    assoc: u64,
    sets: u64,
    /// `sets - 1` when the set count is a power of two (the common
    /// paper geometries), letting [`set_of`](Self::set_of) mask instead
    /// of dividing on every lookup; `None` falls back to modulo.
    set_mask: Option<u64>,
    /// `assoc - 1` when the associativity is a power of two, for
    /// [`slot_of`](Self::slot_of) as `set_mask` is for `set_of`.
    slot_mask: Option<u64>,
    /// One header per set, dense and apart from the tags, so a lookup
    /// in a set with no ghost reads one header and no tag.
    heads: Vec<SetHead>,
    /// `assoc` ghost tags per set, slot `s` of set `set` at
    /// `set * assoc + s`; only slots live in the set's mask mean anything.
    tags: Vec<u64>,
    /// Bypasses whose ghost aged out un-referenced (correct predictions).
    pub correct: u64,
    /// Bypasses re-referenced while ghost-resident (mispredictions).
    pub mispredictions: u64,
    /// Total bypasses recorded.
    pub predictions: u64,
}

impl GhostTracker {
    /// Creates a tracker mirroring a structure with `sets` sets of
    /// `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `assoc` is zero, or if `assoc` exceeds 64 (a
    /// set's live slots are one `u64` mask).
    pub fn new(sets: u64, assoc: u64) -> Self {
        assert!(sets > 0 && assoc > 0, "ghost tracker requires nonzero geometry");
        assert!(assoc <= MAX_ASSOC, "associativity {assoc} exceeds the {MAX_ASSOC}-slot ring");
        GhostTracker {
            assoc,
            sets,
            set_mask: sets.is_power_of_two().then(|| sets - 1),
            slot_mask: assoc.is_power_of_two().then(|| assoc - 1),
            heads: vec![SetHead::default(); sets as usize],
            tags: vec![0; (sets * assoc) as usize],
            correct: 0,
            mispredictions: 0,
            predictions: 0,
        }
    }

    #[inline]
    fn set_of(&self, tag: u64) -> usize {
        match self.set_mask {
            Some(mask) => (tag & mask) as usize,
            None => (tag % self.sets) as usize,
        }
    }

    /// The ring slot of a ghost born at fill-attempt count `fills`.
    #[inline]
    fn slot_of(&self, fills: u64) -> usize {
        match self.slot_mask {
            Some(mask) => (fills & mask) as usize,
            None => (fills % self.assoc) as usize,
        }
    }

    /// Records a bypass of `tag`. The bypass itself counts as a
    /// fill-attempt for aging purposes: in the counterfactual stay being
    /// tracked, the entry would have been allocated, and subsequent
    /// fill-attempts to its set would have been real fills displacing it.
    #[inline]
    pub fn note_bypass(&mut self, tag: u64) {
        self.predictions += 1;
        let set = self.set_of(tag);
        let slot = self.age(set);
        let idx = set * self.assoc as usize + slot;
        invariant!(idx < self.tags.len(), "ghost slot {idx} out of range");
        self.tags[idx] = tag;
        self.heads[set].live |= 1 << slot;
    }

    /// Records a fill (allocation) into the set `tag` maps to, aging that
    /// set's ghosts.
    #[inline]
    pub fn note_fill(&mut self, tag: u64) {
        let set = self.set_of(tag);
        self.age(set);
    }

    /// Advances `set`'s fill-attempt count and expires, as correct, the
    /// one ghost that reaches `assoc` fill-attempts now: the one born
    /// `assoc` attempts ago, in the slot the new count maps to. Returns
    /// that slot, now free.
    #[inline]
    fn age(&mut self, set: usize) -> usize {
        invariant!(set < self.heads.len(), "ghost set {set} out of range");
        let fills = self.heads[set].fills + 1;
        let slot = self.slot_of(fills);
        let head = &mut self.heads[set];
        head.fills = fills;
        self.correct += (head.live >> slot) & 1;
        head.live &= !(1 << slot);
        slot
    }

    /// Records a lookup of `tag`; a ghost match is a detected
    /// misprediction and removes the ghost (the oldest, if the set holds
    /// the tag twice).
    ///
    /// Returns `true` if the lookup matched a ghost.
    #[inline]
    pub fn note_lookup(&mut self, tag: u64) -> bool {
        let set = self.set_of(tag);
        invariant!(set < self.heads.len(), "ghost set {set} out of range");
        let SetHead { fills, live } = self.heads[set];
        if live == 0 {
            return false;
        }
        let assoc = self.assoc as usize;
        let base = set * assoc;
        invariant!(base + assoc <= self.tags.len(), "ghost set {set} out of range");
        let matches = match_tags(&self.tags[base..base + assoc], tag) & live;
        if matches == 0 {
            return false;
        }
        // Live ghosts were born at counts `fills - assoc + 1 ..= fills`,
        // oldest first from slot `oldest` on, wrapping past the last
        // slot: the first match at or above `oldest`, else the first
        // match below it.
        let oldest = self.slot_of(fills + 1);
        let older = matches & (u64::MAX << oldest);
        let slot = if older != 0 { older } else { matches }.trailing_zeros();
        self.heads[set].live &= !(1 << slot);
        self.mispredictions += 1;
        true
    }

    /// Resolves all still-pending ghosts as correct (end of simulation: no
    /// further re-reference is coming).
    pub fn resolved_correct(&self) -> u64 {
        let pending: u64 = self.heads.iter().map(|h| u64::from(h.live.count_ones())).sum();
        self.correct + pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aged_out_ghost_is_correct() {
        let mut g = GhostTracker::new(1, 2);
        g.note_bypass(10);
        g.note_fill(0);
        g.note_fill(0); // two fills = associativity -> ghost expires
        assert_eq!(g.correct, 1);
        assert_eq!(g.mispredictions, 0);
        assert_eq!(g.predictions, 1);
    }

    #[test]
    fn rereferenced_ghost_is_misprediction() {
        let mut g = GhostTracker::new(1, 2);
        g.note_bypass(10);
        assert!(g.note_lookup(10));
        assert_eq!(g.mispredictions, 1);
        assert_eq!(g.correct, 0);
        // The ghost is consumed: a second lookup is not a second error.
        assert!(!g.note_lookup(10));
        assert_eq!(g.mispredictions, 1);
    }

    #[test]
    fn expiry_happens_before_late_rereference() {
        let mut g = GhostTracker::new(1, 2);
        g.note_bypass(10);
        g.note_fill(0);
        g.note_fill(0);
        // Re-reference after the hypothetical stay ended: not an error.
        assert!(!g.note_lookup(10));
        assert_eq!(g.correct, 1);
        assert_eq!(g.mispredictions, 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut g = GhostTracker::new(2, 1);
        g.note_bypass(0); // set 0
        g.note_fill(1); // set 1: must not age set 0's ghost
        assert_eq!(g.correct, 0);
        g.note_fill(0);
        assert_eq!(g.correct, 1);
    }

    #[test]
    fn pending_ghosts_resolve_correct() {
        let mut g = GhostTracker::new(1, 4);
        g.note_bypass(1);
        g.note_bypass(2);
        assert_eq!(g.correct, 0);
        assert_eq!(g.resolved_correct(), 2);
    }

    #[test]
    fn lookup_takes_the_older_of_two_ghosts_of_one_tag() {
        let mut g = GhostTracker::new(1, 4);
        g.note_bypass(7); // born at fill-attempt 1, slot 1
        g.note_fill(0);
        g.note_bypass(7); // born at 3, slot 3, while the first is alive
        assert!(g.note_lookup(7));
        assert_eq!(g.mispredictions, 1);
        // Had the lookup taken the younger ghost, the older would expire
        // at fill-attempt 5; the younger expires at 7.
        g.note_fill(0);
        g.note_fill(0);
        g.note_fill(0);
        assert_eq!(g.correct, 0);
        g.note_fill(0);
        assert_eq!(g.correct, 1);
        assert_eq!(g.resolved_correct(), 1);
    }

    #[test]
    fn wrapped_ring_takes_the_oldest_match() {
        let mut g = GhostTracker::new(1, 3);
        g.note_fill(0);
        g.note_bypass(5); // born at 2, slot 2
        g.note_bypass(5); // born at 3, slot 0: below the older one
        assert!(g.note_lookup(5));
        g.note_fill(0); // 4
        g.note_fill(0); // 5: the ghost born at 2 would expire now
        assert_eq!(g.correct, 0, "the ghost born at 2 was the one removed");
        g.note_fill(0); // 6: the ghost born at 3 expires
        assert_eq!(g.correct, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn over_wide_ring_rejected() {
        GhostTracker::new(1, 65);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_geometry_rejected() {
        GhostTracker::new(0, 1);
    }
}
