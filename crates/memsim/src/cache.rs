//! One set-associative level, generic over its payload: the L1D and the
//! L2 hold `()`, the LLC holds [`Lived`]`<`[`BlockInfo`]`>` and the
//! last-level TLB [`Lived`]`<`[`TlbEntry`](crate::tlb::TlbEntry)`>`, so
//! only the two levels a deadness ledger reads keep line lifetimes.
//! Lines are keyed by their raw line number (block address or LLT key),
//! which also derives the set, so keys are unambiguous across sets
//! (convenient for back-invalidation).

use crate::set_assoc::{Evicted, HasPolicyState, InsertPriority, Line, Lived, SetAssoc};
use crate::stats::StructStats;
use dpc_types::ReplacementKind;

/// Per-block metadata: 32 bits of policy scratch state (cbPred's DP bit,
/// AIP's counters, SHiP's signature, ...).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockInfo {
    /// Policy scratch state.
    pub state: u32,
}

impl HasPolicyState for BlockInfo {
    fn policy_state_mut(&mut self) -> &mut u32 {
        &mut self.state
    }
}

/// One cache or TLB level holding payload `P`, with its counters.
#[derive(Debug)]
pub struct Cache<P> {
    array: SetAssoc<P>,
    /// Hit latency in cycles.
    pub latency: u32,
    /// Counters for this level.
    pub stats: StructStats,
}

impl<P: Line> Cache<P> {
    /// Builds a level of `sets × ways` lines.
    ///
    /// # Panics
    ///
    /// Panics on zero geometry; validate the configuration first.
    pub fn new(sets: usize, ways: usize, replacement: ReplacementKind, latency: u32) -> Self {
        Cache {
            array: SetAssoc::new(sets, ways, replacement),
            latency,
            stats: StructStats::default(),
        }
    }

    /// Looks up `key`, updating recency and counters. Returns the hit
    /// way.
    #[inline]
    pub fn lookup(&mut self, key: u64) -> Option<usize> {
        self.stats.lookups += 1;
        let way = self.array.lookup(key, key);
        if way.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        way
    }

    /// Probes without side effects.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.array.peek(key, key).is_some()
    }

    /// Allocates `key`, evicting via the base replacement policy.
    /// Returns the displaced line as the array holds it (its tag is its
    /// key), if any.
    #[inline]
    pub fn fill(&mut self, key: u64, payload: P, priority: InsertPriority) -> Option<Evicted<P>> {
        self.stats.fills += 1;
        let evicted = self.array.fill(key, key, payload, priority);
        self.stats.evictions += u64::from(evicted.is_some());
        evicted
    }

    /// Allocates `key` into a specific way (used when a policy overrides
    /// the victim choice).
    #[inline]
    pub fn fill_way(
        &mut self,
        key: u64,
        way: usize,
        payload: P,
        priority: InsertPriority,
    ) -> Option<Evicted<P>> {
        self.stats.fills += 1;
        let evicted = self.array.fill_way(key, way, key, payload, priority);
        self.stats.evictions += u64::from(evicted.is_some());
        evicted
    }

    /// Removes `key` if present (back-invalidation), returning its line.
    #[inline]
    pub fn invalidate(&mut self, key: u64) -> Option<Evicted<P>> {
        let evicted = self.array.invalidate(key, key);
        self.stats.invalidations += u64::from(evicted.is_some());
        evicted
    }

    /// Direct access to the underlying array (policy views, sampling).
    pub fn array_mut(&mut self) -> &mut SetAssoc<P> {
        &mut self.array
    }

    /// Read-only access to the underlying array.
    pub fn array(&self) -> &SetAssoc<P> {
        &self.array
    }
}

impl<P: Default> Cache<Lived<P>> {
    /// Hit count of a resident line (the paper's `Accessed` bit is
    /// `hits > 0`), or `None` if absent. Side-effect free.
    #[inline]
    pub fn resident_hits(&self, key: u64) -> Option<u64> {
        self.array.peek(key, key).map(|way| self.array.payload(key, way).life().hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::Hierarchy;
    use crate::policy::NullBlockPolicy;
    use dpc_types::SystemConfig;

    fn small() -> Cache<Lived<BlockInfo>> {
        Cache::new(1, 2, ReplacementKind::Lru, 5)
    }

    fn block(state: u32) -> Lived<BlockInfo> {
        Lived::new(BlockInfo { state })
    }

    fn paper_llc() -> Cache<Lived<BlockInfo>> {
        let c = SystemConfig::paper_baseline().llc;
        Cache::new(c.sets() as usize, c.ways as usize, c.replacement, c.latency)
    }

    /// Host memory per simulated line of the paper's 2 MB, 16-way LLC,
    /// tag included: 12.5 bytes of set block (validity, tag, `u32` stamp)
    /// plus a 16-byte record (three `u32` lifetime fields, 4-byte
    /// payload). It was 45 with one 8-byte column per field; a new
    /// per-line field has to move this pin on purpose.
    #[test]
    fn paper_llc_costs_at_most_29_host_bytes_per_line() {
        let llc = paper_llc();
        let lines = llc.array().sets() * llc.array().ways();
        assert_eq!(lines, 32_768);
        let per_line = llc.array().host_bytes() as f64 / lines as f64;
        assert!(per_line <= 29.0, "{per_line} host bytes per LLC line");
    }

    /// The paper's L1D and L2, built as the hierarchy builds them, cost
    /// their set blocks alone: a block of `1 + ways + ceil(ways / 2)`
    /// words per set plus the seven words of alignment slack, and no
    /// record byte. A lifetime or payload field that comes back to these
    /// levels has to move this pin on purpose.
    #[test]
    fn paper_l1d_and_l2_cost_their_set_blocks_alone() {
        let h = Hierarchy::with_typed_policy(&SystemConfig::paper_baseline(), NullBlockPolicy);
        let (l1d, l2) = (h.l1d.array(), h.l2.array());
        let levels = [
            ("L1D", l1d.sets(), l1d.ways(), l1d.host_bytes()),
            ("L2", l2.sets(), l2.ways(), l2.host_bytes()),
        ];
        for (name, sets, ways, host_bytes) in levels {
            let block_words = sets * (1 + ways + ways.div_ceil(2)) + 7;
            assert_eq!(host_bytes, block_words * 8, "{name}: {sets}x{ways}");
        }
        assert_eq!((l1d.sets() + l2.sets()) * 8, 4608, "the paper's L1D and L2 lines");
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        assert!(c.lookup(7).is_none());
        assert!(c.fill(7, block(3), InsertPriority::Normal).is_none());
        assert!(c.lookup(7).is_some());
        assert_eq!(c.stats.lookups, 2);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.fills, 1);
    }

    #[test]
    fn eviction_returns_state() {
        let mut c = small();
        c.fill(0, block(11), InsertPriority::Normal);
        c.fill(2, block(22), InsertPriority::Normal);
        let evicted = c.fill(4, block(33), InsertPriority::Normal).unwrap();
        assert_eq!(evicted.tag, 0);
        assert_eq!(evicted.payload.state, 11);
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn invalidate_counts() {
        let mut c = small();
        c.fill(9, block(0), InsertPriority::Normal);
        assert!(c.contains(9));
        assert!(c.invalidate(9).is_some());
        assert!(!c.contains(9));
        assert_eq!(c.stats.invalidations, 1);
        assert!(c.invalidate(9).is_none());
    }

    #[test]
    fn paper_llc_geometry() {
        let c = paper_llc();
        assert_eq!(c.array().sets(), 2048);
        assert_eq!(c.array().ways(), 16);
        assert_eq!(c.latency, 40);
    }
}
