//! One set-associative level, generic over its payload: the L1D, the L2
//! and the LLC hold [`BlockInfo`], the last-level TLB holds
//! [`TlbEntry`](crate::tlb::TlbEntry). Lines are keyed by their raw line
//! number (block address or LLT key), which also derives the set, so
//! keys are unambiguous across sets (convenient for back-invalidation).

use crate::set_assoc::{Evicted, HasPolicyState, InsertPriority, SetAssoc};
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

impl<P: Default> Cache<P> {
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
}

impl<P> Cache<P> {
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

    /// Hit count of a resident line (the paper's `Accessed` bit is
    /// `hits > 0`), or `None` if absent. Side-effect free.
    #[inline]
    pub fn resident_hits(&self, key: u64) -> Option<u64> {
        self.array.peek(key, key).map(|way| self.array.life_of(key, way).hits)
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
    pub fn invalidate(&mut self, key: u64) -> Option<Evicted<P>>
    where
        P: Default,
    {
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

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_types::SystemConfig;

    fn small() -> Cache<BlockInfo> {
        Cache::new(1, 2, ReplacementKind::Lru, 5)
    }

    fn paper_llc() -> Cache<BlockInfo> {
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

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        assert!(c.lookup(7).is_none());
        assert!(c.fill(7, BlockInfo { state: 3 }, InsertPriority::Normal).is_none());
        assert!(c.lookup(7).is_some());
        assert_eq!(c.stats.lookups, 2);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.fills, 1);
    }

    #[test]
    fn eviction_returns_state() {
        let mut c = small();
        c.fill(0, BlockInfo { state: 11 }, InsertPriority::Normal);
        c.fill(2, BlockInfo { state: 22 }, InsertPriority::Normal);
        let evicted = c.fill(4, BlockInfo { state: 33 }, InsertPriority::Normal).unwrap();
        assert_eq!(evicted.tag, 0);
        assert_eq!(evicted.payload.state, 11);
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn invalidate_counts() {
        let mut c = small();
        c.fill(9, BlockInfo::default(), InsertPriority::Normal);
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
