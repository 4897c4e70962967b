//! A single set-associative cache level.

use crate::set_assoc::{Evicted, HasPolicyState, InsertPriority, SetAssoc};
use crate::stats::StructStats;
use dpc_types::{BlockAddr, CacheConfig};

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

/// One cache level. Blocks are tagged by their full [`BlockAddr`]; the set
/// index is derived from the same address, so tags are unambiguous across
/// sets (convenient for back-invalidation).
#[derive(Debug)]
pub struct Cache {
    array: SetAssoc<BlockInfo>,
    /// Hit latency in cycles.
    pub latency: u32,
    /// Counters for this level.
    pub stats: StructStats,
}

impl Cache {
    /// Builds a cache level from its configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero geometry; validate the [`CacheConfig`] first.
    pub fn new(config: &CacheConfig) -> Self {
        Cache {
            array: SetAssoc::new(config.sets() as usize, config.ways as usize, config.replacement),
            latency: config.latency,
            stats: StructStats::default(),
        }
    }

    /// Looks up a block, updating recency and counters. Returns the hit
    /// way.
    #[inline]
    pub fn lookup(&mut self, block: BlockAddr) -> Option<usize> {
        self.stats.lookups += 1;
        let way = self.array.lookup(block.raw(), block.raw());
        if way.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        way
    }

    /// Probes without side effects.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        self.array.peek(block.raw(), block.raw()).is_some()
    }

    /// Allocates `block`, evicting via the base replacement policy.
    /// Returns the displaced line as the array holds it (its tag is the
    /// block's raw address), if any.
    #[inline]
    pub fn fill(
        &mut self,
        block: BlockAddr,
        priority: InsertPriority,
        state: u32,
    ) -> Option<Evicted<BlockInfo>> {
        self.stats.fills += 1;
        let evicted = self.array.fill(block.raw(), block.raw(), BlockInfo { state }, priority);
        self.stats.evictions += u64::from(evicted.is_some());
        evicted
    }

    /// Allocates `block` into a specific way (used when a policy overrides
    /// the victim choice).
    #[inline]
    pub fn fill_way(
        &mut self,
        block: BlockAddr,
        way: usize,
        priority: InsertPriority,
        state: u32,
    ) -> Option<Evicted<BlockInfo>> {
        self.stats.fills += 1;
        let evicted =
            self.array.fill_way(block.raw(), way, block.raw(), BlockInfo { state }, priority);
        self.stats.evictions += u64::from(evicted.is_some());
        evicted
    }

    /// Removes `block` if present (back-invalidation), returning its
    /// line.
    #[inline]
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Evicted<BlockInfo>> {
        let evicted = self.array.invalidate(block.raw(), block.raw());
        self.stats.invalidations += u64::from(evicted.is_some());
        evicted
    }

    /// Direct access to the underlying array (policy views, sampling).
    pub fn array_mut(&mut self) -> &mut SetAssoc<BlockInfo> {
        &mut self.array
    }

    /// Read-only access to the underlying array.
    pub fn array(&self) -> &SetAssoc<BlockInfo> {
        &self.array
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_types::{ReplacementKind, SystemConfig};

    fn small() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 2 * 64, // 1 set, 2 ways
            ways: 2,
            latency: 5,
            replacement: ReplacementKind::Lru,
        })
    }

    /// Host memory per simulated line of the paper's 2 MB, 16-way LLC,
    /// tag included: 12.5 bytes of set block (validity, tag, `u32` stamp)
    /// plus a 16-byte record (three `u32` lifetime fields, 4-byte
    /// payload). It was 45 with one 8-byte column per field; a new
    /// per-line field has to move this pin on purpose.
    #[test]
    fn paper_llc_costs_at_most_29_host_bytes_per_line() {
        let llc = Cache::new(&SystemConfig::paper_baseline().llc);
        let lines = llc.array().sets() * llc.array().ways();
        assert_eq!(lines, 32_768);
        let per_line = llc.array().host_bytes() as f64 / lines as f64;
        assert!(per_line <= 29.0, "{per_line} host bytes per LLC line");
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = small();
        let b = BlockAddr::new(7);
        assert!(c.lookup(b).is_none());
        assert!(c.fill(b, InsertPriority::Normal, 3).is_none());
        assert!(c.lookup(b).is_some());
        assert_eq!(c.stats.lookups, 2);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.fills, 1);
    }

    #[test]
    fn eviction_returns_state() {
        let mut c = small();
        c.fill(BlockAddr::new(0), InsertPriority::Normal, 11);
        c.fill(BlockAddr::new(2), InsertPriority::Normal, 22);
        let evicted = c.fill(BlockAddr::new(4), InsertPriority::Normal, 33).unwrap();
        assert_eq!(evicted.tag, BlockAddr::new(0).raw());
        assert_eq!(evicted.payload.state, 11);
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn invalidate_counts() {
        let mut c = small();
        c.fill(BlockAddr::new(9), InsertPriority::Normal, 0);
        assert!(c.contains(BlockAddr::new(9)));
        assert!(c.invalidate(BlockAddr::new(9)).is_some());
        assert!(!c.contains(BlockAddr::new(9)));
        assert_eq!(c.stats.invalidations, 1);
        assert!(c.invalidate(BlockAddr::new(9)).is_none());
    }

    #[test]
    fn paper_llc_geometry() {
        let c = Cache::new(&SystemConfig::paper_baseline().llc);
        assert_eq!(c.array().sets(), 2048);
        assert_eq!(c.array().ways(), 16);
        assert_eq!(c.latency, 40);
    }
}
