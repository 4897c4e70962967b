//! The three-level data-cache hierarchy with an inclusive LLC and the
//! dead-block-policy attachment point.
//!
//! Flow of an access (paper Table I latencies accumulate):
//! L1D (5 cyc) → L2 (11 cyc) → LLC (40 cyc) → memory (191 cyc).
//! Upper levels are filled on the return path. The LLC is **inclusive**:
//! evicting an LLC block back-invalidates L1/L2 copies. A block whose LLC
//! allocation is *bypassed* by the policy is still returned to and cached
//! by L1/L2 (the paper returns the block to the L2 before the PFQ is even
//! consulted), which relaxes strict inclusion exactly as LLC-bypass
//! proposals do.
//!
//! Page-table walker loads take the same path, so the page table competes
//! for cache space, as in the paper's methodology.

use crate::cache::{BlockInfo, Cache};
use crate::policy::{BlockFillDecision, EvictedBlock, LlcPolicy, NullBlockPolicy};
use crate::set_assoc::{HasPolicyState, InsertPriority, Line, Lived};
use crate::stats::Ledger;
use dpc_types::{AccessKind, BlockAddr, CacheConfig, Pc, Pfn, PhysAddr, SystemConfig};

/// The L1D/L2/LLC hierarchy plus main memory, generic over the LLC
/// policy, whose concrete type monomorphizes the access path (see
/// [`crate::System`]). The parameter defaults to the no-op baseline.
#[derive(Debug)]
pub struct Hierarchy<C: LlcPolicy = NullBlockPolicy> {
    /// L1 data cache. Nothing reads its lines' payload or lifetime, so
    /// it stores none.
    pub l1d: Cache<()>,
    /// L2 cache, payload-free like the L1D.
    pub l2: Cache<()>,
    /// L3 / last-level cache (inclusive): the policy state of each block
    /// and the lifetime its ledger reads.
    pub llc: Cache<Lived<BlockInfo>>,
    /// Precomputed cumulative latency of an access that terminates at
    /// each level: `[L1D hit, L2 hit, LLC hit, memory]`. An access
    /// indexes this table instead of accumulating per-level latencies as
    /// it descends.
    cum_latency: [u64; 4],
    policy: C,
    /// The LLC's eviction classes (Fig. 4) and resident deadness (Fig. 3).
    pub llc_ledger: Ledger,
    /// PFNs of blocks evicted from the LLC as true DOA since the last
    /// drain — the `System` classifies them against LLT dead-page state
    /// for Table III.
    pub pending_doa_evictions: Vec<Pfn>,
}

impl<C: LlcPolicy> Hierarchy<C> {
    /// Builds the hierarchy with the given LLC policy, monomorphizing
    /// the access path around its concrete type.
    pub fn with_typed_policy(config: &SystemConfig, policy: C) -> Self {
        fn level<P: Line>(c: &CacheConfig) -> Cache<P> {
            Cache::new(c.sets() as usize, c.ways as usize, c.replacement, c.latency)
        }
        let l1d = u64::from(config.l1d.latency);
        let l2 = l1d + u64::from(config.l2.latency);
        let llc = l2 + u64::from(config.llc.latency);
        Hierarchy {
            l1d: level(&config.l1d),
            l2: level(&config.l2),
            llc: level(&config.llc),
            cum_latency: [l1d, l2, llc, llc + u64::from(config.mem_latency)],
            policy,
            llc_ledger: Ledger::default(),
            pending_doa_evictions: Vec::new(),
        }
    }

    /// The attached LLC policy.
    pub fn policy_mut(&mut self) -> &mut C {
        &mut self.policy
    }

    /// Read-only access to the attached LLC policy.
    pub fn policy(&self) -> &C {
        &self.policy
    }

    /// Performs an access and returns its latency in cycles.
    ///
    /// Program accesses and page-walker loads take the same path and are
    /// cached and counted alike, so neither `_kind` nor `_is_demand`
    /// changes what happens; both stay in the signature that callers and
    /// benchmarks drive.
    ///
    /// Each level is looked up once, top down, and the first hit ends the
    /// descent: an L1D hit touches nothing else, an L2 hit refills the
    /// L1D, and an access that reaches the LLC continues in
    /// `llc_access`. The latency comes from the
    /// precomputed cumulative table, indexed by the level that answered.
    pub fn access(&mut self, pa: PhysAddr, _kind: AccessKind, pc: Pc, _is_demand: bool) -> u64 {
        let block = pa.block();
        if self.l1d.lookup(block.raw()).is_some() {
            return self.cum_latency[0];
        }
        if self.l2.lookup(block.raw()).is_some() {
            self.l1d.fill(block.raw(), (), InsertPriority::Normal);
            return self.cum_latency[1];
        }
        let hit_way = self.llc.lookup(block.raw());
        self.llc_access(block, hit_way, pc)
    }

    /// Finishes an access that missed the L1D and L2 and has looked up
    /// the LLC (`hit_way` is that lookup's result): the policy hooks
    /// (which fire on every access that reaches the LLC, hit or miss)
    /// and the return-path fills.
    ///
    /// Kept out of line: inlining it (and the fills under it) into
    /// [`access`](Self::access) bloats the L1/L2-hit prefix that nearly
    /// every access takes (DESIGN.md §16.2).
    #[inline(never)]
    fn llc_access(&mut self, block: BlockAddr, hit_way: Option<usize>, pc: Pc) -> u64 {
        self.policy.on_lookup(block, hit_way.is_some());
        // Set-access hook (AIP-style interval predictors train on every
        // access to the set). Policies that don't observe set views skip
        // the view construction entirely.
        if self.policy.uses_set_views() {
            let policy = &mut self.policy;
            self.llc
                .array_mut()
                .with_set_views(block.raw(), hit_way, |views| policy.on_set_access(views));
        }
        if let Some(way) = hit_way {
            let state = self.llc.array_mut().payload_mut(block.raw(), way).policy_state_mut();
            self.policy.on_hit(block, state);
            self.l2.fill(block.raw(), (), InsertPriority::Normal);
            self.l1d.fill(block.raw(), (), InsertPriority::Normal);
            return self.cum_latency[2];
        }
        // LLC miss: go to memory.
        match self.policy.on_fill(block, pc) {
            BlockFillDecision::Allocate { priority, state } => {
                self.fill_llc(block, priority, state);
            }
            BlockFillDecision::Bypass => {
                self.llc.stats.bypasses += 1;
            }
        }
        // The block is returned upward either way.
        self.l2.fill(block.raw(), (), InsertPriority::Normal);
        self.l1d.fill(block.raw(), (), InsertPriority::Normal);
        self.cum_latency[3]
    }

    fn fill_llc(&mut self, block: BlockAddr, priority: InsertPriority, state: u32) {
        let policy = &mut self.policy;
        let pick = policy.overrides_victim().then_some(|views: &mut _| policy.pick_victim(views));
        let info = BlockInfo { state };
        let Some(evicted) = self.llc_ledger.fill(&mut self.llc, block.raw(), info, priority, pick)
        else {
            return;
        };
        let (victim, accessed) = (BlockAddr::new(evicted.tag), evicted.payload.accessed());
        if !accessed {
            self.pending_doa_evictions.push(victim.pfn());
        }
        self.policy.on_evict(EvictedBlock {
            block: victim,
            state: evicted.payload.state,
            accessed,
        });
        // Inclusion: the victim may not survive in upper levels.
        self.l2.invalidate(victim.raw());
        self.l1d.invalidate(victim.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::with_typed_policy(&SystemConfig::paper_baseline(), NullBlockPolicy)
    }

    fn pa(addr: u64) -> PhysAddr {
        PhysAddr::new(addr)
    }

    #[test]
    fn cold_miss_goes_to_memory() {
        let mut h = hierarchy();
        let lat = h.access(pa(0x10000), AccessKind::Read, Pc::new(1), true);
        assert_eq!(lat, 5 + 11 + 40 + 191);
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = hierarchy();
        h.access(pa(0x10000), AccessKind::Read, Pc::new(1), true);
        let (l2, llc) = (h.l2.stats, h.llc.stats);
        let lat = h.access(pa(0x10008), AccessKind::Read, Pc::new(1), true);
        assert_eq!(lat, 5, "same block must hit L1");
        assert_eq!(h.l1d.stats.hits, 1);
        assert_eq!(h.l2.stats, l2, "an L1D hit must leave the L2 untouched");
        assert_eq!(h.llc.stats, llc, "an L1D hit must leave the LLC untouched");
    }

    #[test]
    fn llc_hit_fills_upper_levels() {
        let mut h = hierarchy();
        h.access(pa(0x20000), AccessKind::Read, Pc::new(1), true);
        // Evict from L1 and L2 by filling conflicting sets, then re-access.
        // Simpler: invalidate the upper copies directly.
        let block = pa(0x20000).block().raw();
        h.l1d.invalidate(block);
        h.l2.invalidate(block);
        let lat = h.access(pa(0x20000), AccessKind::Read, Pc::new(1), true);
        assert_eq!(lat, 5 + 11 + 40);
        assert!(h.l1d.contains(block), "LLC hit must refill L1");
        // With the L1D copy gone again, the refilled L2 answers alone.
        h.l1d.invalidate(block);
        let llc = h.llc.stats;
        let lat = h.access(pa(0x20000), AccessKind::Read, Pc::new(1), true);
        assert_eq!(lat, 5 + 11, "L1D latency + L2 latency");
        assert_eq!((h.l1d.stats.misses, h.l2.stats.hits), (3, 1));
        assert_eq!(h.llc.stats, llc, "an L2 hit must leave the LLC untouched");
        assert!(h.l1d.contains(block), "L2 hit must refill the L1D");
    }

    #[test]
    fn inclusion_back_invalidates() {
        let mut h = hierarchy();
        // Fill one LLC set (2048 sets × 16 ways): blocks mapping to set 0.
        let sets = h.llc.array().sets() as u64;
        for i in 0..17u64 {
            h.access(pa(i * sets * 64), AccessKind::Read, Pc::new(1), true);
        }
        // The first block was evicted from the LLC; inclusion requires it
        // to have left L1/L2 as well.
        let first = pa(0).block().raw();
        assert!(!h.llc.contains(first));
        assert!(!h.l1d.contains(first));
        assert!(!h.l2.contains(first));
        assert_eq!(h.llc_ledger.evictions.total, 1);
        assert_eq!(h.llc_ledger.evictions.doa, 1, "never-hit block is DOA");
        assert_eq!(h.pending_doa_evictions.len(), 1);
    }

    #[test]
    fn sampler_flush_accounts_residents() {
        let mut h = hierarchy();
        h.access(pa(0x1000), AccessKind::Read, Pc::new(1), true);
        h.llc_ledger.sample(&h.llc);
        h.access(pa(0x2000), AccessKind::Read, Pc::new(1), true);
        let d = h.llc_ledger.deadness(&h.llc);
        assert_eq!(d.samples, 1);
        assert_eq!(d.present, 1, "one block resident at the sampling instant");
        assert_eq!(d.doa, 1, "never hit, so DOA at that instant");
    }

    #[derive(Debug)]
    struct BypassAll;
    impl LlcPolicy for BypassAll {
        fn policy_name(&self) -> &'static str {
            "bypass-all"
        }
        fn on_fill(&mut self, _block: BlockAddr, _pc: Pc) -> BlockFillDecision {
            BlockFillDecision::Bypass
        }
    }

    /// Victimizes way 0 unconditionally, to verify the override plumbing.
    #[derive(Debug)]
    struct AlwaysWayZero {
        evictions_seen: u64,
    }
    impl LlcPolicy for AlwaysWayZero {
        fn policy_name(&self) -> &'static str {
            "way-zero"
        }
        fn overrides_victim(&self) -> bool {
            true
        }
        fn pick_victim(&mut self, _lines: &mut [crate::policy::PolicyLineView]) -> Option<usize> {
            Some(0)
        }
        fn on_evict(&mut self, _evicted: EvictedBlock) {
            self.evictions_seen += 1;
        }
    }

    #[test]
    fn policy_victim_override_is_used() {
        let mut h = Hierarchy::with_typed_policy(
            &SystemConfig::paper_baseline(),
            AlwaysWayZero { evictions_seen: 0 },
        );
        let sets = h.llc.array().sets() as u64;
        // Fill one LLC set completely, re-touch the first block (way 0;
        // it has left the L1D and L2 sets, so the LLC hits and makes it
        // MRU, leaving block 1 as the LRU victim), then one more block:
        // the policy must evict way 0.
        for i in (0..16u64).chain([0, 16]) {
            h.access(pa(i * sets * 64), AccessKind::Read, Pc::new(1), true);
        }
        assert_eq!(h.llc.stats.hits, 1, "the re-touch must hit the LLC");
        assert!(!h.llc.contains(pa(0).block().raw()), "way 0 must have been victimized");
        assert!(h.llc.contains(pa(sets * 64).block().raw()), "the LRU block must survive");
        assert_eq!(h.policy().evictions_seen, 1);
    }

    #[test]
    fn set_access_hook_sees_hit_flags() {
        #[derive(Debug, Default)]
        struct HitWatcher {
            hits_flagged: u64,
        }
        impl LlcPolicy for HitWatcher {
            fn policy_name(&self) -> &'static str {
                "hit-watcher"
            }
            fn uses_set_views(&self) -> bool {
                true
            }
            fn on_set_access(&mut self, lines: &mut [crate::policy::PolicyLineView]) {
                self.hits_flagged += lines.iter().filter(|view| view.is_hit).count() as u64;
            }
        }
        let mut h =
            Hierarchy::with_typed_policy(&SystemConfig::paper_baseline(), HitWatcher::default());
        h.access(pa(0x9000), AccessKind::Read, Pc::new(1), true);
        // Evict from L1/L2 so the second access reaches the LLC and hits.
        h.l1d.invalidate(pa(0x9000).block().raw());
        h.l2.invalidate(pa(0x9000).block().raw());
        h.access(pa(0x9000), AccessKind::Read, Pc::new(1), true);
        assert_eq!(h.llc.stats.hits, 1);
        assert_eq!(h.policy().hits_flagged, 1, "the LLC hit must be flagged to the hook");
    }

    #[test]
    fn bypass_keeps_block_out_of_llc_but_in_l1() {
        let mut h = Hierarchy::with_typed_policy(&SystemConfig::paper_baseline(), BypassAll);
        h.access(pa(0x3000), AccessKind::Read, Pc::new(1), true);
        let block = pa(0x3000).block().raw();
        assert!(!h.llc.contains(block));
        assert!(h.l1d.contains(block));
        assert_eq!(h.llc.stats.bypasses, 1);
        assert_eq!(h.llc.stats.fills, 0);
    }
}
