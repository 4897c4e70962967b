//! Translation lookaside buffers.
//!
//! [`TlbEntry`] is the payload of a TLB line: a VPN → PFN translation
//! with 32 bits of policy scratch state (dpPred keeps its 6-bit PC hash
//! there). The L1 TLBs store the bare entry. The last-level TLB is a
//! `Cache<Lived<TlbEntry>>` ([`Cache`](crate::cache::Cache),
//! [`Lived`](crate::set_assoc::Lived)) keyed by the page's LLT key, whose
//! lifetime gives the `Accessed` bit (a nonzero hit count); its policy
//! logic lives in [`System`](crate::system::System).
//!
//! [`TlbGroup`] models a first-level TLB as real cores build it: one
//! set-associative structure *per page size* (x86 cpuid reports e.g.
//! 64-entry/4-way for 4 KB data pages, 32-entry/4-way for 2 MB, a small
//! fully-associative array for 1 GB), probed in parallel and presented
//! to the core as a single lookup. Entries are tagged and filled at
//! their page's grain — one 2 MB mapping occupies one entry — and the
//! 4 KB-grain translation is reconstructed from the in-page offset on a
//! hit. The paper's 4 KB configuration is a group of one 4 KB member.

use crate::set_assoc::{HasPolicyState, InsertPriority, Line, SetAssoc};
use crate::stats::StructStats;
use dpc_types::{AllocPolicy, PageSize, Pfn, TlbConfig, Vpn};

/// Per-entry TLB metadata.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbEntry {
    /// The translation target.
    pub pfn: u64,
    /// Policy scratch state.
    pub state: u32,
}

impl HasPolicyState for TlbEntry {
    fn policy_state_mut(&mut self) -> &mut u32 {
        &mut self.state
    }
}

impl Line for TlbEntry {}

/// One per-page-size structure inside a [`TlbGroup`].
#[derive(Debug)]
struct TlbMember {
    size: PageSize,
    array: SetAssoc<TlbEntry>,
}

impl TlbMember {
    fn new(size: PageSize, config: &TlbConfig) -> Self {
        TlbMember {
            size,
            array: SetAssoc::new(config.sets() as usize, config.ways as usize, config.replacement),
        }
    }
}

/// A first-level TLB: per-page-size structures probed as one lookup.
#[derive(Debug)]
pub struct TlbGroup {
    members: Vec<TlbMember>,
    /// Hit latency in cycles (shared by all members — they probe in
    /// parallel).
    pub latency: u32,
    /// Counters for the group as a whole.
    pub stats: StructStats,
}

impl TlbGroup {
    /// Builds a single-structure 4 KB group with `config`'s geometry — the
    /// paper's configuration.
    pub fn single(config: &TlbConfig) -> Self {
        TlbGroup {
            members: vec![TlbMember::new(PageSize::Size4K, config)],
            latency: config.latency,
            stats: StructStats::default(),
        }
    }

    /// Builds the group `policy` requires: `config`'s geometry for the
    /// 4 KB structure (when present) and the cpuid-derived split
    /// geometries ([`PageSize::l1_itlb`] / [`PageSize::l1_dtlb`]) for
    /// huge sizes.
    pub fn for_policy(config: &TlbConfig, policy: AllocPolicy, instruction: bool) -> Self {
        let members = policy
            .page_sizes()
            .iter()
            .map(|&size| {
                if size == PageSize::Size4K {
                    TlbMember::new(size, config)
                } else if instruction {
                    TlbMember::new(size, &size.l1_itlb())
                } else {
                    TlbMember::new(size, &size.l1_dtlb())
                }
            })
            .collect();
        TlbGroup { members, latency: config.latency, stats: StructStats::default() }
    }

    /// Looks up the 4 KB-grain `vpn` across every member, updating
    /// recency and the group counters; a hit reconstructs the 4 KB-grain
    /// frame from the member's unit translation and the in-page offset.
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> Option<Pfn> {
        self.stats.lookups += 1;
        for m in &mut self.members {
            let unit = m.size.vpn_unit(vpn).raw();
            if let Some((_, entry)) = m.array.lookup_payload(unit, unit) {
                self.stats.hits += 1;
                return Some(Pfn::new(
                    (entry.pfn << m.size.unit_shift()) | m.size.frame_offset(vpn),
                ));
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Probes every member without side effects.
    #[inline]
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.members.iter().any(|m| {
            let unit = m.size.vpn_unit(vpn).raw();
            m.array.peek(unit, unit).is_some()
        })
    }

    /// Allocates a translation into the member for `size`, tagging and
    /// storing at that size's grain. `vpn`/`pfn` are 4 KB-grain; the
    /// eviction (if any) reports the victim's size and *unit* VPN.
    ///
    /// # Panics
    ///
    /// Panics if `size` has no member in this group (the caller derives
    /// the size from the same policy that built the group).
    #[inline]
    pub fn fill(
        &mut self,
        size: PageSize,
        vpn: Vpn,
        pfn: Pfn,
        priority: InsertPriority,
        state: u32,
    ) -> Option<(PageSize, Vpn, TlbEntry)> {
        self.stats.fills += 1;
        let m = self
            .members
            .iter_mut()
            .find(|m| m.size == size)
            // dpc-lint: allow(hot-path::unwrap) -- fill sizes come from walk outcomes of the same page policy whose sizes built this member list
            .expect("fill size must be enabled in this TLB group");
        let unit_vpn = size.vpn_unit(vpn).raw();
        let unit_pfn = size.pfn_unit(pfn).raw();
        m.array
            .fill(unit_vpn, unit_vpn, TlbEntry { pfn: unit_pfn, state }, priority)
            .map(|e| (size, Vpn::new(e.tag), e.payload))
            .inspect(|_| self.stats.evictions += 1)
    }

    /// Every member's array, in probe order.
    #[cfg(test)]
    pub(crate) fn arrays(&self) -> impl Iterator<Item = &SetAssoc<TlbEntry>> {
        self.members.iter().map(|m| &m.array)
    }

    /// Read-only access to the primary member's array (tests, sampling).
    pub fn primary_array(&self) -> &SetAssoc<TlbEntry> {
        &self.members[0].array
    }

    /// The page sizes this group holds, in probe order.
    pub fn sizes(&self) -> impl Iterator<Item = PageSize> + '_ {
        self.members.iter().map(|m| m.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::set_assoc::Lived;
    use dpc_types::{ReplacementKind, SystemConfig};

    /// A last-level TLB of `config`'s geometry.
    fn level(config: &TlbConfig) -> Cache<Lived<TlbEntry>> {
        Cache::new(config.sets() as usize, config.ways as usize, config.replacement, config.latency)
    }

    fn tiny() -> Cache<Lived<TlbEntry>> {
        level(&TlbConfig { entries: 2, ways: 2, latency: 8, replacement: ReplacementKind::Lru })
    }

    fn entry(pfn: u64, state: u32) -> Lived<TlbEntry> {
        Lived::new(TlbEntry { pfn, state })
    }

    /// A level lookup as a translation: the hit entry's frame.
    fn translate(t: &mut Cache<Lived<TlbEntry>>, vpn: u64) -> Option<Pfn> {
        t.lookup(vpn).map(|way| Pfn::new(t.array().payload(vpn, way).pfn))
    }

    #[test]
    fn translation_roundtrip() {
        let mut t = tiny();
        assert_eq!(translate(&mut t, 5), None);
        t.fill(5, entry(50, 0), InsertPriority::Normal);
        assert_eq!(translate(&mut t, 5), Some(Pfn::new(50)));
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.misses, 1);
    }

    #[test]
    fn resident_hits_tracks_accessed_bit() {
        let mut t = tiny();
        t.fill(5, entry(50, 0), InsertPriority::Normal);
        assert_eq!(t.resident_hits(5), Some(0), "freshly filled entry is unaccessed");
        t.lookup(5);
        assert_eq!(t.resident_hits(5), Some(1));
        assert_eq!(t.resident_hits(99), None);
    }

    #[test]
    fn eviction_reports_vpn_and_state() {
        let mut t = tiny();
        t.fill(1, entry(10, 0xAB), InsertPriority::Normal);
        t.fill(3, entry(30, 0), InsertPriority::Normal);
        let evicted = t.fill(5, entry(50, 0), InsertPriority::Normal).unwrap();
        assert_eq!(evicted.tag, 1);
        assert_eq!(*evicted.payload, TlbEntry { pfn: 10, state: 0xAB });
        assert!(!evicted.payload.accessed());
        assert_eq!(t.stats.evictions, 1);
    }

    #[test]
    fn paper_llt_geometry() {
        let t = level(&SystemConfig::paper_baseline().l2_tlb);
        assert_eq!(t.array().sets(), 128);
        assert_eq!(t.array().ways(), 8);
        assert_eq!(t.latency, 8);
    }

    #[test]
    fn single_group_matches_bare_tlb() {
        let config = SystemConfig::paper_baseline().l1_dtlb;
        let mut tlb = level(&config);
        let mut group = TlbGroup::single(&config);
        // Identical fill/lookup sequence → identical results and counters.
        for i in 0..200u64 {
            let vpn = Vpn::new(i * 37 % 97);
            let pfn = Pfn::new(1000 + vpn.raw());
            assert_eq!(translate(&mut tlb, vpn.raw()), group.lookup(vpn), "lookup {i}");
            let evicted = tlb.fill(vpn.raw(), entry(pfn.raw(), 0), InsertPriority::Normal);
            let group_evicted = group.fill(PageSize::Size4K, vpn, pfn, InsertPriority::Normal, 0);
            assert_eq!(
                evicted.map(|e| (e.tag, *e.payload)),
                group_evicted.map(|(_, v, e)| (v.raw(), e))
            );
        }
        assert_eq!(tlb.stats, group.stats);
        // The general constructor builds the same one-member group.
        let general = TlbGroup::for_policy(&config, AllocPolicy::Base4K, false);
        assert_eq!(general.sizes().collect::<Vec<_>>(), [PageSize::Size4K]);
        assert_eq!(general.primary_array().ways(), tlb.array().ways());
        assert_eq!(general.primary_array().sets(), tlb.array().sets());
    }

    #[test]
    fn group_probes_all_sizes_and_reconstructs_offsets() {
        let config = SystemConfig::paper_baseline().l1_dtlb;
        let mut group =
            TlbGroup::for_policy(&config, AllocPolicy::Promote2M { threshold: 64 }, false);
        assert_eq!(group.sizes().collect::<Vec<_>>(), [PageSize::Size4K, PageSize::Size2M]);
        // A 2 MB mapping: base frame 0x8000, page vpn 0x4_0055 inside
        // region 0x200 (unit vpn).
        let vpn = Vpn::new(0x4_0055);
        let pfn = Pfn::new(0x8000 + 0x55);
        group.fill(PageSize::Size2M, vpn, pfn, InsertPriority::Normal, 0);
        assert_eq!(group.lookup(vpn), Some(pfn));
        // Any other page of the same region hits the same entry.
        let sibling = Vpn::new(0x4_01ff);
        assert!(group.contains(sibling));
        assert_eq!(group.lookup(sibling), Some(Pfn::new(0x8000 + 0x1ff)));
        // A 4 KB entry with the same unit tag lives in its own member.
        group.fill(PageSize::Size4K, Vpn::new(0x200), Pfn::new(7), InsertPriority::Normal, 0);
        assert_eq!(group.lookup(Vpn::new(0x200)), Some(Pfn::new(7)));
        assert_eq!(group.stats.hits, 3);
        assert_eq!(group.stats.misses, 0);
    }

    #[test]
    fn split_geometries_follow_cpuid() {
        let config = SystemConfig::paper_baseline().l1_dtlb;
        let group = TlbGroup::for_policy(&config, AllocPolicy::Uniform(PageSize::Size2M), false);
        // Uniform 2 MB: one member with the cpuid 32-entry/4-way split.
        assert_eq!(group.sizes().collect::<Vec<_>>(), [PageSize::Size2M]);
        assert_eq!(group.primary_array().sets() * group.primary_array().ways(), 32);
        assert_eq!(group.primary_array().ways(), 4);
    }
}
