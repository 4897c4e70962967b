//! The hardware page-table walker.
//!
//! A walk triggered by an LLT miss probes the page-walk caches for the
//! longest cached prefix, then issues the remaining 1–4 PTE loads
//! *sequentially* (each load discovers the next node) **through the data
//! caches**, per the paper's methodology: *"the page walk latency is
//! variable — it depends upon hits/misses to PWCs and whether the page
//! table accesses hit in the data caches."*

use crate::hierarchy::Hierarchy;
use crate::page_table::PageTable;
use crate::policy::LlcPolicy;
use crate::pwc::PwcSet;
use dpc_types::{AccessKind, PageSize, Pc, Pfn, PwcConfig, Vpn};

/// Outcome of one page walk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalkOutcome {
    /// The translation, at the 4 KB grain regardless of mapping size.
    pub pfn: Pfn,
    /// Total walk latency in cycles (PWC probes + PTE loads).
    pub latency: u64,
    /// Number of PTE loads issued.
    pub pte_loads: u32,
    /// The size of the mapping the walk resolved. Huge mappings
    /// terminate at the PDE (2 MB) or PDPTE (1 GB), so their walks are
    /// one or two PTE loads shorter.
    pub size: PageSize,
    /// Whether the walked page was demand-mapped by this walk.
    pub newly_mapped: bool,
}

/// The walker: PWCs plus walk statistics.
#[derive(Debug)]
pub struct Walker {
    pwc: PwcSet,
    /// Completed walks.
    pub walks: u64,
    /// Total PTE loads issued into the cache hierarchy.
    pub pte_loads: u64,
    /// Total cycles spent walking.
    pub walk_cycles: u64,
}

impl Walker {
    /// Builds a walker with the given PWC configuration.
    pub fn new(config: &PwcConfig) -> Self {
        Walker { pwc: PwcSet::new(config), walks: 0, pte_loads: 0, walk_cycles: 0 }
    }

    /// The page-walk caches.
    #[cfg(test)]
    pub(crate) fn pwc(&self) -> &PwcSet {
        &self.pwc
    }

    /// PWC hit counters per level.
    pub fn pwc_hits(&self) -> [u64; 3] {
        self.pwc.hits()
    }

    /// Walks `vpn`: resolves the translation in `page_table` and charges
    /// the PTE loads to `hierarchy`.
    pub fn walk<C: LlcPolicy>(
        &mut self,
        vpn: Vpn,
        page_table: &mut PageTable,
        hierarchy: &mut Hierarchy<C>,
    ) -> WalkOutcome {
        self.walks += 1;
        let path = page_table.translate(vpn);
        // A huge mapping terminates at the PDE/PDPTE: the walk neither
        // probes nor loads below its terminal level.
        let terminal = path.size.terminal_level();
        let probe = self.pwc.lookup(vpn, terminal);
        let mut latency = probe.latency;
        // A PWC hit at level L resumes at radix level L; loads cover
        // levels L..=terminal (closest-to-root first, sequentially
        // dependent).
        let top_level = terminal + probe.remaining_loads as usize - 1;
        for level in (terminal..=top_level).rev() {
            latency += hierarchy.access(path.pte_addrs[level], AccessKind::Read, Pc::new(0), false);
            self.pte_loads += 1;
        }
        self.pwc.fill_from(vpn, &path.node_pfns, terminal);
        self.walk_cycles += latency;
        WalkOutcome {
            pfn: path.pfn,
            latency,
            pte_loads: probe.remaining_loads,
            size: path.size,
            newly_mapped: path.newly_mapped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::NullBlockPolicy;
    use dpc_types::SystemConfig;

    fn setup() -> (Walker, PageTable, Hierarchy) {
        setup_with(dpc_types::AllocPolicy::Base4K)
    }

    fn setup_with(policy: dpc_types::AllocPolicy) -> (Walker, PageTable, Hierarchy) {
        let config = SystemConfig::paper_baseline();
        (
            Walker::new(&config.pwc),
            PageTable::with_policy(policy),
            Hierarchy::with_typed_policy(&config, NullBlockPolicy),
        )
    }

    #[test]
    fn cold_walk_issues_four_loads() {
        let (mut walker, mut pt, mut hier) = setup();
        let outcome = walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        assert_eq!(outcome.pte_loads, 4);
        assert!(outcome.newly_mapped);
        // 4 PWC probe cycles + 4 cold cache misses.
        assert_eq!(outcome.latency, 4 + 4 * (5 + 11 + 40 + 191));
        assert_eq!(walker.walks, 1);
        assert_eq!(walker.pte_loads, 4);
    }

    #[test]
    fn warm_walk_uses_pwc_and_caches() {
        let (mut walker, mut pt, mut hier) = setup();
        walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        let outcome = walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        assert_eq!(outcome.pte_loads, 1, "leaf PWC hit leaves one PTE load");
        assert!(!outcome.newly_mapped);
        // 1 PWC probe cycle + 1 L1D hit.
        assert_eq!(outcome.latency, 1 + 5);
        assert_eq!(walker.pwc_hits(), [1, 0, 0]);
        assert_eq!(walker.walks, 2, "one PWC probe per walk");
    }

    #[test]
    fn sibling_page_walk_partially_accelerated() {
        let (mut walker, mut pt, mut hier) = setup();
        walker.walk(Vpn::new(0), &mut pt, &mut hier);
        // Same PT region: leaf PWC hit, different slot in the same node —
        // the PTE load may even hit in L1D (same block for slots 0 and 1).
        let outcome = walker.walk(Vpn::new(1), &mut pt, &mut hier);
        assert_eq!(outcome.pte_loads, 1);
        assert_eq!(outcome.latency, 1 + 5);
    }

    #[test]
    fn cold_2m_walk_issues_three_loads() {
        let (mut walker, mut pt, mut hier) =
            setup_with(dpc_types::AllocPolicy::Uniform(PageSize::Size2M));
        let outcome = walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        assert_eq!(outcome.size, PageSize::Size2M);
        assert_eq!(outcome.pte_loads, 3);
        // PWC levels 1 + 2 probed (1 + 2 cycles) + 3 cold cache misses.
        assert_eq!(outcome.latency, 3 + 3 * (5 + 11 + 40 + 191));
    }

    #[test]
    fn cold_1g_walk_issues_two_loads() {
        let (mut walker, mut pt, mut hier) =
            setup_with(dpc_types::AllocPolicy::Uniform(PageSize::Size1G));
        let outcome = walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        assert_eq!(outcome.size, PageSize::Size1G);
        assert_eq!(outcome.pte_loads, 2);
        // Only PWC level 2 probed (2 cycles) + 2 cold cache misses.
        assert_eq!(outcome.latency, 2 + 2 * (5 + 11 + 40 + 191));
    }

    #[test]
    fn cold_walks_shorten_with_page_size() {
        let cold = |policy| {
            let (mut walker, mut pt, mut hier) = setup_with(policy);
            walker.walk(Vpn::new(0x1234), &mut pt, &mut hier).latency
        };
        let l4k = cold(dpc_types::AllocPolicy::Base4K);
        let l2m = cold(dpc_types::AllocPolicy::Uniform(PageSize::Size2M));
        let l1g = cold(dpc_types::AllocPolicy::Uniform(PageSize::Size1G));
        assert!(l1g < l2m && l2m < l4k, "walk latency must shrink with page size");
    }

    #[test]
    fn warm_2m_walk_resumes_from_the_pd() {
        let (mut walker, mut pt, mut hier) =
            setup_with(dpc_types::AllocPolicy::Uniform(PageSize::Size2M));
        walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        let outcome = walker.walk(Vpn::new(0x1234), &mut pt, &mut hier);
        assert_eq!(outcome.pte_loads, 1, "PWC level-1 hit leaves the PDE load");
        // 1 PWC probe cycle + 1 L1D hit.
        assert_eq!(outcome.latency, 1 + 5);
        assert_eq!(walker.pwc_hits(), [0, 1, 0]);
    }

    #[test]
    fn walk_results_are_consistent() {
        let (mut walker, mut pt, mut hier) = setup();
        let a = walker.walk(Vpn::new(77), &mut pt, &mut hier).pfn;
        let b = walker.walk(Vpn::new(77), &mut pt, &mut hier).pfn;
        assert_eq!(a, b);
    }
}
