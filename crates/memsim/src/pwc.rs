//! Page-walk caches (PWCs).
//!
//! Three fully-associative caches of partial translations (paper Table I:
//! 4/8/16 entries at 1/1/2 cycles). Level `i` caches the page-table node a
//! walk can resume from, skipping `3 - i` of the four PTE loads:
//!
//! * **PWC L1** (index 0) tags `vpn >> 9` and holds the leaf PT node —
//!   a hit leaves 1 PTE load;
//! * **PWC L2** (index 1) tags `vpn >> 18` and holds the PD node —
//!   2 PTE loads;
//! * **PWC L3** (index 2) tags `vpn >> 27` and holds the PDPT node —
//!   3 PTE loads.

use crate::set_assoc::{InsertPriority, Line, SetAssoc};
use dpc_types::{Pfn, PwcConfig, ReplacementKind, Vpn};

impl Line for Pfn {}

/// Tag shift applied to the VPN for PWC level `i` (0-based).
const LEVEL_SHIFT: [u32; 3] = [9, 18, 27];

/// Result of a [`PwcSet::lookup`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PwcProbe {
    /// Which PWC level hit (0 is closest to the leaf), or `None` for a
    /// full walk from the root.
    pub hit_level: Option<usize>,
    /// Node frame to resume the walk from (meaningful only on a hit).
    pub resume_node: Pfn,
    /// Cycles spent probing.
    pub latency: u64,
    /// Number of PTE loads the walk still needs (1..=4).
    pub remaining_loads: u32,
}

/// The three-level page-walk cache hierarchy.
#[derive(Debug)]
pub struct PwcSet {
    levels: [SetAssoc<Pfn>; 3],
    latency: [u32; 3],
    hits: [u64; 3],
}

impl PwcSet {
    /// Builds the PWC hierarchy from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if any level has zero entries.
    pub fn new(config: &PwcConfig) -> Self {
        let levels = [
            SetAssoc::new(1, config.entries[0] as usize, ReplacementKind::Lru),
            SetAssoc::new(1, config.entries[1] as usize, ReplacementKind::Lru),
            SetAssoc::new(1, config.entries[2] as usize, ReplacementKind::Lru),
        ];
        PwcSet { levels, latency: config.latency, hits: [0; 3] }
    }

    /// Looks up the PWC levels at or above `min_level`, closest-to-leaf
    /// first, accumulating probe latency, exactly like a hardware walker
    /// searching for the longest cached prefix. Each level visited counts
    /// as a lookup of its array (a miss advances its lookup clock); the
    /// level that hits is promoted and counted, and ends the search.
    ///
    /// `min_level` is 0 for a 4 KB walk. Huge mappings terminate at the
    /// PDE (`min_level == 1`, 2 MB) or PDPTE (`min_level == 2`, 1 GB) and
    /// therefore never consult the levels below; skipping those levels
    /// also sidesteps stale sub-terminal entries left behind when a
    /// region is promoted.
    ///
    /// On a hit at level `L`, `remaining_loads` is `L + 1 - min_level`;
    /// on a full miss it is `4 - min_level` (the walk's total PTE loads).
    pub fn lookup(&mut self, vpn: Vpn, min_level: usize) -> PwcProbe {
        let mut latency = 0u64;
        for (level, &shift) in LEVEL_SHIFT.iter().enumerate().skip(min_level) {
            latency += u64::from(self.latency[level]);
            let tag = vpn.raw() >> shift;
            if let Some((_, &node)) = self.levels[level].lookup_payload(tag, tag) {
                self.hits[level] += 1;
                return PwcProbe {
                    hit_level: Some(level),
                    resume_node: node,
                    latency,
                    remaining_loads: (level + 1 - min_level) as u32,
                };
            }
        }
        PwcProbe {
            hit_level: None,
            resume_node: Pfn::new(0),
            latency,
            remaining_loads: (4 - min_level) as u32,
        }
    }

    /// Installs the nodes discovered by a completed walk into every PWC
    /// level at or above `min_level`. `node_pfns[level]` is the node
    /// visited at radix level `level` (0 = leaf PT), as produced by
    /// [`WalkPath`](crate::page_table::WalkPath); a huge walk never
    /// visited the nodes below its terminal level, so it has nothing to
    /// install there (`node_pfns` holds `Pfn(0)` fillers).
    pub fn fill_from(&mut self, vpn: Vpn, node_pfns: &[Pfn; 4], min_level: usize) {
        for (level, &shift) in LEVEL_SHIFT.iter().enumerate().skip(min_level) {
            let tag = vpn.raw() >> shift;
            if self.levels[level].peek(tag, tag).is_none() {
                self.levels[level].fill(tag, tag, node_pfns[level], InsertPriority::Normal);
            }
        }
    }

    /// The three levels' arrays, leaf-closest first.
    #[cfg(test)]
    pub(crate) fn levels(&self) -> &[SetAssoc<Pfn>; 3] {
        &self.levels
    }

    /// Hits per level so far.
    pub fn hits(&self) -> [u64; 3] {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_types::SystemConfig;

    fn pwc() -> PwcSet {
        PwcSet::new(&SystemConfig::paper_baseline().pwc)
    }

    #[test]
    fn cold_probe_misses_everywhere() {
        let mut p = pwc();
        let probe = p.lookup(Vpn::new(0x1234), 0);
        assert_eq!(probe.hit_level, None);
        assert_eq!(probe.remaining_loads, 4);
        // 1 + 1 + 2 cycles of probing.
        assert_eq!(probe.latency, 4);
        assert_eq!(p.hits(), [0, 0, 0]);
        assert_eq!(
            p.levels().each_ref().map(|level| level.seq()),
            [1, 1, 1],
            "each level looked up once"
        );
    }

    #[test]
    fn fill_then_leaf_hit() {
        let mut p = pwc();
        let nodes = [Pfn::new(10), Pfn::new(11), Pfn::new(12), Pfn::new(13)];
        p.fill_from(Vpn::new(0x1234), &nodes, 0);
        let probe = p.lookup(Vpn::new(0x1234), 0);
        assert_eq!(probe.hit_level, Some(0));
        assert_eq!(probe.resume_node, Pfn::new(10));
        assert_eq!(probe.remaining_loads, 1);
        assert_eq!(probe.latency, 1);
        assert_eq!(p.hits(), [1, 0, 0]);
        assert_eq!(
            p.levels().each_ref().map(|level| level.seq()),
            [1, 0, 0],
            "the hit ends the search"
        );
    }

    /// A hit is promoted to MRU: the re-referenced leaf entry survives the
    /// fills that would otherwise evict it.
    #[test]
    fn lookup_promotes_the_hit_to_mru() {
        let mut p = pwc();
        // PWC L1 holds 4 entries; fill it, then re-reference the oldest.
        for i in 0..4u64 {
            p.fill_from(Vpn::new(i << 9), &[Pfn::new(i); 4], 0);
        }
        assert_eq!(p.lookup(Vpn::new(0), 0).hit_level, Some(0));
        // The next two distinct regions evict the two actual LRU entries,
        // not the freshly promoted one.
        p.fill_from(Vpn::new(4 << 9), &[Pfn::new(4); 4], 0);
        p.fill_from(Vpn::new(5 << 9), &[Pfn::new(5); 4], 0);
        assert_eq!(p.lookup(Vpn::new(0), 0).hit_level, Some(0), "promoted entry must survive");
    }

    #[test]
    fn sibling_region_hits_higher_level() {
        let mut p = pwc();
        let nodes = [Pfn::new(10), Pfn::new(11), Pfn::new(12), Pfn::new(13)];
        p.fill_from(Vpn::new(0), &nodes, 0);
        // Same PD region (shares vpn >> 18) but different PT region.
        let probe = p.lookup(Vpn::new(1 << 9), 0);
        assert_eq!(probe.hit_level, Some(1));
        assert_eq!(probe.resume_node, Pfn::new(11));
        assert_eq!(probe.remaining_loads, 2);
        assert_eq!(probe.latency, 2);
    }

    #[test]
    fn capacity_is_bounded_lru() {
        let mut p = pwc();
        // PWC L1 holds 4 entries; the 5th distinct PT region evicts the LRU.
        for i in 0..5u64 {
            p.fill_from(Vpn::new(i << 9), &[Pfn::new(i); 4], 0);
        }
        let probe = p.lookup(Vpn::new(0), 0); // oldest PT region
        assert_ne!(probe.hit_level, Some(0), "LRU entry must have been evicted");
    }

    #[test]
    fn probe_from_skips_sub_terminal_levels() {
        let mut p = pwc();
        // Cold 2 MB probe: levels 1 and 2 only → 1 + 2 cycles, 3 loads.
        let probe = p.lookup(Vpn::new(0x1234), 1);
        assert_eq!(probe.hit_level, None);
        assert_eq!(probe.remaining_loads, 3);
        assert_eq!(probe.latency, 3);
        // Cold 1 GB probe: level 2 only → 2 cycles, 2 loads.
        let probe = p.lookup(Vpn::new(0x1234), 2);
        assert_eq!(probe.remaining_loads, 2);
        assert_eq!(probe.latency, 2);
        assert_eq!(
            p.levels().each_ref().map(|level| level.seq()),
            [0, 1, 2],
            "skipped levels stay idle"
        );
    }

    #[test]
    fn fill_from_leaves_lower_levels_cold() {
        let mut p = pwc();
        let nodes = [Pfn::new(0), Pfn::new(21), Pfn::new(22), Pfn::new(23)];
        p.fill_from(Vpn::new(0x1234), &nodes, 1);
        // A warm 2 MB probe resumes from the PD node with one load left.
        let probe = p.lookup(Vpn::new(0x1234), 1);
        assert_eq!(probe.hit_level, Some(1));
        assert_eq!(probe.resume_node, Pfn::new(21));
        assert_eq!(probe.remaining_loads, 1);
        assert_eq!(probe.latency, 1);
        // Level 0 was never filled: a 4 KB probe of the same VPN must not
        // see a stale leaf entry.
        let probe = p.lookup(Vpn::new(0x1234), 0);
        assert_ne!(probe.hit_level, Some(0));
    }

    /// Each probe is counted where it ends: a hit by its level's hit
    /// counter, a full miss by none (the walker counts walks).
    #[test]
    fn probes_counted() {
        let mut p = pwc();
        p.fill_from(Vpn::new(1), &[Pfn::new(7); 4], 0);
        // Two pages of the cached PT region, then one outside every
        // cached region.
        for vpn in [Vpn::new(1), Vpn::new(2), Vpn::new(1 << 27)] {
            p.lookup(vpn, 0);
        }
        assert_eq!(p.hits(), [2, 0, 0]);
        assert_eq!(p.levels().each_ref().map(|level| level.seq()), [3, 1, 1]);
    }
}
