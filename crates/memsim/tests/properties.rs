//! Property-based tests of the memsim substrate: set-associative
//! replacement invariants, page-table correctness, PWC consistency, and
//! timing-model monotonicity under arbitrary inputs.

use dpc_memsim::core_model::CoreModel;
use dpc_memsim::page_table::PageTable;
use dpc_memsim::pwc::PwcSet;
use dpc_memsim::set_assoc::{InsertPriority, SetAssoc};
use dpc_types::{ReplacementKind, SystemConfig, Vpn};
use proptest::prelude::*;

fn any_replacement() -> impl Strategy<Value = ReplacementKind> {
    prop_oneof![
        Just(ReplacementKind::Lru),
        Just(ReplacementKind::Srrip),
        Just(ReplacementKind::Fifo),
    ]
}

proptest! {
    /// Valid-line count never exceeds capacity, and a fill always makes
    /// the tag resident.
    #[test]
    fn set_assoc_capacity_and_residency(
        kind in any_replacement(),
        ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..300),
    ) {
        let mut array: SetAssoc<u32> = SetAssoc::new(8, 4, kind);
        for (tag, write) in ops {
            let tag = u64::from(tag % 128);
            if write {
                array.fill(tag, tag, 0, InsertPriority::Normal);
                prop_assert!(array.peek(tag, tag).is_some(), "fill must leave tag resident");
            } else {
                let _ = array.lookup(tag, tag);
            }
            prop_assert!(array.valid_count() <= 32);
        }
    }

    /// A hit immediately after a fill is guaranteed under every policy
    /// (no policy evicts the just-inserted line before any other access).
    #[test]
    fn fill_then_lookup_hits(kind in any_replacement(), tags in proptest::collection::vec(any::<u8>(), 1..100)) {
        let mut array: SetAssoc<u32> = SetAssoc::new(4, 2, kind);
        for tag in tags {
            let tag = u64::from(tag);
            array.fill(tag, tag, 7, InsertPriority::Normal);
            prop_assert!(array.lookup(tag, tag).is_some());
        }
    }

    /// LRU never evicts the most recently used line of a set.
    #[test]
    fn lru_never_evicts_mru(tags in proptest::collection::vec(any::<u8>(), 2..200)) {
        let mut array: SetAssoc<u32> = SetAssoc::new(1, 4, ReplacementKind::Lru);
        let mut last: Option<u64> = None;
        for tag in tags {
            let tag = u64::from(tag);
            if array.lookup(0_u64, tag).is_none() {
                if let Some(evicted) = array.fill(0, tag, 0, InsertPriority::Normal) {
                    if let Some(mru) = last {
                        prop_assert_ne!(evicted.tag, mru, "evicted the MRU line");
                    }
                }
            }
            last = Some(tag);
        }
    }

    /// Page-table translation is a stable injection: same VPN → same PFN,
    /// different VPNs → different PFNs.
    #[test]
    fn page_table_is_stable_injection(vpns in proptest::collection::vec(0u64..(1 << 30), 1..100)) {
        let mut pt = PageTable::new();
        let mut seen = std::collections::HashMap::new();
        for &vpn in vpns.iter().chain(vpns.iter()) {
            let pfn = pt.translate(Vpn::new(vpn)).pfn;
            if let Some(&prev) = seen.get(&vpn) {
                prop_assert_eq!(pfn, prev, "translation changed for vpn {:#x}", vpn);
            } else {
                prop_assert!(
                    !seen.values().any(|&p| p == pfn),
                    "frame reused across pages"
                );
                seen.insert(vpn, pfn);
            }
        }
    }

    /// A PWC lookup after a fill resumes from the correct node: the node
    /// the page table actually visits at that level.
    #[test]
    fn pwc_resume_nodes_are_correct(vpns in proptest::collection::vec(0u64..(1 << 27), 1..50)) {
        let config = SystemConfig::paper_baseline();
        let mut pwc = PwcSet::new(&config.pwc);
        let mut pt = PageTable::new();
        for &vpn in &vpns {
            let path = pt.translate(Vpn::new(vpn));
            pwc.fill_from(Vpn::new(vpn), &path.node_pfns, 0);
            let probe = pwc.lookup(Vpn::new(vpn), 0);
            let level = probe.hit_level.expect("just-filled entry must hit");
            prop_assert_eq!(probe.resume_node, path.node_pfns[level]);
        }
    }

    /// Core-model cycles are monotone in added latency and bounded below
    /// by the width limit.
    #[test]
    fn core_model_bounds(latencies in proptest::collection::vec(1u64..400, 1..300)) {
        let mut core = CoreModel::new(4, 192, 10);
        for &lat in &latencies {
            core.issue(lat);
        }
        let n = latencies.len() as u64;
        prop_assert!(core.cycles() >= n / 4, "cannot beat the dispatch width");
        let serial: u64 = latencies.iter().sum();
        prop_assert!(core.cycles() <= serial + n, "cannot be slower than full serialization");
        prop_assert_eq!(core.instructions(), n);

        // Adding one instruction never reduces total cycles.
        let before = core.cycles();
        core.issue(1);
        prop_assert!(core.cycles() >= before);
    }

    /// SRRIP victim search terminates and returns a valid way for every
    /// mix of priorities.
    #[test]
    fn srrip_victim_always_valid(
        ops in proptest::collection::vec((any::<u8>(), 0u8..3), 4..200),
    ) {
        let mut array: SetAssoc<u32> = SetAssoc::new(2, 4, ReplacementKind::Srrip);
        for (tag, prio) in ops {
            let tag = u64::from(tag);
            let priority = match prio {
                0 => InsertPriority::Normal,
                1 => InsertPriority::Distant,
                _ => InsertPriority::High,
            };
            if array.lookup(tag, tag).is_none() {
                array.fill(tag, tag, 0, priority);
            }
            prop_assert!(array.peek(tag, tag).is_some());
        }
    }
}
