//! Property-based invariants across the crate boundary: arbitrary access
//! streams through the full system must never violate structural
//! invariants, regardless of policy.

use dpc::prelude::*;
use proptest::prelude::*;

/// A compact description of a synthetic access stream.
#[derive(Clone, Debug)]
struct StreamSpec {
    /// (pc site, page id, offset) triples.
    accesses: Vec<(u8, u16, u16)>,
}

struct SpecWorkload {
    accesses: Vec<(u8, u16, u16)>,
    pos: usize,
}

impl Workload for SpecWorkload {
    fn name(&self) -> &str {
        "proptest-stream"
    }

    fn next_event(&mut self) -> Option<Event> {
        let &(site, page, offset) = self.accesses.get(self.pos)?;
        self.pos += 1;
        let pc = Pc::new(0x40_0000 + u64::from(site) * 4);
        let va = VirtAddr::new(0x5000_0000 + u64::from(page) * 4096 + u64::from(offset % 4096));
        Some(if site % 3 == 0 { Event::store(pc, va) } else { Event::load(pc, va) })
    }
}

fn spec_strategy() -> impl Strategy<Value = StreamSpec> {
    proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..400)
        .prop_map(|accesses| StreamSpec { accesses })
}

fn check_invariants(stats: &SimStats, n: usize) {
    assert_eq!(stats.mem_ops, n as u64);
    for st in [&stats.l1i_tlb, &stats.l1d_tlb, &stats.llt, &stats.l1d, &stats.l2, &stats.llc] {
        assert_eq!(st.hits + st.misses, st.lookups);
        assert!(st.bypasses <= st.misses);
    }
    assert_eq!(stats.walks, stats.llt.misses - stats.llt.shadow_hits);
    assert!(stats.walk_pte_loads <= 4 * stats.walks);
    assert!(stats.cycles >= (stats.instructions / 4));
    assert!(stats.llt_deadness.dead >= stats.llt_deadness.doa);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_streams_respect_invariants_baseline(spec in spec_strategy()) {
        let n = spec.accesses.len();
        let mut system = System::new(SystemConfig::paper_baseline()).unwrap();
        system.run(&mut SpecWorkload { accesses: spec.accesses, pos: 0 });
        let stats = system.stats();
        check_invariants(&stats, n);
    }

    #[test]
    fn arbitrary_streams_respect_invariants_with_predictors(spec in spec_strategy()) {
        let n = spec.accesses.len();
        let config = SystemConfig::paper_baseline();
        let mut system = System::with_typed_policies(
            config,
            DpPred::paper_default(),
            CbPred::paper_default(&config.llc),
        )
        .unwrap();
        system.run(&mut SpecWorkload { accesses: spec.accesses, pos: 0 });
        let stats = system.stats();
        check_invariants(&stats, n);
    }

    #[test]
    fn arbitrary_streams_respect_invariants_with_baseline_predictors(spec in spec_strategy()) {
        let n = spec.accesses.len();
        let config = SystemConfig::paper_baseline();
        let mut system = System::with_typed_policies(
            config,
            ShipTlb::paper_default(),
            AipLlc::paper_default(),
        )
        .unwrap();
        system.run(&mut SpecWorkload { accesses: spec.accesses, pos: 0 });
        let stats = system.stats();
        check_invariants(&stats, n);
    }

    /// Translation is a function: the same virtual page always maps to the
    /// same frame, across policies.
    #[test]
    fn translations_are_stable(pages in proptest::collection::vec(any::<u16>(), 1..100)) {
        let accesses: Vec<(u8, u16, u16)> =
            pages.iter().chain(pages.iter()).map(|&p| (1, p, 0)).collect();
        let mut system = System::new(SystemConfig::paper_baseline()).unwrap();
        system.run(&mut SpecWorkload { accesses, pos: 0 });
        let stats = system.stats();
        // Second touch of every page cannot demand-map again: the number
        // of walks is bounded by distinct pages (+ code page).
        let distinct: std::collections::HashSet<_> = pages.iter().collect();
        prop_assert!(stats.walks <= distinct.len() as u64 + 1);
    }
}
