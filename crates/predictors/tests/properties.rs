//! Property-based tests of the predictors: structural bounds (table
//! sizes, shadow/PFQ capacities) and behavioural invariants (negative
//! feedback, training saturation) under arbitrary event sequences.

use dpc_memsim::policy::{
    BlockFillDecision, EvictedBlock, EvictedPage, LlcPolicy, LltPolicy, PageFillDecision,
};
use dpc_predictors::{CbPred, DpPred, ShipTlb};
use dpc_types::{BlockAddr, Pc, Pfn, SystemConfig, Vpn};
use proptest::prelude::*;

/// One predictor-visible event.
#[derive(Clone, Debug)]
enum Ev {
    Lookup(u16),
    Fill(u16, u8),
    EvictDoa(u16, u8),
    EvictLive(u16, u8),
    Shadow(u16),
}

fn ev_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (any::<u16>()).prop_map(Ev::Lookup),
        (any::<u16>(), any::<u8>()).prop_map(|(v, p)| Ev::Fill(v, p)),
        (any::<u16>(), any::<u8>()).prop_map(|(v, p)| Ev::EvictDoa(v, p)),
        (any::<u16>(), any::<u8>()).prop_map(|(v, p)| Ev::EvictLive(v, p)),
        (any::<u16>()).prop_map(Ev::Shadow),
    ]
}

proptest! {
    /// dpPred never panics, and its accuracy report stays internally
    /// consistent, under arbitrary (even ill-ordered) event sequences.
    #[test]
    fn dppred_is_robust(events in proptest::collection::vec(ev_strategy(), 1..500)) {
        let mut pred = DpPred::paper_default();
        for event in events {
            match event {
                Ev::Lookup(v) => pred.on_lookup(Vpn::new(v.into()), false),
                Ev::Fill(v, p) => {
                    let decision =
                        pred.on_fill(Vpn::new(v.into()), Pfn::new(1), Pc::new(u64::from(p) * 4));
                    if decision == PageFillDecision::Bypass {
                        pred.on_bypass(Vpn::new(v.into()), Pfn::new(1));
                    }
                }
                Ev::EvictDoa(v, p) => pred.on_evict(EvictedPage {
                    vpn: Vpn::new(v.into()),
                    pfn: Pfn::new(1),
                    state: u32::from(p) & 0x3f,
                    accessed: false,
                }),
                Ev::EvictLive(v, p) => pred.on_evict(EvictedPage {
                    vpn: Vpn::new(v.into()),
                    pfn: Pfn::new(1),
                    state: u32::from(p) & 0x3f,
                    accessed: true,
                }),
                Ev::Shadow(v) => {
                    let _ = pred.shadow_lookup(Vpn::new(v.into()));
                }
            }
        }
        let report = pred.accuracy_report().expect("dpPred reports accuracy");
        prop_assert!(report.correct <= report.true_doas || report.true_doas == 0);
        prop_assert!(report.accuracy() <= 1.0);
        prop_assert!(report.coverage() <= 1.0);
    }

    /// The shadow table never serves a translation that was not bypassed,
    /// and each bypassed translation is served at most once.
    #[test]
    fn shadow_serves_each_bypass_at_most_once(vpns in proptest::collection::vec(any::<u8>(), 1..100)) {
        let mut pred = DpPred::paper_default();
        let mut outstanding: Vec<u64> = Vec::new();
        for v in vpns {
            let vpn = Vpn::new(u64::from(v));
            // Without any bypass, the shadow must be empty.
            if !outstanding.contains(&vpn.raw()) {
                prop_assert_eq!(pred.shadow_lookup(vpn), None);
            }
            pred.on_bypass(vpn, Pfn::new(u64::from(v) + 100));
            // Mirror the shadow's semantics: a re-bypassed VPN refreshes
            // its entry; otherwise FIFO with capacity 2.
            if let Some(pos) = outstanding.iter().position(|&x| x == vpn.raw()) {
                outstanding.remove(pos);
            } else if outstanding.len() >= 2 {
                outstanding.remove(0);
            }
            outstanding.push(vpn.raw());
        }
        // Serving drains: two lookups of the same vpn cannot both hit.
        if let Some(&v) = outstanding.last() {
            let vpn = Vpn::new(v);
            if pred.shadow_lookup(vpn).is_some() {
                prop_assert_eq!(pred.shadow_lookup(vpn), None);
            }
        }
    }

    /// cbPred only ever bypasses blocks whose frame matched the PFQ, and
    /// the DP bit is set exactly for PFQ-matched allocations.
    #[test]
    fn cbpred_only_predicts_on_doa_pages(
        doa_frames in proptest::collection::vec(0u64..16, 0..12),
        blocks in proptest::collection::vec((0u64..32, 0u64..64), 1..300),
    ) {
        let config = SystemConfig::paper_baseline();
        let mut pred = CbPred::paper_default(&config.llc);
        for &f in &doa_frames {
            pred.note_doa_page(Pfn::new(f));
        }
        // The PFQ holds at most the last 8 distinct frames.
        let mut fifo: Vec<u64> = Vec::new();
        for &f in &doa_frames {
            if !fifo.contains(&f) {
                fifo.push(f);
                if fifo.len() > 8 {
                    fifo.remove(0);
                }
            }
        }
        for (frame, offset) in blocks {
            let block = BlockAddr::new(frame * 64 + offset);
            match pred.on_fill(block, Pc::new(0)) {
                BlockFillDecision::Bypass => {
                    prop_assert!(fifo.contains(&frame), "bypass off a DOA page");
                }
                BlockFillDecision::Allocate { state, .. } => {
                    prop_assert_eq!(state & 1 == 1, fifo.contains(&frame), "DP bit mismatch");
                }
            }
            // Feed DOA evictions back to train the bHIST.
            pred.on_evict(EvictedBlock {
                block,
                state: u32::from(fifo.contains(&frame)),
                accessed: false,
            });
        }
    }

    /// SHiP never bypasses — it only modulates insertion priority.
    #[test]
    fn ship_never_bypasses(fills in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..200)) {
        let mut pred = ShipTlb::paper_default();
        for (v, p) in fills {
            let decision =
                pred.on_fill(Vpn::new(v.into()), Pfn::new(1), Pc::new(u64::from(p) * 4));
            let allocated = matches!(decision, PageFillDecision::Allocate { .. });
            prop_assert!(allocated, "SHiP must never bypass");
            pred.on_evict(EvictedPage {
                vpn: Vpn::new(v.into()),
                pfn: Pfn::new(1),
                state: match decision {
                    PageFillDecision::Allocate { state, .. } => state,
                    PageFillDecision::Bypass => unreachable!(),
                },
                accessed: p % 2 == 1,
            });
        }
    }
}
