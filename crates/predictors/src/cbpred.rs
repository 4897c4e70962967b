//! **cbPred** — the paper's correlating dead-block predictor for the LLC
//! (Section V-B).
//!
//! cbPred piggybacks on dpPred: when the TLB-side predictor declares a page
//! DOA, the page's PFN is sent to the LLC and enqueued in the **PFN filter
//! queue (PFQ)** — an 8-entry FIFO. Only blocks whose frame matches the
//! PFQ at fill time participate in dead-block prediction:
//!
//! * on a PFQ match, a 12-bit folded-XOR hash of the block address indexes
//!   the 4096-entry **bHIST** of 3-bit saturating counters; a counter above
//!   the threshold (6) bypasses the fill, otherwise the block allocates
//!   with its **DP** (dead-page) bit set;
//! * only DP blocks train the bHIST at eviction: unaccessed → increment,
//!   accessed → clear.
//!
//! This pre-filtering is what gives cbPred its ≥98-99% accuracy at ~10 KB
//! of state. The `use_pfq = false` ablation reproduces the paper's
//! *cbPred−PF* row in Table VII (every block participates).

use crate::ghost::GhostTracker;
use dpc_memsim::policy::{AccuracyReport, FillDecision, InsertPriority, LevelPolicy, LlcPolicy};
use dpc_types::hash::hash_block;
use dpc_types::{invariant, BlockAddr, CacheConfig, Pc, Pfn, SatCounter};
use std::collections::VecDeque;

/// DP (dead-page) bit position in the per-block policy state.
const DP_BIT: u32 = 1;

/// Configuration of [`CbPred`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CbPredConfig {
    /// bHIST entry count (paper: 4096 for a 2 MB LLC).
    pub bhist_entries: usize,
    /// Width of the block-address hash (paper: 12 bits).
    pub hash_bits: u32,
    /// Width of the bHIST saturating counters (paper: 3).
    pub counter_bits: u32,
    /// Prediction threshold (paper: 6).
    pub threshold: u8,
    /// PFQ capacity (paper: 8; Fig. 11d studies 64).
    pub pfq_entries: usize,
    /// `false` reproduces the cbPred−PF ablation: no PFQ filtering, every
    /// block trains and consults the bHIST.
    pub use_pfq: bool,
    /// Right-shift applied to a block's 4 KB-grain frame number before
    /// matching the PFQ — the prediction-unit shift of the system's page
    /// allocation policy. 0 (the paper default) matches whole 4 KB
    /// frames; 9 under a 2 MB policy makes the PFQ name 2 MB regions, so
    /// one dead huge page covers all of its blocks with a single entry.
    pub pfn_unit_shift: u32,
    /// LLC sets, for ghost-FIFO accuracy accounting.
    pub llc_sets: u64,
    /// LLC associativity.
    pub llc_ways: u64,
}

impl CbPredConfig {
    /// The paper's default configuration for the given LLC geometry.
    pub fn paper_default(llc: &CacheConfig) -> Self {
        CbPredConfig {
            bhist_entries: 4096,
            hash_bits: 12,
            counter_bits: 3,
            threshold: 6,
            pfq_entries: 8,
            use_pfq: true,
            pfn_unit_shift: 0,
            llc_sets: llc.sets(),
            llc_ways: u64::from(llc.ways),
        }
    }
}

/// The correlating dead-block predictor.
#[derive(Debug)]
pub struct CbPred {
    config: CbPredConfig,
    bhist: Vec<SatCounter>,
    pfq: VecDeque<Pfn>,
    ghost: GhostTracker,
    unpredicted_doas: u64,
    /// PFNs received from the TLB-side predictor (PFQ insertions).
    pub doa_pages_received: u64,
    /// Fills whose PFN matched the PFQ (prediction candidates).
    pub pfq_matches: u64,
}

impl CbPred {
    /// Builds a cbPred with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bhist_entries` is zero or `pfq_entries` is zero while
    /// `use_pfq` is set.
    pub fn new(config: CbPredConfig) -> Self {
        assert!(config.bhist_entries > 0, "bHIST must have entries");
        assert!(!config.use_pfq || config.pfq_entries > 0, "PFQ filtering requires a nonzero PFQ");
        CbPred {
            bhist: vec![SatCounter::new(config.counter_bits); config.bhist_entries],
            pfq: VecDeque::with_capacity(config.pfq_entries),
            ghost: GhostTracker::new(config.llc_sets, config.llc_ways),
            unpredicted_doas: 0,
            doa_pages_received: 0,
            pfq_matches: 0,
            config,
        }
    }

    /// The paper's default cbPred for the given LLC.
    pub fn paper_default(llc: &CacheConfig) -> Self {
        Self::new(CbPredConfig::paper_default(llc))
    }

    /// The cbPred−PF ablation: PFQ filtering disabled.
    pub fn without_pfq(llc: &CacheConfig) -> Self {
        Self::new(CbPredConfig { use_pfq: false, ..CbPredConfig::paper_default(llc) })
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &CbPredConfig {
        &self.config
    }

    #[inline]
    fn bhist_index(&self, block: BlockAddr) -> usize {
        let hash = hash_block(block, self.config.hash_bits) as usize;
        // Power-of-two bHIST geometries (the paper default) reduce by
        // mask; anything else falls back to modulo. Same result either
        // way — this just avoids a hardware divide on every fill/evict.
        let entries = self.config.bhist_entries;
        let idx = if entries.is_power_of_two() { hash & (entries - 1) } else { hash % entries };
        invariant!(idx < self.bhist.len(), "bHIST index {idx} out of range");
        idx
    }
}

impl LevelPolicy for CbPred {
    type Key = BlockAddr;

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        let correct = self.ghost.resolved_correct();
        Some(AccuracyReport {
            predictions: self.ghost.predictions,
            correct,
            mispredictions: self.ghost.mispredictions,
            true_doas: correct + self.unpredicted_doas,
        })
    }

    #[inline]
    fn on_lookup(&mut self, block: BlockAddr, _hit: bool) {
        self.ghost.note_lookup(block.raw());
    }

    #[inline]
    fn on_fill(&mut self, block: BlockAddr, _pc: Pc) -> FillDecision {
        // The PFQ holds prediction-unit frame names (see
        // `CbPredConfig::pfn_unit_shift`); `note_doa_page` receives them
        // already shifted, so only the block's frame needs reducing here.
        let on_doa_page = if self.config.use_pfq {
            self.pfq.contains(&Pfn::new(block.pfn().raw() >> self.config.pfn_unit_shift))
        } else {
            true
        };
        if !on_doa_page {
            self.ghost.note_fill(block.raw());
            return FillDecision::Allocate { priority: InsertPriority::Normal, state: 0 };
        }
        self.pfq_matches += 1;
        let idx = self.bhist_index(block);
        if self.bhist[idx].exceeds(self.config.threshold) {
            self.ghost.note_bypass(block.raw());
            FillDecision::Bypass
        } else {
            self.ghost.note_fill(block.raw());
            FillDecision::Allocate { priority: InsertPriority::Normal, state: DP_BIT }
        }
    }

    #[inline]
    fn on_evict(&mut self, block: BlockAddr, state: u32, accessed: bool) {
        if !accessed {
            self.unpredicted_doas += 1;
        }
        // Only DP blocks (blocks that mapped onto a predicted DOA page at
        // fill time) train the bHIST (paper Fig. 8c).
        if state & DP_BIT == 0 {
            return;
        }
        let idx = self.bhist_index(block);
        if accessed {
            self.bhist[idx].clear();
        } else {
            self.bhist[idx].increment();
        }
    }
}

impl LlcPolicy for CbPred {
    #[inline]
    fn note_doa_page(&mut self, pfn: Pfn) {
        self.doa_pages_received += 1;
        if self.pfq.contains(&pfn) {
            return;
        }
        if self.pfq.len() >= self.config.pfq_entries {
            self.pfq.pop_front();
        }
        self.pfq.push_back(pfn);
        invariant!(
            self.pfq.len() <= self.config.pfq_entries,
            "PFQ occupancy {} exceeds the paper's {}-entry budget",
            self.pfq.len(),
            self.config.pfq_entries
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_types::SystemConfig;

    fn cb() -> CbPred {
        CbPred::paper_default(&SystemConfig::paper_baseline().llc)
    }

    fn doa_evict(pred: &mut CbPred, block: BlockAddr, dp: bool) {
        pred.on_evict(block, if dp { DP_BIT } else { 0 }, false);
    }

    fn live_evict(pred: &mut CbPred, block: BlockAddr, dp: bool) {
        pred.on_evict(block, if dp { DP_BIT } else { 0 }, true);
    }

    /// A block address inside frame 5.
    fn block_in_doa_page() -> BlockAddr {
        Pfn::new(5).base().block()
    }

    #[test]
    fn blocks_off_doa_pages_never_predicted() {
        let mut pred = cb();
        // No PFQ contents: every fill allocates without the DP bit.
        let decision = pred.on_fill(BlockAddr::new(123), Pc::new(0));
        assert_eq!(decision, FillDecision::Allocate { priority: InsertPriority::Normal, state: 0 });
        assert_eq!(pred.pfq_matches, 0);
    }

    #[test]
    fn pfq_match_sets_dp_bit_then_trains_to_bypass() {
        let mut pred = cb();
        pred.note_doa_page(Pfn::new(5));
        let block = block_in_doa_page();
        // Threshold 6: seven DOA evictions with DP set push the counter
        // past it.
        for _ in 0..7 {
            let decision = pred.on_fill(block, Pc::new(0));
            assert_eq!(
                decision,
                FillDecision::Allocate { priority: InsertPriority::Normal, state: DP_BIT }
            );
            doa_evict(&mut pred, block, true);
        }
        assert_eq!(pred.on_fill(block, Pc::new(0)), FillDecision::Bypass);
        assert_eq!(pred.pfq_matches, 8);
    }

    #[test]
    fn accessed_dp_block_clears_counter() {
        let mut pred = cb();
        pred.note_doa_page(Pfn::new(5));
        let block = block_in_doa_page();
        for _ in 0..7 {
            pred.on_fill(block, Pc::new(0));
            doa_evict(&mut pred, block, true);
        }
        live_evict(&mut pred, block, true);
        assert!(matches!(pred.on_fill(block, Pc::new(0)), FillDecision::Allocate { .. }));
    }

    #[test]
    fn non_dp_evictions_do_not_train() {
        let mut pred = cb();
        let block = block_in_doa_page();
        for _ in 0..20 {
            doa_evict(&mut pred, block, false); // DP unset: no training
        }
        pred.note_doa_page(Pfn::new(5));
        assert!(
            matches!(pred.on_fill(block, Pc::new(0)), FillDecision::Allocate { .. }),
            "bHIST must still be cold"
        );
    }

    #[test]
    fn pfq_is_bounded_fifo_with_dedup() {
        let mut pred = cb();
        for i in 0..10u64 {
            pred.note_doa_page(Pfn::new(i));
        }
        pred.note_doa_page(Pfn::new(9)); // duplicate: no effect
        assert_eq!(pred.doa_pages_received, 11);
        // Capacity 8: frames 0 and 1 were displaced.
        assert!(!matches!(
            pred.on_fill(Pfn::new(0).base().block(), Pc::new(0)),
            FillDecision::Allocate { state: DP_BIT, .. }
        ));
        assert!(matches!(
            pred.on_fill(Pfn::new(9).base().block(), Pc::new(0)),
            FillDecision::Allocate { state: DP_BIT, .. }
        ));
    }

    #[test]
    fn without_pfq_every_block_participates() {
        let mut pred = CbPred::without_pfq(&SystemConfig::paper_baseline().llc);
        let block = BlockAddr::new(0xABC);
        for _ in 0..7 {
            pred.on_fill(block, Pc::new(0));
            doa_evict(&mut pred, block, true);
        }
        assert_eq!(pred.on_fill(block, Pc::new(0)), FillDecision::Bypass);
    }

    #[test]
    fn pfn_unit_shift_matches_whole_huge_pages() {
        // A 2 MB prediction unit: PFQ entries name pfn >> 9.
        let config = CbPredConfig {
            pfn_unit_shift: 9,
            ..CbPredConfig::paper_default(&SystemConfig::paper_baseline().llc)
        };
        let mut pred = CbPred::new(config);
        // The system reports the dead huge page as its unit frame number.
        pred.note_doa_page(Pfn::new(5));
        // Any block in any of the region's 512 frames matches.
        for frame in [5 << 9, (5 << 9) + 1, (5 << 9) + 511] {
            let block = Pfn::new(frame).base().block();
            assert!(
                matches!(
                    pred.on_fill(block, Pc::new(0)),
                    FillDecision::Allocate { state: DP_BIT, .. }
                ),
                "frame {frame} lies on the dead 2 MB page"
            );
        }
        // A block one region over does not.
        let outside = Pfn::new(6 << 9).base().block();
        assert!(matches!(
            pred.on_fill(outside, Pc::new(0)),
            FillDecision::Allocate { state: 0, .. }
        ));
        assert_eq!(pred.pfq_matches, 3);
    }

    #[test]
    fn accuracy_report_counts_unpredicted_doas() {
        let mut pred = cb();
        doa_evict(&mut pred, BlockAddr::new(1), false);
        doa_evict(&mut pred, BlockAddr::new(2), false);
        let report = pred.accuracy_report().unwrap();
        assert_eq!(report.true_doas, 2);
        assert_eq!(report.predictions, 0);
    }
}
