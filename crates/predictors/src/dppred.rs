//! **dpPred** — the paper's dead-on-arrival page predictor for the
//! last-level TLB (Section V-A).
//!
//! Components, with the paper's default sizes:
//!
//! * 7 bits of metadata per LLT entry: a 6-bit hash of the PC that brought
//!   the entry, plus the `Accessed` bit (the simulator derives `Accessed`
//!   from the entry's hit count; the PC hash lives in the entry's policy
//!   state);
//! * **pHIST**: a 1024-entry two-dimensional table of 3-bit saturating
//!   counters indexed by `h6(PC) × h4(VPN)`;
//! * a prediction threshold of 6: at fill time the counter must *exceed*
//!   the threshold to predict DOA and bypass the allocation;
//! * a 2-entry **shadow table** holding the VPN and translation of recently
//!   bypassed pages. It serves as a victim buffer (a shadow hit returns the
//!   translation without a page walk) and as negative feedback: a shadow
//!   hit means the bypass was wrong, so every pHIST entry for that VPN
//!   hash is flushed (one contiguous row under the VPN-major layout).
//!
//! Accuracy/coverage (paper Table VI) is measured with a
//! [`GhostTracker`] — since bypassed pages have
//! no observable LLT stay.

use crate::ghost::GhostTracker;
use dpc_memsim::policy::{AccuracyReport, FillDecision, InsertPriority, LevelPolicy, LltPolicy};
use dpc_types::hash::{hash_pc, hash_vpn};
use dpc_types::{invariant, Pc, Pfn, SatCounter, TlbConfig, Vpn};
use std::collections::VecDeque;

/// Configuration of [`DpPred`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DpPredConfig {
    /// Bits of PC hash indexing pHIST's first dimension (paper: 6).
    pub pc_bits: u32,
    /// Bits of VPN hash indexing pHIST's second dimension (paper: 4).
    /// Zero selects the PC-only indexing variant of Fig. 11b.
    pub vpn_bits: u32,
    /// Width of the pHIST saturating counters (paper: 3).
    pub counter_bits: u32,
    /// Prediction threshold: DOA is predicted when the counter strictly
    /// exceeds this (paper: 6).
    pub threshold: u8,
    /// Shadow-table capacity (paper: 2; Fig. 11c studies 4; 0 disables the
    /// shadow — the paper's dpPred−SH).
    pub shadow_entries: usize,
    /// Geometry of the LLT the predictor serves, for ghost-FIFO accuracy
    /// accounting.
    pub llt_sets: u64,
    /// LLT associativity.
    pub llt_ways: u64,
}

impl DpPredConfig {
    /// The paper's default configuration for a 1024-entry 8-way LLT.
    pub fn paper_default() -> Self {
        DpPredConfig {
            pc_bits: 6,
            vpn_bits: 4,
            counter_bits: 3,
            threshold: 6,
            shadow_entries: 2,
            llt_sets: 128,
            llt_ways: 8,
        }
    }

    /// Configuration adapted to a given LLT geometry.
    pub fn for_tlb(tlb: &TlbConfig) -> Self {
        DpPredConfig {
            llt_sets: u64::from(tlb.sets()),
            llt_ways: u64::from(tlb.ways),
            ..Self::paper_default()
        }
    }

    /// pHIST entry count (`2^(pc_bits + vpn_bits)`).
    pub fn phist_entries(&self) -> usize {
        1usize << (self.pc_bits + self.vpn_bits)
    }
}

impl Default for DpPredConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[derive(Clone, Copy, Debug)]
struct ShadowEntry {
    vpn: Vpn,
    pfn: Pfn,
    pc_hash: u32,
}

/// The dead-page predictor.
#[derive(Debug)]
pub struct DpPred {
    config: DpPredConfig,
    phist: Vec<SatCounter>,
    shadow: VecDeque<ShadowEntry>,
    ghost: GhostTracker,
    /// PC hash of the most recent bypass decision, parked until the
    /// system's `on_bypass` callback stores it in the shadow entry.
    last_bypass_pc_hash: u32,
    /// DOA evictions the predictor failed to predict (for coverage).
    unpredicted_doas: u64,
    /// pHIST column flushes triggered by shadow hits.
    pub negative_feedback_events: u64,
}

impl DpPred {
    /// Builds a dpPred with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pc_bits` is zero or the counter width is outside 1..=8.
    pub fn new(config: DpPredConfig) -> Self {
        assert!(config.pc_bits > 0, "dpPred requires a PC hash dimension");
        DpPred {
            phist: vec![SatCounter::new(config.counter_bits); config.phist_entries()],
            shadow: VecDeque::with_capacity(config.shadow_entries),
            ghost: GhostTracker::new(config.llt_sets, config.llt_ways),
            last_bypass_pc_hash: 0,
            unpredicted_doas: 0,
            negative_feedback_events: 0,
            config,
        }
    }

    /// The paper's default dpPred (1024-entry pHIST, 2-entry shadow).
    pub fn paper_default() -> Self {
        Self::new(DpPredConfig::paper_default())
    }

    /// The predictor's configuration.
    pub fn config(&self) -> &DpPredConfig {
        &self.config
    }

    #[inline]
    fn vpn_hash(&self, vpn: Vpn) -> u32 {
        if self.config.vpn_bits == 0 {
            0
        } else {
            hash_vpn(vpn, self.config.vpn_bits)
        }
    }

    #[inline]
    fn index(&self, pc_hash: u32, vpn_hash: u32) -> usize {
        // VPN-major layout: `vpn_hash` selects a row of 2^pc_bits
        // counters, `pc_hash` the column within it. A bijective
        // relabeling of the 2-D table (the paper specifies the index
        // function only as h6(PC) × h4(VPN)), chosen so the
        // negative-feedback flush of a VPN hash clears one contiguous
        // row instead of 2^pc_bits strided entries.
        let idx = ((vpn_hash << self.config.pc_bits) | pc_hash) as usize;
        invariant!(idx < self.phist.len(), "pHIST index {idx} out of range");
        idx
    }

    /// Flushes the pHIST entries corresponding to a VPN hash — the
    /// negative-feedback action on a shadow hit (paper Fig. 6a). With
    /// PC-only indexing the single entry for the stored PC hash is cleared
    /// instead. Under the VPN-major layout of [`Self::index`] the flush is
    /// one contiguous row.
    #[inline]
    fn negative_feedback(&mut self, vpn_hash: u32, pc_hash: u32) {
        self.negative_feedback_events += 1;
        if self.config.vpn_bits == 0 {
            invariant!(
                (pc_hash as usize) < self.phist.len(),
                "pc_hash {pc_hash} exceeds pHIST ({} entries)",
                self.phist.len()
            );
            self.phist[pc_hash as usize].clear();
            return;
        }
        let row = 1usize << self.config.pc_bits;
        let start = (vpn_hash as usize) << self.config.pc_bits;
        invariant!(
            start + row <= self.phist.len(),
            "pHIST row for vpn_hash {vpn_hash} exceeds the table"
        );
        for counter in &mut self.phist[start..start + row] {
            counter.clear();
        }
    }

    /// Starts a stay the bypass path did not: notes the fill for the
    /// ghost accounting and returns the entry's state, the PC hash. Runs
    /// on a shadow hit's re-allocation (paper Fig. 6a: *"insert entry
    /// into LLT, store h(PC) in the LLT entry"*) and when set dueling
    /// overrides a bypass.
    #[inline]
    pub(crate) fn refill(&mut self, vpn: Vpn, pc: Pc) -> u32 {
        self.ghost.note_fill(vpn.raw());
        hash_pc(pc, self.config.pc_bits)
    }
}

impl LevelPolicy for DpPred {
    type Key = Vpn;

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
    fn on_lookup(&mut self, vpn: Vpn, _hit: bool) {
        self.ghost.note_lookup(vpn.raw());
    }

    #[inline]
    fn on_fill(&mut self, vpn: Vpn, pc: Pc) -> FillDecision {
        let pc_hash = hash_pc(pc, self.config.pc_bits);
        let vpn_hash = self.vpn_hash(vpn);
        let idx = self.index(pc_hash, vpn_hash);
        if self.phist[idx].exceeds(self.config.threshold) {
            self.last_bypass_pc_hash = pc_hash;
            self.ghost.note_bypass(vpn.raw());
            FillDecision::Bypass
        } else {
            self.ghost.note_fill(vpn.raw());
            FillDecision::Allocate { priority: InsertPriority::Normal, state: pc_hash }
        }
    }

    #[inline]
    fn on_evict(&mut self, vpn: Vpn, pc_hash: u32, accessed: bool) {
        let vpn_hash = self.vpn_hash(vpn);
        let idx = self.index(pc_hash, vpn_hash);
        if accessed {
            // Not a DOA: clear the counter (paper Fig. 6c).
            self.phist[idx].clear();
        } else {
            self.phist[idx].increment();
            self.unpredicted_doas += 1;
        }
    }
}

impl LltPolicy for DpPred {
    #[inline]
    fn shadow_lookup(&mut self, vpn: Vpn, pc: Pc) -> Option<(Pfn, u32)> {
        let pos = self.shadow.iter().position(|e| e.vpn == vpn)?;
        let entry = self.shadow.remove(pos)?;
        let vpn_hash = self.vpn_hash(vpn);
        self.negative_feedback(vpn_hash, entry.pc_hash);
        Some((entry.pfn, self.refill(vpn, pc)))
    }

    #[inline]
    fn on_bypass(&mut self, vpn: Vpn, pfn: Pfn) {
        if self.config.shadow_entries == 0 {
            return;
        }
        // A page bypassed again refreshes its existing entry (the shadow
        // holds at most one translation per VPN).
        if let Some(pos) = self.shadow.iter().position(|e| e.vpn == vpn) {
            self.shadow.remove(pos);
        } else if self.shadow.len() >= self.config.shadow_entries {
            self.shadow.pop_front();
        }
        self.shadow.push_back(ShadowEntry { vpn, pfn, pc_hash: self.last_bypass_pc_hash });
        invariant!(
            self.shadow.len() <= self.config.shadow_entries,
            "shadow occupancy {} exceeds the paper's {}-entry budget",
            self.shadow.len(),
            self.config.shadow_entries
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doa_evict(pred: &mut DpPred, vpn: Vpn, pc_hash: u32) {
        pred.on_evict(vpn, pc_hash, false);
    }

    fn live_evict(pred: &mut DpPred, vpn: Vpn, pc_hash: u32) {
        pred.on_evict(vpn, pc_hash, true);
    }

    #[test]
    fn trains_to_bypass_after_repeated_doas() {
        let mut pred = DpPred::paper_default();
        let pc = Pc::new(0x400123);
        let vpn = Vpn::new(0x99);
        let pc_hash = hash_pc(pc, 6);
        // Threshold 6: the 7th DOA eviction makes the counter exceed it.
        for i in 0..7 {
            assert!(
                matches!(pred.on_fill(vpn, pc), FillDecision::Allocate { .. }),
                "fill {i} must still allocate"
            );
            doa_evict(&mut pred, vpn, pc_hash);
        }
        assert_eq!(pred.on_fill(vpn, pc), FillDecision::Bypass);
    }

    #[test]
    fn live_eviction_clears_training() {
        let mut pred = DpPred::paper_default();
        let pc = Pc::new(0x400123);
        let vpn = Vpn::new(0x99);
        let pc_hash = hash_pc(pc, 6);
        for _ in 0..7 {
            pred.on_fill(vpn, pc);
            doa_evict(&mut pred, vpn, pc_hash);
        }
        live_evict(&mut pred, vpn, pc_hash);
        assert!(
            matches!(pred.on_fill(vpn, pc), FillDecision::Allocate { .. }),
            "a live eviction must reset the counter"
        );
    }

    #[test]
    fn shadow_serves_and_feeds_back() {
        let mut pred = DpPred::paper_default();
        let pc = Pc::new(0x400123);
        let vpn = Vpn::new(0x99);
        let pc_hash = hash_pc(pc, 6);
        for _ in 0..7 {
            pred.on_fill(vpn, pc);
            doa_evict(&mut pred, vpn, pc_hash);
        }
        assert_eq!(pred.on_fill(vpn, pc), FillDecision::Bypass);
        pred.on_bypass(vpn, Pfn::new(7));
        // The bypassed page is re-referenced: shadow hit.
        assert_eq!(pred.shadow_lookup(vpn, pc), Some((Pfn::new(7), pc_hash)));
        assert_eq!(pred.negative_feedback_events, 1);
        // Negative feedback flushed the column: next fill allocates.
        assert!(matches!(pred.on_fill(vpn, pc), FillDecision::Allocate { .. }));
        // The shadow entry was consumed.
        assert_eq!(pred.shadow_lookup(vpn, pc), None);
    }

    #[test]
    fn negative_feedback_spares_other_vpn_rows() {
        use dpc_types::hash::hash_vpn;
        let mut pred = DpPred::paper_default();
        let pc = Pc::new(0x400123);
        let pc_hash = hash_pc(pc, 6);
        let vpn_a = Vpn::new(0x99);
        // A second VPN whose 4-bit hash differs (a different pHIST row).
        let vpn_b = (1u64..)
            .map(Vpn::new)
            .find(|v| hash_vpn(*v, 4) != hash_vpn(vpn_a, 4))
            .expect("some VPN hashes differently");
        for _ in 0..7 {
            pred.on_fill(vpn_a, pc);
            doa_evict(&mut pred, vpn_a, pc_hash);
            pred.on_fill(vpn_b, pc);
            doa_evict(&mut pred, vpn_b, pc_hash);
        }
        assert_eq!(pred.on_fill(vpn_a, pc), FillDecision::Bypass);
        pred.on_bypass(vpn_a, Pfn::new(7));
        // Shadow hit on A flushes exactly A's row...
        assert_eq!(pred.shadow_lookup(vpn_a, pc), Some((Pfn::new(7), pc_hash)));
        assert!(matches!(pred.on_fill(vpn_a, pc), FillDecision::Allocate { .. }));
        // ...while B's fully-trained row keeps predicting.
        assert_eq!(pred.on_fill(vpn_b, pc), FillDecision::Bypass);
    }

    #[test]
    fn negative_feedback_clears_the_row_at_every_counter_width() {
        for counter_bits in 1..=8u32 {
            let config = DpPredConfig { counter_bits, ..DpPredConfig::default() };
            let mut pred = DpPred::new(config);
            let vpn_hash = hash_vpn(Vpn::new(0x99), config.vpn_bits);
            let start = pred.index(0, vpn_hash);
            let row = start..start + (1 << config.pc_bits);
            // Saturate every counter of the row, then flush it.
            for counter in &mut pred.phist[row.clone()] {
                (0..=counter.max()).for_each(|_| counter.increment());
            }
            pred.negative_feedback(vpn_hash, 0);
            let max = u8::MAX >> (8 - counter_bits);
            assert!(
                pred.phist[row.clone()].iter().all(|c| c.value() == 0 && c.max() == max),
                "{counter_bits}-bit row not cleared to zero with its width kept"
            );
            // Cleared counters still train and saturate normally.
            (0..=max).for_each(|_| pred.phist[start].increment());
            assert_eq!(pred.phist[start].value(), max);
        }
    }

    #[test]
    fn negative_feedback_zeroes_staggered_values_and_keeps_width() {
        let mut pred = DpPred::paper_default();
        let vpn_hash = hash_vpn(Vpn::new(0x99), pred.config.vpn_bits);
        let start = pred.index(0, vpn_hash);
        let row = start..start + (1 << pred.config.pc_bits);
        // Train the row to staggered values, both saturation bounds included.
        for (i, counter) in pred.phist[row.clone()].iter_mut().enumerate() {
            (0..i % (usize::from(counter.max()) + 2)).for_each(|_| counter.increment());
        }
        assert!(pred.phist[row.clone()].iter().any(|c| c.value() == c.max()));
        pred.negative_feedback(vpn_hash, 0);
        for c in &pred.phist[row] {
            assert_eq!(c.value(), 0);
            assert_eq!(c.max(), 7);
        }
    }

    #[test]
    fn negative_feedback_cleared_row_retrains_to_saturation() {
        let mut pred = DpPred::paper_default();
        let vpn_hash = hash_vpn(Vpn::new(0x99), pred.config.vpn_bits);
        let start = pred.index(0, vpn_hash);
        let row = start..start + 64;
        for counter in &mut pred.phist[row.clone()] {
            (0..10).for_each(|_| counter.increment());
        }
        pred.negative_feedback(vpn_hash, 0);
        assert!(pred.phist[row].iter().all(|c| c.value() == 0 && c.max() == 7));
        // Cleared counters must still increment and saturate normally.
        (0..10).for_each(|_| pred.phist[start].increment());
        assert_eq!(pred.phist[start].value(), 7);
    }

    #[test]
    fn shadow_is_fifo_bounded() {
        let mut pred = DpPred::paper_default();
        pred.on_bypass(Vpn::new(1), Pfn::new(11));
        pred.on_bypass(Vpn::new(2), Pfn::new(22));
        pred.on_bypass(Vpn::new(3), Pfn::new(33));
        let (pc, pc_hash) = (Pc::new(0x400123), hash_pc(Pc::new(0x400123), 6));
        assert_eq!(pred.shadow_lookup(Vpn::new(1), pc), None, "oldest entry displaced");
        assert_eq!(pred.shadow_lookup(Vpn::new(2), pc), Some((Pfn::new(22), pc_hash)));
        assert_eq!(pred.shadow_lookup(Vpn::new(3), pc), Some((Pfn::new(33), pc_hash)));
    }

    #[test]
    fn without_shadow_never_serves() {
        let mut pred =
            DpPred::new(DpPredConfig { shadow_entries: 0, ..DpPredConfig::paper_default() });
        pred.on_bypass(Vpn::new(1), Pfn::new(11));
        assert_eq!(pred.shadow_lookup(Vpn::new(1), Pc::new(0x400123)), None);
    }

    #[test]
    fn pc_only_variant_works() {
        let mut pred =
            DpPred::new(DpPredConfig { pc_bits: 10, vpn_bits: 0, ..DpPredConfig::paper_default() });
        assert_eq!(pred.config().phist_entries(), 1024);
        let pc = Pc::new(0x400123);
        let pc_hash = hash_pc(pc, 10);
        for _ in 0..7 {
            pred.on_fill(Vpn::new(5), pc);
            doa_evict(&mut pred, Vpn::new(5), pc_hash);
        }
        assert_eq!(pred.on_fill(Vpn::new(5), pc), FillDecision::Bypass);
    }

    #[test]
    fn accuracy_report_tracks_ghosts() {
        let mut pred = DpPred::paper_default();
        let pc = Pc::new(0x400123);
        let pc_hash = hash_pc(pc, 6);
        for _ in 0..7 {
            pred.on_fill(Vpn::new(5), pc);
            doa_evict(&mut pred, Vpn::new(5), pc_hash);
        }
        assert_eq!(pred.on_fill(Vpn::new(5), pc), FillDecision::Bypass);
        let report = pred.accuracy_report().expect("dpPred reports accuracy");
        assert_eq!(report.predictions, 1);
        // Unresolved ghost counts as correct at end of run.
        assert_eq!(report.correct, 1);
        assert_eq!(report.true_doas, 1 + 7);
    }

    #[test]
    fn paper_default_geometry() {
        let pred = DpPred::paper_default();
        assert_eq!(pred.config().phist_entries(), 1024);
        assert_eq!(pred.config().threshold, 6);
        assert_eq!(pred.config().shadow_entries, 2);
    }
}
