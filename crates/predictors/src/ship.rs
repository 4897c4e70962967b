//! SHiP — Signature-based Hit Predictor (Wu et al., MICRO 2011), the
//! strongest prior dead-block baseline in the paper's comparison.
//!
//! SHiP associates each fill with a PC *signature* and learns, in the
//! Signature History Counter Table (SHCT), whether blocks brought by that
//! signature are re-referenced. A zero counter predicts a **distant**
//! re-reference interval: the paper adapts this to the LRU baseline by
//! inserting such entries at the LRU position (and at RRPV = 3 under
//! SRRIP) — see Section VI-A: *"we adapt SHiP to mark entries predicted to
//! have distant re-reference as LRU."*
//!
//! Two instantiations mirror the paper's configurations:
//!
//! * [`ShipLlc`] — 14-bit PC signature, 16K-entry SHCT of 3-bit counters;
//! * [`ShipTlb`] — 8-bit PC signature (*"configure SHiP-TLB to use similar
//!   storage as dpPred, indexing with an 8-bit hash of the PC"*).
//!
//! Prediction-quality accounting (Tables VI/VII): a distant insertion is a
//! DOA prediction; it is correct if the entry is evicted with zero hits.

use crate::ghost::GhostTracker;
use dpc_memsim::policy::{
    AccuracyReport, BlockFillDecision, EvictedBlock, EvictedPage, InsertPriority, LlcPolicy,
    LltPolicy, PageFillDecision,
};
use dpc_types::hash::hash_pc;
use dpc_types::{BlockAddr, CacheConfig, Pc, Pfn, SatCounter, TlbConfig, Vpn};

/// Outcome bit: the entry has been re-referenced since fill.
const OUTCOME_BIT: u32 = 1 << 31;
/// Predicted-distant bit (for accuracy accounting).
const PREDICTED_BIT: u32 = 1 << 30;
/// Mask for the stored signature.
const SIG_MASK: u32 = (1 << 16) - 1;

/// The signature table and insertion logic shared by both instantiations.
///
/// Accuracy is measured *counterfactually* with a ghost FIFO: a
/// distant-inserted entry is evicted almost immediately, so judging the
/// prediction by "was it hit before eviction" would be self-fulfilling.
/// Instead, an unhit distant entry enters the ghost at eviction; a
/// re-reference within its would-be-normal stay resolves the prediction
/// wrong, aging out resolves it right.
#[derive(Debug)]
struct ShipCore {
    shct: Vec<SatCounter>,
    sig_bits: u32,
    ghost: GhostTracker,
    mispredicted_resident: u64,
    doa_evictions: u64,
}

impl ShipCore {
    fn new(sig_bits: u32, counter_bits: u32, sets: u64, ways: u64) -> Self {
        assert!(sig_bits > 0 && sig_bits <= 16, "signature width must be 1..=16 bits");
        let mut shct = vec![SatCounter::new(counter_bits); 1 << sig_bits];
        // Weak-reuse initialization at mid-range: a signature must show a
        // sustained no-reuse majority before its fills are predicted
        // distant, as in SHiP's original training.
        for c in &mut shct {
            for _ in 0..(1u32 << counter_bits) / 2 {
                c.increment();
            }
        }
        ShipCore {
            shct,
            sig_bits,
            ghost: GhostTracker::new(sets, ways),
            mispredicted_resident: 0,
            doa_evictions: 0,
        }
    }

    fn on_lookup(&mut self, tag: u64) {
        self.ghost.note_lookup(tag);
    }

    /// Decide insertion for a fill brought by `pc`; returns (priority,
    /// initial line state).
    fn on_fill(&mut self, tag: u64, pc: Pc) -> (InsertPriority, u32) {
        let sig = hash_pc(pc, self.sig_bits);
        self.ghost.note_fill(tag);
        if self.shct[sig as usize].value() == 0 {
            (InsertPriority::Distant, sig | PREDICTED_BIT)
        } else {
            (InsertPriority::Normal, sig)
        }
    }

    /// First re-reference trains the SHCT positively.
    fn on_hit(&mut self, state: &mut u32) {
        if *state & OUTCOME_BIT == 0 {
            *state |= OUTCOME_BIT;
            let sig = (*state & SIG_MASK) as usize;
            self.shct[sig].increment();
        }
    }

    /// Eviction without re-reference trains the SHCT negatively and
    /// resolves the accuracy of a distant prediction.
    fn on_evict(&mut self, tag: u64, state: u32, accessed: bool) {
        let sig = (state & SIG_MASK) as usize;
        if state & OUTCOME_BIT == 0 {
            self.shct[sig].decrement();
        }
        if !accessed {
            self.doa_evictions += 1;
        }
        if state & PREDICTED_BIT != 0 {
            if !accessed {
                // Unresolved: track the counterfactual stay in the ghost.
                self.ghost.note_bypass(tag);
            } else {
                // Hit while (briefly) resident: clearly wrong.
                self.mispredicted_resident += 1;
            }
        }
    }

    fn report(&self) -> AccuracyReport {
        let correct = self.ghost.resolved_correct();
        let mispredictions = self.ghost.mispredictions + self.mispredicted_resident;
        AccuracyReport {
            predictions: self.ghost.predictions + self.mispredicted_resident,
            correct,
            mispredictions,
            // Every DOA eviction of a predicted entry is also in `ghost`;
            // unpredicted DOAs are the difference.
            true_doas: correct + (self.doa_evictions - self.ghost.predictions),
        }
    }
}

/// SHiP applied to the LLC (the paper's SHiP-LLC configuration).
#[derive(Debug)]
pub struct ShipLlc {
    core: ShipCore,
}

impl ShipLlc {
    /// The paper's SHiP-LLC: 14-bit signatures, 16K-entry SHCT of 3-bit
    /// counters, for the paper's 2 MB 16-way LLC.
    pub fn paper_default() -> Self {
        ShipLlc { core: ShipCore::new(14, 3, 2048, 16) }
    }

    /// The paper's SHiP-LLC sized for an arbitrary LLC.
    pub fn for_cache(llc: &CacheConfig) -> Self {
        ShipLlc { core: ShipCore::new(14, 3, llc.sets(), u64::from(llc.ways)) }
    }

    /// Custom signature/counter geometry.
    pub fn new(sig_bits: u32, counter_bits: u32, llc: &CacheConfig) -> Self {
        ShipLlc { core: ShipCore::new(sig_bits, counter_bits, llc.sets(), u64::from(llc.ways)) }
    }
}

impl LlcPolicy for ShipLlc {
    #[inline]
    fn policy_name(&self) -> &'static str {
        "SHiP-LLC"
    }

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        Some(self.core.report())
    }

    #[inline]
    fn on_lookup(&mut self, block: BlockAddr, _hit: bool) {
        self.core.on_lookup(block.raw());
    }

    #[inline]
    fn on_fill(&mut self, block: BlockAddr, pc: Pc) -> BlockFillDecision {
        let (priority, state) = self.core.on_fill(block.raw(), pc);
        BlockFillDecision::Allocate { priority, state }
    }

    #[inline]
    fn on_hit(&mut self, _block: BlockAddr, state: &mut u32) {
        self.core.on_hit(state);
    }

    #[inline]
    fn on_evict(&mut self, evicted: EvictedBlock) {
        self.core.on_evict(evicted.block.raw(), evicted.state, evicted.accessed);
    }
}

/// SHiP adapted to the last-level TLB (the paper's SHiP-TLB configuration).
#[derive(Debug)]
pub struct ShipTlb {
    core: ShipCore,
}

impl ShipTlb {
    /// The paper's SHiP-TLB: 8-bit PC signatures (storage comparable to
    /// dpPred), 3-bit counters, for the paper's 1024-entry 8-way LLT.
    pub fn paper_default() -> Self {
        ShipTlb { core: ShipCore::new(8, 3, 128, 8) }
    }

    /// The paper's SHiP-TLB sized for an arbitrary LLT.
    pub fn for_tlb(tlb: &TlbConfig) -> Self {
        ShipTlb { core: ShipCore::new(8, 3, u64::from(tlb.sets()), u64::from(tlb.ways)) }
    }

    /// Custom signature/counter geometry.
    pub fn new(sig_bits: u32, counter_bits: u32, tlb: &TlbConfig) -> Self {
        ShipTlb {
            core: ShipCore::new(sig_bits, counter_bits, u64::from(tlb.sets()), u64::from(tlb.ways)),
        }
    }
}

impl LltPolicy for ShipTlb {
    #[inline]
    fn policy_name(&self) -> &'static str {
        "SHiP-TLB"
    }

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        Some(self.core.report())
    }

    #[inline]
    fn on_lookup(&mut self, vpn: Vpn, _hit: bool) {
        self.core.on_lookup(vpn.raw());
    }

    #[inline]
    fn on_fill(&mut self, vpn: Vpn, _pfn: Pfn, pc: Pc) -> PageFillDecision {
        let (priority, state) = self.core.on_fill(vpn.raw(), pc);
        PageFillDecision::Allocate { priority, state }
    }

    #[inline]
    fn on_hit(&mut self, _vpn: Vpn, state: &mut u32) {
        self.core.on_hit(state);
    }

    #[inline]
    fn on_evict(&mut self, evicted: EvictedPage) {
        self.core.on_evict(evicted.vpn.raw(), evicted.state, evicted.accessed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_signature_inserts_normal() {
        let mut ship = ShipLlc::paper_default();
        let decision = ship.on_fill(BlockAddr::new(1), Pc::new(0x400));
        assert!(matches!(
            decision,
            BlockFillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
    }

    /// Evict a DOA block brought by `pc` enough times to pin the
    /// signature's counter at zero (init is mid-range).
    fn train_distant(ship: &mut ShipLlc, pc: Pc) {
        for i in 0..8u64 {
            let BlockFillDecision::Allocate { state, .. } = ship.on_fill(BlockAddr::new(i), pc)
            else {
                panic!("SHiP never bypasses");
            };
            ship.on_evict(EvictedBlock { block: BlockAddr::new(i), state, accessed: false });
        }
    }

    #[test]
    fn repeated_doa_signature_becomes_distant() {
        let mut ship = ShipLlc::paper_default();
        let pc = Pc::new(0x400);
        // One DOA eviction is not enough from the mid-range init.
        let BlockFillDecision::Allocate { state, .. } = ship.on_fill(BlockAddr::new(1), pc) else {
            panic!("SHiP never bypasses");
        };
        ship.on_evict(EvictedBlock { block: BlockAddr::new(1), state, accessed: false });
        assert!(matches!(
            ship.on_fill(BlockAddr::new(2), pc),
            BlockFillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
        train_distant(&mut ship, pc);
        assert!(matches!(
            ship.on_fill(BlockAddr::new(2), pc),
            BlockFillDecision::Allocate { priority: InsertPriority::Distant, .. }
        ));
    }

    #[test]
    fn rereference_trains_positively() {
        let mut ship = ShipLlc::paper_default();
        let pc = Pc::new(0x400);
        train_distant(&mut ship, pc);
        // A re-referenced block pulls the counter off zero again.
        let BlockFillDecision::Allocate { mut state, .. } = ship.on_fill(BlockAddr::new(1), pc)
        else {
            panic!("SHiP never bypasses");
        };
        ship.on_hit(BlockAddr::new(1), &mut state);
        assert!(state & OUTCOME_BIT != 0);
        // A second hit must not double-train.
        ship.on_hit(BlockAddr::new(1), &mut state);
        ship.on_evict(EvictedBlock { block: BlockAddr::new(1), state, accessed: true });
        let decision = ship.on_fill(BlockAddr::new(3), pc);
        assert!(
            matches!(
                decision,
                BlockFillDecision::Allocate { priority: InsertPriority::Normal, .. }
            ),
            "a reuse observation must lift the signature out of distant"
        );
    }

    #[test]
    fn accuracy_accounting() {
        let mut ship = ShipTlb::paper_default();
        let pc = Pc::new(0x400);
        // Train to distant (init is mid-range: 4 net DOA evictions).
        for i in 0..8u64 {
            let PageFillDecision::Allocate { state, .. } =
                ship.on_fill(Vpn::new(i), Pfn::new(i), pc)
            else {
                panic!()
            };
            ship.on_evict(EvictedPage {
                vpn: Vpn::new(i),
                pfn: Pfn::new(i),
                state,
                accessed: false,
            });
        }
        // Distant-predicted fill that is truly DOA: correct.
        let PageFillDecision::Allocate { priority, state } =
            ship.on_fill(Vpn::new(99), Pfn::new(99), pc)
        else {
            panic!()
        };
        assert_eq!(priority, InsertPriority::Distant);
        ship.on_evict(EvictedPage { vpn: Vpn::new(99), pfn: Pfn::new(99), state, accessed: false });
        let report = ship.accuracy_report().unwrap();
        assert!(report.predictions >= 1);
        assert_eq!(report.correct, report.predictions, "all predictions were truly DOA");
        assert_eq!(report.mispredictions, 0);
        assert_eq!(report.true_doas, 9, "eight training DOAs plus the predicted one");
        assert!((report.accuracy() - 1.0).abs() < 1e-12);
        assert!(report.coverage() < 1.0, "early unpredicted DOAs cap coverage");
    }

    #[test]
    #[should_panic(expected = "signature width")]
    fn oversize_signature_rejected() {
        ShipLlc::new(17, 3, &dpc_types::SystemConfig::paper_baseline().llc);
    }
}
