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
//! One generic type, [`Ship`], serves both levels, and two aliases name
//! the paper's configurations:
//!
//! * [`ShipLlc`] — 14-bit PC signature, 16K-entry SHCT of 3-bit counters;
//! * [`ShipTlb`] — 8-bit PC signature (*"configure SHiP-TLB to use similar
//!   storage as dpPred, indexing with an 8-bit hash of the PC"*).
//!
//! Prediction-quality accounting (Tables VI/VII): a distant insertion is a
//! DOA prediction; it is correct if the entry is evicted with zero hits.

use crate::ghost::GhostTracker;
use dpc_memsim::policy::{
    AccuracyReport, FillDecision, InsertPriority, LevelPolicy, LlcPolicy, LltPolicy,
};
use dpc_types::hash::hash_pc;
use dpc_types::{BlockAddr, CacheConfig, Pc, SatCounter, TlbConfig, Vpn};
use std::fmt::Debug;
use std::marker::PhantomData;

/// Outcome bit: the entry has been re-referenced since fill.
const OUTCOME_BIT: u32 = 1 << 31;
/// Predicted-distant bit (for accuracy accounting).
const PREDICTED_BIT: u32 = 1 << 30;
/// Mask for the stored signature.
const SIG_MASK: u32 = (1 << 16) - 1;

/// SHiP over a level keyed by `K`: the signature table, the insertion
/// logic and the accuracy accounting.
///
/// Accuracy is measured *counterfactually* with a ghost FIFO: a
/// distant-inserted entry is evicted almost immediately, so judging the
/// prediction by "was it hit before eviction" would be self-fulfilling.
/// Instead, an unhit distant entry enters the ghost at eviction; a
/// re-reference within its would-be-normal stay resolves the prediction
/// wrong, aging out resolves it right.
#[derive(Debug)]
pub struct Ship<K> {
    shct: Vec<SatCounter>,
    sig_bits: u32,
    ghost: GhostTracker,
    mispredicted_resident: u64,
    doa_evictions: u64,
    key: PhantomData<K>,
}

/// SHiP applied to the LLC (the paper's SHiP-LLC configuration).
pub type ShipLlc = Ship<BlockAddr>;

/// SHiP adapted to the last-level TLB (the paper's SHiP-TLB
/// configuration).
pub type ShipTlb = Ship<Vpn>;

impl<K> Ship<K> {
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
        Ship {
            shct,
            sig_bits,
            ghost: GhostTracker::new(sets, ways),
            mispredicted_resident: 0,
            doa_evictions: 0,
            key: PhantomData,
        }
    }
}

impl ShipLlc {
    /// The paper's SHiP-LLC sized for an LLC: 14-bit signatures, a
    /// 16K-entry SHCT of 3-bit counters.
    pub fn for_cache(llc: &CacheConfig) -> Self {
        Self::new(14, 3, llc.sets(), u64::from(llc.ways))
    }
}

impl ShipTlb {
    /// The paper's SHiP-TLB: 8-bit PC signatures (storage comparable to
    /// dpPred), 3-bit counters, for the paper's 1024-entry 8-way LLT.
    pub fn paper_default() -> Self {
        Self::new(8, 3, 128, 8)
    }

    /// The paper's SHiP-TLB sized for an arbitrary LLT.
    pub fn for_tlb(tlb: &TlbConfig) -> Self {
        Self::new(8, 3, u64::from(tlb.sets()), u64::from(tlb.ways))
    }
}

impl<K: Copy + Into<u64> + From<u64> + Debug> LevelPolicy for Ship<K> {
    type Key = K;

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        let correct = self.ghost.resolved_correct();
        Some(AccuracyReport {
            predictions: self.ghost.predictions + self.mispredicted_resident,
            correct,
            mispredictions: self.ghost.mispredictions + self.mispredicted_resident,
            // Every DOA eviction of a predicted entry is also in `ghost`;
            // unpredicted DOAs are the difference.
            true_doas: correct + (self.doa_evictions - self.ghost.predictions),
        })
    }

    #[inline]
    fn on_lookup(&mut self, key: K, _hit: bool) {
        self.ghost.note_lookup(key.into());
    }

    /// Inserts a fill brought by `pc` at the LRU position when its
    /// signature's counter has reached zero.
    #[inline]
    fn on_fill(&mut self, key: K, pc: Pc) -> FillDecision {
        let sig = hash_pc(pc, self.sig_bits);
        self.ghost.note_fill(key.into());
        if self.shct[sig as usize].value() == 0 {
            FillDecision::Allocate { priority: InsertPriority::Distant, state: sig | PREDICTED_BIT }
        } else {
            FillDecision::Allocate { priority: InsertPriority::Normal, state: sig }
        }
    }

    /// First re-reference trains the SHCT positively.
    #[inline]
    fn on_hit(&mut self, _key: K, state: &mut u32) {
        if *state & OUTCOME_BIT == 0 {
            *state |= OUTCOME_BIT;
            let sig = (*state & SIG_MASK) as usize;
            self.shct[sig].increment();
        }
    }

    /// Eviction without re-reference trains the SHCT negatively and
    /// resolves the accuracy of a distant prediction.
    #[inline]
    fn on_evict(&mut self, key: K, state: u32, accessed: bool) {
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
                self.ghost.note_bypass(key.into());
            } else {
                // Hit while (briefly) resident: clearly wrong.
                self.mispredicted_resident += 1;
            }
        }
    }
}

impl LltPolicy for ShipTlb {}

impl LlcPolicy for ShipLlc {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ship_llc() -> ShipLlc {
        ShipLlc::for_cache(&dpc_types::SystemConfig::paper_baseline().llc)
    }

    #[test]
    fn cold_signature_inserts_normal() {
        let mut ship = ship_llc();
        let decision = ship.on_fill(BlockAddr::new(1), Pc::new(0x400));
        assert!(matches!(
            decision,
            FillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
    }

    /// Evict a DOA block brought by `pc` enough times to pin the
    /// signature's counter at zero (init is mid-range).
    fn train_distant(ship: &mut ShipLlc, pc: Pc) {
        for i in 0..8u64 {
            let FillDecision::Allocate { state, .. } = ship.on_fill(BlockAddr::new(i), pc) else {
                panic!("SHiP never bypasses");
            };
            ship.on_evict(BlockAddr::new(i), state, false);
        }
    }

    #[test]
    fn repeated_doa_signature_becomes_distant() {
        let mut ship = ship_llc();
        let pc = Pc::new(0x400);
        // One DOA eviction is not enough from the mid-range init.
        let FillDecision::Allocate { state, .. } = ship.on_fill(BlockAddr::new(1), pc) else {
            panic!("SHiP never bypasses");
        };
        ship.on_evict(BlockAddr::new(1), state, false);
        assert!(matches!(
            ship.on_fill(BlockAddr::new(2), pc),
            FillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
        train_distant(&mut ship, pc);
        assert!(matches!(
            ship.on_fill(BlockAddr::new(2), pc),
            FillDecision::Allocate { priority: InsertPriority::Distant, .. }
        ));
    }

    #[test]
    fn rereference_trains_positively() {
        let mut ship = ship_llc();
        let pc = Pc::new(0x400);
        train_distant(&mut ship, pc);
        // A re-referenced block pulls the counter off zero again.
        let FillDecision::Allocate { mut state, .. } = ship.on_fill(BlockAddr::new(1), pc) else {
            panic!("SHiP never bypasses");
        };
        ship.on_hit(BlockAddr::new(1), &mut state);
        assert!(state & OUTCOME_BIT != 0);
        // A second hit must not double-train.
        ship.on_hit(BlockAddr::new(1), &mut state);
        ship.on_evict(BlockAddr::new(1), state, true);
        let decision = ship.on_fill(BlockAddr::new(3), pc);
        assert!(
            matches!(decision, FillDecision::Allocate { priority: InsertPriority::Normal, .. }),
            "a reuse observation must lift the signature out of distant"
        );
    }

    #[test]
    fn accuracy_accounting() {
        let mut ship = ShipTlb::paper_default();
        let pc = Pc::new(0x400);
        // Train to distant (init is mid-range: 4 net DOA evictions).
        for i in 0..8u64 {
            let FillDecision::Allocate { state, .. } = ship.on_fill(Vpn::new(i), pc) else {
                panic!()
            };
            ship.on_evict(Vpn::new(i), state, false);
        }
        // Distant-predicted fill that is truly DOA: correct.
        let FillDecision::Allocate { priority, state } = ship.on_fill(Vpn::new(99), pc) else {
            panic!()
        };
        assert_eq!(priority, InsertPriority::Distant);
        ship.on_evict(Vpn::new(99), state, false);
        let report = ship.accuracy_report().unwrap();
        assert!(report.predictions >= 1);
        assert_eq!(report.correct, report.predictions, "all predictions were truly DOA");
        assert_eq!(report.mispredictions, 0);
        assert_eq!(report.true_doas, 9, "eight training DOAs plus the predicted one");
        assert!((report.accuracy() - 1.0).abs() < 1e-12);
        assert!(report.coverage() < 1.0, "early unpredicted DOAs cap coverage");
    }

    /// One SHiP on both levels: driven through the same raw keys, PCs and
    /// outcomes, `Ship<Vpn>` and `Ship<BlockAddr>` make the same fill
    /// decisions, leave the same states and report the same accuracy.
    #[test]
    fn both_levels_behave_alike() {
        let (mut tlb, mut llc) = (Ship::<Vpn>::new(8, 3, 4, 2), Ship::<BlockAddr>::new(8, 3, 4, 2));
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for step in 0..4000u64 {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (raw, pc) = ((rng >> 40) % 24, Pc::new(0x400 + (rng >> 20) % 12 * 4));
            tlb.on_lookup(Vpn::new(raw), false);
            llc.on_lookup(BlockAddr::new(raw), false);
            let decision = tlb.on_fill(Vpn::new(raw), pc);
            assert_eq!(decision, llc.on_fill(BlockAddr::new(raw), pc), "step {step}");
            let FillDecision::Allocate { mut state, .. } = decision else {
                panic!("SHiP never bypasses");
            };
            let mut llc_state = state;
            let hits = (rng >> 8) % 3;
            for _ in 0..hits {
                tlb.on_hit(Vpn::new(raw), &mut state);
                llc.on_hit(BlockAddr::new(raw), &mut llc_state);
            }
            assert_eq!(state, llc_state, "step {step}");
            tlb.on_evict(Vpn::new(raw), state, hits > 0);
            llc.on_evict(BlockAddr::new(raw), llc_state, hits > 0);
        }
        let report = tlb.accuracy_report();
        assert!(report.is_some_and(|r| r.predictions > 0), "the sequence must predict");
        assert_eq!(report, llc.accuracy_report());
    }

    #[test]
    #[should_panic(expected = "signature width")]
    fn oversize_signature_rejected() {
        Ship::<BlockAddr>::new(17, 3, 2048, 16);
    }
}
