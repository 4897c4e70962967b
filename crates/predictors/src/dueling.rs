//! Set-dueling adaptive bypass — an extension beyond the paper.
//!
//! dpPred's fixed threshold can over-bypass on workloads whose DOA pages
//! are not predictable (the paper's mcf/mis rows) and under-bypass on
//! thrash. [`DuelingDpPred`] applies the DIP/set-dueling idea (Qureshi et
//! al., ISCA'07 — reference 5 of the paper) to the bypass decision
//! itself:
//!
//! * a few *leader sets* always honour dpPred's bypass predictions;
//! * an equal number of leader sets never bypass (plain LRU);
//! * a saturating policy-selector counter (PSEL) is trained by misses in
//!   the two leader groups, and *follower sets* obey whichever leader
//!   group is currently missing less.
//!
//! The result keeps dpPred's wins and bounds its worst case at (almost)
//! the baseline — for the cost of one 10-bit counter.

use crate::dppred::{DpPred, DpPredConfig};
use dpc_memsim::policy::{AccuracyReport, FillDecision, InsertPriority, LevelPolicy, LltPolicy};
use dpc_types::{Pc, Pfn, Vpn};

/// Leader sets per policy (out of the LLT's set count).
const LEADERS_PER_POLICY: u64 = 16;
/// PSEL width: 10-bit saturating counter, initialized mid-range.
const PSEL_MAX: u32 = 1 << 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SetRole {
    /// Always follow dpPred's decision.
    BypassLeader,
    /// Never bypass.
    BaselineLeader,
    /// Follow the PSEL winner.
    Follower,
}

/// dpPred wrapped in set-dueling bypass control.
#[derive(Debug)]
pub struct DuelingDpPred {
    inner: DpPred,
    sets: u64,
    psel: u32,
}

impl DuelingDpPred {
    /// Wraps a dpPred configured for an LLT with `config.llt_sets` sets.
    pub fn new(config: DpPredConfig) -> Self {
        let sets = config.llt_sets;
        DuelingDpPred { inner: DpPred::new(config), sets, psel: PSEL_MAX / 2 }
    }

    /// Whether follower sets currently bypass.
    pub fn bypass_enabled(&self) -> bool {
        // PSEL counts baseline-leader misses up, bypass-leader misses
        // down; above the midpoint the bypass leaders are missing less.
        self.psel >= PSEL_MAX / 2
    }

    fn role_of(&self, vpn: Vpn) -> SetRole {
        let set = vpn.raw() % self.sets;
        // Spread the leader sets across the index space.
        let stride = (self.sets / LEADERS_PER_POLICY).max(1);
        if set.is_multiple_of(stride) {
            SetRole::BypassLeader
        } else if set % stride == 1 {
            SetRole::BaselineLeader
        } else {
            SetRole::Follower
        }
    }
}

// dpPred overrides none of the set-view, victim or hit hooks, so the
// wrapper keeps their no-op defaults and forwards the rest.
impl LevelPolicy for DuelingDpPred {
    type Key = Vpn;

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        self.inner.accuracy_report()
    }

    #[inline]
    fn on_lookup(&mut self, vpn: Vpn, hit: bool) {
        if !hit {
            // Train PSEL on leader-set misses.
            match self.role_of(vpn) {
                SetRole::BypassLeader => self.psel = self.psel.saturating_sub(1),
                SetRole::BaselineLeader => self.psel = (self.psel + 1).min(PSEL_MAX),
                SetRole::Follower => {}
            }
        }
        self.inner.on_lookup(vpn, hit);
    }

    #[inline]
    fn on_fill(&mut self, vpn: Vpn, pc: Pc) -> FillDecision {
        // Always consult dpPred so it keeps training and its ghost
        // accounting stays consistent...
        let decision = self.inner.on_fill(vpn, pc);
        let honour_bypass = match self.role_of(vpn) {
            SetRole::BypassLeader => true,
            SetRole::BaselineLeader => false,
            SetRole::Follower => self.bypass_enabled(),
        };
        match decision {
            FillDecision::Bypass if !honour_bypass => {
                // ...but override the decision where the duel says no:
                // allocate with dpPred's freshly computed entry state.
                let state = self.inner.refill(vpn, pc);
                FillDecision::Allocate { priority: InsertPriority::Normal, state }
            }
            decision => decision,
        }
    }

    #[inline]
    fn on_evict(&mut self, vpn: Vpn, state: u32, accessed: bool) {
        self.inner.on_evict(vpn, state, accessed);
    }
}

impl LltPolicy for DuelingDpPred {
    #[inline]
    fn shadow_lookup(&mut self, vpn: Vpn, pc: Pc) -> Option<(Pfn, u32)> {
        self.inner.shadow_lookup(vpn, pc)
    }

    #[inline]
    fn on_bypass(&mut self, vpn: Vpn, pfn: Pfn) {
        self.inner.on_bypass(vpn, pfn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_with_bypass_enabled() {
        let d = DuelingDpPred::new(DpPredConfig::paper_default());
        assert!(d.bypass_enabled(), "mid-range PSEL favours bypassing");
    }

    #[test]
    fn baseline_leader_misses_disable_bypass() {
        let mut d = DuelingDpPred::new(DpPredConfig::paper_default());
        // Find a baseline-leader vpn (set % stride == 1 → vpn 1 with
        // 128 sets and stride 8).
        let baseline_vpn = Vpn::new(1);
        assert_eq!(d.role_of(baseline_vpn), SetRole::BaselineLeader);
        for _ in 0..PSEL_MAX {
            d.on_lookup(baseline_vpn, false);
        }
        assert!(d.bypass_enabled(), "baseline-leader misses vote FOR bypassing");
        // Misses in the bypass leaders vote against.
        let bypass_vpn = Vpn::new(0);
        assert_eq!(d.role_of(bypass_vpn), SetRole::BypassLeader);
        for _ in 0..PSEL_MAX {
            d.on_lookup(bypass_vpn, false);
        }
        assert!(!d.bypass_enabled(), "bypass-leader misses vote AGAINST bypassing");
    }

    #[test]
    fn followers_obey_the_duel() {
        let mut d = DuelingDpPred::new(DpPredConfig::paper_default());
        // Train the inner dpPred to predict DOA for one (pc, vpn) pair.
        let pc = Pc::new(0x400);
        let follower_vpn = Vpn::new(2); // set 2 → follower under stride 8
        assert_eq!(d.role_of(follower_vpn), SetRole::Follower);
        for _ in 0..8 {
            d.on_fill(follower_vpn, pc);
            d.on_evict(follower_vpn, dpc_types::hash::hash_pc(pc, 6), false);
        }
        // Duel says bypass: the prediction goes through.
        assert_eq!(d.on_fill(follower_vpn, pc), FillDecision::Bypass);
        // Flip the duel: the same prediction is overridden to allocate.
        for _ in 0..PSEL_MAX {
            d.on_lookup(Vpn::new(0), false);
        }
        assert!(!d.bypass_enabled());
        assert!(matches!(d.on_fill(follower_vpn, pc), FillDecision::Allocate { .. }));
    }

    #[test]
    fn leaders_ignore_the_duel() {
        let mut d = DuelingDpPred::new(DpPredConfig::paper_default());
        let pc = Pc::new(0x400);
        let leader_vpn = Vpn::new(0);
        for _ in 0..8 {
            d.on_fill(leader_vpn, pc);
            d.on_evict(leader_vpn, dpc_types::hash::hash_pc(pc, 6), false);
        }
        // Disable bypassing globally; the bypass leader still bypasses.
        for _ in 0..PSEL_MAX {
            d.on_lookup(Vpn::new(0), false);
        }
        assert!(!d.bypass_enabled());
        assert_eq!(d.on_fill(leader_vpn, pc), FillDecision::Bypass);
    }
}
