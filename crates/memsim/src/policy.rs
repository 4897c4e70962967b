//! Hook traits through which content-management policies (dpPred, cbPred,
//! SHiP, AIP, the oracle, ...) attach to the last-level TLB and the LLC.
//!
//! The structures own their arrays and statistics; a policy only observes
//! lookups/fills/evictions and answers three questions:
//!
//! 1. *Should this fill be bypassed?* ([`LltPolicy::on_fill`],
//!    [`LlcPolicy::on_fill`])
//! 2. *Where should an allocated entry land in the replacement order?*
//!    (the [`InsertPriority`] inside the fill decision — how SHiP is adapted)
//! 3. *Is there a preferred victim?* (`pick_victim` — how AIP prioritizes
//!    predicted-dead entries)
//!
//! Each entry carries 32 bits of opaque policy scratch state (`state`),
//! enough for every predictor in the paper (dpPred stores a 6-bit PC hash;
//! AIP stores a hashed PC, an event counter and a learned threshold; SHiP a
//! signature and an outcome bit; cbPred a DP bit).
//!
//! The cross-predictor channel of the paper — *"when the dpPred in the LLT
//! predicts a DOA page, the corresponding PFN is sent to all LLC slices"* —
//! is wired by the [`System`](crate::system::System): a
//! [`PageFillDecision::Bypass`] triggers [`LlcPolicy::note_doa_page`].

pub use crate::set_assoc::InsertPriority;
use dpc_types::{BlockAddr, Pc, Pfn, Vpn};
use std::fmt::Debug;

/// Decision returned by [`LltPolicy::on_fill`] when a page walk completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageFillDecision {
    /// Allocate the translation in the LLT.
    Allocate {
        /// Replacement-order position for the new entry.
        priority: InsertPriority,
        /// Initial per-entry policy state (e.g. dpPred's 6-bit PC hash).
        state: u32,
    },
    /// Do not allocate (predicted dead-on-arrival). The translation is
    /// still returned to the L1 TLB; dpPred additionally parks it in its
    /// shadow table.
    Bypass,
}

impl PageFillDecision {
    /// The default allocation used by the no-op policy.
    pub const ALLOCATE: Self =
        PageFillDecision::Allocate { priority: InsertPriority::Normal, state: 0 };
}

/// Decision returned by [`LlcPolicy::on_fill`] when a block arrives from
/// memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockFillDecision {
    /// Allocate the block in the LLC.
    Allocate {
        /// Replacement-order position for the new block.
        priority: InsertPriority,
        /// Initial per-block policy state (e.g. cbPred's DP bit).
        state: u32,
    },
    /// Do not allocate in the LLC (predicted dead-on-arrival). The block is
    /// still returned to, and cached by, the upper levels.
    Bypass,
}

impl BlockFillDecision {
    /// The default allocation used by the no-op policy.
    pub const ALLOCATE: Self =
        BlockFillDecision::Allocate { priority: InsertPriority::Normal, state: 0 };
}

/// A view of one valid line handed to set-access hooks
/// ([`LltPolicy::on_set_access`] / [`LlcPolicy::on_set_access`]) and to
/// `pick_victim`.
///
/// `state` is a *copy* of the line's policy scratch state;
/// [`SetAssoc::with_set_views`](crate::set_assoc::SetAssoc::with_set_views)
/// writes whatever the hook leaves in it back to the line afterwards.
/// Owning the state (instead of borrowing it) lets the array reuse one
/// scratch buffer of views across calls, keeping the hot path free of
/// heap allocations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PolicyLineView {
    /// Way index within the set.
    pub way: usize,
    /// The line's tag (VPN for TLBs, block address for caches).
    pub tag: u64,
    /// Whether this lookup hit this line.
    pub is_hit: bool,
    /// Per-line policy scratch state (written back after the hook).
    pub state: u32,
}

/// An LLT entry at the moment of its eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedPage {
    /// Virtual page number of the evicted translation.
    pub vpn: Vpn,
    /// Physical frame it mapped to.
    pub pfn: Pfn,
    /// Per-entry policy state (dpPred keeps its PC hash here).
    pub state: u32,
    /// The paper's `Accessed` bit: was the entry hit during its stay?
    /// An unset bit identifies a true DOA page.
    pub accessed: bool,
}

/// An LLC block at the moment of its eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Physical block address of the evicted block.
    pub block: BlockAddr,
    /// Per-block policy state (cbPred keeps its DP bit here).
    pub state: u32,
    /// The `Accessed` bit: was the block hit during its stay? An unset
    /// bit identifies a true DOA block.
    pub accessed: bool,
}

/// Prediction-quality counters reported by a policy (paper Tables VI/VII).
///
/// *Accuracy* is correct predictions over all predictions; *coverage* is
/// correct predictions over all true DOA entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AccuracyReport {
    /// Total DOA predictions made (bypasses, or distant insertions for
    /// SHiP-style policies).
    pub predictions: u64,
    /// Predictions confirmed correct.
    pub correct: u64,
    /// Predictions observed wrong.
    pub mispredictions: u64,
    /// True DOA entries observed (correctly predicted ones plus DOA
    /// evictions the policy failed to predict).
    pub true_doas: u64,
}

impl AccuracyReport {
    /// Fraction of resolved predictions that were correct.
    pub fn accuracy(&self) -> f64 {
        let resolved = self.correct + self.mispredictions;
        if resolved == 0 {
            0.0
        } else {
            self.correct as f64 / resolved as f64
        }
    }

    /// Fraction of true DOAs the policy predicted.
    pub fn coverage(&self) -> f64 {
        if self.true_doas == 0 {
            0.0
        } else {
            self.correct as f64 / self.true_doas as f64
        }
    }
}

/// Content-management policy for the last-level TLB.
///
/// All hooks have no-op defaults so simple policies implement only what
/// they need. Implementations must be deterministic.
pub trait LltPolicy: Debug {
    /// Short name for reports (e.g. `"dpPred"`, `"SHiP-TLB"`).
    fn policy_name(&self) -> &'static str;

    /// Prediction-quality counters, if the policy tracks them.
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        None
    }

    /// Called on every LLT lookup, before the result is known to the
    /// policy, with the outcome. Used by accuracy trackers.
    fn on_lookup(&mut self, _vpn: Vpn, _hit: bool) {}

    /// Probes the policy's shadow/victim buffer on an LLT miss. Returning
    /// `Some(pfn)` serves the translation without a page walk; the paper's
    /// dpPred treats this as a detected misprediction (negative feedback)
    /// and the system re-allocates the entry in the LLT.
    fn shadow_lookup(&mut self, _vpn: Vpn) -> Option<Pfn> {
        None
    }

    /// Decides what to do with a completed walk's translation. `pc` is the
    /// PC of the access whose LLT miss started the walk.
    fn on_fill(&mut self, _vpn: Vpn, _pfn: Pfn, _pc: Pc) -> PageFillDecision {
        PageFillDecision::ALLOCATE
    }

    /// Called when a bypassed translation is produced, so the policy can
    /// park it in its shadow table.
    fn on_bypass(&mut self, _vpn: Vpn, _pfn: Pfn) {}

    /// Initial per-entry state for a translation re-allocated after a
    /// shadow-table hit (paper Fig. 6a: *"insert entry into LLT, store
    /// h(PC) in the LLT entry"*).
    fn refill_state(&mut self, _vpn: Vpn, _pc: Pc) -> u32 {
        0
    }

    /// Called on an LLT hit with the entry's scratch state.
    fn on_hit(&mut self, _vpn: Vpn, _state: &mut u32) {}

    /// Whether the policy observes set accesses. **Must return `true` iff
    /// [`LltPolicy::on_set_access`] is overridden** — the simulator skips
    /// building line views entirely when this is `false`, so an
    /// overridden hook behind a `false` gate silently never runs.
    fn uses_set_views(&self) -> bool {
        false
    }

    /// Whether the policy may override victim selection. **Must return
    /// `true` iff [`LltPolicy::pick_victim`] is overridden** — the
    /// simulator consults `pick_victim` only when this is `true`.
    fn overrides_victim(&self) -> bool {
        false
    }

    /// Called on every lookup with views of all valid lines in the set
    /// (interval-counting predictors like AIP train here). Only invoked
    /// when [`LltPolicy::uses_set_views`] returns `true`.
    fn on_set_access(&mut self, _lines: &mut [PolicyLineView]) {}

    /// Chooses a victim among the set's valid lines, or `None` to defer to
    /// the base replacement policy. Only consulted when the set is full
    /// and [`LltPolicy::overrides_victim`] returns `true`.
    fn pick_victim(&mut self, _lines: &mut [PolicyLineView]) -> Option<usize> {
        None
    }

    /// Called when an entry leaves the LLT.
    fn on_evict(&mut self, _evicted: EvictedPage) {}
}

/// Content-management policy for the last-level cache.
pub trait LlcPolicy: Debug {
    /// Short name for reports (e.g. `"cbPred"`, `"SHiP-LLC"`).
    fn policy_name(&self) -> &'static str;

    /// Prediction-quality counters, if the policy tracks them.
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        None
    }

    /// Receives the PFN of a page the TLB-side policy just predicted DOA
    /// (the paper's dpPred → PFQ message).
    fn note_doa_page(&mut self, _pfn: Pfn) {}

    /// Called on every LLC lookup with the outcome.
    fn on_lookup(&mut self, _block: BlockAddr, _hit: bool) {}

    /// Decides what to do with a block arriving from memory.
    fn on_fill(&mut self, _block: BlockAddr, _pc: Pc) -> BlockFillDecision {
        BlockFillDecision::ALLOCATE
    }

    /// Called on an LLC hit with the block's scratch state.
    fn on_hit(&mut self, _block: BlockAddr, _state: &mut u32) {}

    /// Whether the policy observes set accesses. **Must return `true` iff
    /// [`LlcPolicy::on_set_access`] is overridden** — the simulator skips
    /// building line views entirely when this is `false`, so an
    /// overridden hook behind a `false` gate silently never runs.
    fn uses_set_views(&self) -> bool {
        false
    }

    /// Whether the policy may override victim selection. **Must return
    /// `true` iff [`LlcPolicy::pick_victim`] is overridden** — the
    /// simulator consults `pick_victim` only when this is `true`.
    fn overrides_victim(&self) -> bool {
        false
    }

    /// Called on every lookup with views of all valid lines in the set.
    /// Only invoked when [`LlcPolicy::uses_set_views`] returns `true`.
    fn on_set_access(&mut self, _lines: &mut [PolicyLineView]) {}

    /// Chooses a victim among the set's valid lines, or `None` to defer to
    /// the base replacement policy. Only consulted when
    /// [`LlcPolicy::overrides_victim`] returns `true`.
    fn pick_victim(&mut self, _lines: &mut [PolicyLineView]) -> Option<usize> {
        None
    }

    /// Called when a block leaves the LLC.
    fn on_evict(&mut self, _evicted: EvictedBlock) {}
}

/// The baseline no-op LLT policy: plain allocation under the base
/// replacement policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullPagePolicy;

impl LltPolicy for NullPagePolicy {
    #[inline]
    fn policy_name(&self) -> &'static str {
        "baseline"
    }
}

/// The baseline no-op LLC policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullBlockPolicy;

impl LlcPolicy for NullBlockPolicy {
    #[inline]
    fn policy_name(&self) -> &'static str {
        "baseline"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_policies_allocate() {
        let mut p = NullPagePolicy;
        assert_eq!(p.on_fill(Vpn::new(1), Pfn::new(2), Pc::new(3)), PageFillDecision::ALLOCATE);
        assert_eq!(p.shadow_lookup(Vpn::new(1)), None);
        assert_eq!(p.policy_name(), "baseline");

        let mut b = NullBlockPolicy;
        assert_eq!(b.on_fill(BlockAddr::new(1), Pc::new(3)), BlockFillDecision::ALLOCATE);
        assert_eq!(b.policy_name(), "baseline");
    }
}
