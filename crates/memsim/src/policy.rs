//! The hook traits through which content-management policies (dpPred,
//! cbPred, SHiP, AIP, the oracle, ...) attach to the last-level TLB and
//! the LLC.
//!
//! The structures own their arrays and statistics; a policy only observes
//! lookups/fills/evictions and answers three questions:
//!
//! 1. *Should this fill be bypassed?* ([`LevelPolicy::on_fill`])
//! 2. *Where should an allocated entry land in the replacement order?*
//!    (the [`InsertPriority`] inside the fill decision — how SHiP is adapted)
//! 3. *Is there a preferred victim?* ([`LevelPolicy::pick_victim`] — how
//!    AIP prioritizes predicted-dead entries)
//!
//! Both last levels call the same hooks, declared once in
//! [`LevelPolicy`] over the level's key ([`Vpn`] for the LLT,
//! [`BlockAddr`] for the LLC). The hooks only one level calls live in
//! the two sub-traits: [`LltPolicy`] adds the shadow probe and the bypass
//! notice, [`LlcPolicy`] the dead-page message.
//!
//! Each entry carries 32 bits of opaque policy scratch state (`state`),
//! enough for every predictor in the paper (dpPred stores a 6-bit PC hash;
//! AIP stores a hashed PC, an event counter and a learned threshold; SHiP a
//! signature and an outcome bit; cbPred a DP bit).
//!
//! The cross-predictor channel of the paper — *"when the dpPred in the LLT
//! predicts a DOA page, the corresponding PFN is sent to all LLC slices"* —
//! is wired by the [`System`](crate::system::System): an LLT
//! [`FillDecision::Bypass`] triggers [`LlcPolicy::note_doa_page`].

pub use crate::set_assoc::InsertPriority;
use dpc_types::{BlockAddr, Pc, Pfn, Vpn};
use std::fmt::Debug;

/// Decision returned by [`LevelPolicy::on_fill`] when a line arrives: a
/// completed walk's translation at the LLT, a block from memory at the
/// LLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FillDecision {
    /// Allocate the line in the level.
    Allocate {
        /// Replacement-order position for the new line.
        priority: InsertPriority,
        /// Initial per-line policy state (e.g. dpPred's 6-bit PC hash,
        /// cbPred's DP bit).
        state: u32,
    },
    /// Do not allocate (predicted dead-on-arrival). The line is still
    /// returned upward: a translation to the L1 TLB (dpPred additionally
    /// parks it in its shadow table), a block to the L2 and the L1D.
    Bypass,
}

impl FillDecision {
    /// The default allocation used by the no-op policies.
    pub const ALLOCATE: Self =
        FillDecision::Allocate { priority: InsertPriority::Normal, state: 0 };
}

/// A view of one valid line handed to [`LevelPolicy::on_set_access`] and
/// [`LevelPolicy::pick_victim`].
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

/// Content-management policy for one last level: the hooks the LLT and
/// the LLC both call, over the level's key.
///
/// All hooks have no-op defaults so simple policies implement only what
/// they need. Implementations must be deterministic.
pub trait LevelPolicy: Debug {
    /// The level's line key: [`Vpn`] (the LLT key, size-tagged when
    /// several page sizes coexist) or [`BlockAddr`]. It converts to and
    /// from the raw tag the array stores.
    type Key: Copy + Into<u64> + From<u64>;

    /// Prediction-quality counters, if the policy tracks them.
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        None
    }

    /// Called on every lookup of the level with its outcome, before any
    /// other hook of that access.
    fn on_lookup(&mut self, _key: Self::Key, _hit: bool) {}

    /// Decides what to do with a line arriving after a miss. `pc` is the
    /// PC of the access whose miss brought it.
    fn on_fill(&mut self, _key: Self::Key, _pc: Pc) -> FillDecision {
        FillDecision::ALLOCATE
    }

    /// Called on a hit with the line's scratch state.
    fn on_hit(&mut self, _key: Self::Key, _state: &mut u32) {}

    /// Whether the policy observes set accesses. **Must return `true` iff
    /// [`LevelPolicy::on_set_access`] is overridden** — the simulator
    /// skips building line views entirely when this is `false`, so an
    /// overridden hook behind a `false` gate silently never runs.
    fn uses_set_views(&self) -> bool {
        false
    }

    /// Whether the policy may override victim selection. **Must return
    /// `true` iff [`LevelPolicy::pick_victim`] is overridden** — the
    /// simulator consults `pick_victim` only when this is `true`.
    fn overrides_victim(&self) -> bool {
        false
    }

    /// Called on every lookup with views of all valid lines in the set
    /// (interval-counting predictors like AIP train here). Only invoked
    /// when [`LevelPolicy::uses_set_views`] returns `true`.
    fn on_set_access(&mut self, _lines: &mut [PolicyLineView]) {}

    /// Chooses a victim among the set's valid lines, or `None` to defer to
    /// the base replacement policy. Only consulted when the set is full
    /// and [`LevelPolicy::overrides_victim`] returns `true`.
    fn pick_victim(&mut self, _lines: &mut [PolicyLineView]) -> Option<usize> {
        None
    }

    /// Called when a line leaves the level, with its policy state and the
    /// paper's `Accessed` bit: was it hit during its stay? An unset bit
    /// identifies a true DOA line.
    fn on_evict(&mut self, _key: Self::Key, _state: u32, _accessed: bool) {}
}

/// Content-management policy for the last-level TLB: the shared hooks
/// plus the two only the translation path calls.
pub trait LltPolicy: LevelPolicy<Key = Vpn> {
    /// Probes the policy's shadow/victim buffer on an LLT miss. Returning
    /// `Some((pfn, state))` serves the translation without a page walk;
    /// the paper's dpPred treats this as a detected misprediction
    /// (negative feedback) and the system re-allocates the entry in the
    /// LLT with `state` (paper Fig. 6a: *"insert entry into LLT, store
    /// h(PC) in the LLT entry"*). `pc` is the PC of the missing access.
    fn shadow_lookup(&mut self, _vpn: Vpn, _pc: Pc) -> Option<(Pfn, u32)> {
        None
    }

    /// Called when a bypassed translation is produced, so the policy can
    /// park it in its shadow table.
    fn on_bypass(&mut self, _vpn: Vpn, _pfn: Pfn) {}
}

/// Content-management policy for the last-level cache: the shared hooks
/// plus the dead-page message.
pub trait LlcPolicy: LevelPolicy<Key = BlockAddr> {
    /// Receives the PFN of a page the TLB-side policy just predicted DOA
    /// (the paper's dpPred → PFQ message).
    fn note_doa_page(&mut self, _pfn: Pfn) {}
}

/// The baseline no-op LLT policy: plain allocation under the base
/// replacement policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullPagePolicy;

impl LevelPolicy for NullPagePolicy {
    type Key = Vpn;
}

impl LltPolicy for NullPagePolicy {}

/// The baseline no-op LLC policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullBlockPolicy;

impl LevelPolicy for NullBlockPolicy {
    type Key = BlockAddr;
}

impl LlcPolicy for NullBlockPolicy {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_policies_allocate() {
        let mut p = NullPagePolicy;
        assert_eq!(p.on_fill(Vpn::new(1), Pc::new(3)), FillDecision::ALLOCATE);
        assert_eq!(p.shadow_lookup(Vpn::new(1), Pc::new(3)), None);
        assert_eq!(p.accuracy_report(), None);

        let mut b = NullBlockPolicy;
        assert_eq!(b.on_fill(BlockAddr::new(1), Pc::new(3)), FillDecision::ALLOCATE);
        assert_eq!(b.accuracy_report(), None);
    }
}
