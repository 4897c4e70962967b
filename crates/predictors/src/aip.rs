//! AIP — the counter-based Access Interval Predictor (Kharbutli &
//! Solihin, ICCD 2005 / IEEE TC 2008), the second dead-block baseline in
//! the paper's comparison.
//!
//! Each line counts the accesses its *set* receives between consecutive
//! accesses to the line (the *access interval*). A two-dimensional
//! prediction table indexed by hashed PC × hashed address learns each
//! line's maximum live interval with a confidence bit. A resident line is
//! predicted **dead** once its current interval exceeds the learned
//! threshold with confidence — dead lines are preferred victims at
//! replacement.
//!
//! Per-line state is 21 bits as in the paper's storage accounting: 8-bit
//! hashed PC, 8-bit interval counter, 4-bit max live interval, 1
//! predicted-dead flag; the 256×256 table holds 4-bit thresholds plus a
//! confidence bit (5 bits/entry → the paper's 124 KB total for a 2 MB
//! LLC).
//!
//! As the paper observes (Section VI-A), AIP targets *non-DOA* dead
//! blocks; LLTs are dominated by DOA entries, which is why AIP-TLB barely
//! helps — reproducing that negative result is part of this baseline's
//! job.

use dpc_memsim::policy::{
    AccuracyReport, BlockFillDecision, EvictedBlock, EvictedPage, InsertPriority, LlcPolicy,
    LltPolicy, PageFillDecision, PolicyLineView,
};
use dpc_types::hash::{fold_xor, hash_pc};
use dpc_types::{BlockAddr, Pc, Pfn, Vpn};

/// Per-line state layout.
const PC_SHIFT: u32 = 0; // 8 bits
const INTERVAL_SHIFT: u32 = 8; // 8 bits (saturating)
const MAX_LIVE_SHIFT: u32 = 16; // 4 bits (saturating)
const PREDICTED_DEAD_BIT: u32 = 1 << 20;

const PC_BITS: u32 = 8;
const ADDR_BITS: u32 = 8;
const INTERVAL_MAX: u32 = 0xFF;
const MAX_LIVE_MAX: u32 = 0xF;

#[inline]
fn pc_of(state: u32) -> u32 {
    (state >> PC_SHIFT) & 0xFF
}

#[inline]
fn interval_of(state: u32) -> u32 {
    (state >> INTERVAL_SHIFT) & 0xFF
}

#[inline]
fn max_live_of(state: u32) -> u32 {
    (state >> MAX_LIVE_SHIFT) & 0xF
}

#[inline]
fn set_interval(state: u32, v: u32) -> u32 {
    (state & !(0xFF << INTERVAL_SHIFT)) | (v.min(INTERVAL_MAX) << INTERVAL_SHIFT)
}

#[inline]
fn set_max_live(state: u32, v: u32) -> u32 {
    (state & !(0xF << MAX_LIVE_SHIFT)) | (v.min(MAX_LIVE_MAX) << MAX_LIVE_SHIFT)
}

/// One prediction-table entry: a 4-bit threshold plus a confidence bit.
/// (`seen` models the hardware's valid bit — a cold entry carries no
/// observation and must not gain confidence from matching zero.)
#[derive(Clone, Copy, Debug, Default)]
struct TableEntry {
    threshold: u8,
    confident: bool,
    seen: bool,
}

/// The PC × address prediction table and training logic shared by the LLC
/// and TLB instantiations.
#[derive(Debug)]
struct AipCore {
    table: Vec<TableEntry>,
    predictions: u64,
    correct: u64,
    mispredictions: u64,
    doa_evictions: u64,
}

impl AipCore {
    fn new() -> Self {
        AipCore {
            table: vec![TableEntry::default(); 1 << (PC_BITS + ADDR_BITS)],
            predictions: 0,
            correct: 0,
            mispredictions: 0,
            doa_evictions: 0,
        }
    }

    #[inline]
    fn index(pc_hash: u32, addr: u64) -> usize {
        ((pc_hash << ADDR_BITS) | fold_xor(addr, ADDR_BITS)) as usize
    }

    /// Interval bookkeeping on every set access: the hit line banks its
    /// live interval and resets; all other lines age.
    fn on_set_access(&mut self, lines: &mut [PolicyLineView]) {
        for view in lines {
            let state = view.state;
            if view.is_hit {
                let live = interval_of(state).min(MAX_LIVE_MAX);
                let banked = set_max_live(state, max_live_of(state).max(live));
                view.state = set_interval(banked, 0) & !PREDICTED_DEAD_BIT;
            } else {
                view.state = set_interval(state, interval_of(state) + 1);
            }
        }
    }

    /// Whether a line is predicted dead under the learned threshold.
    ///
    /// Prediction only requires a prior observation (`seen`), not a
    /// repeated one: counter-based predictors fire as soon as the current
    /// interval exceeds the learned threshold, which is what makes AIP
    /// aggressive — large wins on regular access patterns and real losses
    /// on irregular ones, exactly the volatility the paper reports for
    /// AIP-LLC (Table V). The confidence bit sharpens the threshold
    /// (a confirmed threshold is trusted as-is; an unconfirmed one gets a
    /// grace margin).
    fn is_dead(&self, tag: u64, state: u32) -> bool {
        let idx = Self::index(pc_of(state), tag);
        let entry = self.table[idx];
        if !entry.seen {
            return false;
        }
        let margin = if entry.confident { 0 } else { 2 };
        interval_of(state) > u32::from(entry.threshold) + margin
    }

    /// Victim selection: the first confidently-dead line, if any.
    fn pick_victim(&mut self, lines: &mut [PolicyLineView]) -> Option<usize> {
        for view in lines.iter_mut() {
            if self.is_dead(view.tag, view.state) {
                if view.state & PREDICTED_DEAD_BIT == 0 {
                    view.state |= PREDICTED_DEAD_BIT;
                    self.predictions += 1;
                }
                return Some(view.way);
            }
        }
        None
    }

    fn initial_state(&self, pc: Pc) -> u32 {
        hash_pc(pc, PC_BITS) << PC_SHIFT
    }

    /// Eviction: train the table with the observed maximum live interval
    /// (confidence set when the observation repeats) and resolve
    /// prediction accuracy.
    fn on_evict(&mut self, tag: u64, state: u32, accessed: bool) {
        if !accessed {
            self.doa_evictions += 1;
        }
        if state & PREDICTED_DEAD_BIT != 0 {
            // The line was victimized as predicted-dead; the prediction was
            // right if it indeed saw no further hit — which is trivially
            // true at eviction, so correctness is judged by whether the
            // prediction preceded any hit: a dead prediction cleared on a
            // later hit never reaches here with the bit set.
            self.correct += 1;
        }
        let idx = Self::index(pc_of(state), tag);
        let observed = max_live_of(state).min(MAX_LIVE_MAX) as u8;
        let entry = &mut self.table[idx];
        if entry.seen && entry.threshold == observed {
            entry.confident = true;
        } else {
            entry.threshold = observed;
            entry.confident = false;
            entry.seen = true;
        }
    }

    fn report(&self) -> AccuracyReport {
        AccuracyReport {
            predictions: self.predictions,
            correct: self.correct,
            mispredictions: self.mispredictions,
            true_doas: self.doa_evictions,
        }
    }
}

/// AIP attached to the LLC.
#[derive(Debug)]
pub struct AipLlc {
    core: AipCore,
}

impl AipLlc {
    /// The paper's AIP-LLC with a 256 × 256 prediction table.
    pub fn paper_default() -> Self {
        AipLlc { core: AipCore::new() }
    }
}

impl Default for AipLlc {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl LlcPolicy for AipLlc {
    #[inline]
    fn policy_name(&self) -> &'static str {
        "AIP-LLC"
    }

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        Some(self.core.report())
    }

    #[inline]
    fn on_fill(&mut self, _block: BlockAddr, pc: Pc) -> BlockFillDecision {
        BlockFillDecision::Allocate {
            priority: InsertPriority::Normal,
            state: self.core.initial_state(pc),
        }
    }

    #[inline]
    fn uses_set_views(&self) -> bool {
        true
    }

    #[inline]
    fn overrides_victim(&self) -> bool {
        true
    }

    #[inline]
    fn on_set_access(&mut self, lines: &mut [PolicyLineView]) {
        self.core.on_set_access(lines);
    }

    #[inline]
    fn pick_victim(&mut self, lines: &mut [PolicyLineView]) -> Option<usize> {
        self.core.pick_victim(lines)
    }

    #[inline]
    fn on_evict(&mut self, evicted: EvictedBlock) {
        self.core.on_evict(evicted.block.raw(), evicted.state, evicted.accessed);
    }
}

/// AIP adapted to the last-level TLB (the paper's AIP-TLB configuration,
/// 21 bits of metadata per entry).
#[derive(Debug)]
pub struct AipTlb {
    core: AipCore,
}

impl AipTlb {
    /// The paper's AIP-TLB with the default 256 × 256 table.
    pub fn paper_default() -> Self {
        AipTlb { core: AipCore::new() }
    }
}

impl Default for AipTlb {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl LltPolicy for AipTlb {
    #[inline]
    fn policy_name(&self) -> &'static str {
        "AIP-TLB"
    }

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        Some(self.core.report())
    }

    #[inline]
    fn on_fill(&mut self, _vpn: Vpn, _pfn: Pfn, pc: Pc) -> PageFillDecision {
        PageFillDecision::Allocate {
            priority: InsertPriority::Normal,
            state: self.core.initial_state(pc),
        }
    }

    #[inline]
    fn uses_set_views(&self) -> bool {
        true
    }

    #[inline]
    fn overrides_victim(&self) -> bool {
        true
    }

    #[inline]
    fn on_set_access(&mut self, lines: &mut [PolicyLineView]) {
        self.core.on_set_access(lines);
    }

    #[inline]
    fn pick_victim(&mut self, lines: &mut [PolicyLineView]) -> Option<usize> {
        self.core.pick_victim(lines)
    }

    #[inline]
    fn on_evict(&mut self, evicted: EvictedPage) {
        self.core.on_evict(evicted.vpn.raw(), evicted.state, evicted.accessed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(way: usize, tag: u64, state: u32, is_hit: bool) -> PolicyLineView {
        PolicyLineView { way, tag, is_hit, state }
    }

    #[test]
    fn intervals_age_and_reset() {
        let mut core = AipCore::new();
        let mut views = vec![view(0, 10, 0, true), view(1, 20, 0, false)];
        core.on_set_access(&mut views);
        assert_eq!(interval_of(views[0].state), 0, "hit line resets");
        assert_eq!(interval_of(views[1].state), 1, "other lines age");
        views[0].is_hit = false;
        views[1].is_hit = true;
        core.on_set_access(&mut views);
        assert_eq!(interval_of(views[0].state), 1);
        assert_eq!(interval_of(views[1].state), 0);
        assert_eq!(max_live_of(views[1].state), 1, "live interval banked on access");
    }

    #[test]
    fn unseen_entries_never_predict() {
        let core = AipCore::new();
        let state = 0xAB; // pc hash only
        assert!(!core.is_dead(10, set_interval(state, 255)), "cold table entry must not fire");
    }

    #[test]
    fn confidence_sharpens_the_threshold() {
        let mut core = AipCore::new();
        let pc = Pc::new(0x400);
        let state = core.initial_state(pc);
        // First eviction with max live 0: threshold := 0, not confident —
        // prediction fires only past the grace margin of 2.
        core.on_evict(10, state, false);
        assert!(!core.is_dead(10, set_interval(state, 2)));
        assert!(core.is_dead(10, set_interval(state, 3)));
        // Second identical observation: confident — threshold trusted
        // as-is.
        core.on_evict(10, state, false);
        assert!(core.is_dead(10, set_interval(state, 1)));
        assert!(!core.is_dead(10, set_interval(state, 0)), "interval 0 is not past threshold");
    }

    #[test]
    fn victim_picking_prefers_dead_lines() {
        let mut core = AipCore::new();
        let pc = Pc::new(0x400);
        let base = core.initial_state(pc);
        core.on_evict(20, base, false);
        core.on_evict(20, base, false); // confident threshold 0 for tag 20
        let alive = base;
        let dead = set_interval(base, 9);
        let mut views = vec![view(0, 10, alive, false), view(1, 20, dead, false)];
        let choice = core.pick_victim(&mut views);
        assert_eq!(choice, Some(1));
        assert_eq!(core.predictions, 1);
        // Picking again (with the written-back state carrying the
        // predicted-dead bit) does not double-count the same prediction.
        let choice2 = core.pick_victim(&mut views);
        assert_eq!(choice2, Some(1));
        assert_eq!(core.predictions, 1);
    }

    #[test]
    fn threshold_change_drops_confidence() {
        let mut core = AipCore::new();
        let state = core.initial_state(Pc::new(0x400));
        core.on_evict(10, state, false);
        core.on_evict(10, state, false); // confident at 0
        core.on_evict(10, set_max_live(state, 3), true); // different observation
                                                         // New threshold 3, unconfident: the grace margin applies again.
        assert!(!core.is_dead(10, set_interval(state, 5)));
        assert!(core.is_dead(10, set_interval(state, 6)));
    }

    #[test]
    fn policies_allocate_normally() {
        let mut llc = AipLlc::paper_default();
        assert!(matches!(
            llc.on_fill(BlockAddr::new(1), Pc::new(2)),
            BlockFillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
        let mut tlb = AipTlb::paper_default();
        assert!(matches!(
            tlb.on_fill(Vpn::new(1), Pfn::new(2), Pc::new(3)),
            PageFillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
        assert_eq!(llc.policy_name(), "AIP-LLC");
        assert_eq!(tlb.policy_name(), "AIP-TLB");
    }

    #[test]
    fn state_field_roundtrips() {
        let s = set_max_live(set_interval(0xAB, 200), 9);
        assert_eq!(pc_of(s), 0xAB);
        assert_eq!(interval_of(s), 200);
        assert_eq!(max_live_of(s), 9);
        // Saturation.
        assert_eq!(interval_of(set_interval(0, 999)), 255);
        assert_eq!(max_live_of(set_max_live(0, 99)), 15);
    }
}
