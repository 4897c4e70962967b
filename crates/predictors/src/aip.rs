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
    AccuracyReport, FillDecision, InsertPriority, LevelPolicy, LlcPolicy, LltPolicy, PolicyLineView,
};
use dpc_types::hash::{fold_xor, hash_pc};
use dpc_types::{BlockAddr, Pc, Vpn};
use std::fmt::Debug;
use std::marker::PhantomData;

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

/// AIP over a level keyed by `K`: the PC × address prediction table and
/// its training. The key only types the hooks; lines are hashed by the
/// raw tag the set views and evictions carry.
#[derive(Debug)]
pub struct Aip<K> {
    table: Vec<TableEntry>,
    predictions: u64,
    correct: u64,
    mispredictions: u64,
    doa_evictions: u64,
    key: PhantomData<K>,
}

/// AIP attached to the LLC.
pub type AipLlc = Aip<BlockAddr>;

/// AIP adapted to the last-level TLB (the paper's AIP-TLB configuration,
/// 21 bits of metadata per entry).
pub type AipTlb = Aip<Vpn>;

impl<K> Aip<K> {
    /// The paper's AIP with a 256 × 256 prediction table.
    pub fn paper_default() -> Self {
        Aip {
            table: vec![TableEntry::default(); 1 << (PC_BITS + ADDR_BITS)],
            predictions: 0,
            correct: 0,
            mispredictions: 0,
            doa_evictions: 0,
            key: PhantomData,
        }
    }

    #[inline]
    fn index(pc_hash: u32, addr: u64) -> usize {
        ((pc_hash << ADDR_BITS) | fold_xor(addr, ADDR_BITS)) as usize
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
}

impl<K: Copy + Into<u64> + From<u64> + Debug> LevelPolicy for Aip<K> {
    type Key = K;

    #[inline]
    fn accuracy_report(&self) -> Option<AccuracyReport> {
        Some(AccuracyReport {
            predictions: self.predictions,
            correct: self.correct,
            mispredictions: self.mispredictions,
            true_doas: self.doa_evictions,
        })
    }

    #[inline]
    fn on_fill(&mut self, _key: K, pc: Pc) -> FillDecision {
        FillDecision::Allocate {
            priority: InsertPriority::Normal,
            state: hash_pc(pc, PC_BITS) << PC_SHIFT,
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

    /// Interval bookkeeping on every set access: the hit line banks its
    /// live interval and resets; all other lines age.
    #[inline]
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

    /// Victim selection: the first confidently-dead line, if any.
    #[inline]
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

    /// Eviction: train the table with the observed maximum live interval
    /// (confidence set when the observation repeats) and resolve
    /// prediction accuracy.
    #[inline]
    fn on_evict(&mut self, key: K, state: u32, accessed: bool) {
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
        let idx = Self::index(pc_of(state), key.into());
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
}

impl LltPolicy for AipTlb {}

impl LlcPolicy for AipLlc {}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(way: usize, tag: u64, state: u32, is_hit: bool) -> PolicyLineView {
        PolicyLineView { way, tag, is_hit, state }
    }

    /// The state a fill brought by `pc` starts with.
    fn initial_state(aip: &mut AipLlc, pc: Pc) -> u32 {
        let FillDecision::Allocate { state, .. } = aip.on_fill(BlockAddr::new(0), pc) else {
            panic!("AIP never bypasses");
        };
        state
    }

    #[test]
    fn intervals_age_and_reset() {
        let mut aip = AipLlc::paper_default();
        let mut views = vec![view(0, 10, 0, true), view(1, 20, 0, false)];
        aip.on_set_access(&mut views);
        assert_eq!(interval_of(views[0].state), 0, "hit line resets");
        assert_eq!(interval_of(views[1].state), 1, "other lines age");
        views[0].is_hit = false;
        views[1].is_hit = true;
        aip.on_set_access(&mut views);
        assert_eq!(interval_of(views[0].state), 1);
        assert_eq!(interval_of(views[1].state), 0);
        assert_eq!(max_live_of(views[1].state), 1, "live interval banked on access");
    }

    #[test]
    fn unseen_entries_never_predict() {
        let aip = AipLlc::paper_default();
        let state = 0xAB; // pc hash only
        assert!(!aip.is_dead(10, set_interval(state, 255)), "cold table entry must not fire");
    }

    #[test]
    fn confidence_sharpens_the_threshold() {
        let mut aip = AipLlc::paper_default();
        let state = initial_state(&mut aip, Pc::new(0x400));
        // First eviction with max live 0: threshold := 0, not confident —
        // prediction fires only past the grace margin of 2.
        aip.on_evict(BlockAddr::new(10), state, false);
        assert!(!aip.is_dead(10, set_interval(state, 2)));
        assert!(aip.is_dead(10, set_interval(state, 3)));
        // Second identical observation: confident — threshold trusted
        // as-is.
        aip.on_evict(BlockAddr::new(10), state, false);
        assert!(aip.is_dead(10, set_interval(state, 1)));
        assert!(!aip.is_dead(10, set_interval(state, 0)), "interval 0 is not past threshold");
    }

    #[test]
    fn victim_picking_prefers_dead_lines() {
        let mut aip = AipLlc::paper_default();
        let base = initial_state(&mut aip, Pc::new(0x400));
        aip.on_evict(BlockAddr::new(20), base, false);
        aip.on_evict(BlockAddr::new(20), base, false); // confident threshold 0 for tag 20
        let alive = base;
        let dead = set_interval(base, 9);
        let mut views = vec![view(0, 10, alive, false), view(1, 20, dead, false)];
        let choice = aip.pick_victim(&mut views);
        assert_eq!(choice, Some(1));
        assert_eq!(aip.predictions, 1);
        // Picking again (with the written-back state carrying the
        // predicted-dead bit) does not double-count the same prediction.
        let choice2 = aip.pick_victim(&mut views);
        assert_eq!(choice2, Some(1));
        assert_eq!(aip.predictions, 1);
    }

    #[test]
    fn threshold_change_drops_confidence() {
        let mut aip = AipLlc::paper_default();
        let state = initial_state(&mut aip, Pc::new(0x400));
        aip.on_evict(BlockAddr::new(10), state, false);
        aip.on_evict(BlockAddr::new(10), state, false);
        // Confident at 0. A different observation sets threshold 3,
        // unconfident, so the grace margin applies again.
        aip.on_evict(BlockAddr::new(10), set_max_live(state, 3), true);
        assert!(!aip.is_dead(10, set_interval(state, 5)));
        assert!(aip.is_dead(10, set_interval(state, 6)));
    }

    #[test]
    fn policies_allocate_normally() {
        let mut llc = AipLlc::paper_default();
        assert!(matches!(
            llc.on_fill(BlockAddr::new(1), Pc::new(2)),
            FillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
        let mut tlb = AipTlb::paper_default();
        assert!(matches!(
            tlb.on_fill(Vpn::new(1), Pc::new(3)),
            FillDecision::Allocate { priority: InsertPriority::Normal, .. }
        ));
    }

    /// One AIP on both levels: driven through the same raw keys, PCs,
    /// set views and outcomes, `Aip<Vpn>` and `Aip<BlockAddr>` make the
    /// same fill decisions and victim picks, leave the same states and
    /// report the same accuracy.
    #[test]
    fn both_levels_behave_alike() {
        let (mut tlb, mut llc) = (AipTlb::paper_default(), AipLlc::paper_default());
        // One four-way set, mirrored for each side.
        let mut lines: [Option<(u64, u32)>; 4] = [None; 4];
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut picks = 0;
        for step in 0..4000u64 {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (raw, pc) = ((rng >> 40) % 12, Pc::new(0x400 + (rng >> 20) % 6 * 4));
            let hit_way = lines.iter().position(|l| l.is_some_and(|(tag, _)| tag == raw));
            let mut views: Vec<PolicyLineView> = lines
                .iter()
                .enumerate()
                .filter_map(|(way, l)| {
                    l.map(|(tag, state)| view(way, tag, state, hit_way == Some(way)))
                })
                .collect();
            let mut llc_views = views.clone();
            tlb.on_set_access(&mut views);
            llc.on_set_access(&mut llc_views);
            assert_eq!(views, llc_views, "step {step}");
            for v in &views {
                lines[v.way] = Some((v.tag, v.state));
            }
            if hit_way.is_some() {
                continue;
            }
            let decision = tlb.on_fill(Vpn::new(raw), pc);
            assert_eq!(decision, llc.on_fill(BlockAddr::new(raw), pc), "step {step}");
            let FillDecision::Allocate { state, .. } = decision else {
                panic!("AIP never bypasses");
            };
            let way = match lines.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    let (mut views, mut llc_views) = (views.clone(), views);
                    let pick = tlb.pick_victim(&mut views);
                    assert_eq!(pick, llc.pick_victim(&mut llc_views), "step {step}");
                    assert_eq!(views, llc_views, "step {step}");
                    picks += u32::from(pick.is_some());
                    for v in &views {
                        lines[v.way] = Some((v.tag, v.state));
                    }
                    let way = pick.unwrap_or((rng >> 4) as usize % 4);
                    let (tag, state) = (views[way].tag, views[way].state);
                    let accessed = (rng >> 12) & 1 == 1;
                    tlb.on_evict(Vpn::new(tag), state, accessed);
                    llc.on_evict(BlockAddr::new(tag), state, accessed);
                    way
                }
            };
            lines[way] = Some((raw, state));
        }
        assert!(picks > 0, "the sequence must pick predicted-dead victims");
        assert_eq!(tlb.accuracy_report(), llc.accuracy_report());
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
