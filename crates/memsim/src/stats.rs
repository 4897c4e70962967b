//! Simulation statistics: per-structure counters, eviction-time dead/DOA
//! classification (paper Figs. 2 and 4), resident-deadness sampling
//! (paper Figs. 1 and 3), and the [`Ledger`] that fills a last level (the
//! LLT or the LLC) and charges both measures.

use crate::cache::Cache;
use crate::policy::LevelPolicy;
use crate::set_assoc::{Evicted, HasPolicyState, InsertPriority, LineLife, Lived};
use dpc_types::invariant;
use serde::{Deserialize, Serialize};

/// Hit/miss/fill counters for one cache or TLB structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructStats {
    /// Total lookups.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Allocations performed.
    pub fills: u64,
    /// Fills suppressed by a bypass prediction.
    pub bypasses: u64,
    /// Valid entries displaced by replacement.
    pub evictions: u64,
    /// Misses served by the policy's shadow/victim buffer (LLT only).
    pub shadow_hits: u64,
    /// Entries removed by back-invalidation (inclusion enforcement).
    pub invalidations: u64,
}

impl StructStats {
    /// Hit rate in `[0, 1]`; zero when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Misses per kilo-instruction.
    pub fn mpki(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / instructions as f64
        }
    }
}

/// Eviction-time classification of entries (paper Figs. 2/4): dead-on-
/// arrival, mostly dead (dead time > live time but at least one hit), or
/// live.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictionClasses {
    /// Total classified evictions.
    pub total: u64,
    /// Entries evicted with zero hits.
    pub doa: u64,
    /// Entries with ≥1 hit whose dead time exceeded their live time.
    pub mostly_dead: u64,
    /// Entries whose live time dominated.
    pub live: u64,
}

impl EvictionClasses {
    /// Classifies an eviction. Time is measured in the owning structure's
    /// lookup sequence numbers; *live* is fill → last hit, *dead* is last
    /// hit → eviction, matching Section IV-A of the paper.
    pub fn record(&mut self, life: LineLife, evict_seq: u64) {
        self.total += 1;
        if life.hits == 0 {
            self.doa += 1;
        } else {
            let live = life.last_hit_seq.saturating_sub(life.fill_seq);
            let dead = evict_seq.saturating_sub(life.last_hit_seq);
            if dead > live {
                self.mostly_dead += 1;
            } else {
                self.live += 1;
            }
        }
    }

    /// Fraction of evictions that were DOA.
    pub fn doa_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.doa as f64 / self.total as f64
        }
    }

    /// Fraction of evictions that were dead (DOA or mostly dead) — the
    /// total bar height in Figs. 2/4.
    pub fn dead_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.doa + self.mostly_dead) as f64 / self.total as f64
        }
    }
}

/// Sampled resident deadness (paper Figs. 1/3): at each sampling instant,
/// what fraction of currently resident entries will receive no further hit
/// before eviction (*dead*), and what fraction will end their stay with
/// zero hits (*DOA*)?
///
/// Future knowledge is resolved lazily: sampling instants are recorded as
/// structure-local sequence numbers, and each stay is charged in two
/// terms (DESIGN.md §17). Its fill ([`note_fill`](Self::note_fill))
/// presumes it DOA from the fill on; its end
/// ([`record_stay`](Self::record_stay) at an eviction,
/// [`resolve`](Self::resolve) for the lines still resident) settles what
/// its hit history says. Both run at the structure's current clock, at or
/// past every sample taken, so they need no search there.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadnessSampler {
    sample_seqs: Vec<u64>,
    counts: StayCounts,
}

/// Running `present`/`dead`/`doa` totals. Signed: a fill subtracts its
/// term up front, so a total sits below its final value (and possibly
/// below zero) until the stays filled so far have ended.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
struct StayCounts {
    present: i64,
    dead: i64,
    doa: i64,
}

impl StayCounts {
    /// Adds the end term of a stay that ended at `end_seq`, given the
    /// samples taken so far. `B(x)` counts samples `s < x` and `A(x)`
    /// samples `s ≤ x`, both clamped to the samples before the end; the
    /// fill already charged `−B(F)` to all three totals.
    fn end_stay(&mut self, samples: &[u64], life: LineLife, end_seq: u64) {
        let end = samples_before(samples, end_seq);
        let end_term = end as i64;
        self.present += end_term;
        if life.hits == 0 {
            // Dead and DOA at every sample it was present for: no search.
            self.dead += end_term;
            self.doa += end_term;
            return;
        }
        invariant!(end <= samples.len(), "B(E) counts samples that exist");
        let taken = &samples[..end];
        let fill = taken.partition_point(|&s| s < life.fill_seq);
        invariant!(fill <= taken.len(), "B(F) ≤ B(E)");
        let live = fill + taken[fill..].partition_point(|&s| s <= life.last_hit_seq);
        self.doa += fill as i64;
        self.dead += end_term - live as i64 + fill as i64;
    }
}

/// `B(seq)`: how many of `samples` (non-decreasing) lie before `seq`. A
/// running machine asks at its current clock, which is at or past the
/// last sample; only a sample taken at `seq` itself needs the search.
#[inline]
fn samples_before(samples: &[u64], seq: u64) -> usize {
    match samples.last() {
        Some(&last) if last >= seq => samples.partition_point(|&s| s < seq),
        _ => samples.len(),
    }
}

impl DeadnessSampler {
    /// Creates an empty sampler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets every sample and count, keeping the sample buffer's
    /// capacity so a measured window after a warm-up samples without
    /// allocating. A line filled before the clear and still resident
    /// has no sample after the clear before its fill, so dropping its
    /// fill term is exact.
    pub fn clear(&mut self) {
        self.sample_seqs.clear();
        self.counts = StayCounts::default();
    }

    /// Registers a sampling instant at structure-local sequence `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is not monotonically non-decreasing.
    pub fn take_sample(&mut self, seq: u64) {
        if let Some(&last) = self.sample_seqs.last() {
            assert!(seq >= last, "sample sequence numbers must be monotonic");
        }
        self.sample_seqs.push(seq);
    }

    /// Charges a stay's fill term: a line was installed at `fill_seq`,
    /// the structure's current clock. The stay is presumed DOA from here
    /// on, so all three totals lose the samples taken before the fill;
    /// [`record_stay`](Self::record_stay) adds them back at its end.
    #[inline]
    pub fn note_fill(&mut self, fill_seq: u64) {
        let before = samples_before(&self.sample_seqs, fill_seq) as i64;
        self.counts.present -= before;
        self.counts.dead -= before;
        self.counts.doa -= before;
    }

    /// Charges a finished stay's end term: the entry, whose fill was
    /// noted, was resident for sequence numbers `[life.fill_seq,
    /// end_seq)`. It was present for the samples in that range, and dead
    /// for those after its last hit (all of them when it never hit).
    #[inline]
    pub fn record_stay(&mut self, life: LineLife, end_seq: u64) {
        self.counts.end_stay(&self.sample_seqs, life, end_seq);
    }

    /// The aggregated results, with the lines still resident (`residents`,
    /// each with its fill noted) ending their stays at `end_seq`.
    /// Leaves the sampler as it was, so it may be read repeatedly.
    pub fn resolve(
        &self,
        residents: impl IntoIterator<Item = LineLife>,
        end_seq: u64,
    ) -> DeadnessStats {
        let mut counts = self.counts;
        for life in residents {
            counts.end_stay(&self.sample_seqs, life, end_seq);
        }
        invariant!(
            counts.present >= 0 && counts.dead >= 0 && counts.doa >= 0,
            "every noted fill has ended its stay: {counts:?}"
        );
        DeadnessStats {
            samples: self.sample_seqs.len() as u64,
            present: counts.present as u64,
            dead: counts.dead as u64,
            doa: counts.doa as u64,
        }
    }
}

/// The deadness accounts of one last level (the LLT or the LLC): its
/// eviction classes and its resident-deadness sampler. Every fill of the
/// level goes through [`Ledger::fill`], so each stay is charged at its
/// fill and at its eviction in one place. The level's payload is
/// [`Lived`], the one payload that keeps line lifetimes; the levels
/// above it carry no ledger and no lifetime.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Eviction-time classification (Figs. 2/4).
    pub evictions: EvictionClasses,
    sampler: DeadnessSampler,
}

impl Ledger {
    /// Allocates `payload` under `key` in `level` and charges the stay it
    /// starts and the one it ends. A `policy` that overrides victim
    /// selection chooses among a full set's lines (AIP victimizes
    /// predicted-dead ones first); every other fill is the base policy's
    /// one-pass `fill`, which needs no fullness check. The displaced line,
    /// if any, reaches `policy.on_evict` and is returned.
    #[inline]
    pub fn fill<P: Default + HasPolicyState, Q: LevelPolicy>(
        &mut self,
        level: &mut Cache<Lived<P>>,
        policy: &mut Q,
        key: Q::Key,
        payload: P,
        priority: InsertPriority,
    ) -> Option<Evicted<Lived<P>>> {
        let raw = key.into();
        let way = if policy.overrides_victim() && level.array().set_full(raw) {
            level.array_mut().with_set_views(raw, None, |views| policy.pick_victim(views))
        } else {
            None
        };
        let mut evicted = match way {
            Some(way) => level.fill_way(raw, way, Lived::new(payload), priority),
            None => level.fill(raw, Lived::new(payload), priority),
        };
        let seq = level.array().seq();
        self.sampler.note_fill(seq);
        if let Some(Evicted { tag, payload }) = &mut evicted {
            let life = payload.life();
            self.evictions.record(life, seq);
            self.sampler.record_stay(life, seq);
            policy.on_evict(Q::Key::from(*tag), *payload.policy_state_mut(), payload.accessed());
        }
        evicted
    }

    /// Takes a deadness sample of `level`'s resident lines.
    pub fn sample<P: Default>(&mut self, level: &Cache<Lived<P>>) {
        self.sampler.take_sample(level.array().seq());
    }

    /// The sampled deadness, with `level`'s resident lines ending their
    /// stays now. Leaves the ledger as it was.
    pub fn deadness<P: Default>(&self, level: &Cache<Lived<P>>) -> DeadnessStats {
        let array = level.array();
        self.sampler.resolve(array.iter_valid().map(|(_, line)| line.life()), array.seq())
    }

    /// Forgets every eviction, sample and count (after a warm-up).
    pub fn clear(&mut self) {
        self.evictions = EvictionClasses::default();
        self.sampler.clear();
    }
}

/// Aggregated output of a [`DeadnessSampler`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeadnessStats {
    /// Number of sampling instants.
    pub samples: u64,
    /// Σ over samples of resident entries.
    pub present: u64,
    /// Σ over samples of resident entries with no future hit.
    pub dead: u64,
    /// Σ over samples of resident entries that end their stay with 0 hits.
    pub doa: u64,
}

impl DeadnessStats {
    /// Average fraction of resident entries that are dead (Fig. 1/3 total
    /// bar height).
    pub fn dead_fraction(&self) -> f64 {
        if self.present == 0 {
            0.0
        } else {
            self.dead as f64 / self.present as f64
        }
    }

    /// Average fraction of resident entries that are DOA (Fig. 1/3 lower
    /// stack).
    pub fn doa_fraction(&self) -> f64 {
        if self.present == 0 {
            0.0
        } else {
            self.doa as f64 / self.present as f64
        }
    }
}

/// Full output of one simulation run.
///
/// Every field but [`slow_steps`](SimStats::slow_steps) is architectural.
/// `slow_steps` is engine telemetry, but every event goes through the one
/// `step` loop, so it depends only on the event stream and equality can
/// compare it like the rest.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimStats {
    /// Retired instructions (memory + compute).
    pub instructions: u64,
    /// Retired memory operations.
    pub mem_ops: u64,
    /// Total cycles from the core timing model.
    pub cycles: u64,

    /// L1 instruction TLB counters.
    pub l1i_tlb: StructStats,
    /// L1 data TLB counters.
    pub l1d_tlb: StructStats,
    /// L2 (last-level) TLB counters.
    pub llt: StructStats,
    /// L1 data cache counters.
    pub l1d: StructStats,
    /// L2 cache counters.
    pub l2: StructStats,
    /// L3 / last-level cache counters.
    pub llc: StructStats,

    /// Completed page walks.
    pub walks: u64,
    /// PTE loads issued by the walker into the data caches.
    pub walk_pte_loads: u64,
    /// Page-walk cache hits per level (L1/L2/L3 PWC).
    pub pwc_hits: [u64; 3],
    /// Cycles spent in page walks (sum; walks overlap in the ROB model).
    pub walk_cycles: u64,

    /// Eviction-time classification of LLT entries (Fig. 2).
    pub llt_evictions: EvictionClasses,
    /// Eviction-time classification of LLC blocks (Fig. 4).
    pub llc_evictions: EvictionClasses,
    /// Sampled LLT deadness (Fig. 1).
    pub llt_deadness: DeadnessStats,
    /// Sampled LLC deadness (Fig. 3).
    pub llc_deadness: DeadnessStats,

    /// DOA-evicted LLC blocks whose page's most recent LLT stay was DOA
    /// (numerator of Table III).
    pub doa_blocks_on_doa_pages: u64,
    /// All DOA-evicted LLC blocks with a known page stay (denominator of
    /// Table III).
    pub doa_blocks_classified: u64,

    /// Events processed by `System::step` over the machine's life — every
    /// event, compute and memory alike, warm-up included (engine
    /// telemetry: `System::reset_stats` does not zero it).
    pub slow_steps: u64,
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLT misses per kilo-instruction.
    pub fn llt_mpki(&self) -> f64 {
        self.llt.mpki(self.instructions)
    }

    /// LLC misses per kilo-instruction.
    pub fn llc_mpki(&self) -> f64 {
        self.llc.mpki(self.instructions)
    }

    /// Fraction of DOA LLC blocks that fell on DOA pages (Table III).
    pub fn doa_block_page_correlation(&self) -> f64 {
        if self.doa_blocks_classified == 0 {
            0.0
        } else {
            self.doa_blocks_on_doa_pages as f64 / self.doa_blocks_classified as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn life(fill: u64, last_hit: u64, hits: u64) -> LineLife {
        LineLife { fill_seq: fill, last_hit_seq: last_hit, hits }
    }

    #[test]
    fn struct_stats_rates() {
        let s = StructStats { lookups: 10, hits: 7, misses: 3, ..Default::default() };
        assert!((s.hit_rate() - 0.7).abs() < 1e-12);
        assert!((s.mpki(1000) - 3.0).abs() < 1e-12);
        assert_eq!(StructStats::default().hit_rate(), 0.0);
        assert_eq!(StructStats::default().mpki(0), 0.0);
    }

    #[test]
    fn eviction_classification() {
        let mut c = EvictionClasses::default();
        c.record(life(0, 0, 0), 100); // DOA
        c.record(life(0, 10, 1), 100); // live 10, dead 90 -> mostly dead
        c.record(life(0, 90, 5), 100); // live 90, dead 10 -> live
        assert_eq!((c.doa, c.mostly_dead, c.live), (1, 1, 1));
        assert!((c.doa_fraction() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.dead_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dead_equals_live_counts_as_live() {
        let mut c = EvictionClasses::default();
        c.record(life(0, 50, 1), 100); // dead 50 == live 50
        assert_eq!(c.live, 1);
    }

    /// Samples in `[lo, hi)`: the brute-force range count the sampler's
    /// fill and end terms must add up to.
    fn count_in(samples: &[u64], lo: u64, hi: u64) -> u64 {
        samples.iter().filter(|&&s| lo <= s && s < hi).count() as u64
    }

    /// The oracle: each stay `(life, end)` is present at the samples in
    /// `[fill, end)`, dead at those after its last hit (all of them when
    /// it never hit), and DOA at all of them when it never hit.
    fn range_counts(samples: &[u64], stays: &[(LineLife, u64)]) -> DeadnessStats {
        let mut want = DeadnessStats { samples: samples.len() as u64, ..Default::default() };
        for &(l, end) in stays {
            let n = count_in(samples, l.fill_seq, end);
            want.present += n;
            if l.hits == 0 {
                want.dead += n;
                want.doa += n;
            } else {
                want.dead += count_in(samples, l.last_hit_seq + 1, end);
            }
        }
        want
    }

    #[test]
    fn sampler_counts_doa_stays() {
        let mut s = DeadnessSampler::new();
        s.note_fill(5);
        s.take_sample(10);
        s.take_sample(20);
        // Stay [5, 25) with zero hits: samples 10 and 20 present, both DOA.
        s.record_stay(life(5, 5, 0), 25);
        s.take_sample(30);
        let d = s.resolve([], 30);
        assert_eq!((d.samples, d.present, d.dead, d.doa), (3, 2, 2, 2));
    }

    #[test]
    fn sampler_counts_partially_dead_stays() {
        let mut s = DeadnessSampler::new();
        s.note_fill(5);
        for seq in [10, 20, 30, 40] {
            s.take_sample(seq);
        }
        // Stay [5, 45), last hit at 25, one hit: samples 10..40 present,
        // dead only at 30 and 40 (after the last hit).
        s.record_stay(life(5, 25, 1), 45);
        let d = s.resolve([], 45);
        assert_eq!(d.present, 4);
        assert_eq!(d.dead, 2);
        assert_eq!(d.doa, 0);
        assert!((d.dead_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sample_exactly_at_last_hit_is_live() {
        let mut s = DeadnessSampler::new();
        s.note_fill(5);
        s.take_sample(25);
        s.record_stay(life(5, 25, 1), 45);
        assert_eq!(s.resolve([], 45).dead, 0);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn samples_must_be_monotonic() {
        let mut s = DeadnessSampler::new();
        s.take_sample(10);
        s.take_sample(5);
    }

    /// A stay that covers no sample counts nothing, including one filled
    /// after a sample and ending at the clock of the next one.
    #[test]
    fn empty_stay_counts_nothing() {
        let mut s = DeadnessSampler::new();
        s.take_sample(10);
        s.note_fill(20);
        s.record_stay(life(20, 20, 0), 30);
        s.take_sample(30);
        let d = s.resolve([], 30);
        assert_eq!((d.samples, d.present, d.dead, d.doa), (2, 0, 0, 0));
    }

    /// The fill/end split must count exactly what the range counts give,
    /// for every stay shape: samples on the fill, the last hit and the
    /// end, a sample taken at a fill's or an end's own clock before the
    /// fill or end is charged, and an end before, inside or past the
    /// samples. Half the stays end by eviction, half are read as
    /// residents.
    #[test]
    fn stay_accounting_matches_range_counts() {
        let samples = [10u64, 20, 20, 30, 40];
        for end in [5u64, 20, 21, 40, 41, 100] {
            let mut stays = Vec::new();
            for fill in [0u64, 10, 15, 20, 40, 45].into_iter().filter(|&f| f <= end) {
                stays.push(life(fill, fill, 0));
                for last_hit in [fill + 5, fill + 10, 30, 40, end] {
                    if fill < last_hit && last_hit <= end {
                        stays.push(life(fill, last_hit, 2));
                    }
                }
            }
            // Machine order by clock; at one clock the samples come first,
            // then the fills, then the evictions.
            let mut events: Vec<(u64, u8, usize)> =
                samples.iter().enumerate().map(|(i, &seq)| (seq, 0, i)).collect();
            for (i, l) in stays.iter().enumerate() {
                events.push((l.fill_seq, 1, i));
                if i % 2 == 0 {
                    events.push((end, 2, i));
                }
            }
            events.sort_unstable();
            let mut s = DeadnessSampler::new();
            for (seq, kind, i) in events {
                match kind {
                    0 => s.take_sample(seq),
                    1 => s.note_fill(seq),
                    _ => s.record_stay(stays[i], seq),
                }
            }
            let residents = stays.iter().skip(1).step_by(2).copied();
            let ended: Vec<(LineLife, u64)> = stays.iter().map(|&l| (l, end)).collect();
            assert_eq!(s.resolve(residents, end), range_counts(&samples, &ended), "end {end}");
        }
    }

    /// A seeded random machine run against the range-count oracle: a
    /// four-line structure whose clock advances on lookups, interleaving
    /// hits, fills (evicting the slot's line), samples and a `clear`, read
    /// after every operation with the residents ending their stays.
    #[test]
    fn random_machine_run_matches_range_counts() {
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |n: u64| {
            rng =
                rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (rng >> 33) % n
        };
        let mut s = DeadnessSampler::new();
        let mut lines: [Option<LineLife>; 4] = [None; 4];
        let (mut samples, mut ended) = (Vec::new(), Vec::new());
        let mut seq = 0u64;
        let (mut sample_at_fill_clock, mut kept_across_clear) = (0, 0);
        let mut last_sample_seq = None;
        for op in 0..4000 {
            let slot = next(4) as usize;
            match next(10) {
                0..=4 => {
                    seq += 1;
                    if let Some(l) = lines[slot].as_mut() {
                        if next(2) == 0 {
                            l.hits += 1;
                            l.last_hit_seq = seq;
                        }
                    }
                }
                5..=7 => {
                    if let Some(l) = lines[slot] {
                        s.record_stay(l, seq);
                        ended.push((l, seq));
                    }
                    sample_at_fill_clock += u32::from(last_sample_seq == Some(seq));
                    lines[slot] = Some(life(seq, seq, 0));
                    s.note_fill(seq);
                }
                _ => {
                    s.take_sample(seq);
                    samples.push(seq);
                    last_sample_seq = Some(seq);
                }
            }
            if op == 2000 {
                s.clear();
                samples.clear();
                ended.clear();
                kept_across_clear = lines.iter().flatten().count();
            }
            let residents = lines.iter().flatten().copied();
            let mut stays = ended.clone();
            stays.extend(residents.clone().map(|l| (l, seq)));
            assert_eq!(s.resolve(residents, seq), range_counts(&samples, &stays), "op {op}");
        }
        assert!(sample_at_fill_clock > 0, "no sample was taken at a fill's own clock");
        assert!(kept_across_clear > 0, "no line stayed resident across the clear");
    }

    #[test]
    fn clear_forgets_samples_and_counts() {
        let mut s = DeadnessSampler::new();
        s.note_fill(5);
        s.take_sample(10);
        s.record_stay(life(5, 5, 0), 25);
        s.note_fill(25);
        s.clear();
        assert_eq!(s, DeadnessSampler::new());
        // The line filled at 25 stays resident across the clear: it is
        // present, dead and DOA at the one sample taken after it.
        s.take_sample(30);
        let d = s.resolve([life(25, 25, 0)], 40);
        assert_eq!((d.samples, d.present, d.dead, d.doa), (1, 1, 1, 1));
    }

    /// A ledger fill charges the stay it starts and the one it ends, asks
    /// the policy for a victim only when the set is full, and hands it
    /// the evicted line.
    #[test]
    fn ledger_fill_charges_both_measures() {
        use crate::cache::BlockInfo;
        use crate::policy::PolicyLineView;
        use dpc_types::BlockAddr;
        /// Picks way 1 (the base LRU victim would be way 0).
        #[derive(Debug, Default)]
        struct PickWayOne {
            picks: u32,
            evicted: Vec<(BlockAddr, u32, bool)>,
        }
        impl LevelPolicy for PickWayOne {
            type Key = BlockAddr;
            fn overrides_victim(&self) -> bool {
                true
            }
            fn pick_victim(&mut self, _lines: &mut [PolicyLineView]) -> Option<usize> {
                self.picks += 1;
                Some(1)
            }
            fn on_evict(&mut self, key: BlockAddr, state: u32, accessed: bool) {
                self.evicted.push((key, state, accessed));
            }
        }
        let mut level = Cache::new(1, 2, dpc_types::ReplacementKind::Lru, 1);
        let mut ledger = Ledger::default();
        let mut policy = PickWayOne::default();
        for key in 0..3u64 {
            ledger.sample(&level);
            assert!(level.lookup(key).is_none());
            let info = BlockInfo { state: 10 + key as u32 };
            let key = BlockAddr::new(key);
            ledger.fill(&mut level, &mut policy, key, info, InsertPriority::Normal);
        }
        assert_eq!(policy.picks, 1, "only the fill into the full set picks");
        assert!(level.contains(0) && !level.contains(1), "the picked way is evicted");
        assert_eq!(policy.evicted, [(BlockAddr::new(1), 11, false)]);
        assert_eq!(ledger.evictions, EvictionClasses { total: 1, doa: 1, ..Default::default() });
        // Samples at clocks 0, 1, 2; key 1's stay [2, 3) covers one,
        // resident key 0's [1, 3) two, key 2's [3, 3) none. None hit.
        let want = DeadnessStats { samples: 3, present: 3, dead: 3, doa: 3 };
        assert_eq!(ledger.deadness(&level), want);
        ledger.clear();
        assert_eq!(ledger.deadness(&level), DeadnessStats::default());
        assert_eq!(ledger.evictions, EvictionClasses::default());
    }

    #[test]
    fn sim_stats_derived_metrics() {
        let stats = SimStats {
            instructions: 2000,
            cycles: 1000,
            llt: StructStats { misses: 10, ..Default::default() },
            llc: StructStats { misses: 4, ..Default::default() },
            doa_blocks_on_doa_pages: 3,
            doa_blocks_classified: 4,
            ..Default::default()
        };
        assert!((stats.ipc() - 2.0).abs() < 1e-12);
        assert!((stats.llt_mpki() - 5.0).abs() < 1e-12);
        assert!((stats.llc_mpki() - 2.0).abs() < 1e-12);
        assert!((stats.doa_block_page_correlation() - 0.75).abs() < 1e-12);
    }
}
