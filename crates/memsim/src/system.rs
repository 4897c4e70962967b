//! The full simulated system: core + TLBs + page walks + caches, with the
//! dead-page and dead-block policy attachment points.

use crate::cache::Cache;
use crate::core_model::CoreModel;
use crate::hierarchy::Hierarchy;
use crate::page_table::PageTable;
use crate::policy::{FillDecision, LlcPolicy, LltPolicy, NullBlockPolicy, NullPagePolicy};
use crate::reverse_map::ReverseMaps;
use crate::set_assoc::{Evicted, InsertPriority, Lived};
use crate::stats::{Ledger, SimStats};
use crate::tlb::{TlbEntry, TlbGroup};
use crate::walker::Walker;
use dpc_types::stream::{EventBatch, EventStream, StreamCursor};
use dpc_types::{
    AccessKind, ConfigError, Event, PageSize, Pc, Pfn, PhysAddr, SystemConfig, TlbFillPolicy,
    VirtAddr, Vpn, Workload,
};
use std::error::Error;
use std::fmt;

/// Default instructions between deadness samples.
const DEFAULT_SAMPLE_INTERVAL: u64 = 50_000;
/// Events decoded per [`System::run_stream`] chunk: large enough to
/// amortize the tag-decode branch tree and the loop bookkeeping, small
/// enough that the scratch batch stays L1-cache-resident (~256 × 32 B).
const EVENT_CHUNK: usize = 256;

/// Errors from [`System`] construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemError {
    /// The machine configuration is structurally invalid.
    InvalidConfig(ConfigError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::InvalidConfig(e) => write!(f, "invalid system configuration: {e}"),
        }
    }
}

impl Error for SystemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SystemError::InvalidConfig(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SystemError {
    fn from(e: ConfigError) -> Self {
        SystemError::InvalidConfig(e)
    }
}

/// Which L1 TLB a translation request came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Side {
    Instruction,
    Data,
}

/// The simulated machine, generic over its two content-management
/// policies.
///
/// Every policy pair — what the campaign driver instantiates for each
/// configuration in the paper's policy matrix — goes through
/// [`System::with_typed_policies`], which monomorphizes the whole event
/// loop (translation path, hierarchy hooks, pHIST/bHIST lookups) around
/// the policy types (DESIGN.md §11). The type parameters default to the
/// no-op baseline policies, so `System` written without parameters is
/// the predictor-free machine built by [`System::new`].
///
/// Feed the machine a [`Workload`] via [`System::run`] /
/// [`System::run_until`], or replay a captured stream in decoded chunks
/// via [`System::run_stream`], then read the [`SimStats`]. One machine
/// simulates at most [`MAX_RUN_MEM_OPS`](crate::MAX_RUN_MEM_OPS) memory
/// operations over its life, warm-up included: its structures keep `u32`
/// clocks (DESIGN.md §10), and the experiment runner refuses longer runs
/// before building one.
#[derive(Debug)]
pub struct System<L: LltPolicy = NullPagePolicy, C: LlcPolicy = NullBlockPolicy> {
    config: SystemConfig,
    core: CoreModel,
    l1i_tlb: TlbGroup,
    l1d_tlb: TlbGroup,
    llt: Cache<Lived<TlbEntry>>,
    llt_policy: L,
    /// Page sizes the allocation policy can map, in probe order (smallest
    /// first). A single-size policy keeps the whole translation path on
    /// untagged 4 KB keys — byte-identical to the pre-page-size code.
    llt_sizes: &'static [PageSize],
    /// Whether LLT/shadow/reverse-map keys carry a size tag. Only true
    /// when more than one page size can coexist (Promote2M), so
    /// same-numbered units of different sizes cannot alias.
    size_tagged: bool,
    /// dpPred→cbPred PFQ messages name frames at the *prediction unit* —
    /// the policy's largest page size — so a dead 2 MB page kills its
    /// blocks as one unit. Zero for the paper's 4 KB configuration.
    pfq_unit_shift: u32,
    hier: Hierarchy<C>,
    page_table: PageTable,
    walker: Walker,

    /// The LLT's eviction classes (Fig. 2) and resident deadness (Fig. 1).
    llt_ledger: Ledger,
    /// Frame→page reverse maps with each page's most recent LLT stay
    /// (Table III).
    reverse: ReverseMaps,
    doa_blocks_on_doa_pages: u64,
    doa_blocks_classified: u64,

    sample_interval: u64,
    next_sample_at: u64,
    cur_code_vpn: Option<Vpn>,
    mem_ops: u64,
    /// Events processed by [`System::step`] over the machine's life —
    /// every event, whichever entry point fed it. Engine telemetry: it
    /// measures the work the host did, so [`System::reset_stats`] keeps
    /// the warm-up's share.
    slow_steps: u64,
    /// Reusable decode scratch for [`System::run_stream`], hoisted into
    /// the machine so repeated calls (warm-up + measure, and every run of
    /// a long campaign) replay with zero per-call heap allocations.
    batch: EventBatch,
}

impl System {
    /// Builds a baseline system (no predictors) from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if the configuration fails
    /// [`SystemConfig::validate`].
    pub fn new(config: SystemConfig) -> Result<Self, SystemError> {
        Self::with_typed_policies(config, NullPagePolicy, NullBlockPolicy)
    }
}

impl<L: LltPolicy, C: LlcPolicy> System<L, C> {
    /// Builds a system with the given LLT and LLC content-management
    /// policies, monomorphizing the event loop around their concrete
    /// types.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError::InvalidConfig`] if the configuration fails
    /// [`SystemConfig::validate`].
    pub fn with_typed_policies(
        config: SystemConfig,
        llt_policy: L,
        llc_policy: C,
    ) -> Result<Self, SystemError> {
        config.validate()?;
        let page_policy = config.page_policy;
        let page_table = PageTable::with_policy(page_policy);
        let reverse = ReverseMaps::new(&page_table);
        let llt = &config.l2_tlb;
        Ok(System {
            core: CoreModel::new(config.core.width, config.core.rob_size, config.core.mem_slots),
            l1i_tlb: TlbGroup::for_policy(&config.l1_itlb, page_policy, true),
            l1d_tlb: TlbGroup::for_policy(&config.l1_dtlb, page_policy, false),
            llt: Cache::new(llt.sets() as usize, llt.ways as usize, llt.replacement, llt.latency),
            llt_policy,
            llt_sizes: page_policy.page_sizes(),
            size_tagged: page_policy.page_sizes().len() > 1,
            pfq_unit_shift: page_policy.prediction_unit_shift(),
            hier: Hierarchy::with_typed_policy(&config, llc_policy),
            page_table,
            walker: Walker::new(&config.pwc),
            llt_ledger: Ledger::default(),
            reverse,
            doa_blocks_on_doa_pages: 0,
            doa_blocks_classified: 0,
            sample_interval: DEFAULT_SAMPLE_INTERVAL,
            next_sample_at: DEFAULT_SAMPLE_INTERVAL,
            cur_code_vpn: None,
            mem_ops: 0,
            slow_steps: 0,
            batch: EventBatch::with_capacity(EVENT_CHUNK),
            config,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The attached LLT policy (e.g. to read its accuracy report).
    pub fn llt_policy(&self) -> &L {
        &self.llt_policy
    }

    /// The attached LLC policy (e.g. to read its accuracy report).
    pub fn llc_policy(&self) -> &C {
        self.hier.policy()
    }

    /// Sets the deadness sampling interval in instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_sample_interval(&mut self, interval: u64) {
        assert!(interval > 0, "sample interval must be nonzero");
        self.sample_interval = interval;
        self.next_sample_at = self.core.instructions() + interval;
    }

    /// Runs the workload to completion. Like every `run_*` entry point
    /// it returns nothing: read [`System::stats`] once the run is over.
    pub fn run(&mut self, workload: &mut dyn Workload) {
        while let Some(event) = workload.next_event() {
            self.step(event);
        }
    }

    /// Runs until the workload ends or `max_mem_ops` memory operations
    /// have been simulated.
    pub fn run_until(&mut self, workload: &mut dyn Workload, max_mem_ops: u64) {
        self.run_events(&mut std::iter::from_fn(|| workload.next_event()), max_mem_ops);
    }

    /// Runs events pulled from `events` until the iterator ends or
    /// `max_mem_ops` memory operations have been simulated — the borrowed
    /// counterpart of [`System::run_until`] for driving the machine
    /// straight from a captured `dpc_types::stream::EventStream` (or any
    /// other event iterator) without boxing or re-buffering. The loop
    /// stops as soon as the budget is reached and never pulls an event it
    /// will not simulate.
    pub fn run_events(&mut self, events: &mut dyn Iterator<Item = Event>, max_mem_ops: u64) {
        let stop_at = self.mem_ops + max_mem_ops;
        while self.mem_ops < stop_at {
            match events.next() {
                Some(event) => self.step(event),
                None => break,
            }
        }
    }

    /// Replays `stream` from `cursor` until the stream ends or
    /// `max_mem_ops` memory operations have been simulated, decoding in
    /// chunks of `EVENT_CHUNK` events into a reusable scratch batch and
    /// stepping the decoded slice — the batched counterpart of
    /// [`System::run_events`], bit-identical to it (the chunk decoder
    /// applies the memory-op budget before every event, exactly like the
    /// event-at-a-time loop; see
    /// [`EventStream::decode_chunk`]).
    ///
    /// The cursor is left on the first event not simulated, so a
    /// warm-up/measure split drives two `run_stream` calls over the same
    /// stream with the same cursor. Like every `run_*` entry point it
    /// returns no statistics: a warm-up's would be thrown away, and
    /// assembling them ends the stay of every resident LLT and LLC line
    /// in the deadness read. Read [`System::stats`] once after the
    /// measured window instead.
    pub fn run_stream(
        &mut self,
        stream: &EventStream,
        cursor: &mut StreamCursor,
        max_mem_ops: u64,
    ) {
        // The decode scratch lives in the machine so every call reuses
        // one allocation; it is taken for the loop's duration because
        // `step` needs `&mut self` while the decoded slice is walked.
        let mut batch = std::mem::take(&mut self.batch);
        let mut remaining = max_mem_ops;
        while remaining > 0 {
            let mem_taken = stream.decode_chunk(cursor, &mut batch, EVENT_CHUNK, remaining);
            if batch.is_empty() {
                break;
            }
            for &event in batch.events() {
                self.step(event);
            }
            remaining -= mem_taken;
        }
        self.batch = batch;
    }

    /// Zeroes all architectural statistics, for use after a warm-up phase.
    /// Cache, TLB, page-table and predictor contents stay warm; the page
    /// walker is rebuilt, so its page-walk caches restart cold (both
    /// goldens pin this).
    pub fn reset_stats(&mut self) {
        self.core = CoreModel::new(
            self.config.core.width,
            self.config.core.rob_size,
            self.config.core.mem_slots,
        );
        self.l1i_tlb.stats = Default::default();
        self.l1d_tlb.stats = Default::default();
        self.llt.stats = Default::default();
        self.hier.l1d.stats = Default::default();
        self.hier.l2.stats = Default::default();
        self.hier.llc.stats = Default::default();
        self.hier.llc_ledger.clear();
        self.walker = Walker::new(&self.config.pwc);
        self.llt_ledger.clear();
        self.doa_blocks_on_doa_pages = 0;
        self.doa_blocks_classified = 0;
        self.mem_ops = 0;
        self.next_sample_at = self.sample_interval;
    }

    /// Processes one event.
    pub fn step(&mut self, event: Event) {
        self.slow_steps += 1;
        match event {
            Event::Compute { ops } => self.core.issue_compute(u64::from(ops)),
            Event::Mem { pc, vaddr, kind, dependent } => {
                self.mem_access(pc, vaddr, kind, dependent);
            }
        }
        if self.core.instructions() >= self.next_sample_at {
            self.llt_ledger.sample(&self.llt);
            self.hier.llc_ledger.sample(&self.hier.llc);
            self.next_sample_at += self.sample_interval;
        }
    }

    fn mem_access(&mut self, pc: Pc, vaddr: VirtAddr, kind: AccessKind, dependent: bool) {
        self.mem_ops += 1;
        let mut latency = 0u64;
        // Instruction-side translation when execution enters a new code
        // page (fetch within a page reuses the current translation).
        let code_vpn = VirtAddr::new(pc.raw()).vpn();
        if self.cur_code_vpn != Some(code_vpn) {
            self.cur_code_vpn = Some(code_vpn);
            let (_, ilat) = self.translate(pc, code_vpn, Side::Instruction);
            latency += ilat;
        }
        let (pfn, tlat) = self.translate(pc, vaddr.vpn(), Side::Data);
        latency += tlat;
        let pa = PhysAddr::new(pfn.base().raw() | vaddr.page_offset());
        latency += self.hier.access(pa, kind, pc, true);
        self.core.issue_mem(latency, dependent);
        self.drain_doa_evictions();
    }

    /// The LLT/shadow/reverse-map key for a page of `size` holding the
    /// 4 KB-grain `vpn`: the size's *unit* VPN, tagged with the size
    /// index when several sizes can coexist. Untagged single-size keys
    /// keep the paper's 4 KB configuration byte-identical.
    #[inline]
    fn llt_key(&self, size: PageSize, vpn: Vpn) -> Vpn {
        self.llt_key_from_unit(size, size.vpn_unit(vpn))
    }

    #[inline]
    fn llt_key_from_unit(&self, size: PageSize, unit: Vpn) -> Vpn {
        if self.size_tagged {
            Vpn::new((unit.raw() << 2) | size.index())
        } else {
            unit
        }
    }

    /// Reconstructs the 4 KB-grain frame from a unit translation.
    #[inline]
    fn compose_pfn(size: PageSize, unit_pfn: u64, vpn: Vpn) -> Pfn {
        Pfn::new((unit_pfn << size.unit_shift()) | size.frame_offset(vpn))
    }

    /// Translates `vpn`, going L1 TLB → LLT (+ shadow) → page walk.
    fn translate(&mut self, pc: Pc, vpn: Vpn, side: Side) -> (Pfn, u64) {
        let l1 = match side {
            Side::Instruction => &mut self.l1i_tlb,
            Side::Data => &mut self.l1d_tlb,
        };
        let mut latency = u64::from(l1.latency);
        if let Some(pfn) = l1.lookup(vpn) {
            return (pfn, latency);
        }
        latency += u64::from(self.llt.latency);

        // --- LLT lookup with policy hooks (all inlined no-ops for the
        // baseline). The unified LLT holds every size under its own key:
        // each enabled size looks its key up, smallest first, until one
        // hits; the group counters count the translation once. ---
        self.llt.stats.lookups += 1;
        for &size in self.llt_sizes {
            let key = self.llt_key(size, vpn);
            if let Some((way, entry)) = self.llt.array_mut().lookup_payload(key.raw(), key.raw()) {
                let unit_pfn = entry.pfn;
                self.llt.stats.hits += 1;
                self.llt.observe_lookup(&mut self.llt_policy, key, Some(way));
                let pfn = Self::compose_pfn(size, unit_pfn, vpn);
                self.fill_l1(side, size, vpn, pfn, pc);
                return (pfn, latency);
            }
        }
        self.llt.stats.misses += 1;
        // Policy hooks see the key the page would occupy at its mapped
        // size, so training and the shadow probe agree with the eventual
        // fill.
        let hook_size = self.page_table.probe_size(vpn);
        let hook_key = self.llt_key(hook_size, vpn);
        self.llt.observe_lookup(&mut self.llt_policy, hook_key, None);

        // --- LLT miss: shadow/victim-buffer probe ---
        if let Some((unit_pfn, state)) = self.llt_policy.shadow_lookup(hook_key, pc) {
            self.llt.stats.shadow_hits += 1;
            // Paper Fig. 6a: re-allocate the mispredicted entry in the LLT.
            self.fill_llt(hook_key, unit_pfn, InsertPriority::Normal, state);
            let pfn = Self::compose_pfn(hook_size, unit_pfn.raw(), vpn);
            self.fill_l1(side, hook_size, vpn, pfn, pc);
            return (pfn, latency);
        }

        // --- True miss: page walk. It completes inside this access, so
        // the missing PC reaches the fill directly (the paper's MSHR
        // holds it across an asynchronous walk). ---
        let outcome = self.walker.walk(vpn, &mut self.page_table, &mut self.hier);
        latency += outcome.latency;
        let size = outcome.size;
        let key = self.llt_key(size, vpn);
        let unit_pfn = size.pfn_unit(outcome.pfn);
        self.reverse.note_walk(self.page_table.frames(), key, unit_pfn);
        if self.config.tlb_fill == TlbFillPolicy::Both {
            self.llt_insert(size, key, unit_pfn, pc);
        }
        // Under L1ThenVictim, the LLT is filled when the L1 evicts the
        // entry (see `fill_l1`).
        self.fill_l1(side, size, vpn, outcome.pfn, pc);
        (outcome.pfn, latency)
    }

    /// Runs the LLT fill-decision flow (policy consultation, bypass
    /// bookkeeping, dpPred → PFQ message). `key` and `unit_pfn` are at
    /// `size`'s grain: one huge page is one prediction unit.
    fn llt_insert(&mut self, size: PageSize, key: Vpn, unit_pfn: Pfn, pc: Pc) {
        match self.llt_policy.on_fill(key, pc) {
            FillDecision::Allocate { priority, state } => {
                self.fill_llt(key, unit_pfn, priority, state);
            }
            FillDecision::Bypass => {
                self.llt.stats.bypasses += 1;
                self.llt_policy.on_bypass(key, unit_pfn);
                // A bypassed page had no LLT stay; for the block↔page
                // correlation it counts as a (predicted) dead page.
                self.reverse.note_stay(self.page_table.frames(), key, unit_pfn, true);
                // dpPred → PFQ message (paper Fig. 7), renamed to the
                // prediction unit (the policy's largest page size).
                let pfq_pfn = Pfn::new(unit_pfn.raw() >> (self.pfq_unit_shift - size.unit_shift()));
                self.hier.policy_mut().note_doa_page(pfq_pfn);
            }
        }
    }

    fn fill_l1(&mut self, side: Side, size: PageSize, vpn: Vpn, pfn: Pfn, pc: Pc) {
        // Under the victim-TLB organization the L1 entry remembers the PC
        // that brought it, so the LLT policy can be consulted when the
        // entry trickles down at L1-eviction time.
        let state = match self.config.tlb_fill {
            TlbFillPolicy::Both => 0,
            TlbFillPolicy::L1ThenVictim => pc.raw() as u32,
        };
        let l1 = match side {
            Side::Instruction => &mut self.l1i_tlb,
            Side::Data => &mut self.l1d_tlb,
        };
        let evicted = l1.fill(size, vpn, pfn, InsertPriority::Normal, state);
        if self.config.tlb_fill == TlbFillPolicy::L1ThenVictim {
            if let Some((evicted_size, evicted_unit, entry)) = evicted {
                let evicted_key = self.llt_key_from_unit(evicted_size, evicted_unit);
                if !self.llt.contains(evicted_key.raw()) {
                    self.llt_insert(
                        evicted_size,
                        evicted_key,
                        Pfn::new(entry.pfn),
                        Pc::new(u64::from(entry.state)),
                    );
                }
            }
        }
    }

    fn fill_llt(&mut self, key: Vpn, unit_pfn: Pfn, priority: InsertPriority, state: u32) {
        let entry = TlbEntry { pfn: unit_pfn.raw(), state };
        let evicted =
            self.llt_ledger.fill(&mut self.llt, &mut self.llt_policy, key, entry, priority);
        if let Some(Evicted { tag, payload }) = evicted {
            let (evicted_key, pfn) = (Vpn::new(tag), Pfn::new(payload.pfn));
            self.reverse.note_stay(self.page_table.frames(), evicted_key, pfn, !payload.accessed());
        }
    }

    /// Classifies DOA LLC evictions against dead-page state (Table III).
    fn drain_doa_evictions(&mut self) {
        if self.hier.pending_doa_evictions.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.hier.pending_doa_evictions);
        let frames = self.page_table.frames();
        for pfn in pending.drain(..) {
            // The block's 4 KB-grain frame may be mapped at any enabled
            // size; the reverse maps resolve it to the page's LLT key.
            let Some((key, stay_doa)) = self.reverse.page_of(frames, pfn) else {
                continue; // page-table frame or unmapped: unclassifiable
            };
            // A resident page's own `Accessed` bit, else its last stay's.
            let resident = self.llt.resident_hits(key.raw()).map(|hits| hits == 0);
            let Some(page_doa) = resident.or(stay_doa) else { continue };
            self.doa_blocks_classified += 1;
            if page_doa {
                self.doa_blocks_on_doa_pages += 1;
            }
        }
        self.hier.pending_doa_evictions = pending;
    }

    /// Assembles the current statistics. Non-destructive: the resident
    /// LLT and LLC entries end their stays only in the deadness read, so
    /// this may be called repeatedly.
    pub fn stats(&self) -> SimStats {
        SimStats {
            instructions: self.core.instructions(),
            mem_ops: self.mem_ops,
            cycles: self.core.cycles(),
            l1i_tlb: self.l1i_tlb.stats,
            l1d_tlb: self.l1d_tlb.stats,
            llt: self.llt.stats,
            l1d: self.hier.l1d.stats,
            l2: self.hier.l2.stats,
            llc: self.hier.llc.stats,
            walks: self.walker.walks,
            walk_pte_loads: self.walker.pte_loads,
            pwc_hits: self.walker.pwc_hits(),
            walk_cycles: self.walker.walk_cycles,
            llt_evictions: self.llt_ledger.evictions,
            llc_evictions: self.hier.llc_ledger.evictions,
            llt_deadness: self.llt_ledger.deadness(&self.llt),
            llc_deadness: self.hier.llc_ledger.deadness(&self.hier.llc),
            doa_blocks_on_doa_pages: self.doa_blocks_on_doa_pages,
            doa_blocks_classified: self.doa_blocks_classified,
            slow_steps: self.slow_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-PC load generator shared by every test below: emits
    /// `remaining` loads at addresses `addr(0), addr(1), …`. The two
    /// constructors cover the patterns the tests need — a strided
    /// single-pass stream (pages never revisited) and a small looping
    /// working set (pages revisited forever).
    struct SyntheticLoads {
        i: u64,
        remaining: u64,
        addr: Box<dyn Fn(u64) -> u64>,
    }

    impl SyntheticLoads {
        /// Single-pass reader from `0x1000_0000` at byte stride `stride`.
        fn strided(stride: u64, remaining: u64) -> Self {
            SyntheticLoads { i: 0, remaining, addr: Box::new(move |i| 0x1000_0000 + i * stride) }
        }

        /// Loop over `pages` consecutive pages from `0x2000_0000`.
        fn looping(pages: u64, remaining: u64) -> Self {
            SyntheticLoads {
                i: 0,
                remaining,
                addr: Box::new(move |i| 0x2000_0000 + (i % pages) * 4096),
            }
        }
    }

    impl Workload for SyntheticLoads {
        fn name(&self) -> &str {
            "synthetic-loads"
        }
        fn next_event(&mut self) -> Option<Event> {
            if self.remaining == 0 {
                return None;
            }
            self.remaining -= 1;
            let va = VirtAddr::new((self.addr)(self.i));
            self.i += 1;
            Some(Event::load(Pc::new(0x40_0000), va))
        }
    }

    fn system() -> System {
        System::new(SystemConfig::paper_baseline()).expect("baseline config is valid")
    }

    /// `(seq, tick)` of every set-associative array in the machine: both
    /// L1 TLB groups' members, the LLT, the PWC levels and the caches.
    fn array_clocks(sys: &System) -> Vec<(u64, u64)> {
        let mut clocks: Vec<(u64, u64)> = Vec::new();
        for group in [&sys.l1i_tlb, &sys.l1d_tlb] {
            clocks.extend(group.arrays().map(|a| (a.seq(), a.tick())));
        }
        let llt = sys.llt.array();
        clocks.push((llt.seq(), llt.tick()));
        clocks.extend(sys.walker.pwc().levels().iter().map(|a| (a.seq(), a.tick())));
        let (l1d, l2, llc) = (sys.hier.l1d.array(), sys.hier.l2.array(), sys.hier.llc.array());
        clocks.extend([(l1d.seq(), l1d.tick()), (l2.seq(), l2.tick()), (llc.seq(), llc.tick())]);
        clocks
    }

    /// The premise of [`crate::set_assoc::MAX_RUN_MEM_OPS`]: no array's
    /// lookup or recency clock advances more than
    /// `MAX_CLOCK_STEPS_PER_MEM_OP` times in one memory operation. The
    /// stream scatters code and data over the whole 48-bit space, so
    /// nearly every operation translates both sides and walks from the
    /// root; at 4 KB the worst case (two four-load walks plus the data
    /// access) is reached, not just bounded.
    #[test]
    fn array_clocks_advance_at_most_the_bound_per_mem_op() {
        use crate::set_assoc::MAX_CLOCK_STEPS_PER_MEM_OP;
        use dpc_types::AllocPolicy;
        let policies = [
            AllocPolicy::Base4K,
            AllocPolicy::uniform(PageSize::Size2M),
            AllocPolicy::Promote2M { threshold: 2 },
        ];
        for policy in policies {
            for fill in [TlbFillPolicy::Both, TlbFillPolicy::L1ThenVictim] {
                let config =
                    SystemConfig::paper_baseline().with_page_policy(policy).with_tlb_fill(fill);
                let mut sys = System::new(config).expect("valid config");
                let mut state = 0x9E37_79B9_7F4A_7C15u64;
                let mut next = move || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    state >> 16
                };
                let mut worst = 0;
                let mut before = array_clocks(&sys);
                for i in 0..4_000u64 {
                    // Every fourth operation revisits a small hot region so
                    // TLB and cache hits, LLT refills and evictions mix in.
                    let (pc, va) = if i.is_multiple_of(4) {
                        (0x40_0000 + (next() % 8) * 4096, 0x1000_0000 + (next() % 64) * 4096)
                    } else {
                        (next() & 0xFFFF_FFFF_F000, next() & 0xFFFF_FFFF_FFC0)
                    };
                    sys.step(Event::load(Pc::new(pc), VirtAddr::new(va)));
                    let after = array_clocks(&sys);
                    for (b, a) in before.iter().zip(&after) {
                        worst = worst.max(a.0 - b.0).max(a.1 - b.1);
                    }
                    before = after;
                }
                assert!(
                    worst <= MAX_CLOCK_STEPS_PER_MEM_OP,
                    "{policy:?}/{fill:?}: a clock advanced {worst} times in one mem-op"
                );
                if policy == AllocPolicy::Base4K {
                    assert_eq!(worst, MAX_CLOCK_STEPS_PER_MEM_OP, "{fill:?}: worst case reached");
                }
            }
        }
    }

    #[test]
    fn conservation_laws() {
        let mut sys = system();
        sys.run(&mut SyntheticLoads::strided(64, 20_000));
        let stats = sys.stats();
        assert_eq!(stats.mem_ops, 20_000);
        for s in [&stats.l1d_tlb, &stats.llt, &stats.l1d, &stats.l2, &stats.llc] {
            assert_eq!(s.hits + s.misses, s.lookups, "hits + misses must equal lookups");
        }
        assert!(stats.cycles > 0);
        assert!(stats.instructions >= stats.mem_ops);
    }

    #[test]
    fn page_locality_hits_l1_tlb() {
        let mut sys = system();
        // 64 accesses per 4 KiB page at stride 64: one TLB miss per page.
        sys.run(&mut SyntheticLoads::strided(64, 6400));
        let stats = sys.stats();
        assert_eq!(stats.l1d_tlb.misses, 100, "one L1 TLB miss per fresh page");
        assert_eq!(stats.walks, 100 + stats.l1i_tlb.misses, "every LLT miss walks");
    }

    #[test]
    fn streaming_pages_are_doa_in_llt() {
        let mut sys = system();
        sys.set_sample_interval(1000);
        // Page-stride stream: each page touched once -> all LLT entries DOA.
        sys.run(&mut SyntheticLoads::strided(4096, 20_000));
        let stats = sys.stats();
        assert!(stats.llt_evictions.total > 0);
        assert!(
            stats.llt_evictions.doa_fraction() > 0.95,
            "single-touch pages must be DOA (got {})",
            stats.llt_evictions.doa_fraction()
        );
        let deadness = stats.llt_deadness;
        assert!(deadness.doa_fraction() > 0.9, "resident entries are DOA-resident");
    }

    #[test]
    fn repeated_small_working_set_is_live() {
        let mut sys = system();
        sys.run(&mut SyntheticLoads::looping(16, 10_000));
        let stats = sys.stats();
        // 16 data pages plus the code page: cold misses only, then hits.
        assert_eq!(stats.llt.misses, 16 + stats.l1i_tlb.misses);
        assert_eq!(stats.walks, stats.llt.misses);
        // Page-stride accesses miss L1/L2 and hit the LLC; throughput is
        // bounded by the 10 line-fill buffers over the ~56-cycle LLC hit.
        assert!(stats.ipc() > 0.15, "ipc = {}", stats.ipc());
    }

    #[test]
    fn stats_are_idempotent() {
        let mut sys = system();
        sys.run(&mut SyntheticLoads::strided(4096, 5000));
        let a = sys.stats();
        let b = sys.stats();
        assert_eq!(a.llt_deadness, b.llt_deadness);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn run_until_bounds_mem_ops() {
        let mut sys = system();
        sys.run_until(&mut SyntheticLoads::strided(64, 1_000_000), 1000);
        let stats = sys.stats();
        assert_eq!(stats.mem_ops, 1000);
    }

    #[test]
    fn reset_stats_keeps_state_warm() {
        let mut sys = system();
        sys.run(&mut SyntheticLoads::strided(64, 6400));
        sys.reset_stats();
        // Re-run over the same pages: everything already mapped; the
        // 400 KiB working set is LLC-resident, so the LLC now hits.
        sys.run(&mut SyntheticLoads::strided(64, 6400));
        let stats = sys.stats();
        assert_eq!(stats.mem_ops, 6400);
        assert_eq!(stats.llt.misses + stats.llt.hits, stats.llt.lookups);
        assert!(stats.llc.hits > 0);
    }

    #[test]
    fn victim_fill_policy_populates_llt_on_l1_eviction() {
        let config = SystemConfig::paper_baseline().with_tlb_fill(TlbFillPolicy::L1ThenVictim);
        let mut sys = System::new(config).unwrap();
        // Touch 100 fresh pages: more than the 64-entry L1 D-TLB, so
        // evictions trickle translations into the LLT.
        sys.run(&mut SyntheticLoads::strided(64, 6400));
        let stats = sys.stats();
        assert!(stats.llt.fills > 0, "L1 evictions must fill the LLT");
        // Re-walk count stays one per page: L1 miss → LLT (victim) hit.
        assert_eq!(stats.walks, stats.llt.misses - stats.llt.shadow_hits);
    }

    #[test]
    fn fill_policies_perform_similarly() {
        // Paper Section III: "we did not find any significant performance
        // difference between these two alternative designs."
        let mut both = System::new(SystemConfig::paper_baseline()).unwrap();
        both.run(&mut SyntheticLoads::strided(4096, 30_000));
        let a = both.stats();
        let config = SystemConfig::paper_baseline().with_tlb_fill(TlbFillPolicy::L1ThenVictim);
        let mut victim = System::new(config).unwrap();
        victim.run(&mut SyntheticLoads::strided(4096, 30_000));
        let b = victim.stats();
        let ratio = a.ipc() / b.ipc();
        assert!((0.9..1.1).contains(&ratio), "IPC ratio {ratio} too far from 1");
    }

    #[test]
    fn run_events_replays_borrowed_streams_identically() {
        use dpc_types::stream::EventStream;
        // Capture exactly the prefix a 3000-mem-op run consumes, then
        // drive a fresh system straight from the borrowed stream.
        let stream =
            EventStream::capture_mem_ops(&mut SyntheticLoads::strided(64, 1_000_000), 3000);
        let mut live_sys = system();
        live_sys.run_until(&mut SyntheticLoads::strided(64, 1_000_000), 3000);
        let live = live_sys.stats();
        let mut replay_sys = system();
        replay_sys.run_events(&mut stream.iter(), 3000);
        let replayed = replay_sys.stats();
        assert_eq!(replayed.mem_ops, 3000);
        assert_eq!(replayed.cycles, live.cycles, "replay must be bit-identical to live");
        assert_eq!(replayed.llt, live.llt);
        assert_eq!(replayed.llc, live.llc);
        // The budget, not the stream end, stops the run: a longer stream
        // replays the same prefix.
        let longer =
            EventStream::capture_mem_ops(&mut SyntheticLoads::strided(64, 1_000_000), 5000);
        let mut prefix_sys = system();
        prefix_sys.run_events(&mut longer.iter(), 3000);
        let prefix = prefix_sys.stats();
        assert_eq!(prefix.cycles, live.cycles);
    }

    #[test]
    fn run_stream_matches_event_at_a_time_replay() {
        // Longer than two EVENT_CHUNKs so chunk boundaries are crossed,
        // with a warm-up/measure split landing mid-chunk.
        let stream = EventStream::capture_mem_ops(&mut SyntheticLoads::strided(4096, 1000), 600);
        let mut item_sys = system();
        let mut item_cursor = stream.iter();
        item_sys.run_events(&mut item_cursor, 100);
        item_sys.reset_stats();
        item_sys.run_events(&mut item_cursor, 500);
        let item = item_sys.stats();

        let mut chunk_sys = system();
        let mut cursor = StreamCursor::default();
        chunk_sys.run_stream(&stream, &mut cursor, 100);
        chunk_sys.reset_stats();
        chunk_sys.run_stream(&stream, &mut cursor, 500);
        let chunked = chunk_sys.stats();

        assert_eq!(chunked.mem_ops, item.mem_ops);
        assert_eq!(chunked.cycles, item.cycles, "batched replay must be bit-identical");
        assert_eq!(chunked.llt, item.llt);
        assert_eq!(chunked.llc, item.llc);
        assert_eq!(cursor.mem_position(), 600);
    }

    /// Chunked replay must fire deadness samples at the same instruction
    /// counts as event-at-a-time replay. A 37-instruction sample interval
    /// puts a boundary inside nearly every chunk-sized stretch of a tiny
    /// looping working set.
    #[test]
    fn run_stream_respects_sampler_boundaries() {
        let stream = EventStream::capture_mem_ops(&mut SyntheticLoads::looping(4, 2000), 800);
        let mut item_sys = system();
        item_sys.set_sample_interval(37);
        item_sys.run_events(&mut stream.iter(), 800);
        let item = item_sys.stats();
        let mut chunk_sys = system();
        chunk_sys.set_sample_interval(37);
        chunk_sys.run_stream(&stream, &mut StreamCursor::default(), 800);
        let chunked = chunk_sys.stats();
        assert_eq!(chunked, item, "chunked replay must be identical to event-at-a-time");
        assert_eq!(chunked.llt_deadness, item.llt_deadness, "same samples at same boundaries");
        assert_eq!(chunked.llc_deadness, item.llc_deadness);
        assert_eq!(chunked.slow_steps, item.slow_steps, "every event goes through step()");
    }

    #[test]
    fn huge_pages_shorten_walks_and_cut_tlb_misses() {
        use dpc_types::AllocPolicy;
        let run = |policy| {
            let config = SystemConfig::paper_baseline().with_page_policy(policy);
            let mut sys = System::new(config).unwrap();
            sys.run(&mut SyntheticLoads::strided(4096, 6400));
            sys.stats()
        };
        let base = run(AllocPolicy::Base4K);
        let two_m = run(AllocPolicy::Uniform(PageSize::Size2M));
        let one_g = run(AllocPolicy::Uniform(PageSize::Size1G));
        for s in [&base, &two_m, &one_g] {
            assert_eq!(s.llt.hits + s.llt.misses, s.llt.lookups);
        }
        // 6400 pages span 13 regions at 2 MB and 1 at 1 GB: almost every
        // access becomes an L1 TLB hit, and the few walks are shorter.
        assert!(two_m.llt.misses < base.llt.misses / 10);
        assert!(one_g.llt.misses < two_m.llt.misses);
        // Far fewer walks, and a smaller total walk burden (count and
        // cycles); per-walk averages are not comparable because the 4 KB
        // run's walks are mostly warm leaf-PWC hits.
        assert!(two_m.walks < base.walks / 10);
        assert!(one_g.walks < two_m.walks);
        assert!(two_m.walk_pte_loads < base.walk_pte_loads);
        assert!(
            two_m.walk_cycles < base.walk_cycles,
            "2 MB total walk cycles must shrink: {} vs {}",
            two_m.walk_cycles,
            base.walk_cycles
        );
        assert!(one_g.walk_cycles < two_m.walk_cycles);
    }

    #[test]
    fn promotion_policy_converges_and_stays_consistent() {
        use dpc_types::AllocPolicy;
        let config = SystemConfig::paper_baseline()
            .with_page_policy(AllocPolicy::Promote2M { threshold: 64 });
        let mut sys = System::new(config).unwrap();
        // Two passes over 100 pages (64 accesses each): regions promote
        // during the first pass, the second runs on 2 MB mappings.
        sys.run(&mut SyntheticLoads::strided(64, 6400));
        let stats = sys.stats();
        assert_eq!(stats.l1d_tlb.hits + stats.l1d_tlb.misses, stats.l1d_tlb.lookups);
        sys.reset_stats();
        sys.run(&mut SyntheticLoads::strided(64, 6400));
        let warm = sys.stats();
        assert_eq!(warm.mem_ops, 6400);
        // Promoted regions cover the working set with one L1 D-TLB entry
        // per 2 MB: the second pass misses (almost) never.
        assert!(
            warm.l1d_tlb.misses < stats.l1d_tlb.misses / 4,
            "promotion must cut L1 D-TLB misses: {} -> {}",
            stats.l1d_tlb.misses,
            warm.l1d_tlb.misses
        );
    }

    #[test]
    fn huge_page_runs_are_deterministic() {
        use dpc_types::AllocPolicy;
        for policy in [
            AllocPolicy::Uniform(PageSize::Size2M),
            AllocPolicy::Uniform(PageSize::Size1G),
            AllocPolicy::Promote2M { threshold: 64 },
        ] {
            let run = || {
                let config = SystemConfig::paper_baseline().with_page_policy(policy);
                let mut sys = System::new(config).unwrap();
                sys.run(&mut SyntheticLoads::strided(1024, 3200));
                sys.stats()
            };
            let a = run();
            let b = run();
            assert_eq!(a.cycles, b.cycles, "{policy:?} must be deterministic");
            assert_eq!(a.llt, b.llt);
            assert_eq!(a.llc, b.llc);
        }
    }

    /// Victimizes way 0 unconditionally, recording every eviction it is
    /// told of, to verify the LLT override plumbing.
    #[derive(Debug, Default)]
    struct AlwaysWayZero {
        evicted: Vec<Vpn>,
    }
    impl crate::policy::LevelPolicy for AlwaysWayZero {
        type Key = Vpn;
        fn overrides_victim(&self) -> bool {
            true
        }
        fn pick_victim(&mut self, _lines: &mut [crate::policy::PolicyLineView]) -> Option<usize> {
            Some(0)
        }
        fn on_evict(&mut self, vpn: Vpn, _state: u32, _accessed: bool) {
            self.evicted.push(vpn);
        }
    }
    impl LltPolicy for AlwaysWayZero {}

    /// The LLT twin of the hierarchy's `policy_victim_override_is_used`:
    /// a full LLT set evicts the way the policy picks, not the base LRU
    /// victim, and the eviction reaches both the policy and the stats.
    #[test]
    fn llt_policy_victim_override_is_used() {
        let config = SystemConfig::paper_baseline();
        let mut sys =
            System::with_typed_policies(config, AlwaysWayZero::default(), NullBlockPolicy)
                .expect("valid config");
        // Pages 128 apart share LLT set 5 (128 sets) and one L1 D-TLB set
        // (4 ways), away from the code page's set 0.
        let sets = sys.llt.array().sets() as u64;
        let vpn = |i: u64| Vpn::new(0x1_0005 + i * sets);
        let load = |i: u64| Event::load(Pc::new(0x40_0000), VirtAddr::new(vpn(i).raw() << 12));
        // Pages 0–7 fill the set (page 0 in way 0); page 0 again misses
        // the L1 D-TLB, hits the LLT and becomes its MRU line, so the
        // base LRU victim is page 1. Page 8 then needs a victim.
        for i in [0, 1, 2, 3, 4, 5, 6, 7, 0, 8] {
            sys.step(load(i));
        }
        assert_eq!(sys.llt_policy().evicted, [vpn(0)], "way 0, not the LRU line, is evicted");
        assert!(!sys.llt.contains(vpn(0).raw()));
        assert!(sys.llt.contains(vpn(1).raw()), "the base policy's victim survives");
        let stats = sys.stats();
        assert_eq!(stats.llt_evictions.total, 1);
        assert_eq!(stats.llt.evictions, 1);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut config = SystemConfig::paper_baseline();
        config.l2_tlb.ways = 0;
        let err = System::new(config).unwrap_err();
        assert!(matches!(err, SystemError::InvalidConfig(_)));
        assert!(err.to_string().contains("l2_tlb"));
    }
}
