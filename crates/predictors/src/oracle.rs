//! The approximate oracle dead-page predictor (paper Table IV).
//!
//! A true oracle needs the full future; the paper approximates it with a
//! lookahead of one eviction. We approximate it in the same spirit with a
//! **two-pass replay**: a recording pass runs the baseline and logs, per
//! page, the DOA outcome of each of its LLT stays in order; the oracle
//! pass replays the same workload and bypasses exactly the fills whose
//! recorded stay was DOA. Because bypassing perturbs subsequent LLT
//! contents the replay is not a perfect oracle — mirroring the paper's own
//! caveat about its approximation.
//!
//! ```
//! use dpc_memsim::{NullBlockPolicy, System};
//! use dpc_predictors::{DoaRecorder, OracleBypass};
//! use dpc_types::SystemConfig;
//!
//! # fn main() -> Result<(), dpc_memsim::SystemError> {
//! let config = SystemConfig::paper_baseline();
//! let (recorder, record) = DoaRecorder::new();
//! let mut pass1 = System::with_typed_policies(config, recorder, NullBlockPolicy)?;
//! // ... run pass1 with the workload, then:
//! let mut pass2 =
//!     System::with_typed_policies(config, OracleBypass::new(record), NullBlockPolicy)?;
//! // ... run pass2 with a fresh instance of the same workload.
//! # let _ = (&mut pass1, &mut pass2);
//! # Ok(()) }
//! ```

use dpc_memsim::policy::{
    EvictedPage, InsertPriority, LltPolicy, PageFillDecision, PolicyLineView,
};
use dpc_types::{Pc, Pfn, Vpn};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Shared per-page stay-outcome log: for each VPN, the DOA-ness of its
/// successive LLT stays in fill order.
///
/// # Determinism audit
///
/// This and the other `HashMap`-backed tables in this module
/// ([`LookupRecord`], [`OracleBypass`]'s replay cursors) must only ever
/// be accessed **by key** (`get`/`get_mut`/`entry`/`insert`): iterating a
/// default-hasher map would expose the per-instance `RandomState` order
/// and break bit-identical replays. `cargo xtask lint`
/// (`determinism::hash-iteration`) enforces this, and
/// `oracle_table_render_is_identical_across_fresh_contexts` in
/// `tests/determinism.rs` regression-tests it end to end.
pub type DoaRecord = Rc<RefCell<HashMap<Vpn, VecDeque<bool>>>>;

/// Pass-1 policy: behaves exactly like the baseline while logging stay
/// outcomes.
#[derive(Debug)]
pub struct DoaRecorder {
    record: DoaRecord,
}

impl DoaRecorder {
    /// Creates the recorder and the shared record to hand to
    /// [`OracleBypass`] afterwards.
    pub fn new() -> (Self, DoaRecord) {
        let record: DoaRecord = Rc::new(RefCell::new(HashMap::new()));
        (DoaRecorder { record: Rc::clone(&record) }, record)
    }
}

impl LltPolicy for DoaRecorder {
    fn policy_name(&self) -> &'static str {
        "oracle-recorder"
    }

    fn on_evict(&mut self, evicted: EvictedPage) {
        self.record.borrow_mut().entry(evicted.vpn).or_default().push_back(!evicted.accessed);
    }
}

/// Pass-2 policy: bypasses fills whose recorded stay was DOA.
#[derive(Debug)]
pub struct OracleBypass {
    record: DoaRecord,
    /// Fills bypassed on oracle knowledge.
    pub bypasses: u64,
    /// Fills with no recorded outcome (record exhausted by perturbation).
    pub unknown_fills: u64,
}

impl OracleBypass {
    /// Creates the oracle policy from a pass-1 record.
    pub fn new(record: DoaRecord) -> Self {
        OracleBypass { record, bypasses: 0, unknown_fills: 0 }
    }
}

impl LltPolicy for OracleBypass {
    fn policy_name(&self) -> &'static str {
        "oracle"
    }

    fn on_fill(&mut self, vpn: Vpn, _pfn: Pfn, _pc: Pc) -> PageFillDecision {
        let doa = {
            let mut record = self.record.borrow_mut();
            match record.get_mut(&vpn) {
                Some(queue) => queue.pop_front(),
                None => None,
            }
        };
        match doa {
            Some(true) => {
                self.bypasses += 1;
                PageFillDecision::Bypass
            }
            Some(false) => PageFillDecision::ALLOCATE,
            None => {
                self.unknown_fills += 1;
                PageFillDecision::ALLOCATE
            }
        }
    }
}

// ---------------------------------------------------------------------
// Belady-style lookahead oracle.
// ---------------------------------------------------------------------

/// Shared per-page LLT-lookup-time log: for each VPN, the global LLT
/// lookup indices at which it was looked up in the recording pass.
///
/// The LLT lookup stream is *identical* across passes because the L1 TLBs
/// (which filter it) are unaffected by the LLT policy, so pass-2 times
/// align exactly with pass-1 times.
pub type LookupRecord = Rc<RefCell<HashMap<Vpn, Vec<u64>>>>;

/// An immutable, `Send + Sync` snapshot of a recording pass's per-page
/// lookup times, ready to be cached across runs and shared between worker
/// threads. Produced by [`LookupRecorder::freeze`], consumed by
/// [`BeladyOracle::new`].
pub type LookupTrace = Arc<HashMap<Vpn, Vec<u64>>>;

/// Pass-1 policy for [`BeladyOracle`]: baseline behaviour while logging
/// every LLT lookup's global index per page.
#[derive(Debug)]
pub struct LookupRecorder {
    record: LookupRecord,
    time: u64,
}

impl LookupRecorder {
    /// Creates the recorder and the shared record to hand to
    /// [`LookupRecorder::freeze`] once the recording pass finishes.
    pub fn new() -> (Self, LookupRecord) {
        let record: LookupRecord = Rc::new(RefCell::new(HashMap::new()));
        (LookupRecorder { record: Rc::clone(&record), time: 0 }, record)
    }

    /// Freezes a finished recording into a shareable [`LookupTrace`].
    /// Cheap (a move, no copy) when the recorder itself has been dropped,
    /// which releases the other `Rc` handle.
    pub fn freeze(record: LookupRecord) -> LookupTrace {
        Arc::new(match Rc::try_unwrap(record) {
            Ok(cell) => cell.into_inner(),
            Err(shared) => shared.borrow().clone(),
        })
    }
}

impl LltPolicy for LookupRecorder {
    fn policy_name(&self) -> &'static str {
        "belady-recorder"
    }

    fn on_lookup(&mut self, vpn: Vpn, _hit: bool) {
        self.time += 1;
        self.record.borrow_mut().entry(vpn).or_default().push(self.time);
    }
}

/// The paper's "oracle with lookahead" (Table IV), realized as Belady
/// bypass/replacement: at each fill the policy knows every page's true
/// next LLT-lookup time (from the recording pass) and
///
/// * **bypasses** the fill if its next use lies further in the future than
///   every resident entry's in its set (allocating could only displace
///   something more useful);
/// * otherwise evicts the resident entry with the farthest next use.
///
/// Unlike a replay of DOA outcomes, this handles thrashing correctly:
/// it retains the subset of a too-large cyclic working set that
/// minimizes misses.
#[derive(Debug)]
pub struct BeladyOracle {
    trace: LookupTrace,
    cursors: HashMap<Vpn, usize>,
    time: u64,
    sets: u64,
    ways: usize,
    /// Mirror of the LLT's contents (the policy decides every victim, so
    /// the mirror stays exact).
    mirror: Vec<Vec<Vpn>>,
    pending_victim: Option<Vpn>,
    /// Fills bypassed on oracle knowledge.
    pub bypasses: u64,
}

impl BeladyOracle {
    /// Creates the oracle for an LLT with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero.
    pub fn new(trace: LookupTrace, sets: u64, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "oracle requires nonzero LLT geometry");
        BeladyOracle {
            trace,
            cursors: HashMap::new(),
            time: 0,
            sets,
            ways,
            mirror: vec![Vec::new(); sets as usize],
            pending_victim: None,
            bypasses: 0,
        }
    }

    /// Next recorded lookup time of `vpn` strictly after the current time
    /// (`u64::MAX` when there is none).
    fn next_use(&mut self, vpn: Vpn) -> u64 {
        let Some(times) = self.trace.get(&vpn) else {
            return u64::MAX;
        };
        let cursor = self.cursors.entry(vpn).or_insert(0);
        while *cursor < times.len() && times[*cursor] <= self.time {
            *cursor += 1;
        }
        times.get(*cursor).copied().unwrap_or(u64::MAX)
    }
}

impl LltPolicy for BeladyOracle {
    fn policy_name(&self) -> &'static str {
        "oracle"
    }

    fn on_lookup(&mut self, _vpn: Vpn, _hit: bool) {
        self.time += 1;
    }

    fn on_fill(&mut self, vpn: Vpn, _pfn: Pfn, _pc: Pc) -> PageFillDecision {
        let set = (vpn.raw() % self.sets) as usize;
        if self.mirror[set].len() < self.ways {
            self.mirror[set].push(vpn);
            self.pending_victim = None;
            return PageFillDecision::ALLOCATE;
        }
        let own_next = self.next_use(vpn);
        // The set's residents are taken out for the scan (`next_use` needs
        // `&mut self`) and put back after, so a fill allocates nothing.
        let mut residents = std::mem::take(&mut self.mirror[set]);
        let mut best = (0usize, 0u64);
        for (idx, &resident) in residents.iter().enumerate() {
            let next = self.next_use(resident);
            if next >= best.1 {
                best = (idx, next);
            }
        }
        let (victim_idx, victim_next) = best;
        let decision = if own_next >= victim_next {
            self.bypasses += 1;
            PageFillDecision::Bypass
        } else {
            self.pending_victim = Some(std::mem::replace(&mut residents[victim_idx], vpn));
            PageFillDecision::Allocate { priority: InsertPriority::Normal, state: 0 }
        };
        self.mirror[set] = residents;
        decision
    }

    fn overrides_victim(&self) -> bool {
        true
    }

    fn pick_victim(&mut self, lines: &mut [PolicyLineView]) -> Option<usize> {
        let victim = self.pending_victim.take()?;
        lines.iter().find(|view| view.tag == victim.raw()).map(|view| view.way)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn evicted(vpn: u64, accessed: bool) -> EvictedPage {
        EvictedPage { vpn: Vpn::new(vpn), pfn: Pfn::new(1), state: 0, accessed }
    }

    #[test]
    fn recorder_logs_in_order() {
        let (mut rec, record) = DoaRecorder::new();
        rec.on_evict(evicted(7, false)); // DOA
        rec.on_evict(evicted(7, true)); // live
        let log = record.borrow();
        assert_eq!(log[&Vpn::new(7)], VecDeque::from([true, false]));
    }

    #[test]
    fn oracle_replays_outcomes_in_order() {
        let (mut rec, record) = DoaRecorder::new();
        rec.on_evict(evicted(7, false));
        rec.on_evict(evicted(7, true));
        let mut oracle = OracleBypass::new(record);
        assert_eq!(oracle.on_fill(Vpn::new(7), Pfn::new(1), Pc::new(0)), PageFillDecision::Bypass);
        assert_eq!(
            oracle.on_fill(Vpn::new(7), Pfn::new(1), Pc::new(0)),
            PageFillDecision::ALLOCATE
        );
        // Record exhausted: default to allocate.
        assert_eq!(
            oracle.on_fill(Vpn::new(7), Pfn::new(1), Pc::new(0)),
            PageFillDecision::ALLOCATE
        );
        assert_eq!(oracle.bypasses, 1);
        assert_eq!(oracle.unknown_fills, 1);
    }

    #[test]
    fn unseen_pages_allocate() {
        let (_rec, record) = DoaRecorder::new();
        let mut oracle = OracleBypass::new(record);
        assert_eq!(
            oracle.on_fill(Vpn::new(42), Pfn::new(1), Pc::new(0)),
            PageFillDecision::ALLOCATE
        );
        assert_eq!(oracle.unknown_fills, 1);
    }

    /// Record lookups for vpns at the given times.
    fn lookup_record(entries: &[(u64, &[u64])]) -> LookupTrace {
        let mut record = HashMap::new();
        for &(vpn, times) in entries {
            record.insert(Vpn::new(vpn), times.to_vec());
        }
        Arc::new(record)
    }

    #[test]
    fn freeze_is_zero_copy_when_recorder_is_dropped() {
        let (mut rec, record) = LookupRecorder::new();
        rec.on_lookup(Vpn::new(3), false);
        rec.on_lookup(Vpn::new(3), true);
        drop(rec);
        let trace = LookupRecorder::freeze(record);
        assert_eq!(trace[&Vpn::new(3)], vec![1, 2]);
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&trace);
    }

    #[test]
    fn belady_fills_empty_ways() {
        let record = lookup_record(&[]);
        let mut oracle = BeladyOracle::new(record, 1, 2);
        assert_eq!(
            oracle.on_fill(Vpn::new(1), Pfn::new(1), Pc::new(0)),
            PageFillDecision::ALLOCATE
        );
        assert_eq!(
            oracle.on_fill(Vpn::new(2), Pfn::new(2), Pc::new(0)),
            PageFillDecision::ALLOCATE
        );
    }

    #[test]
    fn belady_bypasses_never_reused_page_over_useful_residents() {
        // Residents 1 and 2 are re-used soon; page 3 never again.
        let record = lookup_record(&[(1, &[100]), (2, &[50]), (3, &[])]);
        let mut oracle = BeladyOracle::new(record, 1, 2);
        oracle.on_fill(Vpn::new(1), Pfn::new(1), Pc::new(0));
        oracle.on_fill(Vpn::new(2), Pfn::new(2), Pc::new(0));
        assert_eq!(oracle.on_fill(Vpn::new(3), Pfn::new(3), Pc::new(0)), PageFillDecision::Bypass);
        assert_eq!(oracle.bypasses, 1);
    }

    #[test]
    fn belady_evicts_farthest_next_use() {
        // Resident 1 reused at t=100, resident 2 at t=50; incoming 3 at
        // t=10 → evict 1.
        let record = lookup_record(&[(1, &[100]), (2, &[50]), (3, &[10])]);
        let mut oracle = BeladyOracle::new(record, 1, 2);
        oracle.on_fill(Vpn::new(1), Pfn::new(1), Pc::new(0));
        oracle.on_fill(Vpn::new(2), Pfn::new(2), Pc::new(0));
        assert!(matches!(
            oracle.on_fill(Vpn::new(3), Pfn::new(3), Pc::new(0)),
            PageFillDecision::Allocate { .. }
        ));
        let mut views = vec![
            PolicyLineView { way: 0, tag: 1, is_hit: false, state: 0 },
            PolicyLineView { way: 1, tag: 2, is_hit: false, state: 0 },
        ];
        assert_eq!(oracle.pick_victim(&mut views), Some(0), "vpn 1 has the farthest next use");
    }

    #[test]
    fn belady_time_advances_past_lookups() {
        // Page 1 used at t=1 only; after that lookup it has no future use
        // and loses to page 2 (used at t=100).
        let record = lookup_record(&[(1, &[1]), (2, &[100]), (3, &[2, 99])]);
        let mut oracle = BeladyOracle::new(record, 1, 1);
        oracle.on_fill(Vpn::new(1), Pfn::new(1), Pc::new(0));
        oracle.on_lookup(Vpn::new(1), true); // t = 1: page 1's last use
        assert!(
            matches!(
                oracle.on_fill(Vpn::new(3), Pfn::new(3), Pc::new(0)),
                PageFillDecision::Allocate { .. }
            ),
            "page 3 (next use t=2) must displace the finished page 1"
        );
    }
}
