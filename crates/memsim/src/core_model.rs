//! Mechanistic out-of-order core timing model.
//!
//! The paper evaluates on Sniper's interval core model. We use the same
//! class of approximation: a trace-driven reorder-buffer model in which
//!
//! * instructions dispatch at up to `width` per cycle;
//! * dispatch stalls when the ROB is full until the oldest instruction
//!   retires;
//! * an instruction completes at `dispatch + latency` (compute ops have
//!   latency 1; memory ops get their hierarchy latency);
//! * retirement is in order.
//!
//! The key property this reproduces is **memory-level parallelism**:
//! independent long-latency misses inside one ROB window overlap almost
//! entirely, while misses more than `rob_size` instructions apart
//! serialize. Dependences *within* one access (TLB miss → sequential page
//! walk → data access) are already serialized in the latency the memory
//! system reports.
//!
//! Explicit register dependences between different memory operations are
//! not modeled (every op is assumed independent); this overstates MLP for
//! pointer-chasing codes, which is acceptable for the paper's *relative*
//! comparisons (see DESIGN.md §3).

/// The timing model. Feed it instructions via [`issue`](CoreModel::issue)
/// and read total [`cycles`](CoreModel::cycles) at the end.
#[derive(Clone, Debug)]
pub struct CoreModel {
    width: u64,
    rob_size: usize,
    /// Retire cycle of instruction `i`, stored at `i % rob_size`.
    retire_ring: Vec<u64>,
    /// `count % rob_size`, maintained as a wrapping cursor so the hot
    /// path never divides by the (non-power-of-two) ROB size.
    ring_pos: usize,
    /// Instructions issued so far.
    count: u64,
    /// Cycle in which the next dispatch slot falls.
    dispatch_cycle: u64,
    /// Instructions already dispatched in `dispatch_cycle`.
    dispatched_in_cycle: u64,
    /// Retire cycle of the most recent instruction (monotone).
    last_retire: u64,
    /// Completion cycle of the most recent memory instruction, for
    /// dependent-access serialization.
    last_mem_complete: u64,
    /// Completion cycles of outstanding memory operations, one per
    /// line-fill-buffer slot: the MLP cap.
    mem_slots: Vec<u64>,
}

impl CoreModel {
    /// Creates a core with the given dispatch width, ROB capacity, and
    /// outstanding-memory-operation (MLP) cap.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(width: u32, rob_size: u32, mem_slots: u32) -> Self {
        assert!(
            width > 0 && rob_size > 0 && mem_slots > 0,
            "core width, ROB size and memory slots must be nonzero"
        );
        CoreModel {
            width: u64::from(width),
            rob_size: rob_size as usize,
            retire_ring: vec![0; rob_size as usize],
            ring_pos: 0,
            count: 0,
            dispatch_cycle: 0,
            dispatched_in_cycle: 0,
            last_retire: 0,
            last_mem_complete: 0,
            mem_slots: vec![0; mem_slots as usize],
        }
    }

    #[inline]
    fn dispatch_slot(&mut self) -> u64 {
        // ROB-full stall: instruction `count` cannot dispatch before
        // instruction `count - rob_size` has retired (its retire cycle
        // sits in the ring slot this instruction is about to overwrite).
        if self.count >= self.rob_size as u64 {
            dpc_types::invariant!(self.ring_pos < self.rob_size, "ring cursor wraps at rob_size");
            let oldest_retire = self.retire_ring[self.ring_pos];
            if oldest_retire > self.dispatch_cycle {
                self.dispatch_cycle = oldest_retire;
                self.dispatched_in_cycle = 0;
            }
        }
        let slot = self.dispatch_cycle;
        self.dispatched_in_cycle += 1;
        if self.dispatched_in_cycle >= self.width {
            self.dispatch_cycle += 1;
            self.dispatched_in_cycle = 0;
        }
        slot
    }

    /// Issues one instruction that completes `latency` cycles after
    /// dispatch.
    #[inline]
    pub fn issue(&mut self, latency: u64) {
        let dispatch = self.dispatch_slot();
        let complete = dispatch + latency;
        self.retire(complete);
    }

    /// Issues one *memory* instruction. If `dependent`, its address was
    /// produced by the previous memory instruction, so execution cannot
    /// begin before that instruction completed — the serialization that
    /// bounds MLP in pointer-chasing and gather code. Independent memory
    /// operations still contend for the finite line-fill-buffer slots.
    #[inline]
    pub fn issue_mem(&mut self, latency: u64, dependent: bool) {
        let dispatch = self.dispatch_slot();
        // Acquire the earliest-free memory slot. Dispatch cycles are
        // monotone, so every slot whose `free_at` is already at or before
        // `dispatch` is interchangeable with the true minimum: `start`
        // comes out as `dispatch` either way, and a stale value ≤
        // `dispatch` can never delay a later access. Taking the *first*
        // such slot lets the scan stop after one probe in the common
        // low-MLP case instead of always walking every slot.
        let mut slot_idx = 0;
        let mut slot_free = u64::MAX;
        for (idx, &free_at) in self.mem_slots.iter().enumerate() {
            if free_at <= dispatch {
                slot_idx = idx;
                slot_free = free_at;
                break;
            }
            if free_at < slot_free {
                slot_free = free_at;
                slot_idx = idx;
            }
        }
        let mut start = dispatch.max(slot_free);
        if dependent {
            start = start.max(self.last_mem_complete);
        }
        let complete = start + latency;
        self.mem_slots[slot_idx] = complete;
        self.last_mem_complete = complete;
        self.retire(complete);
    }

    #[inline]
    fn retire(&mut self, complete: u64) {
        if complete > self.last_retire {
            self.last_retire = complete;
        }
        dpc_types::invariant!(self.ring_pos < self.rob_size, "ring cursor wraps at rob_size");
        self.retire_ring[self.ring_pos] = self.last_retire;
        self.ring_pos += 1;
        if self.ring_pos == self.rob_size {
            self.ring_pos = 0;
        }
        self.count += 1;
    }

    /// Issues `n` single-cycle non-memory instructions.
    #[inline]
    pub fn issue_compute(&mut self, n: u64) {
        for _ in 0..n {
            self.issue(1);
        }
    }

    /// Total cycles elapsed: the retire time of the youngest instruction.
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.last_retire
    }

    /// Instructions issued so far.
    #[inline]
    pub fn instructions(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_limits_throughput() {
        let mut core = CoreModel::new(4, 192, 10);
        core.issue_compute(4000);
        // 4000 single-cycle ops at width 4 take ~1000 cycles.
        let cycles = core.cycles();
        assert!((1000..=1010).contains(&cycles), "cycles = {cycles}");
        assert_eq!(core.instructions(), 4000);
    }

    #[test]
    fn single_miss_adds_latency() {
        let mut core = CoreModel::new(4, 192, 10);
        core.issue(200);
        assert_eq!(core.cycles(), 200);
    }

    #[test]
    fn independent_misses_overlap_within_rob() {
        let mut core = CoreModel::new(4, 192, 10);
        core.issue(200);
        core.issue(200);
        // Second miss dispatches in the same cycle (width 4); both complete
        // at ~200, not 400.
        assert!(core.cycles() <= 201, "cycles = {}", core.cycles());
    }

    #[test]
    fn misses_beyond_rob_serialize() {
        let mut core = CoreModel::new(4, 8, 10);
        core.issue(200); // retires at 200
        core.issue_compute(8); // fills the ROB behind the miss
        core.issue(200); // must wait for ROB head: dispatch >= 200
        assert!(core.cycles() >= 400, "cycles = {}", core.cycles());
    }

    #[test]
    fn in_order_retirement_is_monotone() {
        let mut core = CoreModel::new(1, 4, 10);
        core.issue(100);
        core.issue(1); // completes early but retires after the miss
        assert_eq!(core.cycles(), 100);
    }

    #[test]
    fn rob_stall_resets_dispatch_fraction() {
        let mut core = CoreModel::new(2, 2, 10);
        core.issue(50);
        core.issue(50);
        // ROB (2 entries) is full; next instruction waits for the head.
        core.issue(1);
        assert!(core.cycles() >= 51);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_width_rejected() {
        CoreModel::new(0, 1, 1);
    }

    #[test]
    fn dependent_misses_serialize() {
        let mut core = CoreModel::new(4, 192, 10);
        core.issue_mem(200, false);
        core.issue_mem(200, true); // pointer chase: waits for the first
        assert!(core.cycles() >= 400, "cycles = {}", core.cycles());
    }

    #[test]
    fn independent_mem_ops_still_overlap() {
        let mut core = CoreModel::new(4, 192, 10);
        core.issue_mem(200, false);
        core.issue_mem(200, false);
        assert!(core.cycles() <= 201, "cycles = {}", core.cycles());
    }

    #[test]
    fn dependence_chain_resets_after_independent_op() {
        let mut core = CoreModel::new(4, 192, 10);
        core.issue_mem(100, false); // completes ~100
        core.issue_mem(10, true); // completes ~110
        core.issue_mem(100, false); // independent: completes ~100..101
                                    // The third op overlapped with the chain.
        assert!(core.cycles() <= 115, "cycles = {}", core.cycles());
    }

    #[test]
    fn ipc_approaches_width_on_hits() {
        let mut core = CoreModel::new(4, 192, 10);
        // 6-cycle L1-hit-like latencies do not limit a 192-entry ROB.
        for _ in 0..10_000 {
            core.issue(6);
        }
        let ipc = core.instructions() as f64 / core.cycles() as f64;
        assert!(ipc > 3.9, "ipc = {ipc}");
    }
}
