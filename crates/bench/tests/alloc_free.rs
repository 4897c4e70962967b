//! Proof of the zero-allocation contract (DESIGN.md §10): once the
//! simulated machine is warm, processing an event performs **no heap
//! allocations** — not in the SoA arrays, not in the policy-view scratch
//! buffer, and not in the fallback `pick_victim` path.
//!
//! The harness installs a counting `#[global_allocator]` and replays a
//! pre-captured event stream through the same `System` twice: the first
//! pass warms every structure (page-table mappings, reverse maps and
//! eviction vectors reach their steady-state capacity), the second pass is
//! measured and must allocate exactly nothing.
//!
//! The count is per thread: the test harness runs the tests below on
//! parallel threads, and a process-wide counter would charge one test's
//! set-up allocations to the other's measured pass.

// The counting allocator has to implement `GlobalAlloc`, which is an
// unsafe trait; this test crate is exempt from the workspace-wide
// `unsafe_code = "deny"` policy, which the library crates tighten to
// `forbid`.
#![allow(unsafe_code)]

use dpc_memsim::system::System;
use dpc_memsim::{LlcPolicy, LltPolicy};
use dpc_predictors::{AipLlc, AipTlb, CbPred, DpPred, GhostTracker};
use dpc_types::stream::EventStream;
use dpc_types::SystemConfig;
use dpc_workloads::{Scale, WorkloadFactory};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

/// Wraps the system allocator and counts every allocation-side call
/// (alloc, alloc_zeroed, realloc) on the calling thread. Deallocations are
/// not counted: the contract is about *acquiring* memory on the hot path.
struct CountingAlloc;

thread_local! {
    // `const`-initialised and drop-free, so bumping it never allocates
    // and stays valid for the thread's whole life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation-side call on the current thread.
fn count_allocation() {
    // `try_with` only fails during thread teardown, after the last test
    // body on that thread has returned.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation-side calls made by the current thread while running `f`.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const MEM_OPS: u64 = 30_000;

/// Replays `stream` through `sys` once (statistics side effects only).
/// Generic over the policy pair, so one harness covers every
/// monomorphized instantiation.
fn replay<L: LltPolicy, C: LlcPolicy>(sys: &mut System<L, C>, stream: &EventStream) {
    for event in stream {
        sys.step(event);
    }
}

fn assert_event_loop_allocation_free<L: LltPolicy, C: LlcPolicy>(
    label: &str,
    mut sys: System<L, C>,
    stream: &EventStream,
) {
    // Push deadness sampling beyond the horizon: `take_sample` grows a
    // sample vector by design and is not a per-event cost.
    sys.set_sample_interval(1 << 60);
    // Two warm-up passes: the first maps pages and sizes every hash map /
    // vector, the second catches capacity growth triggered by evictions
    // that only start once the arrays are full.
    replay(&mut sys, stream);
    replay(&mut sys, stream);
    let during = allocations_during(|| replay(&mut sys, stream));
    assert_eq!(
        during, 0,
        "{label}: {during} heap allocations in {MEM_OPS} warm mem-ops; \
         the hot path must not allocate per event"
    );
}

#[test]
fn warm_event_loop_never_allocates() {
    let factory = WorkloadFactory::new(Scale::Tiny, 42);
    let mut workload = factory.build("canneal").expect("canneal workload exists");
    let stream = EventStream::capture_mem_ops(workload.as_mut(), MEM_OPS);
    let config = SystemConfig::paper_baseline();

    // Baseline: null policies, gated dispatch.
    let baseline = System::new(config).expect("baseline config is valid");
    assert_event_loop_allocation_free("baseline", baseline, &stream);

    // AIP on both structures: exercises `with_set_views` on every LLT/LLC
    // lookup *and* the policy `pick_victim` override on every fill into a
    // full set — the two paths that previously built per-miss Vecs.
    let aip = System::with_typed_policies(config, AipTlb::paper_default(), AipLlc::paper_default())
        .expect("AIP config is valid");
    assert_event_loop_allocation_free("aip", aip, &stream);

    // The paper's headline configuration on the monomorphized path:
    // dpPred (pHIST + shadow table) and cbPred (bHIST + PFQ + ghost
    // FIFOs) must also reach an allocation-free steady state — their
    // bypass paths drive the System's DOA classification maps, none of
    // which may grow per event once warm. The ghost FIFOs need no
    // warm-up at all: `ghost_trackers_never_allocate` below.
    let dppred_cbpred = System::with_typed_policies(
        config,
        DpPred::paper_default(),
        CbPred::paper_default(&config.llc),
    )
    .expect("dpPred+cbPred config is valid");
    assert_event_loop_allocation_free("dppred_cbpred", dppred_cbpred, &stream);
}

/// The chunked replay front-end (`run_stream`) must uphold the same
/// contract: its decode batch is owned by the `System` and reused across
/// calls, so a warm campaign replay — tag prescan, per-chunk batch
/// refills and all — performs zero heap allocations.
/// This is the path `paper all` drives for every simulation, and the
/// harness drives it the same way: deadness sampling at the runner's
/// rate and `reset_stats` after each warm-up pass. `reset_stats` keeps
/// the samplers' buffers, so a measured pass that takes no more samples
/// than a warm-up pass samples into capacity already grown; the passes
/// here are of equal length. (A measured window longer than its warm-up,
/// as in the paper configuration, still grows the sample buffer.)
#[test]
fn warm_run_stream_never_allocates() {
    let factory = WorkloadFactory::new(Scale::Tiny, 42);
    let mut workload = factory.build("canneal").expect("canneal workload exists");
    let stream = EventStream::capture_mem_ops(workload.as_mut(), MEM_OPS);
    let config = SystemConfig::paper_baseline();

    let mut sys = System::with_typed_policies(
        config,
        DpPred::paper_default(),
        CbPred::paper_default(&config.llc),
    )
    .expect("dpPred+cbPred config is valid");
    // The runner's interval: ~200 samples per measured window, at least
    // one per 1000 instructions.
    sys.set_sample_interval((MEM_OPS * 3 / 200).max(1000));

    let replay_chunked = |sys: &mut System<DpPred, CbPred>| {
        let mut cursor = dpc_types::StreamCursor::default();
        sys.run_stream(&stream, &mut cursor, MEM_OPS);
    };
    // Two warm-up passes, as above: the first maps pages and sizes the
    // structures (including the hoisted decode batch), the second covers
    // growth triggered by steady-state evictions.
    replay_chunked(&mut sys);
    sys.reset_stats();
    replay_chunked(&mut sys);
    sys.reset_stats();
    let during = allocations_during(|| replay_chunked(&mut sys));
    assert_eq!(
        during, 0,
        "run_stream: {during} heap allocations in {MEM_OPS} warm mem-ops; \
         the chunked decode front-end must reuse its event batch"
    );
    let measured = sys.stats();
    assert!(measured.llc_deadness.samples > 0, "the measured window took deadness samples");
}

/// The ghost FIFOs are rings allocated whole at construction, so a
/// freshly built tracker allocates nothing however it is driven: no
/// warm-up pass, unlike the structures above. Both paper geometries
/// (cbPred's 2048×16 LLC tracker, dpPred's 128×8 LLT tracker) take
/// ~100K mixed bypasses, fills and lookups over a tag range narrow
/// enough for ghosts to expire, be re-referenced and repeat in a set.
#[test]
fn ghost_trackers_never_allocate() {
    for (sets, assoc) in [(2048, 16), (128, 8)] {
        let mut tracker = GhostTracker::new(sets, assoc);
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let during = allocations_during(|| {
            for _ in 0..100_000 {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let r = state >> 33;
                let tag = (r >> 2) % (sets * assoc);
                match r % 4 {
                    0 => tracker.note_bypass(tag),
                    1 => tracker.note_fill(tag),
                    _ => {
                        tracker.note_lookup(tag);
                    }
                }
            }
        });
        assert_eq!(during, 0, "{sets}x{assoc} ghost tracker: {during} heap allocations");
        assert!(
            tracker.correct > 0 && tracker.mispredictions > 0,
            "{sets}x{assoc}: no ghost resolved"
        );
    }
}
