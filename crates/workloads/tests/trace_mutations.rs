//! Mutation properties of the trace readers (DPCTRC1 and DPCTRC2).
//!
//! Valid traces are truncated at any cut, bit-flipped, and (v2) given
//! inflated count fields. Every mutant must decode to an `io::Error` or
//! to a trace that replays consistently — never a panic — and the reader
//! may hold at most the input's length plus one `read_bytes` chunk
//! (1 MiB) of heap, however large a count field claims the payload is.
//! The heap is measured per thread, as the harness runs the properties
//! on parallel threads.

// `GlobalAlloc` is an unsafe trait; the exception to
// `unsafe_code = "deny"` is confined to this test harness.
#![allow(unsafe_code)]

use dpc_types::stream::{EventBatch, EventStream, StreamCursor};
use dpc_types::{AccessKind, Event, Pc, VirtAddr};
use dpc_workloads::trace::{TraceWorkload, TraceWriter};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The reader's growth step (`read_bytes` in `dpc_types::stream`).
const CHUNK: usize = 1 << 20;

thread_local! {
    // `const`-initialised and drop-free, so updating them never allocates.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Counts the calling thread's live heap bytes and their peak.
struct CountingAlloc;

fn track(grow: usize, shrink: usize) {
    // `try_with` only fails during thread teardown. Frees of another
    // thread's memory saturate at zero.
    let _ = LIVE.try_with(|live| {
        live.set(live.get().saturating_sub(shrink) + grow);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Decodes a mutant, asserting the heap bound and, when it is accepted,
/// that chunked and event-at-a-time replay agree on every counted event.
/// Returns the decoded events, or `None` for an `io::Error`.
fn decode_mutant(bytes: &[u8]) -> Option<Vec<Event>> {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let result = TraceWorkload::with_name(bytes, "mutant");
    let held = PEAK.with(Cell::get) - start;
    assert!(held <= bytes.len() + CHUNK, "a {}-byte input held {held} B", bytes.len());
    let trace = result.ok()?;
    let stream = trace.stream();
    let events: Vec<Event> = stream.iter().collect();
    assert_eq!(events.len(), stream.mem_events() + stream.compute_events());
    let (mut cursor, mut batch, mut chunked) = (StreamCursor::default(), EventBatch::new(), vec![]);
    loop {
        stream.decode_chunk(&mut cursor, &mut batch, 64, u64::MAX);
        if batch.is_empty() {
            break;
        }
        chunked.extend_from_slice(batch.events());
    }
    assert_eq!(chunked, events, "chunked replay matches event-at-a-time replay");
    Some(events)
}

/// Up to 200 events of the first `kinds` kinds: load, store, dependent
/// load, compute, and the dependent store that v1 cannot represent. PCs
/// and addresses lie below 2^48, the only ones a trace may hold.
fn any_events(kinds: u8) -> impl Strategy<Value = Vec<Event>> {
    let canonical = 0..1u64 << 48;
    let event = (0..kinds, canonical.clone(), canonical, any::<u32>()).prop_map(
        |(kind, pc, vaddr, ops)| {
            let (pc, vaddr) = (Pc::new(pc), VirtAddr::new(vaddr));
            match kind {
                0 => Event::load(pc, vaddr),
                1 => Event::store(pc, vaddr),
                2 => Event::load_dependent(pc, vaddr),
                3 => Event::Compute { ops },
                _ => Event::Mem { pc, vaddr, kind: AccessKind::Write, dependent: true },
            }
        },
    );
    proptest::collection::vec(event, 0..200)
}

/// Encodes `events` as DPCTRC2, or as a legacy DPCTRC1 record stream
/// (whose writer is gone) when `legacy`.
fn encode(events: &[Event], legacy: bool) -> Vec<u8> {
    let mut buf = Vec::new();
    if !legacy {
        let stream: EventStream = events.iter().copied().collect();
        TraceWriter::from_stream(&mut buf, stream).finish().unwrap();
        return buf;
    }
    buf.extend_from_slice(b"DPCTRC1\n");
    for event in events {
        match *event {
            Event::Mem { pc, vaddr, kind, dependent } => {
                buf.push(match (kind, dependent) {
                    (AccessKind::Read, false) => 0,
                    (AccessKind::Write, _) => 1,
                    (AccessKind::Read, true) => 2,
                });
                buf.extend_from_slice(&pc.raw().to_le_bytes());
                buf.extend_from_slice(&vaddr.raw().to_le_bytes());
            }
            Event::Compute { ops } => {
                buf.push(3);
                buf.extend_from_slice(&ops.to_le_bytes());
            }
        }
    }
    buf
}

proptest! {
    /// A truncated v2 trace is an error (its counts promise more bytes
    /// than arrive); a truncated v1 trace is an error or, cut on a
    /// record boundary, a prefix of the recorded events.
    #[test]
    fn truncated_traces_are_errors_or_prefixes(
        events in any_events(4),
        cut in any::<usize>(),
        legacy in any::<bool>(),
    ) {
        let bytes = encode(&events, legacy);
        let cut = cut % bytes.len();
        if let Some(decoded) = decode_mutant(&bytes[..cut]) {
            prop_assert!(legacy, "a {}-byte prefix of a v2 trace decoded", cut);
            prop_assert_eq!(&decoded[..], &events[..decoded.len()]);
        }
        prop_assert_eq!(decode_mutant(&bytes), Some(events));
    }

    /// Bit flips anywhere in either format yield an error or a trace
    /// that replays consistently.
    #[test]
    fn bit_flipped_traces_are_errors_or_consistent(
        events in any_events(5),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..8),
        legacy in any::<bool>(),
    ) {
        let mut bytes = encode(&events, legacy);
        let len = bytes.len();
        for (at, bit) in flips {
            bytes[at % len] ^= 1 << bit;
        }
        decode_mutant(&bytes);
    }

    /// Inflating the v2 event, memory or compute count — alone, or the
    /// event count with one of the others so the counts stay consistent
    /// and the reader goes on to read the inflated arrays — is an error
    /// that never allocates for the claimed length.
    #[test]
    fn inflated_v2_counts_are_errors(
        events in any_events(5),
        fields in prop_oneof![
            Just(vec![0usize]), Just(vec![1]), Just(vec![2]), Just(vec![0, 1]), Just(vec![0, 2])
        ],
        by in prop_oneof![1u64..64, (0u32..64).prop_map(|shift| 1u64 << shift), Just(u64::MAX)],
    ) {
        let mut bytes = encode(&events, false);
        for &field in &fields {
            let at = 8 + 8 * field;
            let count = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            bytes[at..at + 8].copy_from_slice(&count.saturating_add(by).to_le_bytes());
        }
        prop_assert!(decode_mutant(&bytes).is_none(), "inflated counts {:?} decoded", fields);
    }
}
