//! Microbenchmarks for the three vectorized hot-path kernels behind the
//! `dpc_types::simd::enabled()` dispatch: the SoA way-tag compare
//! (`dpc_memsim::simd::match_mask`), the event-stream tag prescan
//! (`dpc_types::simd::classify_tags` as driven by
//! `EventStream::decode_chunk`), and the dpPred negative-feedback row
//! clear (`dpc_predictors::simd::clear_counters`).
//!
//! Each kernel is benched twice — once through the dispatch wrapper
//! (AVX2 on any machine CI runs on) and once through its scalar twin —
//! so `BENCH_simulator.json` records both the vector speedup and a
//! regression tripwire for the scalar path that Miri and non-x86
//! targets run.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dpc_types::stream::{EventBatch, EventStream, StreamCursor};
use dpc_types::SatCounter;
use dpc_workloads::{Scale, WorkloadFactory};

/// Ways per probed set: the LLC organisation (16-way) — the widest and
/// therefore most vector-friendly array the simulator probes.
const WAYS: usize = 16;
/// Sets probed per iteration.
const PROBES: u64 = 4_096;
/// Events decoded per iteration of the decode benches.
const DECODE_MEM_OPS: u64 = 65_536;
/// Chunk size mirroring `System::run_stream`'s `EVENT_CHUNK`.
const EVENT_CHUNK: usize = 256;

/// A tag array shaped like a warm SoA cache: `PROBES` sets of `WAYS`
/// tags with a deterministic mix of hits (needle present) and misses.
fn tag_array() -> Vec<u64> {
    (0..PROBES as usize * WAYS)
        .map(|i| {
            let set = i / WAYS;
            let way = i % WAYS;
            // One matching way in every other set.
            if set.is_multiple_of(2) && way == set % WAYS {
                0xDEAD
            } else {
                (i as u64).wrapping_mul(0x9E37)
            }
        })
        .collect()
}

/// A trained 64-counter pHIST row (the paper's 2^6 PC-hash columns),
/// values staggered across the 3-bit range including saturation.
fn phist_rows() -> Vec<SatCounter> {
    (0..PROBES as usize)
        .map(|i| {
            let mut c = SatCounter::new(3);
            for _ in 0..(i % 9) {
                c.increment();
            }
            c
        })
        .collect()
}

fn bench_simd_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_phases");
    group.throughput(Throughput::Elements(PROBES));
    group.sample_size(20);

    let tags = tag_array();
    group.bench_function("match_mask_dispatch", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for set in 0..PROBES as usize {
                let row = &tags[set * WAYS..(set + 1) * WAYS];
                acc ^= dpc_memsim::simd::match_mask(black_box(row), black_box(0xDEAD));
            }
            acc
        });
    });
    group.bench_function("match_mask_scalar", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for set in 0..PROBES as usize {
                let row = &tags[set * WAYS..(set + 1) * WAYS];
                acc ^= dpc_memsim::simd::match_mask_scalar(black_box(row), black_box(0xDEAD));
            }
            acc
        });
    });

    group.bench_function("counter_clear_dispatch", |b| {
        b.iter_batched_ref(
            phist_rows,
            |rows| {
                for row in rows.chunks_mut(64) {
                    dpc_predictors::simd::clear_counters(black_box(row));
                }
            },
            BatchSize::PerIteration,
        );
    });
    group.bench_function("counter_clear_scalar", |b| {
        b.iter_batched_ref(
            phist_rows,
            |rows| {
                for row in rows.chunks_mut(64) {
                    dpc_predictors::simd::clear_counters_scalar(black_box(row));
                }
            },
            BatchSize::PerIteration,
        );
    });
    // Decode throughput is per decoded mem-op, not per probed set.
    group.throughput(Throughput::Elements(DECODE_MEM_OPS));

    let factory = WorkloadFactory::new(Scale::Tiny, 42);
    let mut workload = factory.build("canneal").expect("canneal workload exists");
    let stream = EventStream::capture_mem_ops(workload.as_mut(), DECODE_MEM_OPS);
    group.bench_function("decode_chunk", |b| {
        let mut batch = EventBatch::with_capacity(EVENT_CHUNK);
        b.iter(|| {
            let mut cursor = StreamCursor::default();
            let mut remaining = DECODE_MEM_OPS;
            let mut events = 0usize;
            while remaining > 0 {
                let taken = stream.decode_chunk(&mut cursor, &mut batch, EVENT_CHUNK, remaining);
                if batch.is_empty() {
                    break;
                }
                events += batch.len();
                remaining -= taken;
            }
            black_box(events)
        });
    });
    group.bench_function("classify_tags_scalar", |b| {
        // The scalar twin of the prescan kernel over the same tag bytes
        // `decode_chunk` classifies, isolated from event materialisation.
        let raw: Vec<u8> = (0..DECODE_MEM_OPS as usize * 2).map(|i| (i % 5) as u8).collect();
        b.iter(|| {
            let mut offset = 0usize;
            let mut mem = 0u64;
            while offset < raw.len() {
                let window = (raw.len() - offset).min(EVENT_CHUNK);
                let (take, took) = dpc_types::simd::classify_tags_scalar(
                    black_box(&raw[offset..offset + window]),
                    black_box(4),
                    u64::MAX,
                );
                offset += take.max(1);
                mem += took;
            }
            black_box(mem)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_simd_phases);
criterion_main!(benches);
