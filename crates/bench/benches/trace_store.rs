//! Replay-from-store vs live-generation: how much event-stream cost the
//! shared `TraceStore` removes from each simulation.
//!
//! Two angles on one graph workload (bfs):
//!
//! * `event_source`: pure event-production throughput — pulling N events
//!   from a fresh live generator vs a zero-copy replay cursor over a
//!   pre-captured stream;
//! * `simulation`: a full baseline simulation fed by each source, the
//!   shape campaign workers actually run.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpc_memsim::System;
use dpc_types::{SystemConfig, Workload};
use dpc_workloads::{Scale, WorkloadFactory};

const MEM_OPS: u64 = 50_000;

fn bench_event_source(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_store_event_source");
    group.throughput(Throughput::Elements(MEM_OPS));
    group.sample_size(10);
    let factory = WorkloadFactory::new(Scale::Tiny, 42);
    // Capture outside the measured loop: campaigns pay this once, then
    // every run replays.
    let (_, report) = factory.stream("bfs", MEM_OPS).expect("known workload");
    assert!(report.captured);

    group.bench_function("live_generation", |b| {
        b.iter(|| {
            let mut workload = factory.build("bfs").expect("known workload");
            let mut mems = 0u64;
            while mems < MEM_OPS {
                match workload.next_event() {
                    Some(event) => {
                        if event.is_mem() {
                            mems += 1;
                        }
                        black_box(event);
                    }
                    None => break,
                }
            }
        });
    });
    group.bench_function("replay_from_store", |b| {
        b.iter(|| {
            let (mut cursor, _) = factory.stream("bfs", MEM_OPS).expect("known workload");
            while let Some(event) = cursor.next_event() {
                black_box(event);
            }
        });
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_store_simulation");
    group.throughput(Throughput::Elements(MEM_OPS));
    group.sample_size(10);
    let replay_factory = WorkloadFactory::new(Scale::Tiny, 42);
    let live_factory = replay_factory.clone().with_trace_store(false);
    let (_, report) = replay_factory.stream("bfs", MEM_OPS).expect("known workload");
    assert!(report.captured);

    for (label, factory) in
        [("live_generation", &live_factory), ("replay_from_store", &replay_factory)]
    {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut system = System::new(SystemConfig::paper_baseline()).expect("valid config");
                let (mut source, _) = factory.source("bfs", MEM_OPS).expect("known workload");
                black_box(system.run_until(&mut source, MEM_OPS));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_event_source, bench_simulation);
criterion_main!(benches);
