//! End-to-end simulator throughput: memory operations per second through
//! the full system (TLBs + walks + caches + timing model) for
//! representative workloads and policy configurations.
//!
//! This benchmark measures the *production* hot path: typed
//! (monomorphized) policies and chunked replay of a pre-captured event
//! stream via [`System::run_stream`] — the same combination every
//! campaign run uses now that the shared trace store is the default
//! event source. Stream capture happens once per workload, outside the
//! timed region, so the numbers isolate simulation throughput from
//! generator throughput (the latter is tracked by the `workloads` and
//! `trace_store` benches).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dpc::prelude::*;
use dpc_types::stream::StreamCursor;

const OPS_PER_ITER: u64 = 20_000;

fn captured_stream(factory: &WorkloadFactory, workload: &str) -> EventStream {
    let mut generator = factory.build(workload).unwrap();
    EventStream::capture_mem_ops(generator.as_mut(), OPS_PER_ITER)
}

fn bench_simulation_throughput(c: &mut Criterion) {
    let config = SystemConfig::paper_baseline();
    let mut group = c.benchmark_group("simulator");
    group.throughput(Throughput::Elements(OPS_PER_ITER));
    group.sample_size(10);

    // canneal/bfs/lbm are the historical gate; mcf and pr are the
    // miss-heavy additions that exercise the walk + refill pipeline
    // rather than the L1-hit path.
    for workload in ["canneal", "bfs", "lbm", "mcf", "pr"] {
        let factory = WorkloadFactory::new(Scale::Tiny, 42);
        let stream = captured_stream(&factory, workload);

        group.bench_function(format!("{workload}_baseline"), |b| {
            b.iter_batched(
                || System::with_typed_policies(config, NullPagePolicy, NullBlockPolicy).unwrap(),
                |mut system| {
                    let mut cursor = StreamCursor::default();
                    system.run_stream(&stream, &mut cursor, OPS_PER_ITER)
                },
                BatchSize::PerIteration,
            );
        });
        group.bench_function(format!("{workload}_dppred_cbpred"), |b| {
            b.iter_batched(
                || {
                    System::with_typed_policies(
                        config,
                        DpPred::paper_default(),
                        CbPred::paper_default(&config.llc),
                    )
                    .unwrap()
                },
                |mut system| {
                    let mut cursor = StreamCursor::default();
                    system.run_stream(&stream, &mut cursor, OPS_PER_ITER)
                },
                BatchSize::PerIteration,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulation_throughput);
criterion_main!(benches);
