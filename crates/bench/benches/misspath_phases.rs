//! Microbenchmark for the lazy replacement metadata in `SetAssoc`
//! (DESIGN.md §16): hit-promotions buffer in a pending slot and are
//! applied only when the next metadata reader — a fill's victim search —
//! needs them. A `simulator` throughput regression that this group
//! reproduces lives in the metadata machinery rather than the miss path
//! around it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dpc_memsim::cache::Cache;
use dpc_memsim::set_assoc::InsertPriority;
use dpc_types::{BlockAddr, SystemConfig};

/// Lazy-metadata operations per iteration.
const LAZY_OPS: u64 = 8_192;

fn bench_misspath_phases(c: &mut Criterion) {
    let mut group = c.benchmark_group("misspath_phases");
    group.sample_size(20);
    let config = SystemConfig::paper_baseline();

    // Hit-promotions buffer in the SetAssoc pending slot (coalescing
    // repeats, swapping on a new way) and are applied only when a fill's
    // victim search reads the metadata. The mix below — runs of hits
    // across ways punctuated by fills — cycles the buffer through all
    // three of its transitions.
    group.throughput(Throughput::Elements(LAZY_OPS));
    let mut cache = Cache::new(&config.l1d);
    let hot_blocks = u64::from(config.l1d.ways) * 32; // resident working set
    for i in 0..hot_blocks {
        cache.fill(BlockAddr::new(i << 4), InsertPriority::Normal, 0);
    }
    group.bench_function("lazy_apply", |b| {
        let mut fresh = hot_blocks;
        b.iter(|| {
            let mut acc = 0usize;
            for i in 0..LAZY_OPS {
                if i % 64 == 63 {
                    // Force the deferred promotions to apply: the victim
                    // search is a metadata reader.
                    fresh += 1;
                    cache.fill(BlockAddr::new(fresh << 4), InsertPriority::Normal, 0);
                } else if let Some(way) =
                    cache.lookup(black_box(BlockAddr::new((i % hot_blocks) << 4)))
                {
                    acc ^= way;
                }
            }
            acc
        });
    });
    group.finish();
}

criterion_group!(benches, bench_misspath_phases);
criterion_main!(benches);
