//! Microbenchmarks for the individual predictor phases the system hot
//! path exercises on every LLT/LLC fill and eviction: the dpPred pHIST
//! lookup (`on_fill`), the cbPred bHIST lookup (`on_fill` with PFQ
//! disabled so the counter read dominates), the dpPred shadow-table hit
//! path (`shadow_lookup`), the cbPred PFQ probe (`on_fill` against a
//! full PFQ), and for comparison the fill decisions of the SHiP and AIP
//! baseline predictors.
//!
//! These phases are what the monomorphized dispatch inlines into the
//! event loop. The repository benchmark (`perfbench`, gated by `cargo
//! xtask bench-gate`) prices the predictors only as the difference of
//! two whole-run medians, which is noisy enough to read negative; these
//! groups price each predictor structure on its own.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dpc_memsim::{EvictedPage, LlcPolicy, LltPolicy};
use dpc_predictors::{AipTlb, CbPred, DpPred, ShipLlc, ShipTlb};
use dpc_types::{BlockAddr, Pc, Pfn, SystemConfig, Vpn};

const PROBES: u64 = 4_096;

/// A dpPred whose pHIST has seen a mix of DOA and live evictions, so
/// `on_fill` takes both the bypass and allocate branches.
fn trained_dppred() -> DpPred {
    let mut pred = DpPred::paper_default();
    for i in 0..2 * PROBES {
        let vpn = Vpn::new(i % PROBES);
        let pc_hash = (i % 64) as u32;
        pred.on_evict(EvictedPage { vpn, pfn: Pfn::new(i), state: pc_hash, accessed: i % 3 == 0 });
    }
    pred
}

fn bench_predictor_phases(c: &mut Criterion) {
    let config = SystemConfig::paper_baseline();
    let mut group = c.benchmark_group("predictor_phases");
    group.throughput(Throughput::Elements(PROBES));
    group.sample_size(20);

    group.bench_function("phist_lookup", |b| {
        b.iter_batched_ref(
            trained_dppred,
            |pred| {
                for i in 0..PROBES {
                    black_box(pred.on_fill(Vpn::new(i), Pfn::new(i), Pc::new(i % 64)));
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("bhist_lookup", |b| {
        b.iter_batched_ref(
            // PFQ disabled: every fill goes straight to the bHIST.
            || CbPred::without_pfq(&config.llc),
            |pred| {
                for i in 0..PROBES {
                    black_box(pred.on_fill(BlockAddr::new(i << 3), Pc::new(0)));
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("shadow_hit", |b| {
        b.iter_batched_ref(
            || {
                let mut pred = DpPred::paper_default();
                let entries = pred.config().shadow_entries as u64;
                for i in 0..entries {
                    pred.on_bypass(Vpn::new(i), Pfn::new(i));
                }
                (pred, entries)
            },
            |(pred, entries)| {
                for i in 0..PROBES {
                    let vpn = Vpn::new(i % *entries);
                    // Hit path: serve the entry, then reinstall it so the
                    // next probe of this VPN hits again.
                    if black_box(pred.shadow_lookup(vpn)).is_some() {
                        pred.on_bypass(vpn, Pfn::new(i));
                    }
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("pfq_probe", |b| {
        b.iter_batched_ref(
            || {
                let mut pred = CbPred::paper_default(&config.llc);
                let entries = pred.config().pfq_entries as u64;
                for i in 0..entries {
                    pred.note_doa_page(Pfn::new(i));
                }
                (pred, entries)
            },
            |(pred, entries)| {
                for i in 0..PROBES {
                    // Alternate PFQ hits (blocks on queued DOA pages) and
                    // misses (pages far outside the queue).
                    let pfn = if i % 2 == 0 { i % *entries } else { i + (1 << 20) };
                    let addr = (pfn << 12) | ((i % 64) << 6);
                    black_box(pred.on_fill(BlockAddr::new(addr >> 6), Pc::new(0)));
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("ship_tlb_fill", |b| {
        b.iter_batched_ref(
            ShipTlb::paper_default,
            |pred| {
                for i in 0..PROBES {
                    black_box(pred.on_fill(
                        Vpn::new(i),
                        Pfn::new(i),
                        Pc::new(0x40_0000 + (i % 13) * 4),
                    ));
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("ship_llc_fill", |b| {
        b.iter_batched_ref(
            || ShipLlc::for_cache(&config.llc),
            |pred| {
                for i in 0..PROBES {
                    black_box(pred.on_fill(BlockAddr::new(i << 3), Pc::new(0x40_0000)));
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.bench_function("aip_tlb_fill", |b| {
        b.iter_batched_ref(
            AipTlb::paper_default,
            |pred| {
                for i in 0..PROBES {
                    black_box(pred.on_fill(Vpn::new(i), Pfn::new(i), Pc::new(0x40_0000)));
                }
            },
            BatchSize::PerIteration,
        );
    });

    group.finish();
}

criterion_group!(benches, bench_predictor_phases);
criterion_main!(benches);
