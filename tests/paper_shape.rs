//! Paper-shape assertions: qualitative properties the reproduction must
//! exhibit, mirroring the paper's headline claims. These run at Small
//! scale with reduced event budgets, so thresholds are deliberately
//! conservative versions of the paper's numbers.
//!
//! These tests are the slowest in the suite (a few real workload
//! simulations each); they stay minutes-not-hours by sharing one
//! lazily-built factory across the whole binary, so each Small graph is
//! built once, not once per test (replay ≡ live generation is pinned
//! elsewhere, so sharing the trace store changes no result).

use dpc::prelude::*;
use std::sync::OnceLock;

const WARMUP: u64 = 100_000;
const MEASURE: u64 = 400_000;

/// A clone of the binary's one factory: clones share its graphs and
/// trace store.
fn factory() -> WorkloadFactory {
    static FACTORY: OnceLock<WorkloadFactory> = OnceLock::new();
    FACTORY.get_or_init(|| WorkloadFactory::new(Scale::Small, 42)).clone()
}

fn base() -> RunConfig {
    RunConfig::baseline(WARMUP, MEASURE)
}

/// Paper Fig. 1: most LLT entries are dead at any instant, and DOA
/// entries dominate the dead population on average.
#[test]
fn llt_entries_are_mostly_dead() {
    let f = factory();
    let mut dead_sum = 0.0;
    let mut doa_sum = 0.0;
    let workloads = ["canneal", "mcf", "bfs", "sssp", "cactusADM"];
    for w in workloads {
        let stats = dpc::run_workload(&f, w, &base()).stats;
        dead_sum += stats.llt_deadness.dead_fraction();
        doa_sum += stats.llt_deadness.doa_fraction();
    }
    let n = workloads.len() as f64;
    assert!(dead_sum / n > 0.6, "mean LLT dead fraction {:.2} too low", dead_sum / n);
    assert!(doa_sum / n > 0.4, "mean LLT DOA fraction {:.2} too low", doa_sum / n);
}

/// Paper Fig. 2: of the dead LLT entries at eviction, the overwhelming
/// majority are dead-on-arrival (≈86% in the paper).
#[test]
fn doa_dominates_dead_llt_evictions() {
    let f = factory();
    let stats = dpc::run_workload(&f, "canneal", &base()).stats;
    let e = stats.llt_evictions;
    assert!(e.total > 1000, "need a populated eviction sample");
    assert!(
        e.doa as f64 / (e.doa + e.mostly_dead) as f64 > 0.7,
        "DOA must dominate dead evictions ({} DOA vs {} mostly-dead)",
        e.doa,
        e.mostly_dead
    );
}

/// Paper Table III: DOA LLC blocks fall predominantly on DOA pages
/// (72.7% on average in the paper).
#[test]
fn doa_blocks_concentrate_on_doa_pages() {
    let f = factory();
    let mut sum = 0.0;
    let workloads = ["canneal", "mcf", "bfs"];
    for w in workloads {
        let stats = dpc::run_workload(&f, w, &base()).stats;
        assert!(stats.doa_blocks_classified > 100, "{w}: need classified blocks");
        sum += stats.doa_block_page_correlation();
    }
    let mean = sum / workloads.len() as f64;
    assert!(mean > 0.5, "mean block↔page DOA correlation {mean:.2} too low");
}

/// Paper Table IV / Fig. 9: dpPred reduces LLT MPKI on the TLB-bound
/// workloads and never increases it meaningfully.
#[test]
fn dppred_reduces_llt_mpki_without_regressions() {
    let f = factory();
    let mut improved = 0;
    let workloads = ["cactusADM", "sssp", "bfs", "graph500", "canneal", "mcf"];
    for w in workloads {
        let baseline = dpc::run_workload(&f, w, &base()).stats.llt_mpki();
        let dppred = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline),
        )
        .stats
        .llt_mpki();
        assert!(
            dppred <= baseline * 1.02,
            "{w}: dpPred must not increase LLT MPKI ({dppred:.2} vs {baseline:.2})"
        );
        if dppred < baseline * 0.97 {
            improved += 1;
        }
    }
    assert!(improved >= 3, "dpPred must clearly improve several workloads (got {improved})");
}

/// Paper Fig. 10: dpPred+cbPred never hurts IPC; the baselines do hurt
/// somewhere (SHiP-LLC's distant insertions lose badly on scramble-heavy
/// workloads like canneal/mcf).
#[test]
fn combined_predictors_are_consistent_where_baselines_are_not() {
    let f = factory();
    let workloads = ["canneal", "mcf", "bfs", "cactusADM", "cg.B"];
    let mut ship_hurt_somewhere = false;
    for w in workloads {
        let baseline = dpc::run_workload(&f, w, &base()).stats;
        let ours = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred),
        )
        .stats;
        assert!(
            ours.ipc() >= baseline.ipc() * 0.995,
            "{w}: dpPred+cbPred must not lose IPC ({:.3} vs {:.3})",
            ours.ipc(),
            baseline.ipc()
        );
        let ship = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::ShipTlb, LlcPolicySel::ShipLlc),
        )
        .stats;
        // Distant insertion mispredictions show up as extra LLC misses.
        if ship.llc_mpki() > baseline.llc_mpki() * 1.05 {
            ship_hurt_somewhere = true;
        }
    }
    assert!(ship_hurt_somewhere, "SHiP-LLC should regress at least one scramble workload");
}

/// Paper Table IV: the oracle upper-bounds every practical predictor.
#[test]
fn oracle_dominates_dppred() {
    let f = factory();
    for w in ["canneal", "bfs"] {
        let baseline = dpc::run_workload(&f, w, &base()).stats.llt_mpki();
        let dppred = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline),
        )
        .stats
        .llt_mpki();
        let oracle = dpc::run_oracle(&f, w, &base()).stats.llt_mpki();
        assert!(
            oracle <= dppred * 1.01,
            "{w}: oracle ({oracle:.2}) must be at least as good as dpPred ({dppred:.2})"
        );
        assert!(oracle < baseline, "{w}: oracle must beat the baseline");
    }
}

/// Paper Table VII: PFQ pre-filtering buys cbPred its accuracy edge over
/// the unfiltered variant.
#[test]
fn pfq_filtering_raises_cbpred_accuracy() {
    let f = factory();
    let mut filtered_sum = 0.0;
    let mut unfiltered_sum = 0.0;
    let mut counted = 0;
    for w in ["canneal", "mcf", "bc"] {
        let with_pfq = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred),
        );
        let without = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPredNoPfq),
        );
        let (Some(a), Some(b)) = (with_pfq.llc_accuracy, without.llc_accuracy) else {
            continue;
        };
        if a.predictions > 50 && b.predictions > 50 {
            filtered_sum += a.accuracy();
            unfiltered_sum += b.accuracy();
            counted += 1;
        }
    }
    assert!(counted >= 2, "need at least two workloads with predictions");
    assert!(
        filtered_sum >= unfiltered_sum,
        "PFQ filtering must not lower mean accuracy ({filtered_sum:.2} vs {unfiltered_sum:.2})"
    );
}

/// Paper Fig. 11a: cactusADM thrashes LLTs up to 1536 entries (its
/// cyclic working set is larger), and a sufficiently large LLT finally
/// absorbs it.
#[test]
fn cactus_thrash_recovers_with_a_big_enough_llt() {
    let f = factory();
    let small = dpc::run_workload(&f, "cactusADM", &base()).stats;
    let mut big_config = base();
    big_config.system = big_config.system.with_l2_tlb_entries(4096);
    let big = dpc::run_workload(&f, "cactusADM", &big_config).stats;
    assert!(
        big.llt.hit_rate() > small.llt.hit_rate() + 0.2,
        "4096 entries must largely absorb the cyclic working set ({:.2} vs {:.2})",
        big.llt.hit_rate(),
        small.llt.hit_rate()
    );
    // And dpPred keeps helping at the thrashing sizes.
    let dp = dpc::run_workload(
        &f,
        "cactusADM",
        &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline),
    )
    .stats;
    assert!(
        dp.llt_mpki() < small.llt_mpki() * 0.95,
        "dpPred must cut cactus LLT MPKI under thrash ({:.1} vs {:.1})",
        dp.llt_mpki(),
        small.llt_mpki()
    );
}

/// Paper Section V-C: the predictors must not add latency — bypassing
/// plus shadow serving should never slow the TLB path down.
#[test]
fn predictors_never_slow_the_machine_dramatically() {
    let f = factory();
    for w in ["lbm", "Triangle", "KCore"] {
        let baseline = dpc::run_workload(&f, w, &base()).stats.ipc();
        let ours = dpc::run_workload(
            &f,
            w,
            &base().with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred),
        )
        .stats
        .ipc();
        assert!(
            (ours / baseline - 1.0).abs() < 0.05,
            "{w}: low-opportunity workloads must be near-neutral ({ours:.3} vs {baseline:.3})"
        );
    }
}
