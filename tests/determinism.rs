//! Determinism: identical configurations must produce bit-identical
//! statistics, and different seeds must actually change the workloads.

use dpc::prelude::*;

fn run_once(seed: u64, workload: &str, tlb: TlbPolicySel, llc: LlcPolicySel) -> SimStats {
    let factory = WorkloadFactory::new(Scale::Tiny, seed);
    let config = RunConfig::baseline(2_000, 30_000).with_policies(tlb, llc);
    dpc::run_workload(&factory, workload, &config).stats
}

#[test]
fn baseline_runs_are_reproducible() {
    for workload in ["bfs", "canneal", "mcf", "cactusADM", "cg.B"] {
        let a = run_once(7, workload, TlbPolicySel::Baseline, LlcPolicySel::Baseline);
        let b = run_once(7, workload, TlbPolicySel::Baseline, LlcPolicySel::Baseline);
        assert_eq!(a.cycles, b.cycles, "{workload} cycles must be deterministic");
        assert_eq!(a.llt, b.llt, "{workload} LLT counters must be deterministic");
        assert_eq!(a.llc, b.llc, "{workload} LLC counters must be deterministic");
        assert_eq!(a.walks, b.walks);
        assert_eq!(a.llt_deadness, b.llt_deadness);
    }
}

#[test]
fn predictor_runs_are_reproducible() {
    for workload in ["canneal", "sssp"] {
        let a = run_once(3, workload, TlbPolicySel::DpPred, LlcPolicySel::CbPred);
        let b = run_once(3, workload, TlbPolicySel::DpPred, LlcPolicySel::CbPred);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.llt.bypasses, b.llt.bypasses, "{workload} bypass stream");
        assert_eq!(a.llc.bypasses, b.llc.bypasses);
    }
}

#[test]
fn seeds_matter() {
    let a = run_once(1, "canneal", TlbPolicySel::Baseline, LlcPolicySel::Baseline);
    let b = run_once(2, "canneal", TlbPolicySel::Baseline, LlcPolicySel::Baseline);
    assert_ne!(
        (a.cycles, a.llt.misses),
        (b.cycles, b.llt.misses),
        "different seeds must produce different executions"
    );
}

/// The campaign engine's core guarantee: a parallel campaign is
/// bit-identical to a serial one. Renders fig1, fig9 and table4 (plain,
/// oracle, and memo-sharing paths) from a 1-worker and a 4-worker
/// execution of the same plan and compares the rendered bytes.
#[test]
fn parallel_campaign_is_byte_identical_to_serial() {
    use dpc::campaign;
    use dpc::experiments;

    let options = ExperimentOptions {
        scale: Scale::Tiny,
        seed: 42,
        warmup_mem_ops: 500,
        measure_mem_ops: 5_000,
        page_policy: dpc_types::AllocPolicy::Base4K,
    };
    let render_all = |ctx: &mut ExperimentContext| {
        let mut out = String::new();
        out.push_str(&experiments::fig1_llt_deadness(ctx).render());
        out.push_str(&experiments::fig9_tlb_predictor_ipc(ctx).render());
        out.push_str(&experiments::table4_llt_mpki(ctx).render());
        out
    };

    let mut planner = ExperimentContext::planner(options);
    render_all(&mut planner);
    let plan = planner.into_plan();
    assert!(!plan.oracle.is_empty(), "table4 must plan oracle runs");

    let (mut serial, serial_stats) = campaign::execute(options, &plan, 1, false);
    let (mut parallel, parallel_stats) = campaign::execute(options, &plan, 4, false);
    assert_eq!(
        render_all(&mut serial),
        render_all(&mut parallel),
        "4-worker campaign must render byte-identically to 1 worker"
    );
    assert_eq!(serial.runs_performed(), parallel.runs_performed());
    assert_eq!(serial_stats.distinct_runs, parallel_stats.distinct_runs);
    assert_eq!(serial_stats.simulations(), parallel_stats.simulations());
}

/// The executed campaign must also match immediate-mode (memoizing,
/// serial, no planner) execution — the pre-engine code path.
#[test]
fn campaign_matches_immediate_mode_oracle_runs() {
    use dpc::campaign;
    use dpc::experiments;

    let options = ExperimentOptions {
        scale: Scale::Tiny,
        seed: 7,
        warmup_mem_ops: 500,
        measure_mem_ops: 5_000,
        page_policy: dpc_types::AllocPolicy::Base4K,
    };
    let mut planner = ExperimentContext::planner(options);
    experiments::table4_llt_mpki(&mut planner);
    let plan = planner.into_plan();

    let (mut executed, _) = campaign::execute(options, &plan, 3, false);
    let mut immediate = ExperimentContext::new(options);
    assert_eq!(
        experiments::table4_llt_mpki(&mut executed).render(),
        experiments::table4_llt_mpki(&mut immediate).render(),
    );
    assert_eq!(executed.runs_performed(), immediate.runs_performed());
}

/// Regression guard for hash-iteration-order leaks in the oracle tables.
///
/// `DoaRecord`, `LookupRecord` and the replay `cursors` are all backed by
/// `std::collections::HashMap`, whose per-instance `RandomState` makes
/// iteration order differ between two maps holding identical entries. The
/// oracle code only ever accesses those maps by key (audited; see
/// `predictors/src/oracle.rs`), so two completely fresh contexts — each
/// building its own maps with its own hasher seeds — must render the
/// oracle-backed table4 byte-identically. If anyone introduces an
/// order-dependent iteration, the render diverges and this test fails.
#[test]
fn oracle_table_render_is_identical_across_fresh_contexts() {
    use dpc::experiments;

    let options = ExperimentOptions {
        scale: Scale::Tiny,
        seed: 11,
        warmup_mem_ops: 500,
        measure_mem_ops: 5_000,
        page_policy: dpc_types::AllocPolicy::Base4K,
    };
    let render = || {
        let mut ctx = ExperimentContext::new(options);
        experiments::table4_llt_mpki(&mut ctx).render()
    };
    assert_eq!(
        render(),
        render(),
        "oracle table rendering must not depend on HashMap iteration order"
    );
}

/// Runs `workload` under `config` from the trace store (`replay`, chunked
/// `System::run_stream`) and from a live generator (`live`,
/// event-at-a-time `System::run_until`), asserts the two agree on the
/// statistics and both accuracy reports, and returns `(replayed, live)`.
fn replay_and_live(
    replay: &WorkloadFactory,
    live: &WorkloadFactory,
    workload: &str,
    config: &RunConfig,
    label: &str,
) -> (dpc::RunResult, dpc::RunResult) {
    let r = dpc::run_workload(replay, workload, config);
    let l = dpc::run_workload(live, workload, config);
    assert_eq!(r.stats, l.stats, "{label}: replayed stats must match live generation");
    assert_eq!(r.llt_accuracy, l.llt_accuracy, "{label}: TLB accuracy");
    assert_eq!(r.llc_accuracy, l.llc_accuracy, "{label}: LLC accuracy");
    (r, l)
}

/// Runs the two oracle passes of `workload` from the trace store and
/// from a live generator: the recording pass must agree on its
/// statistics and on the lookup trace it freezes, and the Belady pass fed
/// each side's trace must agree on its statistics.
fn oracle_replay_and_live(
    replay: &WorkloadFactory,
    live: &WorkloadFactory,
    workload: &str,
    config: &RunConfig,
    label: &str,
) {
    use dpc::runner::{record_baseline, run_oracle_from_trace};
    let (replay_rec, replay_trace) = record_baseline(replay, workload, config);
    let (live_rec, live_trace) = record_baseline(live, workload, config);
    assert_eq!(replay_rec.stats, live_rec.stats, "{label}: oracle recording pass");
    assert!(replay_trace == live_trace, "{label}: recorded LLT lookup trace");
    let r = run_oracle_from_trace(replay_trace, replay, workload, config);
    let l = run_oracle_from_trace(live_trace, live, workload, config);
    assert_eq!(r.stats, l.stats, "{label}: Belady oracle pass");
}

/// The trace store's core guarantee: replaying a captured stream is
/// bit-identical to generating the events live, all the way through the
/// simulator, both predictors and the two-pass oracle. Runs several
/// workloads twice per factory so the second run exercises the store-hit
/// path too, then sweeps every workload × {baseline, dpPred+cbPred, AIP,
/// oracle} × {4 KB, 2 MB}.
#[test]
fn trace_store_replay_is_byte_identical_to_live_generation() {
    for workload in ["bfs", "canneal", "mcf"] {
        let replay = WorkloadFactory::new(Scale::Tiny, 13);
        let live = WorkloadFactory::new(Scale::Tiny, 13).with_trace_store(false);
        let config = RunConfig::baseline(1_000, 20_000)
            .with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred);
        for pass in 0..2 {
            let label = format!("{workload} pass {pass}");
            let (r, l) = replay_and_live(&replay, &live, workload, &config, &label);
            assert!(l.gen_wall.is_zero(), "live runs never charge capture time");
            if pass == 1 {
                assert!(r.gen_wall.is_zero(), "store hits never charge capture time");
            }
        }
        assert_eq!(replay.trace_store().entries(), 1, "{workload} captured exactly once");
        assert_eq!(live.trace_store().entries(), 0, "disabled store must stay empty");
    }

    let replay = WorkloadFactory::new(Scale::Tiny, 21);
    let live = WorkloadFactory::new(Scale::Tiny, 21).with_trace_store(false);
    let combos = [
        (TlbPolicySel::Baseline, LlcPolicySel::Baseline),
        (TlbPolicySel::DpPred, LlcPolicySel::CbPred),
        (TlbPolicySel::AipTlb, LlcPolicySel::AipLlc),
    ];
    for page in [AllocPolicy::Base4K, AllocPolicy::Uniform(PageSize::Size2M)] {
        let oracle = RunConfig::baseline(500, 6_000)
            .with_system(SystemConfig::paper_baseline().with_page_policy(page));
        for workload in WORKLOAD_NAMES {
            let label = format!("{workload} oracle {page:?}");
            oracle_replay_and_live(&replay, &live, workload, &oracle, &label);
        }
        for (tlb, llc) in combos {
            let config = RunConfig::baseline(500, 6_000)
                .with_policies(tlb, llc)
                .with_system(SystemConfig::paper_baseline().with_page_policy(page));
            for workload in WORKLOAD_NAMES {
                let label = format!("{workload} {tlb:?}/{llc:?} {page:?}");
                replay_and_live(&replay, &live, workload, &config, &label);
            }
        }
    }
}

#[test]
fn oracle_passes_align() {
    // The Belady oracle's premise: the LLT lookup stream is identical
    // across passes. Verify by running the recorder pass twice.
    let f1 = WorkloadFactory::new(Scale::Tiny, 9);
    let f2 = WorkloadFactory::new(Scale::Tiny, 9);
    let config = RunConfig::baseline(0, 40_000);
    let a = dpc::run_workload(&f1, "mcf", &config).stats;
    let b = dpc::run_oracle(&f2, "mcf", &config).stats;
    // Lookup streams identical → identical LLT lookup counts even though
    // the oracle changes hits/misses.
    assert_eq!(a.llt.lookups, b.llt.lookups, "L1-filtered lookup stream is policy-independent");
}
