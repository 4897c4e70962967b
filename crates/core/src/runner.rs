//! Single-run plumbing: policy selection, warm-up, and result capture.
//!
//! Policy selectors are resolved to *concrete* policy types through the
//! static dispatcher in [`crate::dispatch`], so every run executes a
//! simulator monomorphized for its policy pair.

use crate::dispatch::{dispatch, PolicyApply};
use dpc_memsim::policy::AccuracyReport;
use dpc_memsim::{LlcPolicy, LltPolicy, NullBlockPolicy, SimStats, System, MAX_RUN_MEM_OPS};
use dpc_predictors::{BeladyOracle, DpPredConfig, LookupRecorder, LookupTrace};
use dpc_types::SystemConfig;
use dpc_workloads::{EventSource, WorkloadFactory};
use std::time::Duration;

/// TLB-side policy selector. Selectors are plain values so experiment
/// configurations can be hashed and memoized.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TlbPolicySel {
    /// Plain replacement, no predictor.
    #[default]
    Baseline,
    /// The paper's dpPred with default parameters (adapted to the LLT
    /// geometry).
    DpPred,
    /// dpPred with the shadow table disabled (paper's dpPred−SH).
    DpPredNoShadow,
    /// dpPred with explicit parameters (sensitivity studies).
    DpPredCustom(DpPredConfig),
    /// dpPred under DIP-style set-dueling bypass control (extension).
    DuelingDpPred,
    /// SHiP adapted to the LLT.
    ShipTlb,
    /// Counter-based AIP adapted to the LLT.
    AipTlb,
}

/// LLC-side policy selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum LlcPolicySel {
    /// Plain replacement, no predictor.
    #[default]
    Baseline,
    /// The paper's cbPred with default parameters.
    CbPred,
    /// cbPred without PFQ filtering (paper's cbPred−PF).
    CbPredNoPfq,
    /// cbPred with a custom PFQ capacity (Fig. 11d).
    CbPredPfq(usize),
    /// SHiP-LLC.
    ShipLlc,
    /// AIP-LLC.
    AipLlc,
}

/// One simulation run's configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RunConfig {
    /// Machine configuration.
    pub system: SystemConfig,
    /// TLB-side policy.
    pub tlb_policy: TlbPolicySel,
    /// LLC-side policy.
    pub llc_policy: LlcPolicySel,
    /// Memory operations simulated before statistics are reset.
    pub warmup_mem_ops: u64,
    /// Memory operations measured after warm-up.
    pub measure_mem_ops: u64,
}

impl RunConfig {
    /// Baseline machine with the given event budget.
    pub fn baseline(warmup_mem_ops: u64, measure_mem_ops: u64) -> Self {
        RunConfig {
            system: SystemConfig::paper_baseline(),
            tlb_policy: TlbPolicySel::Baseline,
            llc_policy: LlcPolicySel::Baseline,
            warmup_mem_ops,
            measure_mem_ops,
        }
    }

    /// Returns a copy with the given policies.
    pub fn with_policies(mut self, tlb: TlbPolicySel, llc: LlcPolicySel) -> Self {
        self.tlb_policy = tlb;
        self.llc_policy = llc;
        self
    }

    /// Returns a copy with a different machine configuration.
    pub fn with_system(mut self, system: SystemConfig) -> Self {
        self.system = system;
        self
    }

    /// The run's length, warm-up plus measured memory operations, or
    /// `None` when that sum overflows or exceeds [`MAX_RUN_MEM_OPS`] —
    /// the longest run whose simulated structures' `u32` clocks cannot
    /// wrap.
    pub fn total_mem_ops(&self) -> Option<u64> {
        self.warmup_mem_ops.checked_add(self.measure_mem_ops).filter(|&t| t <= MAX_RUN_MEM_OPS)
    }

    /// [`total_mem_ops`](Self::total_mem_ops), or a panic naming the
    /// limit: a run past it is refused before anything simulates.
    pub(crate) fn checked_total_mem_ops(&self) -> u64 {
        self.total_mem_ops().unwrap_or_else(|| {
            panic!(
                "a run of {} warm-up + {} measured memory operations exceeds the limit of \
                 {MAX_RUN_MEM_OPS}",
                self.warmup_mem_ops, self.measure_mem_ops
            )
        })
    }
}

/// Captured output of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// TLB-side predictor accuracy, when the policy reports one.
    pub llt_accuracy: Option<AccuracyReport>,
    /// LLC-side predictor accuracy, when the policy reports one.
    pub llc_accuracy: Option<AccuracyReport>,
    /// Wall time spent *generating* the event stream, charged to exactly
    /// one run per captured stream: the run whose request performed the
    /// trace-store capture. Zero on store hits and on live (store-off)
    /// runs, where generation is interleaved with simulation and cannot
    /// be split out.
    pub gen_wall: Duration,
}

fn run_system<L: LltPolicy, C: LlcPolicy>(
    mut system: System<L, C>,
    factory: &WorkloadFactory,
    workload: &str,
    config: &RunConfig,
) -> RunResult {
    // One event source for the whole run: a zero-copy replay cursor from
    // the shared trace store (captured once per campaign, covering
    // exactly warmup + measure memory events), or a fresh live generator
    // for a factory built `with_trace_store(false)`. Both yield
    // bit-identical events, so the simulation below cannot tell them
    // apart; the replay side is additionally consumed in decoded chunks
    // (`System::run_stream`), which is bit-identical to event-at-a-time
    // consumption by construction.
    let total_mem_ops = config.checked_total_mem_ops();
    let (source, capture) =
        factory.source(workload, total_mem_ops).expect("experiment uses known workload names");
    // Sample deadness ~200 times over the measured window.
    let approx_instructions = config.measure_mem_ops * 3;
    system.set_sample_interval((approx_instructions / 200).max(1000));
    match source {
        EventSource::Replay(mut cursor) => {
            let (stream, position) = cursor.replay_parts();
            if config.warmup_mem_ops > 0 {
                system.run_stream(stream, position, config.warmup_mem_ops);
                system.reset_stats();
            }
            system.run_stream(stream, position, config.measure_mem_ops);
        }
        EventSource::Live(mut generator) => {
            if config.warmup_mem_ops > 0 {
                system.run_until(generator.as_mut(), config.warmup_mem_ops);
                system.reset_stats();
            }
            system.run_until(generator.as_mut(), config.measure_mem_ops);
        }
    }
    let stats = system.stats();
    RunResult {
        workload: workload.to_owned(),
        llt_accuracy: system.llt_policy().accuracy_report(),
        llc_accuracy: system.llc_policy().accuracy_report(),
        stats,
        gen_wall: capture.charged_wall(),
    }
}

/// The [`PolicyApply`] action behind [`run_workload`]: builds the
/// monomorphized system for the dispatched policy pair and runs it.
struct RunAction<'a> {
    factory: &'a WorkloadFactory,
    workload: &'a str,
    config: &'a RunConfig,
}

impl PolicyApply for RunAction<'_> {
    type Out = RunResult;

    fn apply<L: LltPolicy, C: LlcPolicy>(self, llt: L, llc: C) -> RunResult {
        let system = System::with_typed_policies(self.config.system, llt, llc)
            .expect("experiment configurations are valid");
        run_system(system, self.factory, self.workload, self.config)
    }
}

/// Runs `workload` under `config`, statically dispatched: the policy
/// selectors are resolved to concrete types and the whole simulation
/// loop is monomorphized around them (see [`crate::dispatch`]).
///
/// # Panics
///
/// Panics if the system configuration is invalid or the workload name is
/// unknown — experiment definitions control both — and, before anything
/// simulates, if the run is longer than [`MAX_RUN_MEM_OPS`]
/// ([`RunConfig::total_mem_ops`]).
pub fn run_workload(factory: &WorkloadFactory, workload: &str, config: &RunConfig) -> RunResult {
    dispatch(
        config.tlb_policy,
        config.llc_policy,
        &config.system,
        RunAction { factory, workload, config },
    )
}

/// Runs `workload` once under the policy-free baseline machine of `config`
/// while recording every page's LLT lookup times, returning both the run's
/// results and the frozen lookup trace.
///
/// The recorder changes no replacement decision, so the returned
/// [`RunResult`] is bit-identical to a plain baseline run of
/// `config.with_policies(TlbPolicySel::Baseline, LlcPolicySel::Baseline)` —
/// one recording pass can therefore double as the baseline entry of a
/// memo cache *and* feed [`run_oracle_from_trace`], eliminating the
/// redundant third simulation the old two-pass oracle paid per workload.
pub fn record_baseline(
    factory: &WorkloadFactory,
    workload: &str,
    config: &RunConfig,
) -> (RunResult, LookupTrace) {
    let (recorder, record) = LookupRecorder::new();
    let pass1 = System::with_typed_policies(config.system, recorder, NullBlockPolicy)
        .expect("experiment configurations are valid");
    let result = run_system(pass1, factory, workload, config);
    // `run_system` consumed (and dropped) the system holding the recorder,
    // so freezing moves the map instead of cloning it.
    (result, LookupRecorder::freeze(record))
}

/// Replays `workload` under Belady bypass/replacement, using the lookup
/// times recorded by [`record_baseline`] as perfect lookahead (pass 2 of
/// the paper's Table IV oracle). The LLT lookup stream is
/// policy-independent — the L1 TLBs filter it identically in both passes —
/// so pass-2 lookup indices align exactly with the recorded ones.
pub fn run_oracle_from_trace(
    trace: LookupTrace,
    factory: &WorkloadFactory,
    workload: &str,
    config: &RunConfig,
) -> RunResult {
    let oracle = BeladyOracle::new(
        trace,
        u64::from(config.system.l2_tlb.sets()),
        config.system.l2_tlb.ways as usize,
    );
    let pass2 = System::with_typed_policies(config.system, oracle, NullBlockPolicy)
        .expect("experiment configurations are valid");
    run_system(pass2, factory, workload, config)
}

/// Runs the two-pass approximate oracle (paper Table IV): pass 1 records
/// every page's LLT lookup times under the baseline ([`record_baseline`]);
/// pass 2 replays the workload under Belady bypass/replacement using those
/// times as perfect lookahead ([`run_oracle_from_trace`]).
pub fn run_oracle(factory: &WorkloadFactory, workload: &str, config: &RunConfig) -> RunResult {
    let (_, trace) = record_baseline(factory, workload, config);
    run_oracle_from_trace(trace, factory, workload, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_workloads::Scale;

    fn factory() -> WorkloadFactory {
        WorkloadFactory::new(Scale::Tiny, 42)
    }

    #[test]
    fn baseline_run_produces_stats() {
        let f = factory();
        let config = RunConfig::baseline(1000, 20_000);
        let result = run_workload(&f, "bfs", &config);
        assert_eq!(result.workload, "bfs");
        assert_eq!(result.stats.mem_ops, 20_000);
        assert!(result.llt_accuracy.is_none(), "baseline reports no accuracy");
    }

    #[test]
    fn dppred_run_reports_accuracy() {
        let f = factory();
        let config = RunConfig::baseline(1000, 20_000)
            .with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred);
        let result = run_workload(&f, "canneal", &config);
        assert!(result.llt_accuracy.is_some());
        assert!(result.llc_accuracy.is_some());
    }

    #[test]
    fn oracle_two_pass_runs() {
        let f = factory();
        // Tiny-scale footprints fit in the paper's 1024-entry LLT; shrink
        // it so LLT stays actually end in evictions the recorder can log.
        let mut config = RunConfig::baseline(0, 60_000);
        config.system = config.system.with_l2_tlb_entries(64);
        let oracle = run_oracle(&f, "lbm", &config);
        let base = run_workload(&f, "lbm", &config);
        // lbm's LLT fills are almost all DOA: the oracle must bypass many
        // and not increase misses.
        assert!(oracle.stats.llt.bypasses > 0, "oracle must bypass recorded DOAs");
        assert!(
            oracle.stats.llt.misses <= base.stats.llt.misses * 101 / 100,
            "oracle must not increase LLT misses ({} vs {})",
            oracle.stats.llt.misses,
            base.stats.llt.misses
        );
    }

    #[test]
    fn recording_pass_is_bit_identical_to_baseline() {
        let f = factory();
        let mut config = RunConfig::baseline(1_000, 40_000);
        config.system = config.system.with_l2_tlb_entries(64);
        let plain = run_workload(&f, "mcf", &config);
        let (recorded, trace) = record_baseline(&f, "mcf", &config);
        assert_eq!(plain.stats.cycles, recorded.stats.cycles);
        assert_eq!(plain.stats.llt, recorded.stats.llt);
        assert_eq!(plain.stats.llc, recorded.stats.llc);
        assert_eq!(plain.stats.llt_deadness, recorded.stats.llt_deadness);
        assert!(plain.llt_accuracy.is_none() && recorded.llt_accuracy.is_none());
        assert!(!trace.is_empty(), "recording pass must log lookups");
    }

    #[test]
    fn trace_store_replay_matches_live_generation() {
        let on = factory();
        let off = factory().with_trace_store(false);
        let config = RunConfig::baseline(1_000, 20_000)
            .with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred);
        let replayed = run_workload(&on, "canneal", &config);
        let live = run_workload(&off, "canneal", &config);
        assert_eq!(replayed.stats.cycles, live.stats.cycles, "replay must match live run");
        assert_eq!(replayed.stats.llt, live.stats.llt);
        assert_eq!(replayed.stats.llc, live.stats.llc);
        assert_eq!(replayed.stats.llt_deadness, live.stats.llt_deadness);
        assert!(live.gen_wall.is_zero(), "live runs charge no capture time");
        // A second run of the same key replays the cached stream and
        // charges no further capture time.
        let again = run_workload(&on, "canneal", &config);
        assert!(again.gen_wall.is_zero());
        assert_eq!(again.stats.cycles, replayed.stats.cycles);
    }
}
