//! Definitions of every experiment in the paper's evaluation: Figures 1–4
//! and 9–11, Tables III–VII, and the storage-overhead comparison.
//!
//! Each function regenerates one table or figure as an [`ExpTable`] whose
//! rows follow the paper's Table II workload order. Runs are memoized in
//! the [`ExperimentContext`] so, e.g., Table IV reuses Figure 9's runs.

use crate::report::{ExpTable, Summary};
use crate::runner::{
    record_baseline, run_oracle_from_trace, run_workload, LlcPolicySel, RunConfig, RunResult,
    TlbPolicySel,
};
use dpc_memsim::SimStats;
use dpc_predictors::storage;
use dpc_predictors::{DpPredConfig, LookupTrace};
use dpc_types::{AllocPolicy, ReplacementKind, SystemConfig, TlbFillPolicy};
use dpc_workloads::{Scale, WorkloadFactory, WORKLOAD_NAMES};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt::{self, Write as _};
use std::num::NonZeroU64;
use std::str::FromStr;
use std::sync::Arc;

/// An environment knob set to a value it does not accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable's name, e.g. `DPC_SCALE`.
    pub name: &'static str,
    /// The rejected value.
    pub value: String,
    /// The values the knob accepts.
    pub expected: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not accepted; expected {}", self.name, self.value, self.expected)
    }
}

impl Error for EnvError {}

/// Reads the process environment variable `name`. A value that is not
/// valid Unicode is passed on lossily, so the knob's parser rejects it
/// instead of it reading as unset.
pub(crate) fn env_var(name: &str) -> Option<String> {
    std::env::var_os(name).map(|value| value.to_string_lossy().into_owned())
}

/// Parses knob `name`'s `value` as a `T`, or names the accepted values.
pub(crate) fn parse_knob<T: FromStr>(
    name: &'static str,
    value: String,
    expected: &'static str,
) -> Result<T, EnvError> {
    value.parse().map_err(|_| EnvError { name, value, expected })
}

/// Global options for an experiment campaign.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentOptions {
    /// Input scale for all workloads.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Warm-up memory operations per run.
    pub warmup_mem_ops: u64,
    /// Measured memory operations per run.
    pub measure_mem_ops: u64,
    /// Page-size policy applied to every machine in the campaign
    /// (baseline and predictor runs alike, so comparisons stay
    /// like-for-like). [`AllocPolicy::Base4K`] reproduces the paper's
    /// byte-identical output.
    pub page_policy: AllocPolicy,
}

impl ExperimentOptions {
    /// Defaults used by the `paper` harness: Small scale, 200K warm-up,
    /// 1M measured operations.
    pub fn quick() -> Self {
        ExperimentOptions {
            scale: Scale::Small,
            seed: 42,
            warmup_mem_ops: 200_000,
            measure_mem_ops: 1_000_000,
            page_policy: AllocPolicy::Base4K,
        }
    }

    /// Reads overrides from the environment: `DPC_SCALE`
    /// (`tiny`/`small`/`paper`), `DPC_WARMUP` (a non-negative integer),
    /// `DPC_MEASURE` (a positive integer: an empty measured window has no
    /// rates to report), `DPC_SEED`, `DPC_PAGE_SIZE` (`4k`/`2m`/`1g`).
    ///
    /// # Errors
    ///
    /// Returns [`EnvError`] for the first knob set to a value it does not
    /// accept; a bad value is never replaced by the default.
    pub fn from_env() -> Result<Self, EnvError> {
        Self::from_lookup(env_var)
    }

    /// [`ExperimentOptions::from_env`] over an injected variable lookup.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, EnvError> {
        const COUNT: &str = "a non-negative integer";
        let mut opts = Self::quick();
        if let Some(value) = lookup("DPC_SCALE") {
            opts.scale = match value.as_str() {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                "paper" => Scale::Paper,
                _ => {
                    return Err(EnvError {
                        name: "DPC_SCALE",
                        value,
                        expected: "tiny, small or paper",
                    })
                }
            };
        }
        if let Some(value) = lookup("DPC_WARMUP") {
            opts.warmup_mem_ops = parse_knob("DPC_WARMUP", value, COUNT)?;
        }
        if let Some(value) = lookup("DPC_MEASURE") {
            opts.measure_mem_ops =
                parse_knob::<NonZeroU64>("DPC_MEASURE", value, "a positive integer")?.get();
        }
        if let Some(value) = lookup("DPC_SEED") {
            opts.seed = parse_knob("DPC_SEED", value, COUNT)?;
        }
        if let Some(value) = lookup("DPC_PAGE_SIZE") {
            let size = parse_knob("DPC_PAGE_SIZE", value, "4k, 2m or 1g")?;
            opts.page_policy = AllocPolicy::uniform(size);
        }
        Ok(opts)
    }

    /// The baseline machine of this campaign: the paper machine under the
    /// campaign's page policy. Every experiment derives its machine
    /// variants from this (never from a bare
    /// [`SystemConfig::paper_baseline`]) so sensitivity sweeps inherit the
    /// page-size axis.
    pub fn base_system(&self) -> SystemConfig {
        SystemConfig::paper_baseline().with_page_policy(self.page_policy)
    }

    /// The run configuration implied by these options (baseline machine).
    pub fn base_run(&self) -> RunConfig {
        RunConfig::baseline(self.warmup_mem_ops, self.measure_mem_ops)
            .with_system(self.base_system())
    }

    /// `title`, tagged with the page-size axis when it is not the paper
    /// default — so reports from different campaigns are unambiguous.
    pub fn titled(&self, title: &str) -> String {
        if self.page_policy.is_default() {
            title.to_owned()
        } else {
            format!("{title} [page={}]", self.page_policy)
        }
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self::quick()
    }
}

/// Memo key: one distinct simulation.
pub type RunKey = (String, RunConfig);

/// The deduplicated set of simulations an experiment selection needs,
/// produced by replaying experiment functions against a planning context
/// ([`ExperimentContext::planner`]) and consumed by the parallel executor
/// in [`crate::campaign`].
#[derive(Clone, Debug, Default)]
pub struct CampaignPlan {
    /// Plain runs, in first-request order.
    pub plain: Vec<RunKey>,
    /// Oracle runs, in first-request order.
    pub oracle: Vec<RunKey>,
}

impl CampaignPlan {
    /// Total number of distinct memoized runs the plan will produce.
    pub fn distinct_runs(&self) -> usize {
        self.plain.len() + self.oracle.len()
    }

    /// The baseline key whose recording pass feeds an oracle run: the same
    /// machine and event budget with both policy selectors stripped.
    pub fn baseline_key_for(key: &RunKey) -> RunKey {
        (key.0.clone(), key.1.with_policies(TlbPolicySel::Baseline, LlcPolicySel::Baseline))
    }
}

#[derive(Debug, Default)]
struct PlanRecorder {
    plain: Vec<RunKey>,
    oracle: Vec<RunKey>,
    seen_plain: HashSet<RunKey>,
    seen_oracle: HashSet<RunKey>,
}

/// Memoizing run context shared by an experiment campaign.
///
/// Memo values are `Arc<RunResult>`, so recalling a run shares the stored
/// result instead of deep-cloning its full `SimStats`. A context operates
/// in one of two modes:
///
/// * **immediate** (the default, [`ExperimentContext::new`]): `run` /
///   `run_oracle` simulate on first request and memoize;
/// * **planning** ([`ExperimentContext::planner`]): requests are recorded
///   into a [`CampaignPlan`] and answered with zeroed placeholder results,
///   without simulating. Replaying the experiment functions against a
///   planning context enumerates exactly the distinct runs they need; the
///   campaign executor then simulates those runs concurrently and hands
///   back an immediate-mode context preloaded with every result.
#[derive(Debug)]
pub struct ExperimentContext {
    options: ExperimentOptions,
    factory: WorkloadFactory,
    cache: HashMap<RunKey, Arc<RunResult>>,
    oracle_cache: HashMap<RunKey, Arc<RunResult>>,
    /// Lookup traces recorded by oracle pass 1, keyed by the baseline key,
    /// so repeated oracle configs per workload re-record nothing.
    traces: HashMap<RunKey, LookupTrace>,
    plan: Option<PlanRecorder>,
}

impl ExperimentContext {
    /// Creates an immediate-mode context.
    pub fn new(options: ExperimentOptions) -> Self {
        ExperimentContext {
            factory: WorkloadFactory::new(options.scale, options.seed),
            options,
            cache: HashMap::new(),
            oracle_cache: HashMap::new(),
            traces: HashMap::new(),
            plan: None,
        }
    }

    /// Creates a planning context: `run` / `run_oracle` record the
    /// requested keys instead of simulating. Retrieve the result with
    /// [`ExperimentContext::into_plan`].
    pub fn planner(options: ExperimentOptions) -> Self {
        let mut ctx = Self::new(options);
        ctx.plan = Some(PlanRecorder::default());
        ctx
    }

    /// Creates an immediate-mode context preloaded with executed results
    /// (the campaign executor's output). The preloaded runs count as
    /// performed.
    pub(crate) fn with_results(
        options: ExperimentOptions,
        factory: WorkloadFactory,
        cache: HashMap<RunKey, Arc<RunResult>>,
        oracle_cache: HashMap<RunKey, Arc<RunResult>>,
    ) -> Self {
        ExperimentContext {
            options,
            factory,
            cache,
            oracle_cache,
            traces: HashMap::new(),
            plan: None,
        }
    }

    /// The campaign options.
    pub fn options(&self) -> &ExperimentOptions {
        &self.options
    }

    /// The plan accumulated by a planning context ([`Self::planner`]);
    /// empty for immediate-mode contexts.
    pub fn into_plan(self) -> CampaignPlan {
        match self.plan {
            Some(recorder) => CampaignPlan { plain: recorder.plain, oracle: recorder.oracle },
            None => CampaignPlan::default(),
        }
    }

    /// Zeroed stand-in returned while planning. Experiment functions only
    /// push derived `f64`s into tables, so zeroed counters are safe.
    fn placeholder(workload: &str) -> Arc<RunResult> {
        Arc::new(RunResult {
            workload: workload.to_owned(),
            stats: SimStats::default(),
            llt_accuracy: None,
            llc_accuracy: None,
            gen_wall: std::time::Duration::ZERO,
        })
    }

    /// Runs (or recalls) `workload` under `config`.
    pub fn run(&mut self, workload: &str, config: RunConfig) -> Arc<RunResult> {
        let key = (workload.to_owned(), config);
        if let Some(plan) = &mut self.plan {
            if plan.seen_plain.insert(key.clone()) {
                plan.plain.push(key);
            }
            return Self::placeholder(workload);
        }
        if let Some(hit) = self.cache.get(&key) {
            return Arc::clone(hit);
        }
        let result = Arc::new(run_workload(&self.factory, workload, &config));
        self.cache.insert(key, Arc::clone(&result));
        result
    }

    /// Runs (or recalls) the two-pass oracle. The recording pass doubles
    /// as the plain baseline run of the same machine: its result lands in
    /// the plain memo and its lookup trace is cached, so later baseline
    /// recalls and further oracle configs re-simulate nothing.
    pub fn run_oracle(&mut self, workload: &str, config: RunConfig) -> Arc<RunResult> {
        let key = (workload.to_owned(), config);
        if let Some(plan) = &mut self.plan {
            if plan.seen_oracle.insert(key.clone()) {
                plan.oracle.push(key);
            }
            return Self::placeholder(workload);
        }
        if let Some(hit) = self.oracle_cache.get(&key) {
            return Arc::clone(hit);
        }
        let baseline_key = CampaignPlan::baseline_key_for(&key);
        let trace = match self.traces.get(&baseline_key) {
            Some(trace) => Arc::clone(trace),
            None => {
                let (result, trace) = record_baseline(&self.factory, workload, &config);
                self.cache.entry(baseline_key.clone()).or_insert_with(|| Arc::new(result));
                self.traces.insert(baseline_key, Arc::clone(&trace));
                trace
            }
        };
        let result = Arc::new(run_oracle_from_trace(trace, &self.factory, workload, &config));
        self.oracle_cache.insert(key, Arc::clone(&result));
        result
    }

    /// Number of distinct simulations performed so far.
    pub fn runs_performed(&self) -> usize {
        self.cache.len() + self.oracle_cache.len()
    }
}

fn pct(fraction: f64) -> f64 {
    fraction * 100.0
}

/// Percentage reduction of `new` relative to `base` (positive = better).
fn reduction_pct(base: f64, new: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

// ---------------------------------------------------------------------
// Characterization (Figs. 1-4, Table III).
// ---------------------------------------------------------------------

/// Fig. 1: fraction of LLT entries dead / DOA at any time (sampled).
pub fn fig1_llt_deadness(ctx: &mut ExperimentContext) -> ExpTable {
    let config = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 1: % of LLT entries dead / DOA at any time (sampled residents)"),
        vec!["dead %".into(), "DOA %".into()],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let r = ctx.run(name, config);
        let d = r.stats.llt_deadness;
        table.push(name, vec![pct(d.dead_fraction()), pct(d.doa_fraction())]);
    }
    table
}

/// Fig. 2: classification of LLT entries at eviction.
pub fn fig2_llt_eviction_classes(ctx: &mut ExperimentContext) -> ExpTable {
    let config = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 2: classification of LLT entries at eviction (% of evictions)"),
        vec!["dead %".into(), "DOA %".into(), "mostly-dead %".into()],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let r = ctx.run(name, config);
        let e = r.stats.llt_evictions;
        table.push(
            name,
            vec![
                pct(e.dead_fraction()),
                pct(e.doa_fraction()),
                pct(e.dead_fraction() - e.doa_fraction()),
            ],
        );
    }
    table
}

/// Fig. 3: fraction of LLC blocks dead / DOA at any time (sampled).
pub fn fig3_llc_deadness(ctx: &mut ExperimentContext) -> ExpTable {
    let config = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 3: % of LLC blocks dead / DOA at any time (sampled residents)"),
        vec!["dead %".into(), "DOA %".into()],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let r = ctx.run(name, config);
        let d = r.stats.llc_deadness;
        table.push(name, vec![pct(d.dead_fraction()), pct(d.doa_fraction())]);
    }
    table
}

/// Fig. 4: classification of LLC blocks at eviction.
pub fn fig4_llc_eviction_classes(ctx: &mut ExperimentContext) -> ExpTable {
    let config = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 4: classification of LLC blocks at eviction (% of evictions)"),
        vec!["dead %".into(), "DOA %".into(), "mostly-dead %".into()],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let r = ctx.run(name, config);
        let e = r.stats.llc_evictions;
        table.push(
            name,
            vec![
                pct(e.dead_fraction()),
                pct(e.doa_fraction()),
                pct(e.dead_fraction() - e.doa_fraction()),
            ],
        );
    }
    table
}

/// Table III: % of LLC DOA blocks that map onto a DOA page in the LLT.
pub fn table3_doa_correlation(ctx: &mut ExperimentContext) -> ExpTable {
    let config = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Table III: % of LLC DOA blocks that map onto a DOA page in the LLT"),
        vec!["LLC blocks %".into()],
        Summary::Mean,
        2,
    );
    for name in WORKLOAD_NAMES {
        let r = ctx.run(name, config);
        table.push(name, vec![pct(r.stats.doa_block_page_correlation())]);
    }
    table
}

// ---------------------------------------------------------------------
// Dead page predictor (Fig. 9, Table IV).
// ---------------------------------------------------------------------

fn iso_storage_system(options: &ExperimentOptions) -> SystemConfig {
    // dpPred adds ~11% storage to the 11.75 KB LLT; the nearest whole-way
    // growth is 8 → 9 ways (1152 entries).
    options.base_system().with_l2_tlb_ways(9)
}

/// Fig. 9: normalized IPC for the TLB dead-page predictors.
pub fn fig9_tlb_predictor_ipc(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 9: normalized IPC for TLB dead page predictors (vs baseline)"),
        vec!["AIP-TLB".into(), "SHiP-TLB".into(), "dpPred".into(), "Iso-storage".into()],
        Summary::Geomean,
        3,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let aip = ctx.run(name, base.with_policies(TlbPolicySel::AipTlb, LlcPolicySel::Baseline));
        let ship = ctx.run(name, base.with_policies(TlbPolicySel::ShipTlb, LlcPolicySel::Baseline));
        let dp = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline));
        let iso = ctx.run(name, base.with_system(iso_storage_system(&ctx.options)));
        table.push(
            name,
            vec![
                aip.stats.ipc() / baseline,
                ship.stats.ipc() / baseline,
                dp.stats.ipc() / baseline,
                iso.stats.ipc() / baseline,
            ],
        );
    }
    table
}

/// Table IV: LLT MPKI reduction (%) by the dead-page predictors.
pub fn table4_llt_mpki(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Table IV: LLT MPKI reduction (%)"),
        vec![
            "AIP-TLB".into(),
            "SHiP-TLB".into(),
            "dpPred".into(),
            "Iso-TLB".into(),
            "Oracle".into(),
        ],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.llt_mpki();
        let aip = ctx.run(name, base.with_policies(TlbPolicySel::AipTlb, LlcPolicySel::Baseline));
        let ship = ctx.run(name, base.with_policies(TlbPolicySel::ShipTlb, LlcPolicySel::Baseline));
        let dp = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline));
        let iso = ctx.run(name, base.with_system(iso_storage_system(&ctx.options)));
        let oracle = ctx.run_oracle(name, base);
        table.push(
            name,
            vec![
                reduction_pct(baseline, aip.stats.llt_mpki()),
                reduction_pct(baseline, ship.stats.llt_mpki()),
                reduction_pct(baseline, dp.stats.llt_mpki()),
                reduction_pct(baseline, iso.stats.llt_mpki()),
                reduction_pct(baseline, oracle.stats.llt_mpki()),
            ],
        );
    }
    table
}

// ---------------------------------------------------------------------
// Correlating dead block predictor (Fig. 10, Table V).
// ---------------------------------------------------------------------

/// Fig. 10: normalized IPC for LLC dead-block predictors and combined
/// TLB+LLC configurations.
pub fn fig10_llc_predictor_ipc(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 10: normalized IPC for LLC / combined predictors (vs baseline)"),
        vec![
            "AIP-LLC".into(),
            "SHiP-LLC".into(),
            "AIP-TLB+LLC".into(),
            "SHiP-TLB+LLC".into(),
            "cbPred".into(),
        ],
        Summary::Geomean,
        3,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let aip = ctx.run(name, base.with_policies(TlbPolicySel::Baseline, LlcPolicySel::AipLlc));
        let ship = ctx.run(name, base.with_policies(TlbPolicySel::Baseline, LlcPolicySel::ShipLlc));
        let aip2 = ctx.run(name, base.with_policies(TlbPolicySel::AipTlb, LlcPolicySel::AipLlc));
        let ship2 = ctx.run(name, base.with_policies(TlbPolicySel::ShipTlb, LlcPolicySel::ShipLlc));
        let cb = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred));
        table.push(
            name,
            vec![
                aip.stats.ipc() / baseline,
                ship.stats.ipc() / baseline,
                aip2.stats.ipc() / baseline,
                ship2.stats.ipc() / baseline,
                cb.stats.ipc() / baseline,
            ],
        );
    }
    table
}

/// Table V: LLC MPKI reduction (%) by dead-block predictors.
pub fn table5_llc_mpki(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Table V: LLC MPKI reduction (%)"),
        vec!["AIP-LLC".into(), "SHiP-LLC".into(), "cbPred".into()],
        Summary::Mean,
        2,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.llc_mpki();
        let aip = ctx.run(name, base.with_policies(TlbPolicySel::Baseline, LlcPolicySel::AipLlc));
        let ship = ctx.run(name, base.with_policies(TlbPolicySel::Baseline, LlcPolicySel::ShipLlc));
        let cb = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred));
        table.push(
            name,
            vec![
                reduction_pct(baseline, aip.stats.llc_mpki()),
                reduction_pct(baseline, ship.stats.llc_mpki()),
                reduction_pct(baseline, cb.stats.llc_mpki()),
            ],
        );
    }
    table
}

// ---------------------------------------------------------------------
// Accuracy and coverage (Tables VI, VII).
// ---------------------------------------------------------------------

/// Table VI: accuracy and coverage of the dead-page predictors.
pub fn table6_dp_accuracy(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Table VI: accuracy / coverage of dead page predictors (%)"),
        vec![
            "dpPred Acc".into(),
            "dpPred Cov".into(),
            "dpPred-SH Acc".into(),
            "dpPred-SH Cov".into(),
            "SHiP Acc".into(),
            "SHiP Cov".into(),
        ],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let dp = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline));
        let dp_sh =
            ctx.run(name, base.with_policies(TlbPolicySel::DpPredNoShadow, LlcPolicySel::Baseline));
        let ship = ctx.run(name, base.with_policies(TlbPolicySel::ShipTlb, LlcPolicySel::Baseline));
        let a = dp.llt_accuracy.unwrap_or_default();
        let b = dp_sh.llt_accuracy.unwrap_or_default();
        let c = ship.llt_accuracy.unwrap_or_default();
        table.push(
            name,
            vec![
                pct(a.accuracy()),
                pct(a.coverage()),
                pct(b.accuracy()),
                pct(b.coverage()),
                pct(c.accuracy()),
                pct(c.coverage()),
            ],
        );
    }
    table
}

/// Table VII: accuracy and coverage of the dead-block predictors.
pub fn table7_cb_accuracy(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Table VII: accuracy / coverage of dead block predictors (%)"),
        vec![
            "cbPred Acc".into(),
            "cbPred Cov".into(),
            "cbPred-PF Acc".into(),
            "cbPred-PF Cov".into(),
            "SHiP Acc".into(),
            "SHiP Cov".into(),
        ],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let cb = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred));
        let cb_pf =
            ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPredNoPfq));
        let ship = ctx.run(name, base.with_policies(TlbPolicySel::Baseline, LlcPolicySel::ShipLlc));
        let a = cb.llc_accuracy.unwrap_or_default();
        let b = cb_pf.llc_accuracy.unwrap_or_default();
        let c = ship.llc_accuracy.unwrap_or_default();
        table.push(
            name,
            vec![
                pct(a.accuracy()),
                pct(a.coverage()),
                pct(b.accuracy()),
                pct(b.coverage()),
                pct(c.accuracy()),
                pct(c.coverage()),
            ],
        );
    }
    table
}

// ---------------------------------------------------------------------
// Sensitivity studies (Fig. 11).
// ---------------------------------------------------------------------

/// Fig. 11a: dpPred's normalized IPC at 512/1024/1536-entry LLTs, each
/// normalized to the same-size baseline.
pub fn fig11a_llt_size(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 11a: dpPred normalized IPC vs LLT size"),
        vec!["512 entries".into(), "1024 entries".into(), "1536 entries".into()],
        Summary::Geomean,
        3,
    );
    let sizes = [512u32, 1024, 1536];
    for name in WORKLOAD_NAMES {
        let mut values = Vec::new();
        for entries in sizes {
            let system = ctx.options.base_system().with_l2_tlb_entries(entries);
            let baseline = ctx.run(name, base.with_system(system)).stats.ipc();
            let dp = ctx.run(
                name,
                base.with_system(system)
                    .with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline),
            );
            values.push(dp.stats.ipc() / baseline);
        }
        table.push(name, values);
    }
    table
}

/// Fig. 11b: pHIST indexing configurations, normalized IPC.
pub fn fig11b_phist_config(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 11b: dpPred normalized IPC vs pHIST configuration"),
        vec!["6b PC + 5b VPN".into(), "6b PC + 4b VPN".into(), "10b PC".into()],
        Summary::Geomean,
        3,
    );
    let variants = [(6u32, 5u32), (6, 4), (10, 0)];
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let mut values = Vec::new();
        for (pc_bits, vpn_bits) in variants {
            let config = DpPredConfig { pc_bits, vpn_bits, ..DpPredConfig::paper_default() };
            let r = ctx.run(
                name,
                base.with_policies(TlbPolicySel::DpPredCustom(config), LlcPolicySel::Baseline),
            );
            values.push(r.stats.ipc() / baseline);
        }
        table.push(name, values);
    }
    table
}

/// Fig. 11c: shadow-table size (2 vs 4 entries), normalized IPC.
pub fn fig11c_shadow_size(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 11c: dpPred normalized IPC vs shadow table size"),
        vec!["2-entry shadow".into(), "4-entry shadow".into()],
        Summary::Geomean,
        3,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let mut values = Vec::new();
        for shadow in [2usize, 4] {
            let config = DpPredConfig { shadow_entries: shadow, ..DpPredConfig::paper_default() };
            let r = ctx.run(
                name,
                base.with_policies(TlbPolicySel::DpPredCustom(config), LlcPolicySel::Baseline),
            );
            values.push(r.stats.ipc() / baseline);
        }
        table.push(name, values);
    }
    table
}

/// Fig. 11d: PFQ size (8 vs 64 entries), normalized IPC of dpPred+cbPred.
pub fn fig11d_pfq_size(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 11d: dpPred+cbPred normalized IPC vs PFQ size"),
        vec!["8-entry PFQ".into(), "64-entry PFQ".into()],
        Summary::Geomean,
        3,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let mut values = Vec::new();
        for pfq in [8usize, 64] {
            let r = ctx
                .run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPredPfq(pfq)));
            values.push(r.stats.ipc() / baseline);
        }
        table.push(name, values);
    }
    table
}

/// Fig. 11e: LLC size (2 MB vs 3 MB), dpPred+cbPred normalized to the
/// same-size baseline.
pub fn fig11e_llc_size(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 11e: dpPred+cbPred normalized IPC vs LLC size"),
        vec!["2 MB/core".into(), "3 MB/core".into()],
        Summary::Geomean,
        3,
    );
    for name in WORKLOAD_NAMES {
        let mut values = Vec::new();
        for bytes in [2u64 << 20, 3 << 20] {
            let system = ctx.options.base_system().with_llc_bytes(bytes);
            let baseline = ctx.run(name, base.with_system(system)).stats.ipc();
            let r = ctx.run(
                name,
                base.with_system(system).with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred),
            );
            values.push(r.stats.ipc() / baseline);
        }
        table.push(name, values);
    }
    table
}

/// Fig. 11f: SRRIP replacement in LLT/LLC with and without the predictors,
/// all normalized to the LRU baseline.
pub fn fig11f_srrip(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Fig. 11f: predictors under SRRIP (normalized to LRU baseline)"),
        vec![
            "SRRIP LLT".into(),
            "SRRIP dpPred".into(),
            "SRRIP LLT+LLC".into(),
            "SRRIP cbPred".into(),
        ],
        Summary::Geomean,
        3,
    );
    let srrip_llt = ctx.options.base_system().with_l2_tlb_replacement(ReplacementKind::Srrip);
    let srrip_both = srrip_llt.with_llc_replacement(ReplacementKind::Srrip);
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let a = ctx.run(name, base.with_system(srrip_llt));
        let b = ctx.run(
            name,
            base.with_system(srrip_llt).with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline),
        );
        let c = ctx.run(name, base.with_system(srrip_both));
        let d = ctx.run(
            name,
            base.with_system(srrip_both).with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred),
        );
        table.push(
            name,
            vec![
                a.stats.ipc() / baseline,
                b.stats.ipc() / baseline,
                c.stats.ipc() / baseline,
                d.stats.ipc() / baseline,
            ],
        );
    }
    table
}

// ---------------------------------------------------------------------
// Ablations beyond the paper's figures.
// ---------------------------------------------------------------------

/// Ablation A (paper Section III, prose): walk results filled into both
/// TLB levels vs into the L1 only with LLT fill on L1 eviction. The
/// paper reports no significant difference; this regenerates that check.
pub fn ablation_fill_policy(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Ablation: walk-fill placement (normalized IPC vs fill-both baseline)"),
        vec!["fill-both".into(), "L1-then-victim".into()],
        Summary::Geomean,
        3,
    );
    let victim = ctx.options.base_system().with_tlb_fill(TlbFillPolicy::L1ThenVictim);
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let alt = ctx.run(name, base.with_system(victim)).stats.ipc();
        table.push(name, vec![1.0, alt / baseline]);
    }
    table
}

/// Ablation B: dpPred's prediction threshold (the paper fixes it at 6 of
/// a 3-bit counter; this sweeps the confidence/coverage trade-off).
pub fn ablation_threshold(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Ablation: dpPred prediction threshold (normalized IPC)"),
        vec!["threshold 3".into(), "threshold 5".into(), "threshold 6 (paper)".into()],
        Summary::Geomean,
        3,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.ipc();
        let mut values = Vec::new();
        for threshold in [3u8, 5, 6] {
            let config = DpPredConfig { threshold, ..DpPredConfig::paper_default() };
            let r = ctx.run(
                name,
                base.with_policies(TlbPolicySel::DpPredCustom(config), LlcPolicySel::Baseline),
            );
            values.push(r.stats.ipc() / baseline);
        }
        table.push(name, values);
    }
    table
}

/// Ablation C (extension): dpPred with and without DIP-style set-dueling
/// bypass control. Dueling bounds the worst case near the baseline while
/// keeping most of dpPred's wins.
pub fn ablation_dueling(ctx: &mut ExperimentContext) -> ExpTable {
    let base = ctx.options.base_run();
    let mut table = ExpTable::new(
        ctx.options.titled("Ablation: set-dueling bypass control (LLT MPKI reduction %)"),
        vec!["dpPred".into(), "dueling dpPred".into()],
        Summary::Mean,
        1,
    );
    for name in WORKLOAD_NAMES {
        let baseline = ctx.run(name, base).stats.llt_mpki();
        let plain = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::Baseline));
        let duel =
            ctx.run(name, base.with_policies(TlbPolicySel::DuelingDpPred, LlcPolicySel::Baseline));
        table.push(
            name,
            vec![
                reduction_pct(baseline, plain.stats.llt_mpki()),
                reduction_pct(baseline, duel.stats.llt_mpki()),
            ],
        );
    }
    table
}

// ---------------------------------------------------------------------
// Storage overheads (Sections V-D, VI-D).
// ---------------------------------------------------------------------

/// The storage-overhead comparison of Sections V-D / VI-D, rendered as
/// text.
pub fn storage_overhead_report() -> String {
    let config = SystemConfig::paper_baseline();
    let dp = storage::dppred_bytes(&config.l2_tlb, 6, 4, 3, 2);
    let cb = storage::cbpred_bytes(&config.llc, 4096, 3, 8);
    let ship_llc = storage::ship_llc_bytes(&config.llc, 14, 3);
    let ship_tlb = storage::ship_tlb_bytes(&config.l2_tlb, 8, 3);
    let aip_llc = storage::aip_llc_bytes(&config.llc);
    let aip_tlb = storage::aip_tlb_bytes(&config.l2_tlb);
    let mut out = String::new();
    let _ = writeln!(out, "Storage overheads (paper Sections V-D / VI-D)");
    let _ = writeln!(
        out,
        "{:<28}{:>12}{:>12}{:>12}{:>12}",
        "predictor", "entry B", "table B", "aux B", "total KiB"
    );
    let _ = writeln!(out, "{}", "-".repeat(76));
    for (name, b) in [
        ("dpPred (LLT)", dp),
        ("cbPred (LLC)", cb),
        ("SHiP-TLB", ship_tlb),
        ("SHiP-LLC", ship_llc),
        ("AIP-TLB", aip_tlb),
        ("AIP-LLC", aip_llc),
    ] {
        let _ = writeln!(
            out,
            "{:<28}{:>12}{:>12}{:>12}{:>12.2}",
            name,
            b.entry_metadata_bytes,
            b.table_bytes,
            b.aux_bytes,
            b.total_kib()
        );
    }
    let combined = dp.total() + cb.total();
    let _ = writeln!(out, "{}", "-".repeat(76));
    let _ = writeln!(
        out,
        "dpPred + cbPred combined: {} B = {:.2} KiB ({:.2}% of the {:.2} KiB LLT+LLC budget)",
        combined,
        combined as f64 / 1024.0,
        combined as f64 * 100.0
            / (storage::tlb_baseline_bytes(&config.l2_tlb) + config.llc.size_bytes) as f64,
        (storage::tlb_baseline_bytes(&config.l2_tlb) + config.llc.size_bytes) as f64 / 1024.0,
    );
    out
}

/// Every experiment in paper order, as `(id, rendered text)` pairs.
pub fn run_all(ctx: &mut ExperimentContext) -> Vec<(&'static str, String)> {
    vec![
        ("fig1", fig1_llt_deadness(ctx).render()),
        ("fig2", fig2_llt_eviction_classes(ctx).render()),
        ("fig3", fig3_llc_deadness(ctx).render()),
        ("fig4", fig4_llc_eviction_classes(ctx).render()),
        ("table3", table3_doa_correlation(ctx).render()),
        ("fig9", fig9_tlb_predictor_ipc(ctx).render()),
        ("table4", table4_llt_mpki(ctx).render()),
        ("fig10", fig10_llc_predictor_ipc(ctx).render()),
        ("table5", table5_llc_mpki(ctx).render()),
        ("table6", table6_dp_accuracy(ctx).render()),
        ("table7", table7_cb_accuracy(ctx).render()),
        ("fig11a", fig11a_llt_size(ctx).render()),
        ("fig11b", fig11b_phist_config(ctx).render()),
        ("fig11c", fig11c_shadow_size(ctx).render()),
        ("fig11d", fig11d_pfq_size(ctx).render()),
        ("fig11e", fig11e_llc_size(ctx).render()),
        ("fig11f", fig11f_srrip(ctx).render()),
        ("storage", storage_overhead_report()),
        ("ablation_fill", ablation_fill_policy(ctx).render()),
        ("ablation_threshold", ablation_threshold(ctx).render()),
        ("ablation_dueling", ablation_dueling(ctx).render()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::new(ExperimentOptions {
            scale: Scale::Tiny,
            seed: 42,
            warmup_mem_ops: 500,
            measure_mem_ops: 10_000,
            page_policy: dpc_types::AllocPolicy::Base4K,
        })
    }

    /// [`ExperimentOptions::from_lookup`] over a fixed variable set.
    fn options_from(vars: &[(&str, &str)]) -> Result<ExperimentOptions, EnvError> {
        ExperimentOptions::from_lookup(|name| {
            vars.iter().find(|(key, _)| *key == name).map(|(_, value)| (*value).to_owned())
        })
    }

    #[test]
    fn env_knobs_override_the_defaults() {
        let opts = options_from(&[
            ("DPC_SCALE", "tiny"),
            ("DPC_WARMUP", "500"),
            ("DPC_MEASURE", "5000"),
            ("DPC_SEED", "7"),
            ("DPC_PAGE_SIZE", "2m"),
        ])
        .expect("valid knobs");
        assert_eq!(opts.scale, Scale::Tiny);
        assert_eq!((opts.warmup_mem_ops, opts.measure_mem_ops, opts.seed), (500, 5000, 7));
        assert_eq!(opts.page_policy, dpc_types::AllocPolicy::uniform(dpc_types::PageSize::Size2M));
        let unset = options_from(&[]).expect("no knobs set");
        assert_eq!(unset.scale, ExperimentOptions::quick().scale);
        assert_eq!(options_from(&[("DPC_SCALE", "small")]).map(|o| o.scale), Ok(Scale::Small));
    }

    #[test]
    fn bad_env_values_are_rejected_not_defaulted() {
        for (name, value, expected) in [
            ("DPC_SCALE", "huge", "tiny, small or paper"),
            ("DPC_SCALE", "", "tiny, small or paper"),
            ("DPC_WARMUP", "lots", "a non-negative integer"),
            ("DPC_MEASURE", "-5", "a positive integer"),
            ("DPC_MEASURE", "0", "a positive integer"),
            ("DPC_SEED", "0x2a", "a non-negative integer"),
            ("DPC_PAGE_SIZE", "3m", "4k, 2m or 1g"),
        ] {
            let err = options_from(&[(name, value)]).expect_err(name);
            assert_eq!(err, EnvError { name, value: value.to_owned(), expected });
            let message = err.to_string();
            assert!(message.contains(name) && message.contains(expected), "{message}");
        }
    }

    #[test]
    fn fig1_covers_all_workloads() {
        let mut ctx = tiny_ctx();
        let t = fig1_llt_deadness(&mut ctx);
        assert_eq!(t.rows.len(), 14);
        for (w, v) in &t.rows {
            assert!(v[0] >= v[1], "{w}: dead fraction must dominate DOA fraction");
            assert!(v[0] <= 100.0 && v[1] >= 0.0);
        }
    }

    #[test]
    fn runs_are_memoized() {
        let mut ctx = tiny_ctx();
        fig1_llt_deadness(&mut ctx);
        let after_fig1 = ctx.runs_performed();
        assert_eq!(after_fig1, 14);
        fig2_llt_eviction_classes(&mut ctx);
        assert_eq!(ctx.runs_performed(), 14, "fig2 must reuse fig1's runs");
    }

    #[test]
    fn storage_report_mentions_the_paper_numbers() {
        let s = storage_overhead_report();
        assert!(s.contains("dpPred"));
        assert!(s.contains("1306") || s.contains("10.8") || s.contains("0.5"), "{s}");
    }

    #[test]
    fn reduction_pct_signs() {
        assert!((reduction_pct(10.0, 9.0) - 10.0).abs() < 1e-12);
        assert!(reduction_pct(10.0, 11.0) < 0.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
    }
}
