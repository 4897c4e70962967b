//! Plan/execute campaign engine: runs the deduplicated simulations of a
//! [`CampaignPlan`] across a pool of worker threads, with run-level
//! observability.
//!
//! The pipeline has three stages:
//!
//! 1. **Plan** — replay the experiment functions against
//!    [`ExperimentContext::planner`]; every `run` / `run_oracle` request is
//!    recorded (deduplicated) instead of simulated.
//! 2. **Execute** — [`execute`] fans the planned runs out over scoped
//!    worker threads. Each worker owns a clone of one [`WorkloadFactory`]
//!    (clones share the lazily-built graph inputs), and every simulation
//!    is independent, so results are bit-identical to serial execution
//!    regardless of thread count or scheduling order. An oracle run costs
//!    a single extra simulation: its recording pass doubles as the plain
//!    baseline run of the same machine.
//! 3. **Render** — the executor returns an [`ExperimentContext`] preloaded
//!    with every result; replaying the experiment functions against it
//!    renders the tables from the memo without re-simulating.
//!
//! Observability: every simulation's wall time and simulated-memory-op
//! throughput is captured as a [`RunTiming`]; [`CampaignStats`] aggregates
//! them with per-worker busy times and can render both a human summary
//! line and a machine-readable JSON dump (`--timing` in the `paper`
//! binary).

use crate::experiments::{
    env_var, parse_knob, CampaignPlan, EnvError, ExperimentContext, ExperimentOptions, RunKey,
};
use crate::runner::{record_baseline, run_oracle_from_trace, run_workload, RunResult};
use dpc_workloads::WorkloadFactory;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default worker count: `DPC_THREADS` when set, otherwise the
/// machine's available parallelism.
///
/// # Errors
///
/// Returns [`EnvError`] when `DPC_THREADS` is set to anything but a
/// positive integer.
pub fn default_threads() -> Result<usize, EnvError> {
    threads_from(env_var("DPC_THREADS"))
}

/// [`default_threads`] over an injected `DPC_THREADS` value.
fn threads_from(value: Option<String>) -> Result<usize, EnvError> {
    match value {
        Some(value) => parse_knob::<NonZeroUsize>("DPC_THREADS", value, "a positive integer")
            .map(NonZeroUsize::get),
        None => Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get)),
    }
}

/// What one simulation was for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// A plain policy run.
    Plain,
    /// An oracle recording pass (doubles as the plain baseline run).
    Record,
    /// An oracle Belady replay pass.
    Oracle,
}

impl SimKind {
    fn as_str(self) -> &'static str {
        match self {
            SimKind::Plain => "plain",
            SimKind::Record => "record",
            SimKind::Oracle => "oracle",
        }
    }
}

/// Wall time and throughput of one simulation.
#[derive(Clone, Debug)]
pub struct RunTiming {
    /// Workload name.
    pub workload: String,
    /// TLB-side policy selector (Debug rendering).
    pub tlb_policy: String,
    /// LLC-side policy selector (Debug rendering).
    pub llc_policy: String,
    /// Page-size policy label of the machine ("4k", "2m", "1g",
    /// "promote2m").
    pub page: String,
    /// What the simulation was for.
    pub kind: SimKind,
    /// Total wall time of the run (stream generation + simulation).
    pub wall: Duration,
    /// Wall time spent generating the event stream — the trace-store
    /// capture cost, charged to the one run that performed the capture.
    /// Zero on store hits and on live runs (a factory built
    /// `with_trace_store(false)`), where generation is interleaved with
    /// simulation.
    pub gen_wall: Duration,
    /// Memory operations simulated (warm-up + measured).
    pub mem_ops: u64,
    /// Events the machine processed (warm-up + measured, compute and
    /// memory alike): `SimStats::slow_steps` of the run.
    pub events: u64,
}

impl RunTiming {
    /// Wall time spent simulating: total minus the generation split.
    pub fn sim_wall(&self) -> Duration {
        self.wall.saturating_sub(self.gen_wall)
    }

    /// Simulated memory operations per wall-clock second.
    pub fn mem_ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.mem_ops as f64 / secs
        } else {
            0.0
        }
    }

    /// Simulation nanoseconds per processed event.
    pub fn ns_per_event(&self) -> f64 {
        ns_per_event(self.sim_wall(), self.events)
    }
}

/// `wall` in nanoseconds per event, or 0 when no events were processed.
fn ns_per_event(wall: Duration, events: u64) -> f64 {
    if events == 0 {
        0.0
    } else {
        wall.as_secs_f64() * 1e9 / events as f64
    }
}

/// Aggregated observability for one executed campaign.
#[derive(Clone, Debug)]
pub struct CampaignStats {
    /// Wall time of the execute stage.
    pub wall: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Distinct memoized runs produced (plain + oracle).
    pub distinct_runs: usize,
    /// Per-simulation timings (≥ `distinct_runs` is never true: oracle
    /// recording passes are shared with the plain baseline entry, so this
    /// is exactly one entry per simulation actually performed).
    pub run_timings: Vec<RunTiming>,
    /// Per-worker busy time (sum of that worker's simulation wall times).
    pub worker_busy: Vec<Duration>,
}

impl CampaignStats {
    /// Total simulations performed.
    pub fn simulations(&self) -> usize {
        self.run_timings.len()
    }

    /// Total memory operations simulated across all runs.
    pub fn total_mem_ops(&self) -> u64 {
        self.run_timings.iter().map(|t| t.mem_ops).sum()
    }

    /// Total wall time spent generating event streams (trace-store
    /// captures) across all runs. Each captured stream is counted once.
    pub fn total_gen_wall(&self) -> Duration {
        self.run_timings.iter().map(|t| t.gen_wall).sum()
    }

    /// Total wall time spent simulating across all runs (run wall minus
    /// the generation split).
    pub fn total_sim_wall(&self) -> Duration {
        self.run_timings.iter().map(RunTiming::sim_wall).sum()
    }

    /// Aggregate simulated mem-ops per wall-clock second.
    pub fn mem_ops_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_mem_ops() as f64 / secs
        } else {
            0.0
        }
    }

    /// Total events processed across all runs.
    pub fn total_events(&self) -> u64 {
        self.run_timings.iter().map(|t| t.events).sum()
    }

    /// Campaign-wide simulation nanoseconds per processed event.
    pub fn ns_per_event(&self) -> f64 {
        ns_per_event(self.total_sim_wall(), self.total_events())
    }

    /// Mean worker utilization in `[0, 1]`: busy time over wall time.
    pub fn worker_utilization(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 || self.worker_busy.is_empty() {
            return 0.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        (busy / (wall * self.worker_busy.len() as f64)).min(1.0)
    }

    /// One-line human summary for the end-of-campaign report.
    pub fn summary_line(&self) -> String {
        format!(
            "{} distinct runs ({} simulations) on {} worker{} in {:.1}s \
             ({:.1}s generating + {:.1}s simulating), \
             {:.2}M mem-ops/s, {:.0}% worker utilization",
            self.distinct_runs,
            self.simulations(),
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall.as_secs_f64(),
            self.total_gen_wall().as_secs_f64(),
            self.total_sim_wall().as_secs_f64(),
            self.mem_ops_per_sec() / 1e6,
            self.worker_utilization() * 100.0,
        )
    }

    /// Machine-readable JSON dump for tracking campaign throughput across
    /// revisions (`paper --timing <file>`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        // Schema history: 2 added the gen/sim wall split; 3 added the
        // per-run "page" field (the machine's page-size policy label);
        // 4 and 5 added per-tier replay fast-path counters and coverages
        // plus the per-event cost ("ns_per_event", aggregate and per-run);
        // 6 dropped the tier telemetry with the fast path itself (every
        // event is stepped) and emits the event count that "ns_per_event"
        // divides by, warm-up included ("events" per run, "total_events").
        let _ = writeln!(out, "  \"schema\": 6,");
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"wall_secs\": {:.6},", self.wall.as_secs_f64());
        let _ = writeln!(out, "  \"distinct_runs\": {},", self.distinct_runs);
        let _ = writeln!(out, "  \"simulations\": {},", self.simulations());
        let _ = writeln!(out, "  \"total_mem_ops\": {},", self.total_mem_ops());
        let _ = writeln!(out, "  \"mem_ops_per_sec\": {:.1},", self.mem_ops_per_sec());
        let _ = writeln!(out, "  \"total_gen_secs\": {:.6},", self.total_gen_wall().as_secs_f64());
        let _ = writeln!(out, "  \"total_sim_secs\": {:.6},", self.total_sim_wall().as_secs_f64());
        let _ = writeln!(out, "  \"total_events\": {},", self.total_events());
        let _ = writeln!(out, "  \"ns_per_event\": {:.2},", self.ns_per_event());
        let _ = writeln!(out, "  \"worker_utilization\": {:.4},", self.worker_utilization());
        let _ = writeln!(
            out,
            "  \"worker_busy_secs\": [{}],",
            self.worker_busy
                .iter()
                .map(|d| format!("{:.6}", d.as_secs_f64()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        out.push_str("  \"runs\": [\n");
        for (i, t) in self.run_timings.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"workload\": {}, \"kind\": \"{}\", \"tlb\": {}, \"llc\": {}, \
                 \"page\": {}, \
                 \"wall_secs\": {:.6}, \"gen_secs\": {:.6}, \"sim_secs\": {:.6}, \
                 \"mem_ops\": {}, \"mem_ops_per_sec\": {:.1}, \
                 \"events\": {}, \"ns_per_event\": {:.2}}}",
                json_string(&t.workload),
                t.kind.as_str(),
                json_string(&t.tlb_policy),
                json_string(&t.llc_policy),
                json_string(&t.page),
                t.wall.as_secs_f64(),
                t.gen_wall.as_secs_f64(),
                t.sim_wall().as_secs_f64(),
                t.mem_ops,
                t.mem_ops_per_sec(),
                t.events,
                t.ns_per_event(),
            );
            out.push_str(if i + 1 < self.run_timings.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One unit of worker work.
enum Job {
    /// Simulate a plain key.
    Plain(RunKey),
    /// Record the baseline of `baseline_key` (one simulation that also
    /// yields the lookup trace), then replay the oracle for `key` (a
    /// second simulation).
    Oracle { key: RunKey, baseline_key: Box<RunKey> },
}

/// One completed memo entry produced by a worker.
struct Completion {
    key: RunKey,
    oracle: bool,
    result: Arc<RunResult>,
}

fn time_one<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

fn timing(key: &RunKey, kind: SimKind, wall: Duration, result: &RunResult) -> RunTiming {
    RunTiming {
        workload: key.0.clone(),
        tlb_policy: format!("{:?}", key.1.tlb_policy),
        llc_policy: format!("{:?}", key.1.llc_policy),
        page: key.1.system.page_policy.label().to_owned(),
        kind,
        wall,
        gen_wall: result.gen_wall,
        mem_ops: key.1.checked_total_mem_ops(),
        events: result.stats.slow_steps,
    }
}

/// Executes every planned run across `threads` workers and returns an
/// immediate-mode [`ExperimentContext`] preloaded with the results, plus
/// the campaign's observability stats.
///
/// Simulations are mutually independent and each worker clones the master
/// factory (sharing the deterministic graph inputs), so the preloaded
/// results — and therefore any tables rendered from them — are
/// bit-identical for every `threads` value. With `progress` set, a
/// `# campaign <done>/<total>` line is maintained on stderr.
///
/// # Panics
///
/// Panics before any simulation starts if a planned run is longer than
/// [`dpc_memsim::MAX_RUN_MEM_OPS`] ([`crate::RunConfig::total_mem_ops`]
/// documents the limit). Propagates panics from worker threads (a
/// simulation panicking is a bug, not an expected failure mode).
pub fn execute(
    options: ExperimentOptions,
    plan: &CampaignPlan,
    threads: usize,
    progress: bool,
) -> (ExperimentContext, CampaignStats) {
    let threads = threads.max(1);
    for key in plan.plain.iter().chain(&plan.oracle) {
        key.1.checked_total_mem_ops();
    }
    let factory = WorkloadFactory::new(options.scale, options.seed);

    // Oracle jobs subsume the recorded baseline's plain run; drop those
    // plain keys so no simulation happens twice.
    let oracle_jobs: Vec<Job> = plan
        .oracle
        .iter()
        .map(|key| Job::Oracle {
            key: key.clone(),
            baseline_key: Box::new(CampaignPlan::baseline_key_for(key)),
        })
        .collect();
    let recorded_baselines: std::collections::HashSet<RunKey> =
        plan.oracle.iter().map(CampaignPlan::baseline_key_for).collect();
    let mut jobs: Vec<Job> = oracle_jobs;
    jobs.extend(
        plan.plain.iter().filter(|key| !recorded_baselines.contains(*key)).cloned().map(Job::Plain),
    );

    let total = jobs.len();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let started = Instant::now();

    let mut worker_outputs: Vec<(Vec<Completion>, Vec<RunTiming>, Duration)> =
        Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let worker_factory = factory.clone();
                let jobs = &jobs;
                let next = &next;
                let done = &done;
                scope.spawn(move || {
                    let mut completions = Vec::new();
                    let mut timings = Vec::new();
                    let mut busy = Duration::ZERO;
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else { break };
                        match job {
                            Job::Plain(key) => {
                                let (result, wall) =
                                    time_one(|| run_workload(&worker_factory, &key.0, &key.1));
                                busy += wall;
                                timings.push(timing(key, SimKind::Plain, wall, &result));
                                completions.push(Completion {
                                    key: key.clone(),
                                    oracle: false,
                                    result: Arc::new(result),
                                });
                            }
                            Job::Oracle { key, baseline_key } => {
                                let ((baseline, trace), wall) =
                                    time_one(|| record_baseline(&worker_factory, &key.0, &key.1));
                                busy += wall;
                                timings.push(timing(
                                    baseline_key,
                                    SimKind::Record,
                                    wall,
                                    &baseline,
                                ));
                                completions.push(Completion {
                                    key: (**baseline_key).clone(),
                                    oracle: false,
                                    result: Arc::new(baseline),
                                });
                                let (oracle, wall) = time_one(|| {
                                    run_oracle_from_trace(trace, &worker_factory, &key.0, &key.1)
                                });
                                busy += wall;
                                timings.push(timing(key, SimKind::Oracle, wall, &oracle));
                                completions.push(Completion {
                                    key: key.clone(),
                                    oracle: true,
                                    result: Arc::new(oracle),
                                });
                            }
                        }
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        if progress {
                            eprint!("\r# campaign {finished}/{total} runs");
                        }
                    }
                    (completions, timings, busy)
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(output) => worker_outputs.push(output),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    if progress && total > 0 {
        eprintln!();
    }
    let wall = started.elapsed();

    let mut cache: HashMap<RunKey, Arc<RunResult>> = HashMap::new();
    let mut oracle_cache: HashMap<RunKey, Arc<RunResult>> = HashMap::new();
    let mut run_timings = Vec::new();
    let mut worker_busy = Vec::with_capacity(threads);
    for (completions, timings, busy) in worker_outputs {
        for completion in completions {
            if completion.oracle {
                oracle_cache.insert(completion.key, completion.result);
            } else {
                cache.insert(completion.key, completion.result);
            }
        }
        run_timings.extend(timings);
        worker_busy.push(busy);
    }
    // Present timings deterministically regardless of worker scheduling.
    run_timings.sort_by(|a, b| {
        (&a.workload, &a.tlb_policy, &a.llc_policy, a.kind.as_str()).cmp(&(
            &b.workload,
            &b.tlb_policy,
            &b.llc_policy,
            b.kind.as_str(),
        ))
    });

    let stats = CampaignStats {
        wall,
        threads,
        distinct_runs: cache.len() + oracle_cache.len(),
        run_timings,
        worker_busy,
    };
    let ctx = ExperimentContext::with_results(options, factory, cache, oracle_cache);
    (ctx, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;
    use dpc_workloads::Scale;

    fn tiny_options() -> ExperimentOptions {
        ExperimentOptions {
            scale: Scale::Tiny,
            seed: 42,
            warmup_mem_ops: 500,
            measure_mem_ops: 5_000,
            page_policy: dpc_types::AllocPolicy::Base4K,
        }
    }

    #[test]
    fn dpc_threads_must_be_a_positive_integer() {
        assert_eq!(threads_from(Some("3".to_owned())), Ok(3));
        assert!(threads_from(None).is_ok_and(|n| n > 0), "unset falls back to the host");
        for value in ["0", "abc", "-1", ""] {
            let err = threads_from(Some(value.to_owned())).expect_err(value);
            assert_eq!((err.name, err.expected), ("DPC_THREADS", "a positive integer"));
        }
    }

    #[test]
    fn planner_dedupes_across_experiments() {
        let mut planner = ExperimentContext::planner(tiny_options());
        experiments::fig1_llt_deadness(&mut planner);
        experiments::fig2_llt_eviction_classes(&mut planner);
        let plan = planner.into_plan();
        assert_eq!(plan.plain.len(), 14, "fig2 must reuse fig1's runs");
        assert_eq!(plan.oracle.len(), 0);
        assert_eq!(plan.distinct_runs(), 14);
    }

    #[test]
    fn executed_campaign_matches_immediate_mode() {
        let options = tiny_options();
        let mut planner = ExperimentContext::planner(options);
        experiments::fig1_llt_deadness(&mut planner);
        let plan = planner.into_plan();

        let (mut executed, stats) = execute(options, &plan, 2, false);
        let mut immediate = ExperimentContext::new(options);
        assert_eq!(
            experiments::fig1_llt_deadness(&mut executed).render(),
            experiments::fig1_llt_deadness(&mut immediate).render(),
        );
        assert_eq!(stats.distinct_runs, 14);
        assert_eq!(stats.simulations(), 14);
        assert_eq!(executed.runs_performed(), immediate.runs_performed());
    }

    #[test]
    fn oracle_recording_pass_doubles_as_baseline() {
        let options = tiny_options();
        let base = options.base_run();
        let plan =
            CampaignPlan { plain: vec![("bfs".into(), base)], oracle: vec![("bfs".into(), base)] };
        let (ctx, stats) = execute(options, &plan, 1, false);
        // 2 distinct runs but also exactly 2 simulations: the recording
        // pass produced the plain baseline entry.
        assert_eq!(ctx.runs_performed(), 2);
        assert_eq!(stats.simulations(), 2);
        assert_eq!(stats.distinct_runs, 2);
        let kinds: Vec<SimKind> = stats.run_timings.iter().map(|t| t.kind).collect();
        assert!(kinds.contains(&SimKind::Record) && kinds.contains(&SimKind::Oracle));
    }

    #[test]
    fn timing_json_is_well_formed_enough() {
        let stats = CampaignStats {
            wall: Duration::from_millis(1500),
            threads: 2,
            distinct_runs: 1,
            run_timings: vec![RunTiming {
                workload: "cg.B".into(),
                tlb_policy: "DpPred".into(),
                llc_policy: "Baseline".into(),
                page: "2m".into(),
                kind: SimKind::Plain,
                wall: Duration::from_millis(750),
                gen_wall: Duration::from_millis(250),
                mem_ops: 1_000,
                events: 1_250,
            }],
            worker_busy: vec![Duration::from_millis(750), Duration::from_millis(600)],
        };
        let json = stats.to_json();
        assert!(json.contains("\"schema\": 6"));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"workload\": \"cg.B\""));
        assert!(json.contains("\"kind\": \"plain\""));
        assert!(json.contains("\"page\": \"2m\""));
        assert!(json.contains("\"gen_secs\": 0.250000"));
        assert!(json.contains("\"sim_secs\": 0.500000"));
        assert!(json.contains("\"total_gen_secs\": 0.250000"));
        assert!(json.contains("\"total_sim_secs\": 0.500000"));
        assert!(json.contains("\"total_events\": 1250"));
        // 0.5 s simulating over 1250 events = 400000 ns/event.
        assert!(json.contains("\"ns_per_event\": 400000.00"));
        assert!(json.contains("\"events\": 1250, \"ns_per_event\": 400000.00}"));
        assert!(!json.contains("fast"), "no fast-path telemetry is left");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!((stats.worker_utilization() - 0.45).abs() < 1e-9);
        assert!((stats.ns_per_event() - 400_000.0).abs() < 1e-6);
        assert!((stats.run_timings[0].ns_per_event() - 400_000.0).abs() < 1e-6);
        assert!(stats.summary_line().contains("1 distinct runs"));
        assert!(stats.summary_line().contains("0.2s generating + 0.5s simulating"));
        assert!(stats.summary_line().contains("mem-ops/s, 45% worker utilization"));
        assert_eq!(stats.run_timings[0].sim_wall(), Duration::from_millis(500));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
