//! Regenerates the paper's tables and figures.
//!
//! ```text
//! paper all                 # every experiment, paper order
//! paper fig9 table4         # a subset
//! paper --list              # available experiment ids
//! paper --csv out/          # also write each table as CSV
//! paper --timing t.json     # dump campaign timing as JSON
//! paper all --quick         # Tiny scale, small budgets (CI smoke runs)
//! paper all --page-size=2m  # whole campaign on 2 MB huge pages
//! paper probe mcf --quick   # raw baseline/dpPred/cbPred counters
//! ```
//!
//! Experiments run through the plan/execute campaign engine: the
//! requested experiments are first replayed against a planning context to
//! enumerate the distinct simulations they need, those are executed across
//! a worker pool, and the tables are then rendered from the preloaded
//! memo. Results are bit-identical for any worker count.
//!
//! Environment knobs: `DPC_SCALE` (`tiny`/`small`/`paper`), `DPC_WARMUP`,
//! `DPC_MEASURE`, `DPC_SEED`, `DPC_PAGE_SIZE` (`4k`/`2m`/`1g`; the
//! `--page-size` flag wins over the environment), `DPC_THREADS` (worker
//! threads for the campaign executor; default = available parallelism).
//! `--quick` overrides scale and budgets to a seconds-long smoke
//! configuration (Tiny scale, 2K warm-up, 20K measured) regardless of
//! the environment. `probe` takes the same knobs and `--quick`/
//! `--page-size` flags as a campaign, but writes no `--csv`/`--timing`
//! output. A knob set to a value it does not accept, any other `DPC_*`
//! variable (deleted knobs included), a flag the command cannot honour
//! or an unknown workload exits with status 2 before anything runs.

use dpc::campaign;
use dpc::experiments::{self, ExperimentContext, ExperimentOptions};
use dpc::EnvError;
use std::ffi::OsString;
// dpc-lint: allow(determinism::wall-clock) -- CLI progress reporting on stderr; never reaches experiment output
use std::time::Instant;

const EXPERIMENTS: [&str; 21] = [
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "table3",
    "fig9",
    "table4",
    "fig10",
    "table5",
    "table6",
    "table7",
    "fig11a",
    "fig11b",
    "fig11c",
    "fig11d",
    "fig11e",
    "fig11f",
    "storage",
    "ablation_fill",
    "ablation_threshold",
    "ablation_dueling",
];

/// Every `DPC_*` environment variable `paper` reads; any other is
/// rejected, so a recipe naming a deleted knob cannot run the wrong
/// engine unnoticed.
const KNOBS: [&str; 6] =
    ["DPC_SCALE", "DPC_WARMUP", "DPC_MEASURE", "DPC_SEED", "DPC_PAGE_SIZE", "DPC_THREADS"];

/// The `DPC_*` names among `names` that are not in [`KNOBS`], sorted.
fn unknown_knobs(names: impl IntoIterator<Item = OsString>) -> Vec<String> {
    let mut unknown: Vec<String> = names
        .into_iter()
        .map(|name| name.to_string_lossy().into_owned())
        .filter(|name| name.starts_with("DPC_") && !KNOBS.contains(&name.as_str()))
        .collect();
    unknown.sort();
    unknown
}

/// Unwraps a knob read, or reports the bad value and exits with status 2.
fn knob_or_exit<T>(read: Result<T, EnvError>) -> T {
    read.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// One regenerated experiment: either a structured table or prose.
enum Output {
    Table(dpc::ExpTable),
    Text(String),
}

impl Output {
    fn render(&self) -> String {
        match self {
            Output::Table(t) => t.render(),
            Output::Text(s) => s.clone(),
        }
    }
}

fn run_one(ctx: &mut ExperimentContext, id: &str) -> Option<Output> {
    use Output::{Table, Text};
    Some(match id {
        "fig1" => Table(experiments::fig1_llt_deadness(ctx)),
        "fig2" => Table(experiments::fig2_llt_eviction_classes(ctx)),
        "fig3" => Table(experiments::fig3_llc_deadness(ctx)),
        "fig4" => Table(experiments::fig4_llc_eviction_classes(ctx)),
        "table3" => Table(experiments::table3_doa_correlation(ctx)),
        "fig9" => Table(experiments::fig9_tlb_predictor_ipc(ctx)),
        "table4" => Table(experiments::table4_llt_mpki(ctx)),
        "fig10" => Table(experiments::fig10_llc_predictor_ipc(ctx)),
        "table5" => Table(experiments::table5_llc_mpki(ctx)),
        "table6" => Table(experiments::table6_dp_accuracy(ctx)),
        "table7" => Table(experiments::table7_cb_accuracy(ctx)),
        "fig11a" => Table(experiments::fig11a_llt_size(ctx)),
        "fig11b" => Table(experiments::fig11b_phist_config(ctx)),
        "fig11c" => Table(experiments::fig11c_shadow_size(ctx)),
        "fig11d" => Table(experiments::fig11d_pfq_size(ctx)),
        "fig11e" => Table(experiments::fig11e_llc_size(ctx)),
        "fig11f" => Table(experiments::fig11f_srrip(ctx)),
        "storage" => Text(experiments::storage_overhead_report()),
        "ablation_fill" => Table(experiments::ablation_fill_policy(ctx)),
        "ablation_threshold" => Table(experiments::ablation_threshold(ctx)),
        "ablation_dueling" => Table(experiments::ablation_dueling(ctx)),
        _ => return None,
    })
}

/// Diagnostic dump: raw baseline + dpPred/cbPred counters per workload.
fn probe(names: &[&str], options: dpc::prelude::ExperimentOptions) {
    use dpc::prelude::*;
    let mut ctx = ExperimentContext::new(options);
    let base = options.base_run();
    for name in names {
        let b = ctx.run(name, base);
        let d = ctx.run(name, base.with_policies(TlbPolicySel::DpPred, LlcPolicySel::CbPred));
        let s = &b.stats;
        println!(
            "{name}: walks {} avg_walk {:.1}cyc pwc {:?} | cycles {} walk_cyc_share {:.1}%",
            s.walks,
            if s.walks > 0 { s.walk_cycles as f64 / s.walks as f64 } else { 0.0 },
            s.pwc_hits,
            s.cycles,
            s.walk_cycles as f64 * 100.0 / s.cycles.max(1) as f64,
        );
        println!(
            "{name}: base IPC {:.3} | LLT lookups {} hits {:.1}% MPKI {:.3} evic {} | LLC MPKI {:.3} hits {:.1}%",
            s.ipc(),
            s.llt.lookups,
            s.llt.hit_rate() * 100.0,
            s.llt_mpki(),
            s.llt.evictions,
            s.llc_mpki(),
            s.llc.hit_rate() * 100.0,
        );
        let ds = &d.stats;
        let acc = d.llt_accuracy.unwrap_or_default();
        let cacc = d.llc_accuracy.unwrap_or_default();
        println!(
            "  dpPred: IPC {:.3} LLT MPKI {:.3} bypass {} shadow {} acc {:.0}% cov {:.0}% | cbPred: LLC MPKI {:.3} bypass {} acc {:.0}% cov {:.0}%",
            ds.ipc(),
            ds.llt_mpki(),
            ds.llt.bypasses,
            ds.llt.shadow_hits,
            acc.accuracy() * 100.0,
            acc.coverage() * 100.0,
            ds.llc_mpki(),
            ds.llc.bypasses,
            cacc.accuracy() * 100.0,
            cacc.coverage() * 100.0,
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        for id in EXPERIMENTS {
            println!("{id}");
        }
        return;
    }
    let unknown = unknown_knobs(std::env::vars_os().map(|(name, _)| name));
    if !unknown.is_empty() {
        eprintln!("unknown knob(s) {}; accepted: {}", unknown.join(", "), KNOBS.join(", "));
        std::process::exit(2);
    }
    // Optional `--csv <dir>`: also write each experiment as CSV.
    // Optional `--timing <file>`: dump campaign timing stats as JSON.
    // Optional `--quick`: Tiny-scale smoke configuration for CI.
    // Optional `--page-size <4k|2m|1g>`: run the campaign on huge pages.
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut timing_path: Option<std::path::PathBuf> = None;
    let mut quick = false;
    let mut page_size: Option<dpc::prelude::PageSize> = None;
    let mut parse_page_size = |value: &str| match value.parse() {
        Ok(size) => page_size = Some(size),
        Err(e) => {
            eprintln!("--page-size: {e}");
            std::process::exit(2);
        }
    };
    let mut positional: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--quick" {
            quick = true;
        } else if let Some(value) = arg.strip_prefix("--page-size=") {
            parse_page_size(value);
        } else if arg == "--page-size" {
            match iter.next() {
                Some(value) => parse_page_size(value),
                None => {
                    eprintln!("--page-size requires a size argument (4k/2m/1g)");
                    std::process::exit(2);
                }
            }
        } else if arg == "--csv" {
            match iter.next() {
                Some(dir) => csv_dir = Some(dir.into()),
                None => {
                    eprintln!("--csv requires a directory argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--timing" {
            match iter.next() {
                Some(file) => timing_path = Some(file.into()),
                None => {
                    eprintln!("--timing requires a file argument");
                    std::process::exit(2);
                }
            }
        } else {
            positional.push(arg.as_str());
        }
    }
    // `probe [workload…]` dumps raw counters instead of a campaign.
    let probe_names = if positional.first().copied() == Some("probe") {
        if csv_dir.is_some() || timing_path.is_some() {
            eprintln!("probe writes no --csv or --timing output");
            std::process::exit(2);
        }
        let names = if positional.len() > 1 {
            positional[1..].to_vec()
        } else {
            dpc::prelude::WORKLOAD_NAMES.to_vec()
        };
        if let Some(name) = names.iter().find(|name| !dpc::prelude::WORKLOAD_NAMES.contains(name)) {
            let accepted = dpc::prelude::WORKLOAD_NAMES.join(", ");
            eprintln!("unknown workload {name:?}; accepted: {accepted}");
            std::process::exit(2);
        }
        Some(names)
    } else {
        None
    };
    if let Some(dir) = &csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        }
    }

    let mut options = knob_or_exit(ExperimentOptions::from_env());
    if quick {
        options.scale = dpc::prelude::Scale::Tiny;
        options.warmup_mem_ops = 2_000;
        options.measure_mem_ops = 20_000;
    }
    if let Some(size) = page_size {
        options.page_policy = dpc::prelude::AllocPolicy::uniform(size);
    }
    let threads = knob_or_exit(campaign::default_threads());
    eprintln!(
        "# scale={:?} warmup={} measure={} seed={} threads={} page={}",
        options.scale,
        options.warmup_mem_ops,
        options.measure_mem_ops,
        options.seed,
        threads,
        options.page_policy
    );
    if let Some(names) = probe_names {
        probe(&names, options);
        return;
    }
    let requested: Vec<&str> = if positional.is_empty() || positional.contains(&"all") {
        EXPERIMENTS.to_vec()
    } else {
        positional
    };
    let start = Instant::now(); // dpc-lint: allow(determinism::wall-clock) -- stderr timing only

    // Plan: replay the requested experiments against a planning context to
    // enumerate (deduplicated) every simulation they need. Unknown ids are
    // rejected here, before any simulation runs.
    let mut planner = ExperimentContext::planner(options);
    for id in &requested {
        if run_one(&mut planner, id).is_none() {
            eprintln!("unknown experiment {id:?}; try --list");
            std::process::exit(2);
        }
    }
    let plan = planner.into_plan();
    eprintln!("# campaign plan: {} distinct runs", plan.distinct_runs());

    // Execute: simulate the plan across the worker pool.
    let (mut ctx, stats) = campaign::execute(options, &plan, threads, true);

    // Render: replay the experiments against the preloaded memo.
    for id in requested {
        let t0 = Instant::now(); // dpc-lint: allow(determinism::wall-clock) -- stderr timing only
        if let Some(output) = run_one(&mut ctx, id) {
            println!("{}", output.render());
            if let (Some(dir), Output::Table(table)) = (&csv_dir, &output) {
                let path = dir.join(format!("{id}.csv"));
                if let Err(e) = std::fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {}: {e}", path.display());
                    std::process::exit(2);
                }
            }
            eprintln!(
                "# {id} rendered in {:.2}s ({} runs total)",
                t0.elapsed().as_secs_f64(),
                ctx.runs_performed()
            );
        }
    }
    if let Some(path) = &timing_path {
        if let Err(e) = std::fs::write(path, stats.to_json()) {
            eprintln!("cannot write {}: {e}", path.display());
            std::process::exit(2);
        }
        eprintln!("# timing written to {}", path.display());
    }
    eprintln!("# campaign finished: {}", stats.summary_line());
    eprintln!("# total wall (plan + execute + render): {:.1}s", start.elapsed().as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_documented_knobs_are_accepted() {
        let names = [
            "DPC_SCALE",
            "DPC_FASTPATH",
            "PATH",
            "DPC_SIMD",
            "DPC_PREFETCH",
            "DPC_TRACE_STORE",
            "XDPC_X",
        ];
        let unknown = unknown_knobs(names.map(OsString::from));
        assert_eq!(unknown, ["DPC_FASTPATH", "DPC_PREFETCH", "DPC_SIMD", "DPC_TRACE_STORE"]);
        assert!(unknown_knobs(KNOBS.map(OsString::from)).is_empty());
    }
}
