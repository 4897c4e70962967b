//! `cargo xtask bench-gate <parent-tree> <change-tree>` — the relative
//! benchmark gate.
//!
//! Reads `BENCHMARK.json` from the change tree and runs that file's own
//! `command` (the `perfbench` package, built from each tree's source) for
//! `run_seconds` per run in both trees: [`PAIRS`] interleaved pairs per
//! workload, the side that goes first alternating from one pair to the
//! next so a slow phase of a shared host is not charged to one side. It
//! prints one row per workload × end-to-end metric with each side's
//! median and min–max, and exits:
//!
//! * `1` when a change median is worse than the parent's by more than the
//!   metric's `bound`, when any run is not `"correct": true`, or when the
//!   change's failed/attempted share of a workload exceeds the parent's;
//! * `2` when a run cannot start, its output does not parse, or a
//!   workload or metric is missing;
//! * `0` otherwise.
//!
//! Both sides run on the same host at the same time, so the gate holds
//! on any machine; an absolute snapshot recorded on one host cannot tell
//! a regression from a different host. [`decide`] is the whole decision
//! rule, a pure function over the parsed runs and the parsed
//! `BENCHMARK.json`. Like the lint pass, everything is hand-rolled over
//! [`crate::json`] so the workspace stays dependency-free.

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Interleaved parent/change pairs per workload.
pub const PAIRS: usize = 3;

/// Seed every run uses: `perfbench` checks its digests at seed 42.
pub const SEED: u64 = 42;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One gated end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Largest tolerated worsening of the change median, as a fraction
    /// of the parent median.
    pub bound: f64,
}

/// The parts of `BENCHMARK.json` the gate reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Program and arguments; the gate appends `--workload`, `--seed`,
    /// `--seconds` and `--trace 0`.
    pub command: Vec<String>,
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = json::parse(text)?;
        let array =
            |key: &str| doc.get(key).and_then(Value::as_arr).ok_or(format!("no `{key}` array"));
        let text_of = |v: &Value, what: &str| {
            v.as_str().map(str::to_owned).ok_or(format!("{what} must be a string"))
        };
        let command = array("command")?
            .iter()
            .map(|v| text_of(v, "a command word"))
            .collect::<Result<Vec<_>, _>>()?;
        if command.is_empty() {
            return Err("`command` is empty".into());
        }
        let run_seconds =
            doc.get("run_seconds").and_then(Value::as_num).ok_or("no `run_seconds` number")?;
        let workloads = array("workloads")?
            .iter()
            .map(|w| text_of(w.get("name").unwrap_or(&Value::Null), "a workload name"))
            .collect::<Result<Vec<_>, _>>()?;
        let end_to_end = array("end_to_end")?
            .iter()
            .map(|m| {
                let field = |key| text_of(m.get(key).unwrap_or(&Value::Null), key);
                let name = field("name")?;
                let better = match field("better")?.as_str() {
                    "higher" => Better::Higher,
                    "lower" => Better::Lower,
                    other => return Err(format!("{name}: `better` is {other:?}")),
                };
                let bound = m
                    .get("bound")
                    .and_then(Value::as_num)
                    .ok_or(format!("{name}: no `bound` number"))?;
                Ok(Metric { name, unit: field("unit")?, better, bound })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec { command, run_seconds, workloads, end_to_end })
    }
}

/// The result line of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Parses a run's standard output: its last non-empty line is one
    /// JSON object `{"correct", "attempted", "failed", "metrics": {name:
    /// {"value", "unit"}}}`.
    pub fn parse(stdout: &str) -> Result<Run, String> {
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        let doc = json::parse(line).map_err(|e| format!("result line {line:?}: {e}"))?;
        let count = |key| doc.get(key).and_then(Value::as_num).ok_or(format!("no `{key}` number"));
        let Some(Value::Obj(members)) = doc.get("metrics") else {
            return Err("no `metrics` object".into());
        };
        let metrics = members
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_num);
                value.map(|v| (name.clone(), v)).ok_or(format!("{name}: no `value` number"))
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            correct: doc.get("correct") == Some(&Value::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// Both sides' runs of one workload.
#[derive(Debug, Clone, Default)]
pub struct Sides {
    pub parent: Vec<Run>,
    pub change: Vec<Run>,
}

/// Median and range of one side's values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    fn of(values: &[f64]) -> Spread {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len().is_multiple_of(2) {
            f64::midpoint(sorted[mid - 1], sorted[mid])
        } else {
            sorted[mid]
        };
        Spread { median, min: sorted[0], max: sorted[sorted.len() - 1] }
    }
}

/// One printed row: a workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub parent: Spread,
    pub change: Spread,
    /// The change median is worse than the parent's past the bound.
    pub worse: bool,
}

/// The gate's decision: every row, and why it fails (empty: it passes).
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    pub rows: Vec<Row>,
    pub failures: Vec<String>,
}

impl Verdict {
    /// The process exit code: 0 pass, 1 fail.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.failures.is_empty())
    }
}

/// Decides the gate over each workload's runs.
///
/// # Errors
///
/// A workload of `spec` without runs on both sides, or a run without one
/// of the end-to-end metrics, is an error (exit 2), not a pass.
pub fn decide(spec: &Spec, runs: &BTreeMap<String, Sides>) -> Result<Verdict, String> {
    let mut verdict = Verdict { rows: Vec::new(), failures: Vec::new() };
    for workload in &spec.workloads {
        let sides = runs.get(workload).ok_or(format!("no runs of workload {workload}"))?;
        if sides.parent.is_empty() || sides.change.is_empty() {
            return Err(format!("workload {workload} lacks runs on one side"));
        }
        for metric in &spec.end_to_end {
            let values = |side: &[Run]| {
                side.iter()
                    .map(|run| run.metrics.get(&metric.name).copied())
                    .collect::<Option<Vec<f64>>>()
                    .ok_or(format!("a {workload} run lacks metric {}", metric.name))
            };
            let parent = Spread::of(&values(&sides.parent)?);
            let change = Spread::of(&values(&sides.change)?);
            let worsening = match metric.better {
                Better::Higher => parent.median - change.median,
                Better::Lower => change.median - parent.median,
            };
            let worse = worsening > metric.bound * parent.median.abs();
            if worse {
                verdict.failures.push(format!(
                    "{workload} {}: change median {} is worse than parent {} by more than \
                     {:.0}%",
                    metric.name,
                    significant(change.median),
                    significant(parent.median),
                    metric.bound * 100.0
                ));
            }
            verdict.rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                unit: metric.unit.clone(),
                parent,
                change,
                worse,
            });
        }
        for (side, side_runs) in [("parent", &sides.parent), ("change", &sides.change)] {
            let incorrect = side_runs.iter().filter(|run| !run.correct).count();
            if incorrect > 0 {
                verdict
                    .failures
                    .push(format!("{workload}: {incorrect} {side} run(s) not \"correct\": true"));
            }
        }
        let (parent_share, change_share) =
            (failed_share(&sides.parent), failed_share(&sides.change));
        if change_share > parent_share {
            verdict.failures.push(format!(
                "{workload}: change fails {change_share:.4} of its operations, parent \
                 {parent_share:.4}"
            ));
        }
    }
    Ok(verdict)
}

/// Failed over attempted operations across `runs` (0 when none ran).
fn failed_share(runs: &[Run]) -> f64 {
    let attempted: f64 = runs.iter().map(|run| run.attempted).sum();
    let failed: f64 = runs.iter().map(|run| run.failed).sum();
    if attempted > 0.0 {
        failed / attempted
    } else {
        0.0
    }
}

/// `value` to four significant digits: the metrics span 0.0002 s of
/// set-up to 380 MiB of memory.
fn significant(value: f64) -> String {
    let magnitude = if value == 0.0 { 0 } else { value.abs().log10().floor() as i32 };
    let decimals = usize::try_from(3 - magnitude).unwrap_or(0);
    format!("{value:.decimals$}")
}

/// The verdict as a plain-text table, then its failures or a pass line.
pub fn render(verdict: &Verdict) -> String {
    let spread = |s: &Spread| {
        format!("{} [{}–{}]", significant(s.median), significant(s.min), significant(s.max))
    };
    let mut out = format!(
        "{:<12} {:<14} {:<6} {:<34} {:<34} {:>8}  verdict\n",
        "workload", "metric", "unit", "parent median [min–max]", "change median [min–max]", "ratio"
    );
    for row in &verdict.rows {
        let ratio = row.change.median / row.parent.median;
        out.push_str(&format!(
            "{:<12} {:<14} {:<6} {:<34} {:<34} {:>8.3}  {}\n",
            row.workload,
            row.metric,
            row.unit,
            spread(&row.parent),
            spread(&row.change),
            ratio,
            if row.worse { "WORSE" } else { "ok" }
        ));
    }
    if verdict.failures.is_empty() {
        out.push_str("bench-gate: pass\n");
    }
    for failure in &verdict.failures {
        out.push_str(&format!("bench-gate: FAIL {failure}\n"));
    }
    out
}

/// Runs one benchmark run of `workload` in `tree`.
fn run_once(spec: &Spec, tree: &Path, workload: &str) -> Result<Run, String> {
    let (program, args) = spec.command.split_first().ok_or("empty command")?;
    let output = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--seed", &SEED.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
        .current_dir(tree)
        .output()
        .map_err(|e| format!("cannot run {program} in {}: {e}", tree.display()))?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    if !output.status.success() {
        return Err(format!(
            "{workload} in {} exited {}:\n{stderr}",
            tree.display(),
            output.status
        ));
    }
    Run::parse(&String::from_utf8_lossy(&output.stdout))
        .map_err(|e| format!("{workload} in {}: {e}\n{stderr}", tree.display()))
}

/// Entry point for `cargo xtask bench-gate <parent-tree> <change-tree>`.
/// Returns the process exit code.
pub fn run(parent: &Path, change: &Path) -> u8 {
    let mut trees = Vec::new();
    for (name, path) in [("parent", parent), ("change", change)] {
        match path.canonicalize() {
            Ok(tree) => trees.push((name, tree)),
            Err(e) => {
                eprintln!("bench-gate: {}: {e}", path.display());
                return 2;
            }
        }
    }
    let spec_path = trees[1].1.join("BENCHMARK.json");
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| e.to_string())
        .and_then(|text| Spec::parse(&text));
    let spec = match spec {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("bench-gate: {}: {e}", spec_path.display());
            return 2;
        }
    };
    let mut runs: BTreeMap<String, Sides> = BTreeMap::new();
    let mut pair_index = 0;
    for workload in &spec.workloads {
        for pair in 1..=PAIRS {
            let first = pair_index % 2;
            pair_index += 1;
            for side in [first, 1 - first] {
                let (name, tree) = &trees[side];
                eprintln!("bench-gate: {workload} pair {pair}/{PAIRS}: {name}");
                let run = match run_once(&spec, tree, workload) {
                    Ok(run) => run,
                    Err(e) => {
                        eprintln!("bench-gate: {e}");
                        return 2;
                    }
                };
                let sides = runs.entry(workload.clone()).or_default();
                let runs_of_side = if side == 0 { &mut sides.parent } else { &mut sides.change };
                runs_of_side.push(run);
            }
        }
    }
    match decide(&spec, &runs) {
        Ok(verdict) => {
            print!("{}", render(&verdict));
            verdict.exit_code()
        }
        Err(e) => {
            eprintln!("bench-gate: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `BENCHMARK.json` with the repository's three end-to-end metrics
    /// and bounds, over two workloads.
    const SPEC: &str = r#"{
        "command": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": "walk_bound"}, {"name": "hit_bound"}],
        "end_to_end": [
            {"name": "mops_per_s", "unit": "Mop/s", "better": "higher", "bound": 0.25},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1}
        ]
    }"#;

    fn spec() -> Spec {
        Spec::parse(SPEC).expect("valid spec")
    }

    fn run(mops: f64, setup: f64, rss: f64) -> Run {
        Run {
            correct: true,
            attempted: 40.0,
            failed: 0.0,
            metrics: [("mops_per_s", mops), ("setup_s", setup), ("peak_rss_mib", rss)]
                .into_iter()
                .map(|(name, value)| (name.to_owned(), value))
                .collect(),
        }
    }

    /// Three runs a side per workload: the parent's are `base`, the
    /// change's are `base` passed through `edit`.
    fn runs(edit: impl Fn(&mut Run)) -> BTreeMap<String, Sides> {
        let base = [run(0.80, 0.10, 40.0), run(0.82, 0.11, 40.5), run(0.78, 0.09, 39.5)];
        let change = base
            .iter()
            .map(|r| {
                let mut r = r.clone();
                edit(&mut r);
                r
            })
            .collect::<Vec<_>>();
        ["walk_bound", "hit_bound"]
            .into_iter()
            .map(|w| (w.to_owned(), Sides { parent: base.to_vec(), change: change.clone() }))
            .collect()
    }

    fn scale(metric: &str, factor: f64) -> impl Fn(&mut Run) + '_ {
        move |r: &mut Run| {
            if let Some(v) = r.metrics.get_mut(metric) {
                *v *= factor;
            }
        }
    }

    fn failures(runs: &BTreeMap<String, Sides>) -> Vec<String> {
        let verdict = decide(&spec(), runs).expect("decidable");
        assert_eq!(verdict.exit_code(), u8::from(!verdict.failures.is_empty()));
        verdict.failures
    }

    #[test]
    fn identical_sides_pass() {
        let verdict = decide(&spec(), &runs(|_| {})).expect("decidable");
        assert_eq!(verdict.exit_code(), 0, "{verdict:?}");
        assert_eq!(verdict.rows.len(), 6, "one row per workload × metric");
        assert!(render(&verdict).ends_with("bench-gate: pass\n"));
    }

    #[test]
    fn throughput_more_than_25_percent_lower_fails() {
        let failed = failures(&runs(scale("mops_per_s", 0.74)));
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].starts_with("walk_bound mops_per_s"), "{failed:?}");
        assert!(failures(&runs(scale("mops_per_s", 0.76))).is_empty(), "inside the bound");
    }

    #[test]
    fn setup_more_than_25_percent_higher_fails() {
        let failed = failures(&runs(scale("setup_s", 1.26)));
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed.iter().all(|f| f.contains("setup_s")), "{failed:?}");
    }

    #[test]
    fn rss_rise_inside_10_percent_passes() {
        assert!(failures(&runs(scale("peak_rss_mib", 1.09))).is_empty());
        assert_eq!(failures(&runs(scale("peak_rss_mib", 1.11))).len(), 2);
    }

    #[test]
    fn an_incorrect_change_run_fails() {
        let mut all = runs(|_| {});
        all.get_mut("hit_bound").unwrap().change[1].correct = false;
        let failed = failures(&all);
        assert_eq!(failed, ["hit_bound: 1 change run(s) not \"correct\": true"]);
    }

    #[test]
    fn a_higher_failed_share_fails() {
        let failed = failures(&runs(|r| r.failed = 1.0));
        assert_eq!(failed.len(), 2, "{failed:?}");
        assert!(failed[0].contains("change fails 0.0250"), "{failed:?}");
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_error() {
        let mut all = runs(|_| {});
        all.remove("hit_bound");
        assert!(decide(&spec(), &all).unwrap_err().contains("hit_bound"));
        let mut all = runs(|_| {});
        all.get_mut("walk_bound").unwrap().change.clear();
        assert!(decide(&spec(), &all).is_err(), "one side without runs");
        let mut all = runs(|_| {});
        all.get_mut("walk_bound").unwrap().parent[2].metrics.remove("setup_s");
        assert!(decide(&spec(), &all).unwrap_err().contains("setup_s"));
    }

    #[test]
    fn an_improvement_is_never_a_regression() {
        assert!(failures(&runs(scale("mops_per_s", 3.0))).is_empty());
        assert!(failures(&runs(scale("setup_s", 0.2))).is_empty());
        let verdict = decide(&spec(), &runs(scale("mops_per_s", 3.0))).unwrap();
        assert!(verdict.rows.iter().all(|row| !row.worse));
    }

    #[test]
    fn values_print_to_four_significant_digits() {
        assert_eq!(significant(0.000_243_7), "0.0002437");
        assert_eq!(significant(0.801), "0.8010");
        assert_eq!(significant(9.928_24), "9.928");
        assert_eq!(significant(379.714_8), "379.7");
        assert_eq!(significant(12_345.6), "12346");
        assert_eq!(significant(0.0), "0.000");
    }

    #[test]
    fn result_line_parses_and_garbage_does_not() {
        let stdout = "# progress\n{\"correct\": true, \"attempted\": 57, \"failed\": 0, \
                      \"metrics\": {\"mops_per_s\": {\"value\": 0.61, \"unit\": \"Mop/s\"}}}\n";
        let run = Run::parse(stdout).expect("valid result line");
        assert!(run.correct);
        assert_eq!((run.attempted, run.failed), (57.0, 0.0));
        assert_eq!(run.metrics.get("mops_per_s"), Some(&0.61));
        assert!(Run::parse("").is_err());
        assert!(Run::parse("error: no such workload\n").is_err());
        assert!(Run::parse("{\"correct\": true, \"attempted\": 1, \"failed\": 0}").is_err());
    }

    #[test]
    fn the_repository_benchmark_json_parses() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
        let spec = Spec::parse(&text).expect("valid BENCHMARK.json");
        assert_eq!(spec.command[0], "cargo");
        assert!(spec.run_seconds > 0.0);
        assert_eq!(spec.workloads, ["walk_bound", "huge_pages", "hit_bound", "campaign"]);
        let gated: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(gated, ["mops_per_s", "setup_s", "peak_rss_mib"]);
    }
}
