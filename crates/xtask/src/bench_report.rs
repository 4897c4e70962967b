//! `cargo xtask bench-report` — benchmark-regression tracking.
//!
//! Collects the `median.point_estimate` from every
//! `target/criterion/<group>/*/new/estimates.json` left behind by
//! `cargo bench --bench simulator` and `cargo bench --bench
//! predictor_phases`, and writes them, together with the commit sha and
//! commit date, to `BENCH_simulator.json` at the workspace root. The
//! checked-in copy of that file is the regression baseline:
//! `bench-report --check` re-collects the current estimates and fails
//! if any bench shared with the baseline got more than 15% slower
//! (median vs median).
//!
//! Four groups gate: `simulator` (end-to-end throughput of the
//! monomorphized event loop), `predictor_phases` (pHIST/bHIST lookup,
//! shadow-table hit, and PFQ probe micro-phases, which localise a
//! simulator regression to the predictor structure that caused it),
//! `simd_phases` (the vectorized kernels and their scalar twins, so a
//! regression in either the AVX2 path or the scalar path that Miri and
//! non-x86 targets run trips CI),
//! and `misspath_phases` (the lazy replacement-metadata apply of
//! DESIGN.md §16). The `structures` micro-benches stay ungated: their
//! one-shot samples are too noisy to act as a tripwire. Like the lint
//! pass, everything here is hand-rolled (no serde) so the workspace
//! stays dependency-free on an offline toolchain.
//!
//! Besides the medians, each report records the commit it was measured
//! at, and `--check` warns when the baseline's commit is no longer an
//! ancestor of `HEAD` (i.e. the baseline predates a rebase or was never
//! regenerated).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Gate threshold: a bench fails `--check` when its median exceeds the
/// baseline median by more than this fraction.
pub const REGRESSION_TOLERANCE: f64 = 0.15;

/// The criterion groups whose estimates are reported and gated, with
/// the bench invocation that produces each one.
pub const GROUPS: &[(&str, &str)] = &[
    ("simulator", "cargo bench --bench simulator"),
    ("predictor_phases", "cargo bench --bench predictor_phases"),
    ("simd_phases", "cargo bench --bench simd_phases"),
    ("misspath_phases", "cargo bench --bench misspath_phases"),
];

/// Report file name at the workspace root.
pub const REPORT_FILE: &str = "BENCH_simulator.json";

/// Collected medians, bench id → nanoseconds.
pub type Medians = BTreeMap<String, f64>;

/// Walk `target/criterion/<group>/*/new/estimates.json` under `root`
/// for every gated group and return the median point estimate for each
/// bench id. Every group must be present: a missing directory means its
/// bench never ran, and silently skipping it would let the CI gate pass
/// without comparing that group at all.
pub fn collect_medians(root: &Path) -> Result<Medians, String> {
    let mut medians = Medians::new();
    for &(group, bench_cmd) in GROUPS {
        let group_dir = root.join("target").join("criterion").join(group);
        let entries = std::fs::read_dir(&group_dir).map_err(|err| {
            format!("cannot read {}: {err}\n(run `{bench_cmd}` first)", group_dir.display())
        })?;
        let before = medians.len();
        for entry in entries {
            let entry = entry.map_err(|err| err.to_string())?;
            let estimates = entry.path().join("new").join("estimates.json");
            let Ok(text) = std::fs::read_to_string(&estimates) else { continue };
            let median = extract_median(&text)
                .ok_or_else(|| format!("no median.point_estimate in {}", estimates.display()))?;
            let bench = entry.file_name().to_string_lossy().into_owned();
            medians.insert(format!("{group}/{bench}"), median);
        }
        if medians.len() == before {
            return Err(format!(
                "no estimates under {} — run `{bench_cmd}` first",
                group_dir.display()
            ));
        }
    }
    Ok(medians)
}

/// Pull `median.point_estimate` out of a criterion `estimates.json`
/// without a JSON parser: find the `"median"` object, then the first
/// `"point_estimate"` number inside it.
pub fn extract_median(text: &str) -> Option<f64> {
    let median_at = text.find("\"median\"")?;
    let tail = &text[median_at..];
    let key_at = tail.find("\"point_estimate\"")?;
    let after_key = &tail[key_at + "\"point_estimate\"".len()..];
    let colon = after_key.find(':')?;
    let value = after_key[colon + 1..].trim_start().split([',', '}']).next()?.trim();
    value.parse().ok()
}

/// Render the report JSON: stable key order, one bench per line so the
/// baseline parser (and humans diffing the file) stay simple.
pub fn render(medians: &Medians, git_sha: &str, date: &str) -> String {
    let mut out = String::from("{\n");
    // Schemas 2 and 3 carried a runtime-gate fingerprint; 4 dropped it
    // with the last gate.
    out.push_str("  \"schema\": 4,\n");
    out.push_str("  \"unit\": \"ns\",\n");
    out.push_str(&format!("  \"git_sha\": \"{git_sha}\",\n"));
    out.push_str(&format!("  \"date\": \"{date}\",\n"));
    out.push_str("  \"median_ns\": {\n");
    let last = medians.len().saturating_sub(1);
    for (i, (bench, median)) in medians.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!("    \"{bench}\": {median:.1}{comma}\n"));
    }
    out.push_str("  }\n}\n");
    out
}

/// Pull the recorded `git_sha` out of a report written by [`render`].
/// Returns `None` for reports stamped `unknown` (no git available when
/// they were written) — there is nothing to compare those against.
pub fn parse_git_sha(text: &str) -> Option<String> {
    let after_key = text.split_once("\"git_sha\"")?.1;
    let sha = after_key.split('"').nth(1)?;
    (!sha.is_empty() && sha != "unknown").then(|| sha.to_owned())
}

/// Parse a report previously written by [`render`]: every
/// `"<group>/<bench>": <number>` line inside the `median_ns` object.
/// Reports of every earlier schema parse identically — the medians
/// block is unchanged.
pub fn parse_report(text: &str) -> Medians {
    let mut medians = Medians::new();
    let body = text.split_once("\"median_ns\"").map_or("", |(_, rest)| rest);
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else { continue };
        let key = key.trim().trim_matches('"');
        if !key.contains('/') {
            continue;
        }
        if let Ok(median) = value.trim().parse::<f64>() {
            medians.insert(key.to_owned(), median);
        }
    }
    medians
}

/// One `--check` comparison row.
pub struct Comparison {
    pub bench: String,
    pub baseline_ns: f64,
    pub current_ns: f64,
    /// `current / baseline`; > 1 means slower.
    pub ratio: f64,
    pub regressed: bool,
}

/// Compare current medians against the baseline. Benches only present on
/// one side are skipped (renames and new benches must not fail CI); a
/// shared bench regresses when it is >15% slower than the baseline.
pub fn compare(baseline: &Medians, current: &Medians) -> Vec<Comparison> {
    baseline
        .iter()
        .filter_map(|(bench, &baseline_ns)| {
            let &current_ns = current.get(bench)?;
            let ratio = if baseline_ns > 0.0 { current_ns / baseline_ns } else { 1.0 };
            Some(Comparison {
                bench: bench.clone(),
                baseline_ns,
                current_ns,
                ratio,
                regressed: ratio > 1.0 + REGRESSION_TOLERANCE,
            })
        })
        .collect()
}

fn git_output(root: &Path, args: &[&str]) -> String {
    Command::new("git")
        .args(args)
        .current_dir(root)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_owned(),
        )
}

/// Entry point for `cargo xtask bench-report [--check]`. Returns the
/// process exit code.
pub fn run(root: &Path, check: bool) -> u8 {
    let current = match collect_medians(root) {
        Ok(medians) => medians,
        Err(err) => {
            eprintln!("bench-report: {err}");
            return 2;
        }
    };
    let report_path = root.join(REPORT_FILE);

    if check {
        let baseline_text = match std::fs::read_to_string(&report_path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("bench-report: cannot read baseline {}: {err}", report_path.display());
                return 2;
            }
        };
        let baseline = parse_report(&baseline_text);
        if baseline.is_empty() {
            eprintln!("bench-report: baseline {} has no medians", report_path.display());
            return 2;
        }
        // A baseline recorded at a commit that is no longer an ancestor
        // of HEAD predates a rebase (or was measured on a branch that
        // never merged): its medians may not describe this code at all.
        // Warn rather than fail — the ratio comparison below still runs.
        if let Some(sha) = parse_git_sha(&baseline_text) {
            let is_ancestor = Command::new("git")
                .args(["merge-base", "--is-ancestor", &sha, "HEAD"])
                .current_dir(root)
                .status()
                .is_ok_and(|status| status.success());
            if !is_ancestor {
                eprintln!(
                    "bench-report: warning: baseline {} was recorded at {sha}, which is not an \
                     ancestor of HEAD — regenerate it with `cargo xtask bench-report`",
                    report_path.display()
                );
            }
        }
        let rows = compare(&baseline, &current);
        let mut regressions = 0;
        for row in &rows {
            let verdict = if row.regressed { "REGRESSED" } else { "ok" };
            println!(
                "{:<40} baseline {:>12.1} ns  current {:>12.1} ns  ratio {:.3}  {verdict}",
                row.bench, row.baseline_ns, row.current_ns, row.ratio
            );
            regressions += u32::from(row.regressed);
        }
        if rows.is_empty() {
            eprintln!("bench-report: no benches shared between baseline and current run");
            return 2;
        }
        if regressions > 0 {
            let pct = REGRESSION_TOLERANCE * 100.0;
            eprintln!("bench-report: {regressions} bench(es) more than {pct:.0}% slower");
            return 1;
        }
        println!("bench-report: {} bench(es) within tolerance", rows.len());
        return 0;
    }

    // Stamp the report with the *commit* sha/date rather than the wall
    // clock so re-running on the same tree rewrites the same file.
    let sha = git_output(root, &["rev-parse", "--short", "HEAD"]);
    let date = git_output(root, &["log", "-1", "--format=%cI"]);
    let text = render(&current, &sha, &date);
    if let Err(err) = std::fs::write(&report_path, &text) {
        eprintln!("bench-report: cannot write {}: {err}", report_path.display());
        return 2;
    }
    println!("bench-report: wrote {} ({} benches)", report_path.display(), current.len());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_median_point_estimate() {
        let json = r#"{"mean":{"point_estimate":4859253.0},"median":{"point_estimate":4598222.5}}"#;
        assert_eq!(extract_median(json), Some(4_598_222.5));
    }

    #[test]
    fn extracts_from_real_criterion_shape() {
        // Real criterion nests confidence intervals before the estimate.
        let json = r#"{"mean":{"confidence_interval":{"confidence_level":0.95,
            "lower_bound":1.0,"upper_bound":2.0},"point_estimate":1.5,"standard_error":0.1},
            "median":{"confidence_interval":{"confidence_level":0.95,"lower_bound":3.0,
            "upper_bound":4.0},"point_estimate":3.5,"standard_error":0.1}}"#;
        assert_eq!(extract_median(json), Some(3.5));
    }

    #[test]
    fn render_parse_round_trip() {
        let mut medians = Medians::new();
        medians.insert("simulator/canneal_baseline".to_owned(), 4_811_000.0);
        medians.insert("simulator/bfs_dppred_cbpred".to_owned(), 1_640_500.5);
        medians.insert("predictor_phases/phist_lookup".to_owned(), 31_250.0);
        let text = render(&medians, "abc1234", "2026-08-06T00:00:00+00:00");
        assert_eq!(parse_report(&text), medians);
        assert_eq!(parse_git_sha(&text).as_deref(), Some("abc1234"));
    }

    #[test]
    fn schema_4_header_has_no_gates() {
        let text = render(&Medians::new(), "abc1234", "2026-08-06T00:00:00+00:00");
        assert!(text.starts_with("{\n  \"schema\": 4,\n"), "schema 4 header: {text}");
        assert!(!text.contains("gates"), "no runtime gate is left to fingerprint: {text}");
        assert!(parse_report(&text).is_empty());
    }

    #[test]
    fn unknown_sha_is_not_comparable() {
        let text = render(&Medians::new(), "unknown", "2026-08-06T00:00:00+00:00");
        assert_eq!(parse_git_sha(&text), None);
    }

    #[test]
    fn schema_1_reports_still_parse() {
        // The checked-in baseline may predate the current header; the
        // medians block is unchanged, so it must keep parsing.
        let text = "{\n  \"schema\": 1,\n  \"unit\": \"ns\",\n  \"git_sha\": \"9c09b0f\",\n  \
                    \"median_ns\": {\n    \"simulator/lbm_baseline\": 1349450.0\n  }\n}\n";
        let medians = parse_report(text);
        assert_eq!(medians.get("simulator/lbm_baseline"), Some(&1_349_450.0));
        assert_eq!(parse_git_sha(text).as_deref(), Some("9c09b0f"));
    }

    #[test]
    fn collect_requires_every_gated_group() {
        // A tree with only the first group populated must fail loudly:
        // a missing group means its bench never ran, and the CI gate
        // would otherwise silently stop comparing it.
        let root =
            std::env::temp_dir().join(format!("dpc-bench-report-test-{}", std::process::id()));
        let (first_group, _) = GROUPS[0];
        let bench_dir =
            root.join("target").join("criterion").join(first_group).join("some_bench").join("new");
        std::fs::create_dir_all(&bench_dir).unwrap();
        std::fs::write(bench_dir.join("estimates.json"), r#"{"median":{"point_estimate":1.0}}"#)
            .unwrap();
        let err = collect_medians(&root).unwrap_err();
        let (second_group, second_cmd) = GROUPS[1];
        assert!(err.contains(second_group), "error should name the missing group: {err}");
        assert!(err.contains(second_cmd), "error should say how to produce it: {err}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn regression_gate_trips_above_tolerance() {
        let mut baseline = Medians::new();
        baseline.insert("simulator/a".to_owned(), 1000.0);
        baseline.insert("simulator/b".to_owned(), 1000.0);
        baseline.insert("simulator/renamed".to_owned(), 1000.0);
        let mut current = Medians::new();
        current.insert("simulator/a".to_owned(), 1149.0); // +14.9% → ok
        current.insert("simulator/b".to_owned(), 1151.0); // +15.1% → regressed
        current.insert("simulator/new".to_owned(), 9999.0); // unmatched → skipped
        let rows = compare(&baseline, &current);
        assert_eq!(rows.len(), 2);
        assert!(!rows[0].regressed, "simulator/a is within tolerance");
        assert!(rows[1].regressed, "simulator/b is past tolerance");
    }

    #[test]
    fn faster_is_never_a_regression() {
        let mut baseline = Medians::new();
        baseline.insert("simulator/a".to_owned(), 1000.0);
        let mut current = Medians::new();
        current.insert("simulator/a".to_owned(), 400.0);
        let rows = compare(&baseline, &current);
        assert!(!rows[0].regressed);
        assert!(rows[0].ratio < 0.5);
    }
}
