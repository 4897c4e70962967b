//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `lint` — run the `dpc-lint` static-analysis pass (line rules plus
//!   call-graph hot-path reachability) over the workspace.
//! * `lint --list` — list every rule with its one-line description.
//! * `lint --strict` — promote unused allow markers from warnings to
//!   errors (the CI configuration).
//! * `lint --format text|json|sarif` — diagnostic output format; SARIF
//!   2.1.0 is what GitHub code scanning ingests.
//! * `lint --output <path>` — write the formatted diagnostics to a file
//!   (a human summary still goes to stdout).
//! * `bench-gate <parent-tree> <change-tree>` — run the repository
//!   benchmark interleaved in both trees and fail on a regression past
//!   its bounds (see [`xtask::bench_gate`]).
//!
//! **Exit codes** (CI depends on the distinction): `0` clean, `1` rule
//! violations or a benchmark regression, `2` I/O or parse failure (a
//! broken invocation — unreadable workspace or benchmark output, bad
//! flags).

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("bench-gate") if args.len() == 3 => {
            ExitCode::from(xtask::bench_gate::run(args[1].as_ref(), args[2].as_ref()))
        }
        _ => {
            eprintln!(
                "usage: cargo xtask lint [--list] [--strict] [--format text|json|sarif] \
                 [--output <path>]"
            );
            eprintln!("       cargo xtask bench-gate <parent-tree> <change-tree>");
            eprintln!("       (cargo run --package xtask -- <cmd>, without the alias)");
            ExitCode::from(2)
        }
    }
}

/// Parsed `lint` flags.
struct LintOptions {
    list: bool,
    strict: bool,
    format: Format,
    output: Option<PathBuf>,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn parse_lint_args(args: &[String]) -> Result<LintOptions, String> {
    let mut opts = LintOptions { list: false, strict: false, format: Format::Text, output: None };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--strict" => opts.strict = true,
            "--format" => {
                opts.format = match it.next().map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format takes text|json|sarif, got {}",
                            other.unwrap_or("nothing")
                        ))
                    }
                };
            }
            "--output" => {
                opts.output = Some(it.next().ok_or("--output needs a path")?.into());
            }
            other => return Err(format!("unknown lint flag `{other}`")),
        }
    }
    Ok(opts)
}

fn lint(args: &[String]) -> ExitCode {
    let opts = match parse_lint_args(args) {
        Ok(opts) => opts,
        Err(err) => {
            eprintln!("dpc-lint: {err}");
            return ExitCode::from(2);
        }
    };
    if opts.list {
        for (rule, description) in xtask::rules::DESCRIPTIONS {
            println!("{rule:<30} {description}");
        }
        return ExitCode::SUCCESS;
    }

    let root = workspace_root();
    let report = match xtask::lint_workspace(&root) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("dpc-lint: cannot scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let set = xtask::output::collect(&report, opts.strict);

    let rendered = match opts.format {
        Format::Text => render_text(&set),
        Format::Json => xtask::output::render_json(&set),
        Format::Sarif => xtask::output::render_sarif(&set),
    };
    match &opts.output {
        Some(path) => {
            if let Err(err) = std::fs::write(path, &rendered) {
                eprintln!("dpc-lint: cannot write {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
        None => print!("{rendered}"),
    }

    // The human summary always reaches stdout, even when the formatted
    // diagnostics went to a file.
    let errors = set.count(xtask::output::Level::Error);
    let warnings = set.count(xtask::output::Level::Warning);
    if opts.output.is_some() || opts.format != Format::Text {
        summary_line(&report, errors, warnings, opts.strict);
    }
    if errors == 0 {
        if opts.format == Format::Text && opts.output.is_none() {
            summary_line(&report, errors, warnings, opts.strict);
        }
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn summary_line(report: &xtask::LintReport, errors: usize, warnings: usize, strict: bool) {
    let mode = if strict { ", strict" } else { "" };
    if errors == 0 {
        println!(
            "dpc-lint: clean — {} files, {} rules, {}/{} hot-reachable fns, {} warning(s){mode}",
            report.files_scanned,
            xtask::rules::ALL_RULES.len(),
            report.reachable_fns,
            report.total_fns,
            warnings,
        );
    } else {
        println!(
            "dpc-lint: {errors} error(s), {warnings} warning(s) in {} files scanned \
             ({}/{} hot-reachable fns{mode})",
            report.files_scanned, report.reachable_fns, report.total_fns,
        );
    }
}

/// Plain-text rendering: `level[rule]: message` + `--> file:line`.
fn render_text(set: &xtask::output::DiagnosticSet) -> String {
    let mut out = String::new();
    for d in &set.diagnostics {
        out.push_str(&format!(
            "{}[{}]: {}\n  --> {}:{}\n",
            d.level, d.rule, d.message, d.rel, d.line
        ));
    }
    out
}

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(std::path::Path::parent).map_or(manifest.clone(), PathBuf::from)
}
