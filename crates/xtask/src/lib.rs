//! `dpc-lint`: the workspace static-analysis pass behind `cargo xtask
//! lint`.
//!
//! Four deny-by-default rule families protect the invariants the paper
//! reproduction depends on:
//!
//! * **determinism** — no wall clocks outside the campaign engine's
//!   timing code, no unseeded RNG, no iteration over default-hasher
//!   `HashMap`/`HashSet` whose order could reach a report;
//! * **budget** — the structure-size constants still match the paper's
//!   hardware budgets (pHIST 1024×3-bit, bHIST 4096×3-bit, 8-entry PFQ,
//!   2-entry shadow, 6-bit PC hash, threshold 6, Table I machine), and
//!   `SatCounter::new` literal widths stay in `1..=8`;
//! * **hot-path** — no `unwrap`/`expect`/`panic!`-family/unproven slice
//!   indexing in non-test code under `crates/memsim` and
//!   `crates/predictors`, **and in every function the workspace call
//!   graph proves reachable from the replay roots** (`System::
//!   run_stream`/`step`, `SetAssoc::locate`/`fill`, the `LevelPolicy`/
//!   `LltPolicy`/`LlcPolicy` hook surface, `EventStream::decode_chunk`)
//!   wherever it lives — plus no heap construction (`hot-path::alloc`)
//!   in that reachable set;
//! * **dispatch** — no `dyn LevelPolicy`/`dyn LltPolicy`/`dyn LlcPolicy`
//!   trait objects in non-test code under `crates/memsim`/`crates/core`,
//!   with no exempt module.
//!
//! The only escape hatch is an inline comment on the offending line or
//! the line above it:
//!
//! ```text
//! // dpc-lint: allow(determinism::wall-clock) -- CLI progress timing only
//! ```
//!
//! A missing `-- <reason>` is itself an error, and under `--strict` a
//! marker that suppresses nothing is too. Diagnostics are available as
//! text, JSON, or SARIF 2.1.0 ([`output`]). The pass is
//! dependency-free by design (it lexes the source itself rather than
//! using `syn`) so it builds and gates CI on an offline toolchain.

pub mod bench_gate;
pub mod graph;
pub mod items;
pub mod json;
pub mod output;
pub mod rules;
pub mod source;

use rules::Violation;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Directories (workspace-relative) that are scanned.
const SCAN_ROOTS: &[&str] = &["crates", "tests", "examples"];

/// Path prefixes that are skipped entirely.
///
/// `crates/xtask` is the linter itself: its rule tables and test fixtures
/// spell out every forbidden token.
const SKIP_PREFIXES: &[&str] = &["crates/xtask"];

/// The outcome of linting a workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Rule violations, sorted by file then line.
    pub violations: Vec<Violation>,
    /// `(rel, line, rules)` of allow markers that suppressed nothing.
    pub unused_allows: Vec<(String, usize, String)>,
    /// Allow markers missing the mandatory `-- <reason>` (or naming an
    /// unknown rule), as `(rel, line, rules)`.
    pub missing_reasons: Vec<(String, usize, String)>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions the call graph proves reachable from a hot-path root.
    pub reachable_fns: usize,
    /// Function definitions considered by the call graph.
    pub total_fns: usize,
    /// Hot-path roots no workspace `fn` defines
    /// ([`graph::Reachability::unresolved_roots`]).
    pub unresolved_roots: Vec<String>,
}

impl LintReport {
    /// Whether the workspace is clean (unused allows are warnings, not
    /// failures; missing reasons fail). Strict cleanliness additionally
    /// requires no unused allows — see [`LintReport::is_strict_clean`].
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.missing_reasons.is_empty()
    }

    /// Whether the workspace is clean under `--strict`, where a stale
    /// allow marker is an error too.
    pub fn is_strict_clean(&self) -> bool {
        self.is_clean() && self.unused_allows.is_empty()
    }
}

/// Lints every Rust source file under the workspace `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut paths = Vec::new();
    for scan_root in SCAN_ROOTS {
        let dir = root.join(scan_root);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut paths)?;
        }
    }
    paths.sort();

    let mut files = Vec::new();
    for path in paths {
        let rel = relative_unix(root, &path);
        if SKIP_PREFIXES.iter().any(|p| rel.starts_with(p)) {
            continue;
        }
        let raw = std::fs::read_to_string(&path)?;
        files.push(SourceFile::parse(path, rel, raw));
    }
    Ok(lint_files(&files))
}

/// Lints a set of parsed files as one workspace: builds the hot-path
/// call graph over all of them, then applies every rule per file. This
/// is the core the fixture tests drive with in-memory file sets.
pub fn lint_files(files: &[SourceFile]) -> LintReport {
    let reach = graph::analyze(files);
    let mut report = LintReport {
        reachable_fns: reach.reachable_fns,
        total_fns: reach.total_fns,
        unresolved_roots: reach.unresolved_roots.clone(),
        ..Default::default()
    };
    for file in files {
        report.files_scanned += 1;
        lint_file(file, reach.hot_spans(&file.rel), &mut report);
    }
    report.violations.sort_by(|a, b| (&a.rel, a.line, a.rule).cmp(&(&b.rel, b.line, b.rule)));
    report
}

/// Lints one parsed file into `report`, applying its allow markers.
/// `hot` carries the file's call-graph-reachable function bodies.
pub fn lint_file(file: &SourceFile, hot: &[graph::HotSpan], report: &mut LintReport) {
    let violations = rules::check_file(file, hot);
    for violation in violations {
        if let Some(allow) = applicable_allow(file, &violation) {
            allow.used.set(true);
            if allow.reason.is_empty() {
                report.missing_reasons.push((file.rel.clone(), allow.line, allow.rules.join(", ")));
            }
            continue;
        }
        report.violations.push(violation);
    }
    for allow in &file.allows {
        if !allow.used.get() {
            report.unused_allows.push((file.rel.clone(), allow.line, allow.rules.join(", ")));
        }
        if !allow.rules.iter().all(|r| known_rule(r)) {
            report.missing_reasons.push((
                file.rel.clone(),
                allow.line,
                format!("unknown rule in allow marker: {}", allow.rules.join(", ")),
            ));
        }
    }
}

/// Finds an allow marker covering `violation`: same rule (or its family
/// prefix) on the violation's line or the line directly above.
fn applicable_allow<'f>(file: &'f SourceFile, violation: &Violation) -> Option<&'f source::Allow> {
    file.allows.iter().find(|allow| {
        (allow.line == violation.line || allow.line + 1 == violation.line)
            && allow.rules.iter().any(|r| {
                r == violation.rule
                    || violation
                        .rule
                        .strip_prefix(r.as_str())
                        .is_some_and(|rest| rest.starts_with("::"))
            })
    })
}

fn known_rule(rule: &str) -> bool {
    rules::ALL_RULES.contains(&rule) || rules::FAMILIES.contains(&rule)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn relative_unix(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_src(rel: &str, src: &str) -> LintReport {
        let file = SourceFile::from_str(rel, src);
        lint_files(std::slice::from_ref(&file))
    }

    #[test]
    fn allow_marker_suppresses_on_next_line() {
        let src = "// dpc-lint: allow(determinism::wall-clock) -- CLI timing output\n\
                   use std::time::Instant;\n";
        let report = lint_src("crates/core/src/report.rs", src);
        assert!(report.is_clean(), "{report:?}");
        assert!(report.unused_allows.is_empty());
    }

    #[test]
    fn allow_marker_suppresses_on_same_line() {
        let src = "use std::time::Instant; // dpc-lint: allow(determinism::wall-clock) -- timing\n";
        assert!(lint_src("crates/core/src/report.rs", src).is_clean());
    }

    #[test]
    fn family_prefix_allows_whole_family() {
        let src = "// dpc-lint: allow(hot-path) -- exercised by the fuzz harness\n\
                   fn f(x: Option<u32>) { x.unwrap(); }\n";
        assert!(lint_src("crates/memsim/src/cache.rs", src).is_clean());
    }

    #[test]
    fn allow_without_reason_fails() {
        let src = "// dpc-lint: allow(determinism::wall-clock)\nuse std::time::Instant;\n";
        let report = lint_src("crates/core/src/report.rs", src);
        assert!(!report.is_clean());
        assert_eq!(report.missing_reasons.len(), 1);
    }

    #[test]
    fn unused_allow_is_reported_not_fatal_unless_strict() {
        let src = "// dpc-lint: allow(determinism::wall-clock) -- stale\nlet x = 1;\n";
        let report = lint_src("crates/core/src/report.rs", src);
        assert!(report.is_clean());
        assert!(!report.is_strict_clean());
        assert_eq!(report.unused_allows.len(), 1);
    }

    #[test]
    fn unknown_rule_in_marker_fails() {
        let src = "// dpc-lint: allow(determinism::wall-clock, no-such-rule) -- reason\n\
                   use std::time::Instant;\n";
        let report = lint_src("crates/core/src/report.rs", src);
        assert!(!report.is_clean());
    }

    #[test]
    fn violations_without_marker_fail() {
        let report = lint_src("crates/core/src/report.rs", "use std::time::Instant;\n");
        assert!(!report.is_clean());
        assert_eq!(report.violations.len(), 1);
    }

    #[test]
    fn allow_marker_covers_reachability_finding() {
        let src = "impl EventStream { pub fn decode_chunk(&self) { helper(); } }\n\
                   // dpc-lint: allow(hot-path::alloc) -- scratch grown once, then reused\n\
                   fn helper() { let v: Vec<u32> = Vec::new(); let _ = v; }\n";
        let report = lint_src("crates/types/src/stream.rs", src);
        assert!(report.is_clean(), "{report:?}");
        assert!(report.unused_allows.is_empty(), "{report:?}");
    }

    #[test]
    fn cross_file_reachability_is_linted() {
        let entry = SourceFile::from_str(
            "crates/memsim/src/system.rs",
            "impl<L, C> System<L, C> { pub fn step(&mut self) { cross_helper(); } }\n",
        );
        let helper = SourceFile::from_str(
            "crates/workloads/src/emitter.rs",
            "pub fn cross_helper() { let s = format!(\"x\"); let _ = s; }\n",
        );
        let report = lint_files(&[entry, helper]);
        assert_eq!(report.violations.len(), 1, "{report:?}");
        assert_eq!(report.violations[0].rule, "hot-path::alloc");
        assert_eq!(report.violations[0].rel, "crates/workloads/src/emitter.rs");
    }
}
