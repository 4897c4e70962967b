//! The four `dpc-lint` rule families.
//!
//! | family        | rules                                                      |
//! |---------------|------------------------------------------------------------|
//! | `determinism` | `wall-clock`, `unseeded-rng`, `hash-iteration`             |
//! | `budget`      | `structure-size`, `counter-width`                          |
//! | `hot-path`    | `unwrap`, `panic`, `index`, `alloc`                        |
//! | `dispatch`    | `boxed-policy`                                             |
//!
//! Every rule is deny-by-default; the only escape hatch is an inline
//! `// dpc-lint: allow(<rule>) -- <reason>` comment on the offending line
//! or the line directly above it. Rule names are **stable identifiers**:
//! they key allow markers, the finding fingerprints, and the SARIF
//! `ruleId`s uploaded to code scanning, so renaming one is a breaking
//! change to all three.

pub mod budget;
pub mod determinism;
pub mod dispatch;
pub mod hot_path;

use crate::graph::HotSpan;
use crate::source::SourceFile;
use std::path::PathBuf;

/// One rule violation, reported as `rule file:line message`.
#[derive(Debug)]
pub struct Violation {
    /// Rule name, e.g. `determinism::wall-clock`.
    pub rule: &'static str,
    /// File the violation is in.
    pub path: PathBuf,
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// Human explanation, including the offending token.
    pub message: String,
    /// Line-content fingerprint (rule + path + offending line text),
    /// stable across unrelated insertions above the line. Keys the SARIF
    /// `partialFingerprints`.
    pub fingerprint: String,
}

/// Names of all rules, for `--list` and allow-marker validation.
pub const ALL_RULES: &[&str] = &[
    determinism::WALL_CLOCK,
    determinism::UNSEEDED_RNG,
    determinism::HASH_ITERATION,
    budget::STRUCTURE_SIZE,
    budget::COUNTER_WIDTH,
    hot_path::UNWRAP,
    hot_path::PANIC,
    hot_path::INDEX,
    hot_path::ALLOC,
    dispatch::BOXED_POLICY,
];

/// One-line description per rule, same order as [`ALL_RULES`] (used by
/// `--list` and as the SARIF rule catalog).
pub const DESCRIPTIONS: &[(&str, &str)] = &[
    (determinism::WALL_CLOCK, "no Instant/SystemTime outside crates/core/src/campaign.rs"),
    (determinism::UNSEEDED_RNG, "no thread_rng/from_entropy/rand::random; seed_from_u64 only"),
    (determinism::HASH_ITERATION, "no HashMap/HashSet iteration; BTree* or sort first"),
    (budget::STRUCTURE_SIZE, "paper budgets pinned (pHIST/bHIST/PFQ/shadow/RRPV width/Table I)"),
    (budget::COUNTER_WIDTH, "SatCounter::new literal widths within 1..=8"),
    (hot_path::UNWRAP, "no unwrap/expect in hot-path crates or hot-reachable functions"),
    (hot_path::PANIC, "no panic!/unreachable!/todo!/unimplemented!/get_unchecked there"),
    (hot_path::INDEX, "slice indexing needs visible bounds reasoning in the function"),
    (hot_path::ALLOC, "no heap construction (Vec/Box/format!/to_vec/...) in hot-reachable code"),
    (dispatch::BOXED_POLICY, "no dyn LltPolicy/LlcPolicy in non-test memsim/core code"),
];

/// Rule-family prefixes accepted in allow markers.
pub const FAMILIES: &[&str] = &["determinism", "budget", "hot-path", "dispatch"];

/// Runs every rule over one file. `hot` carries the call-graph-reachable
/// function bodies of this file (empty when reachability was not run).
pub fn check_file(file: &SourceFile, hot: &[HotSpan]) -> Vec<Violation> {
    let mut violations = Vec::new();
    determinism::check(file, &mut violations);
    budget::check(file, &mut violations);
    hot_path::check(file, hot, &mut violations);
    dispatch::check(file, &mut violations);
    violations
}

/// Helper: push a violation at a byte offset of `file`.
pub(crate) fn push(
    violations: &mut Vec<Violation>,
    file: &SourceFile,
    rule: &'static str,
    offset: usize,
    message: String,
) {
    let line = file.line_of(offset);
    violations.push(Violation {
        rule,
        path: file.path.clone(),
        rel: file.rel.clone(),
        line,
        message,
        fingerprint: crate::output::fingerprint(rule, &file.rel, line_text(file, line)),
    });
}

/// The raw text of 1-based `line` in `file`.
fn line_text(file: &SourceFile, line: usize) -> &str {
    file.raw.lines().nth(line.saturating_sub(1)).unwrap_or("")
}
