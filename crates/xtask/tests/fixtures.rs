//! Golden-file fixtures for `dpc-lint`.
//!
//! Each directory under `tests/fixtures/<case>/` holds one miniature
//! workspace: `.rs` files whose first line is a `//@ rel: <path>`
//! directive assigning their workspace-relative identity, plus an
//! `expected.json` golden listing every diagnostic the case must
//! produce as `{rule, level, file, line}` tuples. The harness runs the
//! full pipeline (item parse → call graph → rules → severity collect →
//! JSON render → JSON parse) so a golden mismatch in any layer fails.

use std::path::{Path, PathBuf};
use xtask::json::{self, Value};
use xtask::source::SourceFile;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(rule, level, file, line)` — the comparable identity of a diagnostic.
type Key = (String, String, String, usize);

fn keys_of(doc: &Value) -> Vec<Key> {
    let mut keys: Vec<Key> = doc
        .get("diagnostics")
        .and_then(Value::as_arr)
        .expect("diagnostics array")
        .iter()
        .map(|d| {
            (
                d.get("rule").and_then(Value::as_str).expect("rule").to_owned(),
                d.get("level").and_then(Value::as_str).expect("level").to_owned(),
                d.get("file").and_then(Value::as_str).expect("file").to_owned(),
                d.get("line").and_then(Value::as_num).expect("line") as usize,
            )
        })
        .collect();
    keys.sort();
    keys
}

fn run_case(case_dir: &Path) {
    let case = case_dir.file_name().unwrap_or_default().to_string_lossy().into_owned();
    let expected_text = std::fs::read_to_string(case_dir.join("expected.json"))
        .unwrap_or_else(|e| panic!("{case}: expected.json: {e}"));
    let expected =
        json::parse(&expected_text).unwrap_or_else(|e| panic!("{case}: bad expected.json: {e}"));
    let strict = expected.get("strict") == Some(&Value::Bool(true));

    let mut files = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(case_dir)
        .expect("case dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    entries.sort();
    for path in entries {
        let raw = std::fs::read_to_string(&path).expect("fixture source");
        let rel = raw
            .lines()
            .next()
            .and_then(|l| l.strip_prefix("//@ rel:"))
            .unwrap_or_else(|| {
                panic!("{case}: {} must start with `//@ rel: <path>`", path.display())
            })
            .trim()
            .to_owned();
        files.push(SourceFile::from_str(&rel, &raw));
    }
    assert!(!files.is_empty(), "{case}: no fixture .rs files");

    let report = xtask::lint_files(&files);
    let set = xtask::output::collect(&report, strict);
    let rendered = xtask::output::render_json(&set);
    let actual = json::parse(&rendered).unwrap_or_else(|e| panic!("{case}: bad JSON output: {e}"));

    assert_eq!(
        keys_of(&actual),
        keys_of(&expected),
        "{case}: diagnostics diverge from expected.json\n--- actual output ---\n{rendered}"
    );
}

#[test]
fn every_fixture_matches_its_golden() {
    let mut cases: Vec<PathBuf> = std::fs::read_dir(fixtures_dir())
        .expect("tests/fixtures must exist")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(cases.len() >= 5, "expected the full fixture suite, found {}", cases.len());
    for case in cases {
        run_case(&case);
    }
}

/// The acceptance criterion spelled out end to end: a panic two call
/// hops below a hot-path root, in a different crate, is flagged — and
/// the diagnostic names the full call chain.
#[test]
fn panic_two_hops_below_root_is_flagged_with_chain() {
    let case = fixtures_dir().join("reachable_panic_two_hops");
    let mut files = Vec::new();
    for name in ["entry.rs", "mid.rs", "leaf.rs"] {
        let raw = std::fs::read_to_string(case.join(name)).expect("fixture");
        let rel = raw.lines().next().and_then(|l| l.strip_prefix("//@ rel:")).expect("rel").trim();
        files.push(SourceFile::from_str(rel, &raw));
    }
    let report = xtask::lint_files(&files);
    assert_eq!(report.violations.len(), 1, "{report:?}");
    let v = &report.violations[0];
    assert_eq!(v.rule, "hot-path::panic");
    assert_eq!(v.rel, "crates/workloads/src/leaf.rs");
    assert!(
        v.message.contains("System::step → helper_mid → helper_leaf"),
        "diagnostic must carry the call chain: {}",
        v.message
    );
}
