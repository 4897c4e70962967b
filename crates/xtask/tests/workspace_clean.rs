//! The acceptance gate for `dpc-lint`: the workspace itself must come
//! clean under the pass — including the call-graph hot-path reachability
//! sweep — and the whole analysis must stay inside its wall-clock
//! budget. Running this as a plain `cargo test` keeps the lint enforced
//! even where CI isn't (e.g. local pre-push).

use std::path::PathBuf;
use std::time::Instant;

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(std::path::Path::parent).expect("crates/xtask sits two deep").into()
}

#[test]
fn workspace_is_lint_clean_under_strict() {
    let report = xtask::lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.files_scanned > 40, "scan must cover the workspace");
    let rendered: Vec<String> = report
        .violations
        .iter()
        .map(|v| format!("{} {}:{} {}", v.rule, v.rel, v.line, v.message))
        .collect();
    assert!(rendered.is_empty(), "dpc-lint violations:\n{}", rendered.join("\n"));
    assert!(
        report.missing_reasons.is_empty(),
        "allow markers without reasons: {:?}",
        report.missing_reasons
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allow markers that suppress nothing (delete them): {:?}",
        report.unused_allows
    );
    assert!(report.is_strict_clean(), "the merged tree must pass `lint --strict`");
}

#[test]
fn call_graph_reaches_the_replay_core() {
    let report = xtask::lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.total_fns > 200, "item parser must see the workspace ({})", report.total_fns);
    assert!(
        report.reachable_fns > 50,
        "hot roots must reach the replay core ({} of {})",
        report.reachable_fns,
        report.total_fns
    );
    assert!(
        report.reachable_fns < report.total_fns,
        "reachability must not degenerate to everything ({} of {})",
        report.reachable_fns,
        report.total_fns
    );
}

/// Every named hot-path root must still be a non-test `fn` of the
/// workspace: a deleted or renamed root would silently root nothing.
#[test]
fn every_hot_root_names_a_workspace_fn() {
    let report = xtask::lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(report.unresolved_roots.is_empty(), "stale HOT_ROOTS: {:?}", report.unresolved_roots);
}

/// The full workspace analysis (I/O + parse + call graph + every rule)
/// must finish well under the 5 s CI budget; 10 back-to-back runs keep
/// the bound honest against one lucky measurement.
#[test]
fn analysis_fits_the_wall_clock_budget() {
    let root = workspace_root();
    let start = Instant::now();
    for _ in 0..10 {
        let report = xtask::lint_workspace(&root).expect("workspace scan");
        assert!(report.files_scanned > 0);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "10 full analyses took {elapsed:?}; one must stay far below the 5 s CI budget"
    );
}
