//! Structural validation of the SARIF 2.1.0 output against the schema's
//! required shape: the toolchain is offline, so instead of fetching the
//! JSON Schema this asserts every constraint GitHub code scanning and
//! the 2.1.0 spec require of a minimal log — top-level `$schema` /
//! `version` / `runs`, a tool driver with a rule catalog, and results
//! whose `ruleId`/`ruleIndex` agree with that catalog and whose
//! locations use `%SRCROOT%`-relative artifact URIs.

use xtask::json::{self, Value};
use xtask::source::SourceFile;

fn sarif_for(files: &[SourceFile]) -> Value {
    let report = xtask::lint_files(files);
    let set = xtask::output::collect(&report, false);
    let text = xtask::output::render_sarif(&set);
    json::parse(&text).expect("SARIF output must be valid JSON")
}

fn str_of<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("`{key}` string required"))
}

#[test]
fn sarif_log_satisfies_the_2_1_0_required_shape() {
    let files = [
        SourceFile::from_str(
            "crates/memsim/src/system.rs",
            "impl<L, C> System<L, C> { pub fn step(&mut self) { helper(); } }\n",
        ),
        SourceFile::from_str(
            "crates/core/src/helper.rs",
            "pub fn helper() { let s = format!(\"x\"); let _ = s; }\n\
             // dpc-lint: allow(budget::counter-width) -- stale, to exercise warnings\n\
             pub fn quiet() {}\n",
        ),
    ];
    let doc = sarif_for(&files);

    // §3.13: sarifLog requires `version`; `$schema` must point at 2.1.0.
    assert_eq!(str_of(&doc, "version"), "2.1.0");
    assert!(str_of(&doc, "$schema").contains("sarif-schema-2.1.0.json"));

    let runs = doc.get("runs").and_then(Value::as_arr).expect("runs array");
    assert_eq!(runs.len(), 1, "one run per invocation");
    let run = &runs[0];

    // §3.14: run requires `tool`; §3.18/§3.19: driver requires `name`.
    let driver = run.get("tool").and_then(|t| t.get("driver")).expect("tool.driver");
    assert_eq!(str_of(driver, "name"), "dpc-lint");
    let rules = driver.get("rules").and_then(Value::as_arr).expect("driver.rules");
    assert!(rules.len() >= 11, "10 lint rules + 1 synthetic id, got {}", rules.len());
    let rule_ids: Vec<&str> = rules.iter().map(|r| str_of(r, "id")).collect();
    for rule in rules {
        assert!(
            rule.get("shortDescription").and_then(|d| d.get("text")).is_some(),
            "each reportingDescriptor needs shortDescription.text"
        );
    }

    // §3.27: every result's ruleId/ruleIndex must agree with the catalog.
    let results = run.get("results").and_then(Value::as_arr).expect("results array");
    assert!(!results.is_empty(), "the fixture produces diagnostics");
    for result in results {
        let rule_id = str_of(result, "ruleId");
        let rule_index =
            result.get("ruleIndex").and_then(Value::as_num).expect("ruleIndex") as usize;
        assert_eq!(
            rule_ids.get(rule_index).copied(),
            Some(rule_id),
            "ruleIndex must point at the catalog entry for ruleId"
        );
        let level = str_of(result, "level");
        assert!(["error", "warning", "note"].contains(&level), "bad level {level}");
        assert!(
            result.get("message").and_then(|m| m.get("text")).and_then(Value::as_str).is_some(),
            "result.message.text required"
        );
        if let Some(locations) = result.get("locations").and_then(Value::as_arr) {
            for loc in locations {
                let phys = loc.get("physicalLocation").expect("physicalLocation");
                let artifact = phys.get("artifactLocation").expect("artifactLocation");
                let uri = str_of(artifact, "uri");
                assert!(!uri.starts_with('/'), "uri must be relative: {uri}");
                assert_eq!(str_of(artifact, "uriBaseId"), "%SRCROOT%");
                let line = phys
                    .get("region")
                    .and_then(|r| r.get("startLine"))
                    .and_then(Value::as_num)
                    .expect("region.startLine");
                assert!(line >= 1.0, "startLine is 1-based");
            }
        }
        if let Some(fps) = result.get("partialFingerprints") {
            match fps {
                Value::Obj(members) => {
                    assert!(!members.is_empty());
                    for (k, v) in members {
                        assert!(k.ends_with("/v1"), "fingerprint keys are versioned: {k}");
                        assert!(v.as_str().is_some_and(|s| !s.is_empty()));
                    }
                }
                other => panic!("partialFingerprints must be an object, got {other:?}"),
            }
        }
    }

    // The fixture's known findings made it through: one alloc error and
    // one stale-marker warning.
    let ids: Vec<&str> = results.iter().map(|r| str_of(r, "ruleId")).collect();
    assert!(ids.contains(&"hot-path::alloc"), "{ids:?}");
    assert!(ids.contains(&"allow-marker"), "{ids:?}");
}

/// The real workspace's SARIF (what CI uploads) must parse and keep the
/// same required shape even when the results array is empty.
#[test]
fn workspace_sarif_parses_and_is_well_formed() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .to_path_buf();
    let report = xtask::lint_workspace(&root).expect("workspace scan");
    let set = xtask::output::collect(&report, true);
    let doc = json::parse(&xtask::output::render_sarif(&set)).expect("valid JSON");
    assert_eq!(doc.get("version").and_then(Value::as_str), Some("2.1.0"));
    let runs = doc.get("runs").and_then(Value::as_arr).expect("runs");
    assert!(runs[0].get("results").and_then(Value::as_arr).is_some(), "results present");
}
