//! Machine-readable diagnostics for `dpc-lint`.
//!
//! The lint pass produces a [`LintReport`]; this module flattens it into
//! a severity-tagged [`Diagnostic`] list and renders it as plain text,
//! JSON, or SARIF 2.1.0 (the format GitHub code scanning ingests).
//!
//! **Fingerprints.** Every violation carries a fingerprint — an FNV-1a
//! hash of `(rule, file, offending line text)` — that survives unrelated
//! edits elsewhere in the file. SARIF carries it as
//! `partialFingerprints`, so code scanning tracks a finding across
//! commits.

use crate::json;
use crate::rules;
use crate::LintReport;
use std::fmt;

/// Diagnostic severity, mapped 1:1 onto SARIF `level`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    Error,
    Warning,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Error => "error",
            Level::Warning => "warning",
        })
    }
}

/// Synthetic rule id for allow-marker problems (missing reason, unknown
/// rule name, unused marker).
pub const ALLOW_MARKER_RULE: &str = "allow-marker";

/// One rendered diagnostic.
#[derive(Debug)]
pub struct Diagnostic {
    /// Rule id (a name from [`rules::ALL_RULES`] or a synthetic id).
    pub rule: String,
    pub level: Level,
    /// Workspace-relative path (`/` separators).
    pub rel: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
    /// Stable fingerprint, see [`fingerprint`].
    pub fingerprint: String,
}

/// The flattened outcome of a lint run.
#[derive(Debug)]
pub struct DiagnosticSet {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub reachable_fns: usize,
    pub total_fns: usize,
}

impl DiagnosticSet {
    /// Whether any error-level diagnostic is present (exit code 1).
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.level == Level::Error)
    }

    pub fn count(&self, level: Level) -> usize {
        self.diagnostics.iter().filter(|d| d.level == level).count()
    }
}

/// FNV-1a 64-bit fingerprint of a violation's identity.
pub fn fingerprint(rule: &str, rel: &str, line_text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in [rule, "\0", rel, "\0", line_text.trim()] {
        for byte in chunk.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Flattens `report` into severity-tagged diagnostics.
///
/// * violations → `error`;
/// * allow markers missing a reason / naming unknown rules → `error`;
/// * unused allow markers → `warning`, or `error` under `strict`.
pub fn collect(report: &LintReport, strict: bool) -> DiagnosticSet {
    let mut diagnostics = Vec::new();
    for v in &report.violations {
        diagnostics.push(Diagnostic {
            rule: v.rule.to_owned(),
            level: Level::Error,
            rel: v.rel.clone(),
            line: v.line,
            message: v.message.clone(),
            fingerprint: v.fingerprint.clone(),
        });
    }
    for (rel, line, rules) in &report.missing_reasons {
        diagnostics.push(Diagnostic {
            rule: ALLOW_MARKER_RULE.to_owned(),
            level: Level::Error,
            rel: rel.clone(),
            line: *line,
            message: format!("allow({rules}) needs `-- <reason>` (or names an unknown rule)"),
            fingerprint: fingerprint(ALLOW_MARKER_RULE, rel, rules),
        });
    }
    for (rel, line, rules) in &report.unused_allows {
        diagnostics.push(Diagnostic {
            rule: ALLOW_MARKER_RULE.to_owned(),
            level: if strict { Level::Error } else { Level::Warning },
            rel: rel.clone(),
            line: *line,
            message: format!("allow({rules}) suppressed nothing; remove the stale marker"),
            fingerprint: fingerprint(ALLOW_MARKER_RULE, rel, rules),
        });
    }
    diagnostics.sort_by(|a, b| (&a.rel, a.line, &a.rule).cmp(&(&b.rel, b.line, &b.rule)));
    DiagnosticSet {
        diagnostics,
        files_scanned: report.files_scanned,
        reachable_fns: report.reachable_fns,
        total_fns: report.total_fns,
    }
}

/// Renders the diagnostic set as the `--format json` document.
pub fn render_json(set: &DiagnosticSet) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"tool\": \"dpc-lint\",\n");
    out.push_str(&format!("  \"files_scanned\": {},\n", set.files_scanned));
    out.push_str(&format!("  \"hot_reachable_fns\": {},\n", set.reachable_fns));
    out.push_str(&format!("  \"total_fns\": {},\n", set.total_fns));
    out.push_str("  \"diagnostics\": [");
    let last = set.diagnostics.len().saturating_sub(1);
    for (i, d) in set.diagnostics.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"level\": \"{}\", \"file\": \"{}\", \"line\": {}, \
             \"message\": \"{}\", \"fingerprint\": \"{}\"}}{comma}",
            json::escape(&d.rule),
            d.level,
            json::escape(&d.rel),
            d.line,
            json::escape(&d.message),
            json::escape(&d.fingerprint),
        ));
    }
    if !set.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Renders the diagnostic set as a SARIF 2.1.0 log (one run, one tool).
pub fn render_sarif(set: &DiagnosticSet) -> String {
    let mut rules_catalog: Vec<(String, String)> =
        rules::DESCRIPTIONS.iter().map(|&(id, desc)| (id.to_owned(), desc.to_owned())).collect();
    rules_catalog.push((
        ALLOW_MARKER_RULE.to_owned(),
        "dpc-lint escape-hatch markers must name known rules, carry a reason, and suppress \
         something"
            .to_owned(),
    ));

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \
         \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"dpc-lint\",\n");
    out.push_str("          \"version\": \"2.0.0\",\n");
    out.push_str(
        "          \"informationUri\": \"https://github.com/dpc-sim/dpc/blob/main/DESIGN.md\",\n",
    );
    out.push_str("          \"rules\": [");
    let last_rule = rules_catalog.len().saturating_sub(1);
    for (i, (id, desc)) in rules_catalog.iter().enumerate() {
        let comma = if i == last_rule { "" } else { "," };
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}{comma}",
            json::escape(id),
            json::escape(desc),
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"columnKind\": \"utf16CodeUnits\",\n");
    out.push_str("      \"results\": [");
    let last = set.diagnostics.len().saturating_sub(1);
    for (i, d) in set.diagnostics.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let rule_index =
            rules_catalog.iter().position(|(id, _)| *id == d.rule).unwrap_or(last_rule);
        out.push_str(&format!(
            "\n        {{\n          \"ruleId\": \"{}\",\n          \"ruleIndex\": \
             {rule_index},\n          \"level\": \"{}\",\n          \"message\": {{\"text\": \
             \"{}\"}}",
            json::escape(&d.rule),
            d.level,
            json::escape(&d.message),
        ));
        out.push_str(&format!(
            ",\n          \"locations\": [\n            {{\"physicalLocation\": \
             {{\"artifactLocation\": {{\"uri\": \"{}\", \"uriBaseId\": \"%SRCROOT%\"}}, \
             \"region\": {{\"startLine\": {}}}}}}}\n          ],\n          \
             \"partialFingerprints\": {{\"dpcLintFingerprint/v1\": \"{}\"}}",
            json::escape(&d.rel),
            d.line.max(1),
            json::escape(&d.fingerprint),
        ));
        out.push_str(&format!("\n        }}{comma}"));
    }
    if !set.diagnostics.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn report_for(rel: &str, src: &str) -> LintReport {
        let file = SourceFile::from_str(rel, src);
        crate::lint_files(std::slice::from_ref(&file))
    }

    #[test]
    fn fingerprint_is_stable_and_line_insensitive() {
        let a = fingerprint("hot-path::unwrap", "crates/memsim/src/cache.rs", "  x.unwrap();");
        let b = fingerprint("hot-path::unwrap", "crates/memsim/src/cache.rs", "x.unwrap();");
        assert_eq!(a, b, "leading whitespace must not change the fingerprint");
        let c = fingerprint("hot-path::panic", "crates/memsim/src/cache.rs", "x.unwrap();");
        assert_ne!(a, c, "the rule is part of the identity");
    }

    #[test]
    fn unused_allow_is_error_only_in_strict() {
        let src = "// dpc-lint: allow(determinism::wall-clock) -- stale\nlet x = 1;\n";
        let report = report_for("crates/core/src/report.rs", src);
        assert!(!collect(&report, false).has_errors());
        assert!(collect(&report, true).has_errors());
    }

    #[test]
    fn json_output_parses_and_carries_fields() {
        let report =
            report_for("crates/memsim/src/cache.rs", "fn f(x: Option<u32>) { x.unwrap(); }\n");
        let set = collect(&report, false);
        let doc = json::parse(&render_json(&set)).expect("valid JSON");
        let diags = doc.get("diagnostics").and_then(json::Value::as_arr).expect("array");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("rule").and_then(json::Value::as_str), Some("hot-path::unwrap"));
        assert_eq!(diags[0].get("line").and_then(json::Value::as_num), Some(1.0));
    }
}
