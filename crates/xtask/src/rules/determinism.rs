//! `determinism` family: the campaign engine promises bit-identical
//! results for any `DPC_THREADS` value, and reports must not depend on
//! process-local state. These rules keep wall clocks, entropy, and
//! default-hasher iteration order out of anything that feeds a report.

use super::{push, Violation};
use crate::source::{is_ident_byte, SourceFile};

/// No `std::time::{Instant, SystemTime}` outside the campaign engine's
/// own timing code (`crates/core/src/campaign.rs`).
pub const WALL_CLOCK: &str = "determinism::wall-clock";

/// No `rand::thread_rng` / `SeedableRng::from_entropy` / `rand::random`
/// anywhere — workload generators must derive from `seed_from_u64`.
pub const UNSEEDED_RNG: &str = "determinism::unseeded-rng";

/// No iteration over default-hasher `HashMap`/`HashSet`: iteration order
/// is randomized per process, so any iteration that can reach a report,
/// a stat, or a memo key must use `BTreeMap`/`BTreeSet` or sort first.
pub const HASH_ITERATION: &str = "determinism::hash-iteration";

/// The one file allowed to read wall clocks: campaign observability.
const WALL_CLOCK_EXEMPT: &str = "crates/core/src/campaign.rs";

const CLOCK_TOKENS: &[&str] = &["Instant", "SystemTime"];
const RNG_TOKENS: &[&str] = &["thread_rng", "from_entropy", "rand::random"];

/// Iterator-producing methods whose order leaks out of a hash container.
const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
];

/// Order-restoring steps: a statement containing one of these after the
/// iteration is deterministic again.
const ORDER_RESTORERS: &[&str] = &["sort", "collect::<BTree", "collect::<std::collections::BTree"];

pub fn check(file: &SourceFile, violations: &mut Vec<Violation>) {
    check_wall_clock(file, violations);
    check_rng(file, violations);
    check_hash_iteration(file, violations);
}

fn check_wall_clock(file: &SourceFile, violations: &mut Vec<Violation>) {
    if file.rel == WALL_CLOCK_EXEMPT {
        return;
    }
    for token in CLOCK_TOKENS {
        for offset in file.token_offsets(token) {
            if file.in_test_code(offset) {
                continue;
            }
            push(
                violations,
                file,
                WALL_CLOCK,
                offset,
                format!(
                    "`{token}` outside {WALL_CLOCK_EXEMPT}: wall clocks break \
                     bit-identical campaign results"
                ),
            );
        }
    }
}

fn check_rng(file: &SourceFile, violations: &mut Vec<Violation>) {
    for token in RNG_TOKENS {
        for offset in file.token_offsets(token) {
            if file.in_test_code(offset) {
                continue;
            }
            push(
                violations,
                file,
                UNSEEDED_RNG,
                offset,
                format!("`{token}` is unseeded entropy; use `SmallRng::seed_from_u64`"),
            );
        }
    }
}

fn check_hash_iteration(file: &SourceFile, violations: &mut Vec<Violation>) {
    let names = hash_typed_names(&file.scrubbed);
    if names.is_empty() {
        return;
    }
    for name in &names {
        // `<name>.iter()` and friends.
        for method in ITER_METHODS {
            let pattern = format!("{name}{method}");
            for offset in file.token_offsets(&pattern) {
                if file.in_test_code(offset) || statement_restores_order(file, offset) {
                    continue;
                }
                push(
                    violations,
                    file,
                    HASH_ITERATION,
                    offset,
                    format!(
                        "iterating `{name}` (HashMap/HashSet): order is per-process random; \
                         use BTreeMap/BTreeSet or sort before anything observable"
                    ),
                );
            }
        }
        // `for x in [&[mut]] <name>` loops.
        for offset in for_loops_over(&file.scrubbed, name) {
            if file.in_test_code(offset) || statement_restores_order(file, offset) {
                continue;
            }
            push(
                violations,
                file,
                HASH_ITERATION,
                offset,
                format!(
                    "`for` loop over `{name}` (HashMap/HashSet): order is per-process random; \
                     use BTreeMap/BTreeSet or sort first"
                ),
            );
        }
    }
}

/// Whether the statement containing `offset` ends in an order-restoring
/// step (`.sort*()`, `.collect::<BTree...>()`).
fn statement_restores_order(file: &SourceFile, offset: usize) -> bool {
    let stmt = file.statement_from(offset, 600);
    ORDER_RESTORERS.iter().any(|r| stmt.contains(r))
}

/// Identifiers bound to a `HashMap`/`HashSet` in this file: struct fields
/// and `let` bindings with a hash-typed annotation or initializer, plus
/// bindings typed by a local `type X = ...HashMap...` alias.
fn hash_typed_names(scrubbed: &str) -> Vec<String> {
    let mut hash_types = vec!["HashMap".to_owned(), "HashSet".to_owned()];
    // Local aliases: `type DoaRecord = Rc<RefCell<HashMap<...>>>;`
    for line in scrubbed.lines() {
        let trimmed = line.trim_start();
        let alias = trimmed.strip_prefix("pub type ").or_else(|| trimmed.strip_prefix("type "));
        if let Some(rest) = alias {
            if let Some((name, rhs)) = rest.split_once('=') {
                if rhs.contains("HashMap") || rhs.contains("HashSet") {
                    let name = name.trim().split('<').next().unwrap_or("").trim();
                    if !name.is_empty() {
                        hash_types.push(name.to_owned());
                    }
                }
            }
        }
    }

    let mut names = Vec::new();
    for line in scrubbed.lines() {
        if !hash_types.iter().any(|t| contains_token(line, t)) {
            continue;
        }
        // `name: HashMap<...>` (field or annotated binding).
        if let Some(colon) = line.find(':') {
            let (before, after) = line.split_at(colon);
            if hash_types.iter().any(|t| contains_token(&after[1..], t)) {
                if let Some(name) = last_ident(before) {
                    names.push(name);
                }
            }
        }
        // `let [mut] name = HashMap::new()` / `HashSet::with_capacity(...)`.
        if let Some(eq) = line.find('=') {
            let (before, after) = line.split_at(eq);
            if hash_types.iter().any(|t| contains_token(&after[1..], t)) && before.contains("let ")
            {
                if let Some(name) = last_ident(before.trim_end().trim_end_matches(':')) {
                    names.push(name);
                }
            }
        }
    }
    names.sort();
    names.dedup();
    names.retain(|n| !hash_types.contains(n) && n != "let" && n != "mut");
    names
}

fn contains_token(haystack: &str, token: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = end;
    }
    false
}

/// The trailing identifier of `text` (e.g. `    pub cache` → `cache`).
fn last_ident(text: &str) -> Option<String> {
    let trimmed = text.trim_end();
    let start = trimmed
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map_or(0, |i| i + c_len(trimmed, i));
    let ident = &trimmed[start..];
    (!ident.is_empty() && !ident.starts_with(|c: char| c.is_ascii_digit()))
        .then(|| ident.to_owned())
}

fn c_len(s: &str, i: usize) -> usize {
    s[i..].chars().next().map_or(1, char::len_utf8)
}

/// Start offsets of `for ... in [&[mut ]]name` loops (loop keyword
/// position), where the loop expression is exactly the named binding or a
/// field access ending in it.
fn for_loops_over(scrubbed: &str, name: &str) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut from = 0;
    while let Some(pos) = scrubbed[from..].find("for ") {
        let start = from + pos;
        from = start + 4;
        if start > 0 && is_ident_byte(scrubbed.as_bytes()[start - 1]) {
            continue;
        }
        // The `for` of an impl header (`impl Trait for Type {}`) starts
        // no loop: its `in` would be a later loop's, reported there.
        let line_start = scrubbed[..start].rfind('\n').map_or(0, |i| i + 1);
        let head = scrubbed[line_start..start].trim_start();
        if head.starts_with("impl ") || head.starts_with("impl<") {
            continue;
        }
        let Some(in_rel) = scrubbed[start..].find(" in ") else { continue };
        let expr_start = start + in_rel + 4;
        let expr_end =
            scrubbed[expr_start..].find(['{', '\n']).map_or(scrubbed.len(), |i| expr_start + i);
        let expr = scrubbed[expr_start..expr_end]
            .trim()
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim();
        // Exactly the binding, or `self.<name>` / `foo.<name>`.
        let matches_name = expr == name
            || expr
                .strip_suffix(name)
                .is_some_and(|prefix| prefix.ends_with('.') || prefix.ends_with("::"));
        if matches_name {
            offsets.push(start);
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::from_str(rel, src);
        let mut v = Vec::new();
        check(&file, &mut v);
        v
    }

    #[test]
    fn instant_outside_campaign_flagged() {
        let v = run("crates/core/src/report.rs", "use std::time::Instant;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, WALL_CLOCK);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn instant_inside_campaign_allowed() {
        let v = run("crates/core/src/campaign.rs", "use std::time::Instant;\n");
        assert!(v.is_empty());
    }

    #[test]
    fn instant_in_test_code_allowed() {
        let v = run(
            "crates/core/src/report.rs",
            "#[cfg(test)]\nmod tests {\n    use std::time::Instant;\n}\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unseeded_rng_flagged() {
        let v = run("crates/workloads/src/graph.rs", "let mut rng = rand::thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNSEEDED_RNG);
    }

    #[test]
    fn seeded_rng_allowed() {
        let v =
            run("crates/workloads/src/graph.rs", "let mut rng = SmallRng::seed_from_u64(seed);\n");
        assert!(v.is_empty());
    }

    #[test]
    fn hashmap_field_iteration_flagged() {
        let src = "struct S { cache: HashMap<K, V> }\n\
                   impl S {\n    fn dump(&self) {\n        for (k, v) in &self.cache {\n            \
                   out.push(k);\n        }\n    }\n}\n";
        let v = run("crates/core/src/report.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, HASH_ITERATION);
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn hashmap_keys_method_flagged() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\nlet ks: Vec<_> = \
                   m.keys().collect();\n";
        let v = run("crates/core/src/report.rs", src);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn sorted_iteration_allowed() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\nlet mut ks: Vec<_> = \
                   m.keys().collect();\nks.sort();\n";
        // The sort is a separate statement: the `.keys()` statement itself
        // must contain the restore step to pass without an allow marker.
        let flagged = run("crates/core/src/report.rs", src);
        assert_eq!(flagged.len(), 1);

        let inline = "let m: HashMap<u32, u32> = HashMap::new();\nlet ks: BTreeSet<_> = \
                      m.keys().collect::<BTreeSet<_>>();\n";
        assert!(run("crates/core/src/report.rs", inline).is_empty());
    }

    #[test]
    fn keyed_access_allowed() {
        let src = "let m: HashMap<u32, u32> = HashMap::new();\nlet v = m.get(&1);\n\
                   m.insert(2, 3);\nlet n = m.len();\n";
        assert!(run("crates/core/src/report.rs", src).is_empty());
    }

    #[test]
    fn alias_typed_fields_are_tracked() {
        let src = "type Record = Rc<RefCell<HashMap<u64, bool>>>;\n\
                   struct S { record: Record }\n\
                   impl S { fn f(&self) { for x in self.record.borrow().iter() {} } }\n";
        // `for` over a method chain is not the bare name, but `.iter()` on
        // the field is caught via the method pattern.
        let src2 = "type Record = Rc<RefCell<HashMap<u64, bool>>>;\n\
                    struct S { record: Record }\n\
                    impl S { fn f(&self) { let _ = self.record.iter(); } }\n";
        assert_eq!(run("crates/predictors/src/oracle.rs", src2).len(), 1);
        let _ = src;
    }

    #[test]
    fn impl_header_for_is_not_a_loop() {
        // An empty impl's `for` must not borrow the next loop's `in`; the
        // loop itself is still reported, once, at its own `for`.
        let src = "let entries: HashMap<u64, u64> = HashMap::new();\n\
                   impl Marker for S {}\n\
                   impl<K> Marker for W<K> {}\n\
                   for e in entries {}\n";
        let found = run("crates/predictors/src/oracle.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].line, 4);
    }

    #[test]
    fn btreemap_iteration_allowed() {
        let src = "let m: BTreeMap<u32, u32> = BTreeMap::new();\nfor (k, v) in &m {}\n";
        assert!(run("crates/core/src/report.rs", src).is_empty());
    }
}
