//! `dispatch` family: keep the simulation hot path monomorphic.
//!
//! The event loop dispatches policy hooks (`on_lookup` / `on_fill` /
//! `on_hit` / `on_evict`) once per simulated memory operation at every
//! cache and TLB level. Those hooks only inline — and the predictor
//! update paths only fuse with the SoA scan loops — when the policy type
//! is concrete, which is the whole point of the `System<L, C>`
//! monomorphization. A `dyn LevelPolicy` / `dyn LltPolicy` /
//! `dyn LlcPolicy` anywhere in
//! `memsim` or `core` silently reintroduces two virtual calls per hook
//! site, so non-test code there may not name a trait-object policy at
//! all: every `System` and `Hierarchy` is built from concrete policy
//! types.

use super::{push, Violation};
use crate::source::SourceFile;

/// No `dyn LevelPolicy` / `dyn LltPolicy` / `dyn LlcPolicy` (boxed or
/// borrowed) in non-test code of the dispatch scopes.
pub const BOXED_POLICY: &str = "dispatch::boxed-policy";

/// Crate source trees the family applies to: the simulator kernel and
/// the experiment-construction layer that instantiates it.
const DISPATCH_SCOPES: &[&str] = &["crates/memsim/src/", "crates/core/src/"];

const POLICY_OBJECT_TOKENS: &[&str] = &["dyn LevelPolicy", "dyn LltPolicy", "dyn LlcPolicy"];

pub fn in_scope(rel: &str) -> bool {
    DISPATCH_SCOPES.iter().any(|scope| rel.starts_with(scope))
}

pub fn check(file: &SourceFile, violations: &mut Vec<Violation>) {
    if !in_scope(&file.rel) {
        return;
    }
    for token in POLICY_OBJECT_TOKENS {
        for offset in file.token_offsets(token) {
            if file.in_test_code(offset) {
                continue;
            }
            push(
                violations,
                file,
                BOXED_POLICY,
                offset,
                format!(
                    "`{token}` in the simulator: trait-object policies put virtual calls on \
                     the per-event hook sites; build `System<L, C>` with concrete policy types",
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::parse(PathBuf::from(rel), rel.to_owned(), src.to_owned())
    }

    fn rules(file: &SourceFile) -> Vec<&'static str> {
        let mut violations = Vec::new();
        check(file, &mut violations);
        violations.into_iter().map(|v| v.rule).collect()
    }

    #[test]
    fn boxed_policy_in_memsim_flagged() {
        let f = file("crates/memsim/src/system.rs", "fn f(p: Box<dyn LltPolicy>) {}\n");
        assert_eq!(rules(&f), vec![BOXED_POLICY]);
    }

    #[test]
    fn borrowed_policy_object_in_core_flagged() {
        let f = file("crates/core/src/runner.rs", "fn f(p: &mut dyn LlcPolicy) {}\n");
        assert_eq!(rules(&f), vec![BOXED_POLICY]);
    }

    #[test]
    fn shared_hook_trait_object_flagged() {
        let f = file(
            "crates/memsim/src/hierarchy.rs",
            "fn f(p: &mut dyn LevelPolicy<Key = BlockAddr>) {}\n",
        );
        assert_eq!(rules(&f), vec![BOXED_POLICY]);
    }

    #[test]
    fn former_fallback_modules_flagged() {
        for rel in ["crates/memsim/src/fallback.rs", "crates/core/src/fallback.rs"] {
            let f = file(rel, "pub type DynLltPolicy = Box<dyn LltPolicy>;\n");
            assert_eq!(rules(&f), vec![BOXED_POLICY], "{rel} has no exemption");
        }
    }

    #[test]
    fn out_of_scope_crates_and_tests_exempt() {
        let f = file("crates/bench/src/lib.rs", "fn f(p: Box<dyn LltPolicy>) {}\n");
        assert_eq!(rules(&f), Vec::<&str>::new());
        let f = file(
            "crates/memsim/src/system.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(p: Box<dyn LltPolicy>) {}\n}\n",
        );
        assert_eq!(rules(&f), Vec::<&str>::new());
    }

    #[test]
    fn similarly_named_types_not_flagged() {
        // `DynLltPolicy` (the alias) and comments must not trip the rule.
        let f = file(
            "crates/memsim/src/system.rs",
            "// a dyn LltPolicy would be slow\nuse crate::fallback::DynLltPolicy;\n",
        );
        assert_eq!(rules(&f), Vec::<&str>::new());
    }
}
