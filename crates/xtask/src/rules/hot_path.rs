//! `hot-path` family: panic-free, allocation-free simulation kernels.
//!
//! Two scopes compose:
//!
//! * **crate scope** — all non-test code in `crates/memsim` and
//!   `crates/predictors` (executed once per simulated memory operation)
//!   must not `unwrap`/`expect`, must not reach `panic!`-family macros,
//!   and may only index slices when the enclosing function shows visible
//!   bounds reasoning;
//! * **reachability scope** — every function the call graph
//!   ([`crate::graph`]) proves reachable from the replay roots
//!   (`System::run_stream`/`step`, `SetAssoc::locate`/`fill`, the
//!   `LevelPolicy`/`LltPolicy`/`LlcPolicy` hook surface,
//!   `EventStream::decode_chunk`)
//!   is held to the same rules *wherever it lives*, plus the
//!   [`ALLOC`] rule: no heap construction (`Vec`/`Box`/`format!`/
//!   `to_vec`/`to_owned`-style heap clones) on the warm path, the static
//!   complement of the counting-allocator proof in
//!   `tests/alloc_free.rs`.

use super::{push, Violation};
use crate::graph::HotSpan;
use crate::source::{is_ident_byte, SourceFile};
use std::ops::Range;

/// No `.unwrap()` / `.expect(` in non-test hot-path code.
pub const UNWRAP: &str = "hot-path::unwrap";

/// No `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
/// `get_unchecked` in non-test hot-path code. (`assert!` is permitted:
/// constructor validation is bounds reasoning, not a hot-path hazard.)
pub const PANIC: &str = "hot-path::panic";

/// Slice indexing requires visible bounds reasoning in the enclosing
/// function.
pub const INDEX: &str = "hot-path::index";

/// No heap construction in code reachable from the replay roots.
pub const ALLOC: &str = "hot-path::alloc";

/// Crate source trees the panic/index rules apply to wholesale.
const HOT_PATH_SCOPES: &[&str] = &["crates/memsim/src/", "crates/predictors/src/"];

const PANIC_TOKENS: &[&str] =
    &["panic!(", "unreachable!(", "todo!(", "unimplemented!(", "get_unchecked"];

/// Heap-constructing expressions forbidden in hot-reachable code. The
/// list is textual and deliberately explicit: `collect` only counts when
/// its turbofish names an allocating container, and `clone` is covered
/// via the owning conversions (`to_vec`/`to_owned`/`to_string`) — a bare
/// `.clone()` may be a `Copy`-like register copy the pass cannot type.
const ALLOC_TOKENS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    "Box::new(",
    "Box::from(",
    "Rc::new(",
    "Arc::new(",
    "format!(",
    "String::new(",
    "String::with_capacity(",
    "String::from(",
    ".to_vec(",
    ".to_owned(",
    ".to_string(",
    ".into_vec(",
    "HashMap::new(",
    "HashSet::new(",
    "BTreeMap::new(",
    "BTreeSet::new(",
    "VecDeque::new(",
    ".collect::<Vec",
    ".collect::<String",
    ".collect::<Box",
];

pub fn in_scope(rel: &str) -> bool {
    HOT_PATH_SCOPES.iter().any(|scope| rel.starts_with(scope))
}

pub fn check(file: &SourceFile, hot: &[HotSpan], violations: &mut Vec<Violation>) {
    let crate_scoped = in_scope(&file.rel);
    if crate_scoped {
        check_unwrap(file, 0..file.scrubbed.len(), "", violations);
        check_panics(file, 0..file.scrubbed.len(), "", violations);
        check_indexing(file, 0..file.scrubbed.len(), "", violations);
    }
    for span in hot {
        let context = format!(" — hot-path-reachable via {}", span.via);
        if !crate_scoped {
            // The crate sweep already covered these bodies; outside it,
            // reachability extends the panic/index rules to this span.
            check_unwrap(file, span.body.clone(), &context, violations);
            check_panics(file, span.body.clone(), &context, violations);
            check_indexing(file, span.body.clone(), &context, violations);
        }
        check_alloc(file, span.body.clone(), &context, violations);
    }
}

fn check_unwrap(
    file: &SourceFile,
    range: Range<usize>,
    context: &str,
    violations: &mut Vec<Violation>,
) {
    for token in [".unwrap()", ".expect("] {
        for offset in file.token_offsets(token) {
            if !range.contains(&offset) || file.in_test_code(offset) {
                continue;
            }
            push(
                violations,
                file,
                UNWRAP,
                offset,
                format!(
                    "`{token}` in hot-path code: return an error or restructure so the \
                     failure case is impossible by construction{context}",
                ),
            );
        }
    }
}

fn check_panics(
    file: &SourceFile,
    range: Range<usize>,
    context: &str,
    violations: &mut Vec<Violation>,
) {
    for token in PANIC_TOKENS {
        for offset in file.token_offsets(token) {
            if !range.contains(&offset) || file.in_test_code(offset) {
                continue;
            }
            push(violations, file, PANIC, offset, format!("`{token}` in hot-path code{context}"));
        }
    }
}

fn check_alloc(
    file: &SourceFile,
    range: Range<usize>,
    context: &str,
    violations: &mut Vec<Violation>,
) {
    for token in ALLOC_TOKENS {
        for offset in file.token_offsets(token) {
            if !range.contains(&offset) || file.in_test_code(offset) {
                continue;
            }
            push(
                violations,
                file,
                ALLOC,
                offset,
                format!(
                    "`{token}` allocates in hot-reachable code: hoist the allocation to \
                     construction/reset time and reuse the buffer{context}"
                ),
            );
        }
    }
}

/// Evidence that a computed index is in bounds. Any of:
///
/// * the index expression itself masks (`%`, `&`, `>>`, `.min(`);
/// * it is an integer literal;
/// * the enclosing function binds it through a mask, or through a helper
///   whose name declares index production (`index`, `idx`, `hash`,
///   `radix`, `set_of`, `way`);
/// * the enclosing function asserts about it (`assert!`, `debug_assert!`,
///   `invariant!`) or compares it against a bound (`x <`, `x >=`);
/// * it is a `for`-loop variable (bounded by its range) or comes from
///   `.enumerate()` / `.len()`.
fn check_indexing(
    file: &SourceFile,
    range: Range<usize>,
    context: &str,
    violations: &mut Vec<Violation>,
) {
    let bytes = file.scrubbed.as_bytes();
    let mut i = range.start;
    while i < range.end {
        if bytes[i] != b'[' {
            i += 1;
            continue;
        }
        let open = i;
        // Indexing only: the `[` must directly follow an identifier, `)`,
        // or `]` (array literals, attributes and types don't).
        let prev = previous_non_space(bytes, open);
        let is_indexing = prev.is_some_and(|b| is_ident_byte(b) || b == b')' || b == b']');
        let Some(close) = matching_bracket(bytes, open) else {
            i = open + 1;
            continue;
        };
        i = open + 1;
        if !is_indexing || file.in_test_code(open) {
            continue;
        }
        let content = file.scrubbed[open + 1..close].trim();
        if content.is_empty() || index_is_self_evident(content) {
            continue;
        }
        let Some(body) = file.enclosing_fn_body(open) else { continue };
        let Some(ident) = main_identifier(content) else { continue };
        if body_shows_bounds_reasoning(body, &ident) {
            continue;
        }
        push(
            violations,
            file,
            INDEX,
            open,
            format!(
                "slice index `{content}` has no visible bounds reasoning in this function \
                 (mask it, bound it with an assert/`invariant!`, or use `.get`){context}"
            ),
        );
    }
}

fn previous_non_space(bytes: &[u8], mut i: usize) -> Option<u8> {
    while i > 0 {
        i -= 1;
        if bytes[i] != b' ' && bytes[i] != b'\n' {
            return Some(bytes[i]);
        }
    }
    None
}

fn matching_bracket(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Indexes that carry their own bounds reasoning.
fn index_is_self_evident(content: &str) -> bool {
    // Literal (possibly cast or ranged): `0`, `3`, `1..=3`, `0..n`.
    if content
        .chars()
        .all(|c| c.is_ascii_digit() || "._= ".contains(c) || c == 'u' || c == 's' || c == 'i')
    {
        return true;
    }
    // Inline mask or clamp.
    ["%", "&", ">>", ".min(", ".clamp("].iter().any(|m| content.contains(m))
}

/// The identifier the index hinges on: the last plain identifier in the
/// content (`self.config.vpn_bits` → `vpn_bits`, `*cursor` → `cursor`,
/// `level as usize` → `level`).
fn main_identifier(content: &str) -> Option<String> {
    let stripped = content
        .trim_end_matches("as usize")
        .trim_end_matches("as u64")
        .trim_end_matches("as u32")
        .trim();
    let mut best: Option<&str> = None;
    let mut start = None;
    for (i, c) in stripped.char_indices().chain([(stripped.len(), ' ')]) {
        if c.is_ascii_alphanumeric() || c == '_' {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            let word = &stripped[s..i];
            if !word.starts_with(|c: char| c.is_ascii_digit()) && word != "as" {
                best = Some(word);
            }
        }
    }
    best.map(str::to_owned)
}

/// Keywords in a binding's right-hand side that certify the value as an
/// in-range index.
///
/// `locate`, `match_mask` and `trailing_zeros` cover the SoA hot path
/// (`crates/memsim/src/soa.rs` and its `set_assoc` callers): `locate`
/// returns a flat column index bounded by construction, and a way index
/// recovered via `trailing_zeros` of a validity/match bitmask is bounded
/// by the mask width (`match_mask` intersects with the per-set validity
/// mask, whose population never exceeds `ways`).
const TRUSTED_PRODUCERS: &[&str] = &[
    "index",
    "idx",
    "hash",
    "radix",
    "set_of",
    "way",
    "len",
    "locate",
    "match_mask",
    "trailing_zeros",
];

fn body_shows_bounds_reasoning(body: &str, ident: &str) -> bool {
    // Bounded loop variable: `for <ident> in ...` or `.enumerate()` in
    // the same function.
    if contains_seq(body, &["for ", ident, " in"]) || body.contains(".enumerate()") {
        return true;
    }
    // Assertions mentioning the identifier.
    for assert in ["assert!(", "assert_eq!(", "debug_assert!(", "invariant!("] {
        let mut from = 0;
        while let Some(pos) = body[from..].find(assert) {
            let start = from + pos;
            from = start + assert.len();
            let stmt_end = body[start..].find(';').map_or(body.len(), |e| start + e);
            if token_in(&body[start..stmt_end], ident) {
                return true;
            }
        }
    }
    // Comparison against a bound anywhere in the function.
    for cmp in [format!("{ident} <"), format!("{ident} >="), format!("< {ident}")] {
        if body.contains(&cmp) {
            return true;
        }
    }
    // A binding whose right-hand side masks or calls a trusted producer:
    // `let idx = self.index(...)`, `let set = x % sets`, or a tuple
    // destructuring that ends with the identifier, as in
    // `let (set, idx) = self.locate(addr, way)`.
    for pattern in [format!("{ident} ="), format!("{ident}) =")] {
        let mut from = 0;
        while let Some(pos) = body[from..].find(&pattern) {
            let start = from + pos;
            from = start + pattern.len();
            let left_ok = start == 0 || !is_ident_byte(body.as_bytes()[start - 1]);
            if !left_ok || body.as_bytes().get(start + pattern.len()) == Some(&b'=') {
                continue;
            }
            let rhs_end = body[start..].find(';').map_or(body.len(), |e| start + e);
            let rhs = &body[start + pattern.len()..rhs_end];
            if ["%", "&", ">>", ".min(", ".clamp("].iter().any(|m| rhs.contains(m))
                || TRUSTED_PRODUCERS.iter().any(|p| rhs.to_ascii_lowercase().contains(p))
            {
                return true;
            }
        }
    }
    false
}

fn contains_seq(body: &str, parts: &[&str]) -> bool {
    let needle: String = parts.concat();
    body.contains(&needle)
}

fn token_in(haystack: &str, token: &str) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Violation> {
        let file = SourceFile::from_str(rel, src);
        let mut v = Vec::new();
        check(&file, &[], &mut v);
        v
    }

    /// Runs the checks with one hot span covering `fn_name`'s body.
    fn run_hot(rel: &str, src: &str, fn_name: &str) -> Vec<Violation> {
        let file = SourceFile::from_str(rel, src);
        let at = src.find(&format!("fn {fn_name}")).expect("fn present");
        let body_open = src[at..].find('{').expect("body") + at;
        let span = HotSpan {
            body: body_open..src.len(),
            fn_name: fn_name.to_owned(),
            via: format!("System::step → {fn_name}"),
        };
        let mut v = Vec::new();
        check(&file, &[span], &mut v);
        v
    }

    #[test]
    fn unwrap_in_hot_path_flagged() {
        let v = run("crates/memsim/src/cache.rs", "fn f(x: Option<u32>) { x.unwrap(); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNWRAP);
    }

    #[test]
    fn expect_in_hot_path_flagged() {
        let v = run(
            "crates/predictors/src/dppred.rs",
            "fn f(x: Option<u32>) { x.expect(\"present\"); }\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, UNWRAP);
    }

    #[test]
    fn unwrap_outside_scope_ignored_without_reachability() {
        let v = run("crates/core/src/runner.rs", "fn f(x: Option<u32>) { x.unwrap(); }\n");
        assert!(v.is_empty());
    }

    #[test]
    fn unwrap_outside_scope_flagged_when_hot() {
        let v = run_hot(
            "crates/core/src/runner.rs",
            "fn helper(x: Option<u32>) { x.unwrap(); }\n",
            "helper",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, UNWRAP);
        assert!(v[0].message.contains("hot-path-reachable via System::step"), "{}", v[0].message);
    }

    #[test]
    fn panic_outside_scope_flagged_when_hot() {
        let v = run_hot(
            "crates/types/src/stream.rs",
            "fn decode(x: u32) { if x > 3 { panic!(\"bad tag\"); } }\n",
            "decode",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, PANIC);
    }

    #[test]
    fn alloc_in_hot_span_flagged() {
        let v = run_hot(
            "crates/memsim/src/walker.rs",
            "fn walk(&mut self) { let scratch = Vec::with_capacity(4); }\n",
            "walk",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, ALLOC);
        assert!(v[0].message.contains("Vec::with_capacity("));
    }

    #[test]
    fn alloc_outside_hot_span_ignored() {
        // Constructors allocate by design; without a hot span the alloc
        // rule stays silent even inside the hot crates.
        let v = run(
            "crates/memsim/src/walker.rs",
            "fn new() -> Self { Self { nodes: Vec::with_capacity(4) } }\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn alloc_variants_flagged() {
        for (snippet, token) in [
            ("let s = format!(\"{x}\");", "format!("),
            ("let b = Box::new(x);", "Box::new("),
            ("let v = slice.to_vec();", ".to_vec("),
            ("let o = name.to_owned();", ".to_owned("),
            ("let c: Vec<u32> = it.collect::<Vec<u32>>();", ".collect::<Vec"),
        ] {
            let src = format!("fn hotfn(x: u32) {{ {snippet} }}\n");
            let v = run_hot("crates/core/src/report.rs", &src, "hotfn");
            assert!(v.iter().any(|v| v.rule == ALLOC), "{token} not flagged: {v:?}");
        }
    }

    #[test]
    fn unwrap_in_tests_ignored() {
        let v = run(
            "crates/memsim/src/cache.rs",
            "#[cfg(test)]\nmod tests {\n    fn f(x: Option<u32>) { x.unwrap(); }\n}\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn panic_macros_flagged() {
        let v = run("crates/memsim/src/tlb.rs", "fn f() { unreachable!(\"no\"); }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, PANIC);
    }

    #[test]
    fn assert_is_not_a_panic_violation() {
        let v = run("crates/memsim/src/tlb.rs", "fn f(n: u32) { assert!(n > 0, \"no\"); }\n");
        assert!(v.is_empty());
    }

    #[test]
    fn no_double_report_in_crate_scope_with_hot_span() {
        // A hot span inside memsim must not duplicate the crate sweep's
        // unwrap/panic findings (only the alloc rule adds there).
        let v = run_hot(
            "crates/memsim/src/cache.rs",
            "fn helper(x: Option<u32>) { x.unwrap(); }\n",
            "helper",
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn unproven_index_flagged() {
        let v = run(
            "crates/predictors/src/dppred.rs",
            "fn f(&mut self, wild: usize) { self.phist[wild].clear(); }\n",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, INDEX);
    }

    #[test]
    fn unproven_index_in_hot_span_flagged_outside_scope() {
        let v = run_hot(
            "crates/types/src/stream.rs",
            "fn decode(&self, wild: usize) -> u64 { self.tags[wild] }\n",
            "decode",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, INDEX);
    }

    #[test]
    fn masked_index_allowed() {
        let v = run(
            "crates/predictors/src/dppred.rs",
            "fn f(&mut self, wild: usize) { self.phist[wild % self.phist.len()].clear(); }\n",
        );
        assert!(v.is_empty());
    }

    #[test]
    fn invariant_checked_index_allowed() {
        let src = "fn f(&mut self, wild: usize) {\n    dpc_types::invariant!(wild < \
                   self.phist.len());\n    self.phist[wild].clear();\n}\n";
        assert!(run("crates/predictors/src/dppred.rs", src).is_empty());
    }

    #[test]
    fn trusted_producer_binding_allowed() {
        let src = "fn f(&mut self, pc: u32, vpn: u32) {\n    let slot = self.index(pc, vpn);\n    \
                   self.phist[slot].clear();\n}\n";
        assert!(run("crates/predictors/src/dppred.rs", src).is_empty());
    }

    #[test]
    fn soa_bitmask_first_match_allowed() {
        // The SoA hot-path idiom: a way recovered from the match bitmask
        // via `trailing_zeros` is bounded by the validity-mask width.
        let src =
            "fn lookup(&mut self, set: usize, base: usize, tag: u64) -> Option<usize> {\n    \
                   let hit = self.cols.match_mask(set, base, tag);\n    \
                   let way = hit.trailing_zeros() as usize;\n    \
                   Some(self.stamps[way])\n}\n";
        assert!(run("crates/memsim/src/soa.rs", src).is_empty());
    }

    #[test]
    fn tuple_destructured_trusted_producer_allowed() {
        // `locate` returns `(set, flat_index)`; binding through a tuple
        // pattern is the same evidence as a direct binding.
        let src = "fn payload(&self, addr: u64, way: usize) -> &P {\n    \
                   let (_, idx) = self.locate(addr, way);\n    \
                   &self.payloads[idx]\n}\n";
        assert!(run("crates/memsim/src/set_assoc.rs", src).is_empty());
    }

    #[test]
    fn tuple_binding_without_producer_still_flagged() {
        let src = "fn f(&self, addr: u64) -> u32 {\n    \
                   let (_, wild) = self.mystery(addr);\n    \
                   self.payloads[wild]\n}\n";
        let v = run("crates/memsim/src/set_assoc.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, INDEX);
    }

    #[test]
    fn loop_variable_index_allowed() {
        let src = "fn f(&mut self) {\n    for level in 0..4 {\n        \
                   self.nodes[level].touch();\n    }\n}\n";
        assert!(run("crates/memsim/src/walker.rs", src).is_empty());
    }

    #[test]
    fn array_literals_not_mistaken_for_indexing() {
        let src = "fn f() -> [u64; 4] {\n    let a = [0u64; 4];\n    a\n}\n";
        assert!(run("crates/memsim/src/walker.rs", src).is_empty());
    }

    #[test]
    fn get_unchecked_flagged() {
        let src = "fn f(v: &[u32], i: usize) -> u32 { unsafe { *v.get_unchecked(i) } }\n";
        let v = run("crates/memsim/src/cache.rs", src);
        assert!(v.iter().any(|v| v.rule == PANIC));
    }
}
