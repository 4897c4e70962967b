//! Item model for the workspace call graph: `fn` definitions with their
//! impl/trait context, and the call sites inside each body.
//!
//! Like the rest of `dpc-lint` this is dependency-free: it works on the
//! scrubbed text of [`SourceFile`] (comments and literals blanked), so a
//! `fn` or `foo(` inside a string never produces a phantom item or edge.
//! The extraction is deliberately *conservative over-approximation*:
//!
//! * every identifier directly followed by `(` (or by a `::<...>`
//!   turbofish then `(`) is a call site, classified as a method call
//!   (`.foo(`), a qualified call (`Type::foo(`, last path segment kept),
//!   or a bare call (`foo(`);
//! * calls inside closures attribute to the enclosing `fn` — a closure
//!   runs (if at all) on its definer's call path, so its callees are the
//!   definer's callees;
//! * macro invocations (`name!(`) are *not* call edges; the panic-family
//!   macros are caught textually by the line rules instead.
//!
//! The resolver in [`crate::graph`] turns these sites into edges.

use crate::source::{is_ident_byte, SourceFile};
use std::ops::Range;

/// One `fn` definition somewhere in the workspace.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the defining file in the slice given to [`parse_items`].
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The base name of the innermost enclosing `impl` target type or
    /// `trait` declaration (`System` for `impl<L, C> System<L, C>`),
    /// `None` for free and nested functions.
    pub qualifier: Option<String>,
    /// For methods of `impl Trait for Type` and for default bodies inside
    /// `trait Trait { .. }`: the trait's base name.
    pub trait_name: Option<String>,
    /// Byte offset of the `fn` keyword (for line reporting).
    pub sig_offset: usize,
    /// Body span (`{`..`}`), `None` for bodiless trait declarations.
    pub body: Option<Range<usize>>,
    /// Whether the definition sits inside `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
}

/// How a call site names its callee.
#[derive(Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `receiver.name(..)` — resolves to methods of that name anywhere.
    Method,
    /// `Seg::name(..)` — the last path segment before the name is kept
    /// (`Pfn` in `Pfn::new`, `hash` in `dpc_types::hash::hash_pc`).
    Qualified(String),
    /// `name(..)` with no path — resolves to free functions.
    Bare,
}

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    pub kind: CallKind,
}

/// Functions and their call sites for a set of files.
#[derive(Debug, Default)]
pub struct ItemIndex {
    pub fns: Vec<FnDef>,
    /// Call sites of `fns[i]`, same indexing.
    pub calls: Vec<Vec<CallSite>>,
}

/// An `impl`/`trait` container span with its resolved names.
#[derive(Debug)]
struct Container {
    span: Range<usize>,
    /// Impl target type name, or the trait's own name for `trait` decls.
    type_name: String,
    /// `Some` for `impl Trait for Type` and `trait Trait` containers.
    trait_name: Option<String>,
}

/// Parses every file into one workspace-wide [`ItemIndex`].
pub fn parse_items(files: &[SourceFile]) -> ItemIndex {
    let mut index = ItemIndex::default();
    for (file_idx, file) in files.iter().enumerate() {
        parse_file(file_idx, file, &mut index);
    }
    index
}

fn parse_file(file_idx: usize, file: &SourceFile, index: &mut ItemIndex) {
    let containers = find_containers(&file.scrubbed);
    let fns = find_fns(&file.scrubbed);
    let first_new = index.fns.len();
    for (sig_offset, name, body) in fns {
        // Innermost enclosing container — unless another fn body wraps
        // this definition more tightly (a nested fn is not a method).
        let container =
            containers.iter().filter(|c| c.span.contains(&sig_offset)).min_by_key(|c| c.span.len());
        let nested = body_wraps(&index.fns[first_new..], sig_offset);
        let (qualifier, trait_name) = match (container, nested) {
            (Some(c), false) => (Some(c.type_name.clone()), c.trait_name.clone()),
            _ => (None, None),
        };
        let calls = body.as_ref().map_or_else(Vec::new, |b| find_calls(&file.scrubbed, b.clone()));
        index.fns.push(FnDef {
            file: file_idx,
            name,
            qualifier,
            trait_name,
            sig_offset,
            body,
            is_test: file.in_test_code(sig_offset),
        });
        index.calls.push(calls);
    }
}

/// Whether an already-recorded fn of this file has a body containing
/// `offset`. `find_fns` emits outer fns before nested ones (it scans left
/// to right and an outer `fn` token precedes its body), so by the time a
/// nested fn is processed its encloser is in the index.
fn body_wraps(file_fns: &[FnDef], offset: usize) -> bool {
    file_fns.iter().any(|f| f.body.as_ref().is_some_and(|b| b.contains(&offset)))
}

/// Every `impl`/`trait` block in the scrubbed text.
fn find_containers(scrubbed: &str) -> Vec<Container> {
    let bytes = scrubbed.as_bytes();
    let mut containers = Vec::new();
    for keyword in ["impl", "trait"] {
        let mut from = 0;
        while let Some(pos) = scrubbed[from..].find(keyword) {
            let start = from + pos;
            from = start + keyword.len();
            let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
            let right_ok = bytes.get(start + keyword.len()).is_some_and(|&b| !is_ident_byte(b));
            if !left_ok || !right_ok {
                continue;
            }
            let header_from = start + keyword.len();
            if keyword == "impl" {
                if let Some(c) = parse_impl_header(scrubbed, header_from) {
                    containers.push(c);
                }
            } else if let Some(c) = parse_trait_header(scrubbed, header_from) {
                containers.push(c);
            }
        }
    }
    containers
}

/// Parses `impl<G..>? TraitPath for? TypePath where..? { .. }` starting
/// just after the `impl` keyword. Returns `None` for malformed headers
/// (or trait-bound positions like `impl Trait` in return types, which
/// have no `{` body).
fn parse_impl_header(scrubbed: &str, mut i: usize) -> Option<Container> {
    let bytes = scrubbed.as_bytes();
    i = skip_ws(bytes, i);
    if bytes.get(i) == Some(&b'<') {
        i = skip_angles(bytes, i)?;
    }
    // Collect the header up to the body `{` (skipping generic args so a
    // `Foo<Bar { .. }>`-free header; `where` clauses hold no braces).
    let header_start = i;
    let mut depth = 0i32;
    let open = loop {
        match bytes.get(i)? {
            b'<' => {
                i = skip_angles(bytes, i)?;
                continue;
            }
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => break i,
            b';' => return None,
            _ => {}
        }
        i += 1;
    };
    let header = &scrubbed[header_start..open];
    let (trait_part, type_part) = match split_top_level_for(header) {
        Some((t, ty)) => (Some(t), ty),
        None => (None, header),
    };
    let type_name = base_type_name(type_part)?;
    let trait_name = trait_part.and_then(base_type_name);
    Some(Container { span: open..match_brace(bytes, open), type_name, trait_name })
}

/// Parses `trait Name .. { .. }` after the `trait` keyword.
fn parse_trait_header(scrubbed: &str, mut i: usize) -> Option<Container> {
    let bytes = scrubbed.as_bytes();
    i = skip_ws(bytes, i);
    let name_start = i;
    while bytes.get(i).is_some_and(|&b| is_ident_byte(b)) {
        i += 1;
    }
    if i == name_start {
        return None;
    }
    let name = scrubbed[name_start..i].to_owned();
    let mut depth = 0i32;
    let open = loop {
        match bytes.get(i)? {
            b'<' => {
                i = skip_angles(bytes, i)?;
                continue;
            }
            b'(' | b'[' => depth += 1,
            b')' | b']' => depth -= 1,
            b'{' if depth == 0 => break i,
            b';' => return None, // `trait Alias = ..;` has no items
            _ => {}
        }
        i += 1;
    };
    Some(Container {
        span: open..match_brace(bytes, open),
        type_name: name.clone(),
        trait_name: Some(name),
    })
}

/// Splits an impl header at a top-level ` for ` keyword.
fn split_top_level_for(header: &str) -> Option<(&str, &str)> {
    let bytes = header.as_bytes();
    let mut from = 0;
    while let Some(pos) = header[from..].find("for") {
        let start = from + pos;
        from = start + 3;
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = bytes.get(start + 3).is_none_or(|&b| !is_ident_byte(b));
        if left_ok && right_ok {
            return Some((&header[..start], &header[start + 3..]));
        }
    }
    None
}

/// The base name of a type path: `&mut dpc_types::addr::Vpn` → `Vpn`,
/// `System<L, C>` → `System`.
fn base_type_name(part: &str) -> Option<String> {
    let part = part.trim().trim_start_matches('&').trim();
    let part = part.strip_prefix("mut ").unwrap_or(part).trim();
    let part = part.strip_prefix("dyn ").unwrap_or(part).trim();
    let head = part.split('<').next()?.trim().trim_end_matches("::");
    let name = head.rsplit("::").next()?.trim();
    if name.is_empty() || !name.bytes().all(is_ident_byte) {
        return None;
    }
    Some(name.to_owned())
}

/// Every `fn` definition in the scrubbed text: `(sig_offset, name, body)`.
fn find_fns(scrubbed: &str) -> Vec<(usize, String, Option<Range<usize>>)> {
    let bytes = scrubbed.as_bytes();
    let mut fns = Vec::new();
    let mut from = 0;
    while let Some(pos) = scrubbed[from..].find("fn") {
        let start = from + pos;
        from = start + 2;
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = bytes.get(start + 2).is_some_and(|&b| b == b' ' || b == b'\n');
        if !left_ok || !right_ok {
            continue;
        }
        let mut i = skip_ws(bytes, start + 2);
        let name_start = i;
        while bytes.get(i).is_some_and(|&b| is_ident_byte(b)) {
            i += 1;
        }
        if i == name_start {
            continue; // `fn(` — a function-pointer type, not a definition
        }
        let name = scrubbed[name_start..i].to_owned();
        // Find the body `{`, skipping the signature (generics, params,
        // return type, where clause). `;` first = bodiless declaration.
        let mut depth = 0i32;
        let body = loop {
            match bytes.get(i) {
                None => break None,
                Some(b'<') => {
                    match skip_angles(bytes, i) {
                        Some(next) => i = next,
                        None => break None,
                    }
                    continue;
                }
                Some(b'(' | b'[') => depth += 1,
                Some(b')' | b']') => depth -= 1,
                Some(b'{') if depth <= 0 => break Some(i..match_brace(bytes, i)),
                Some(b';') if depth <= 0 => break None,
                _ => {}
            }
            i += 1;
        };
        fns.push((start, name, body));
    }
    fns
}

/// Call sites inside `body` (a `{..}` span of the scrubbed text).
fn find_calls(scrubbed: &str, body: Range<usize>) -> Vec<CallSite> {
    let bytes = scrubbed.as_bytes();
    let mut calls = Vec::new();
    let mut i = body.start;
    while i < body.end {
        if !is_ident_start(bytes[i]) || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let name_start = i;
        while i < body.end && is_ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &scrubbed[name_start..i];
        // `name!(..)` is a macro; keywords head control-flow parens.
        if bytes.get(i) == Some(&b'!') || is_keyword(name) {
            continue;
        }
        // A turbofish may sit between the name and the argument list.
        let mut after = i;
        if bytes.get(after) == Some(&b':')
            && bytes.get(after + 1) == Some(&b':')
            && bytes.get(after + 2) == Some(&b'<')
        {
            match skip_angles(bytes, after + 2) {
                Some(next) => after = next,
                None => continue,
            }
        } else if bytes.get(after) == Some(&b':') {
            continue; // `seg::next` — this identifier is a path segment
        }
        if bytes.get(after) != Some(&b'(') {
            continue;
        }
        // Definitions are not call sites.
        if preceded_by_keyword(scrubbed, name_start, "fn") {
            continue;
        }
        let kind = classify(scrubbed, name_start);
        calls.push(CallSite { name: name.to_owned(), kind });
    }
    calls
}

/// Classifies the call at `name_start` by what precedes the name.
fn classify(scrubbed: &str, name_start: usize) -> CallKind {
    let bytes = scrubbed.as_bytes();
    let mut j = name_start;
    while j > 0 && (bytes[j - 1] == b' ' || bytes[j - 1] == b'\n') {
        j -= 1;
    }
    if j >= 1 && bytes[j - 1] == b'.' {
        return CallKind::Method;
    }
    if j >= 2 && bytes[j - 1] == b':' && bytes[j - 2] == b':' {
        // Walk back over the previous path segment (skipping a closing
        // `>` of generic args, as in `SetAssoc::<P>::fill`).
        let mut k = j - 2;
        if k > 0 && bytes[k - 1] == b'>' {
            let mut depth = 0i32;
            while k > 0 {
                k -= 1;
                match bytes[k] {
                    b'>' => depth += 1,
                    b'<' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
        }
        let seg_end = k;
        let mut seg_start = seg_end;
        while seg_start > 0 && is_ident_byte(bytes[seg_start - 1]) {
            seg_start -= 1;
        }
        if seg_start < seg_end {
            return CallKind::Qualified(scrubbed[seg_start..seg_end].to_owned());
        }
        return CallKind::Bare;
    }
    CallKind::Bare
}

fn preceded_by_keyword(scrubbed: &str, name_start: usize, keyword: &str) -> bool {
    let head = scrubbed[..name_start].trim_end();
    head.ends_with(keyword)
        && head[..head.len() - keyword.len()].bytes().next_back().is_none_or(|b| !is_ident_byte(b))
}

fn is_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "fn"
            | "loop"
            | "unsafe"
            | "move"
            | "as"
            | "in"
            | "let"
            | "else"
            | "impl"
            | "pub"
            | "where"
            | "use"
            | "mod"
            | "crate"
            | "super"
            | "true"
            | "false"
            | "ref"
            | "mut"
            | "dyn"
            | "type"
            | "const"
            | "static"
            | "struct"
            | "enum"
            | "union"
            | "trait"
            | "break"
            | "continue"
            | "await"
            | "async"
            | "box"
    )
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn skip_ws(bytes: &[u8], mut i: usize) -> usize {
    while bytes.get(i).is_some_and(|&b| b == b' ' || b == b'\n') {
        i += 1;
    }
    i
}

/// Offset just past the `>` matching the `<` at `open`. Tolerates `->`
/// inside generic bounds (`impl<F: Fn() -> u64>`): the `>` of an arrow
/// never closes an angle bracket.
fn skip_angles(bytes: &[u8], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i + 1);
                }
            }
            b'(' => {
                // Parenthesized args (Fn traits) may hold `<`/`>` as
                // comparison-free type grammar; balance them blindly.
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Offset just past the brace matching the `{` at `open`.
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(src: &str) -> ItemIndex {
        let file = SourceFile::from_str("crates/x/src/lib.rs", src);
        parse_items(std::slice::from_ref(&file))
    }

    fn find<'i>(index: &'i ItemIndex, name: &str) -> &'i FnDef {
        index.fns.iter().find(|f| f.name == name).expect("fn present")
    }

    #[test]
    fn free_fn_and_method_qualifiers() {
        let idx = index(
            "fn free() {}\n\
             struct S;\n\
             impl S { fn method(&self) {} }\n\
             impl<T> Wrap<T> { fn generic_method(&self) {} }\n",
        );
        assert_eq!(find(&idx, "free").qualifier, None);
        assert_eq!(find(&idx, "method").qualifier.as_deref(), Some("S"));
        assert_eq!(find(&idx, "generic_method").qualifier.as_deref(), Some("Wrap"));
    }

    #[test]
    fn trait_impl_and_default_bodies() {
        let idx = index(
            "trait P { fn hook(&self) {} fn required(&self); }\n\
             struct S;\n\
             impl P for S { fn required(&self) {} }\n",
        );
        let hook = find(&idx, "hook");
        assert_eq!(hook.qualifier.as_deref(), Some("P"));
        assert_eq!(hook.trait_name.as_deref(), Some("P"));
        assert!(hook.body.is_some());
        let required =
            idx.fns.iter().find(|f| f.name == "required" && f.body.is_some()).expect("impl");
        assert_eq!(required.qualifier.as_deref(), Some("S"));
        assert_eq!(required.trait_name.as_deref(), Some("P"));
    }

    #[test]
    fn nested_fn_is_not_a_method() {
        let idx = index("struct S;\nimpl S { fn outer(&self) { fn inner() {} inner(); } }\n");
        assert_eq!(find(&idx, "outer").qualifier.as_deref(), Some("S"));
        assert_eq!(find(&idx, "inner").qualifier, None);
    }

    #[test]
    fn call_kinds_classified() {
        let idx = index(
            "fn f() {\n    helper();\n    obj.method_call(1);\n    Pfn::new(0);\n    \
             dpc_types::hash::hash_pc();\n    items.collect::<Vec<_>>();\n    Self::assoc();\n}\n",
        );
        let calls = &idx.calls[idx.fns.iter().position(|f| f.name == "f").expect("f")];
        let get = |n: &str| calls.iter().find(|c| c.name == n).expect("call");
        assert_eq!(get("helper").kind, CallKind::Bare);
        assert_eq!(get("method_call").kind, CallKind::Method);
        assert_eq!(get("new").kind, CallKind::Qualified("Pfn".into()));
        assert_eq!(get("hash_pc").kind, CallKind::Qualified("hash".into()));
        assert_eq!(get("collect").kind, CallKind::Method);
        assert_eq!(get("assoc").kind, CallKind::Qualified("Self".into()));
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let idx = index("fn f(x: bool) { if (x) { panic!(\"no\"); } while (x) {} }\n");
        assert!(idx.calls[0].is_empty(), "{:?}", idx.calls[0]);
    }

    #[test]
    fn closure_calls_attribute_to_encloser() {
        let idx = index("fn f(v: &[u32]) { v.iter().map(|x| helper(x)).count(); }\n");
        let calls = &idx.calls[idx.fns.iter().position(|f| f.name == "f").expect("f")];
        assert!(calls.iter().any(|c| c.name == "helper" && c.kind == CallKind::Bare));
    }

    #[test]
    fn impl_header_with_fn_bound_generics() {
        let idx = index("impl<F: FnMut(u64) -> u64> Runner<F> { fn go(&self) {} }\n");
        assert_eq!(find(&idx, "go").qualifier.as_deref(), Some("Runner"));
    }

    #[test]
    fn trait_decl_without_body_fn_recorded() {
        let idx = index("trait P { fn required(&self); }\n");
        let f = find(&idx, "required");
        assert!(f.body.is_none());
        assert_eq!(f.qualifier.as_deref(), Some("P"));
    }
}
