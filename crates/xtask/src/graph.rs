//! The workspace call graph and hot-path reachability.
//!
//! Built from [`crate::items`]: nodes are `fn` definitions, edges are the
//! conservatively-resolved call sites inside each body. The graph is
//! rooted at the replay entry points the warm loop runs through —
//! `System::run_stream`/`step`, `Hierarchy::access`,
//! `SetAssoc::locate`/`fill`, `EventStream::decode_chunk`
//! — plus every method of a `LevelPolicy`/`LltPolicy`/`LlcPolicy` impl
//! (and the trait default bodies), since policy hooks fire once per
//! simulated memory operation. Everything reachable from a
//! root is **hot**, and [`crate::rules::hot_path`] holds it to the
//! panic-freedom, bounds-evidence, and allocation-freedom rules wherever
//! it lives.
//!
//! ## Soundness caveats (documented, deliberate)
//!
//! Resolution over-approximates: a method call `.fill(..)` edges to every
//! workspace method named `fill`, because without type inference the
//! receiver is unknown. The converse holes are: calls routed through
//! function pointers or closures *stored in fields*, fully-qualified
//! `<T as Trait>::m` syntax, and macro-generated code are not traced.
//! Those shapes don't occur on the replay path today; the runtime
//! counting-allocator proof (`tests/alloc_free.rs`) backstops what the
//! static pass cannot see.

use crate::items::{parse_items, CallKind, FnDef, ItemIndex};
use crate::source::SourceFile;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::ops::Range;

/// Hot-path roots named as `(impl type, fn name)`.
pub const HOT_ROOTS: &[(&str, &str)] = &[
    ("System", "run_stream"),
    ("System", "step"),
    ("Hierarchy", "access"),
    ("SetAssoc", "locate"),
    ("SetAssoc", "fill"),
    ("EventStream", "decode_chunk"),
];

/// Traits whose entire method surface (impls and default bodies) roots
/// the graph: the per-event policy hooks.
pub const HOT_TRAITS: &[&str] = &["LevelPolicy", "LltPolicy", "LlcPolicy"];

/// Only `crates/<name>/src/` files participate in the graph: integration
/// tests, benches and examples drive the simulator but are not simulated
/// code, and the linter (`crates/xtask`) is excluded upstream.
fn in_graph_scope(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/")
}

/// One hot (reachable) function body in a file.
#[derive(Debug, Clone)]
pub struct HotSpan {
    /// Body byte range in the file's text.
    pub body: Range<usize>,
    /// The function's display name (`System::step`, `decode_chunk`).
    pub fn_name: String,
    /// Shortest discovery chain from a root, for diagnostics:
    /// `System::step → helper_a → helper_b`.
    pub via: String,
}

/// Hot-path reachability over a set of files.
#[derive(Debug, Default)]
pub struct Reachability {
    /// Hot function bodies keyed by workspace-relative path.
    pub hot_by_rel: BTreeMap<String, Vec<HotSpan>>,
    /// Number of reachable functions.
    pub reachable_fns: usize,
    /// Number of function definitions considered.
    pub total_fns: usize,
    /// [`HOT_ROOTS`] entries, as `Type::name`, that no non-test `fn` in
    /// scope defines: a deleted or renamed root roots nothing.
    pub unresolved_roots: Vec<String>,
}

impl Reachability {
    /// Hot spans of one file (empty if none).
    pub fn hot_spans(&self, rel: &str) -> &[HotSpan] {
        self.hot_by_rel.get(rel).map_or(&[], Vec::as_slice)
    }
}

/// Builds the call graph over `files` and walks reachability from the
/// hot-path roots. Cycles are handled by the visited set of the BFS.
pub fn analyze(files: &[SourceFile]) -> Reachability {
    let scoped: Vec<bool> = files.iter().map(|f| in_graph_scope(&f.rel)).collect();
    let index = parse_items(files);
    let resolver = Resolver::build(&index, &scoped);

    // BFS from every root, tracking the parent edge for `via` chains.
    let mut queue = VecDeque::new();
    let mut parent: HashMap<usize, Option<usize>> = HashMap::new();
    for (id, def) in index.fns.iter().enumerate() {
        if !scoped[def.file] || def.is_test || !is_root(def) {
            continue;
        }
        parent.insert(id, None);
        queue.push_back(id);
    }
    while let Some(id) = queue.pop_front() {
        for callee in resolver.callees(&index, id) {
            let def = &index.fns[callee];
            if def.is_test || !scoped[def.file] || parent.contains_key(&callee) {
                continue;
            }
            parent.insert(callee, Some(id));
            queue.push_back(callee);
        }
    }

    let unresolved_roots = HOT_ROOTS
        .iter()
        .filter(|&&root| !index.fns.iter().any(|d| scoped[d.file] && !d.is_test && names(d, root)))
        .map(|(qual, name)| format!("{qual}::{name}"))
        .collect();
    let mut reach = Reachability {
        total_fns: index.fns.iter().enumerate().filter(|(_, d)| scoped[d.file]).count(),
        reachable_fns: parent.len(),
        unresolved_roots,
        ..Default::default()
    };
    for &id in parent.keys() {
        let def = &index.fns[id];
        let Some(body) = def.body.clone() else { continue };
        let rel = files[def.file].rel.clone();
        reach.hot_by_rel.entry(rel).or_default().push(HotSpan {
            body,
            fn_name: display_name(def),
            via: via_chain(&index, &parent, id),
        });
    }
    for spans in reach.hot_by_rel.values_mut() {
        spans.sort_by_key(|s| s.body.start);
    }
    reach
}

/// Whether `def` is the method `root` names as `(impl type, fn name)`.
fn names(def: &FnDef, (qual, name): (&str, &str)) -> bool {
    def.name == name && def.qualifier.as_deref() == Some(qual)
}

fn is_root(def: &FnDef) -> bool {
    let named_root = HOT_ROOTS.iter().any(|&root| names(def, root));
    let hook = def.trait_name.as_deref().is_some_and(|t| HOT_TRAITS.contains(&t));
    named_root || hook
}

fn display_name(def: &FnDef) -> String {
    match &def.qualifier {
        Some(q) => format!("{q}::{}", def.name),
        None => def.name.clone(),
    }
}

/// The discovery chain `root → .. → fn`, elided in the middle when long.
fn via_chain(index: &ItemIndex, parent: &HashMap<usize, Option<usize>>, id: usize) -> String {
    let mut chain = vec![display_name(&index.fns[id])];
    let mut cur = id;
    while let Some(&Some(p)) = parent.get(&cur) {
        chain.push(display_name(&index.fns[p]));
        cur = p;
    }
    chain.reverse();
    if chain.len() > 5 {
        let head = chain.first().cloned().unwrap_or_default();
        let tail = chain[chain.len() - 2..].join(" → ");
        return format!("{head} → … → {tail}");
    }
    chain.join(" → ")
}

/// Name-indexed call resolution.
struct Resolver {
    /// All known impl-target and trait names.
    type_names: HashSet<String>,
    /// `(qualifier, name)` → fn ids.
    by_qual: HashMap<(String, String), Vec<usize>>,
    /// Methods (fns with a qualifier) by name.
    methods_by_name: HashMap<String, Vec<usize>>,
    /// Free and nested fns by name.
    free_by_name: HashMap<String, Vec<usize>>,
}

impl Resolver {
    fn build(index: &ItemIndex, scoped: &[bool]) -> Self {
        let mut r = Resolver {
            type_names: HashSet::new(),
            by_qual: HashMap::new(),
            methods_by_name: HashMap::new(),
            free_by_name: HashMap::new(),
        };
        for (id, def) in index.fns.iter().enumerate() {
            if !scoped[def.file] || def.is_test {
                continue;
            }
            match &def.qualifier {
                Some(q) => {
                    r.type_names.insert(q.clone());
                    r.by_qual.entry((q.clone(), def.name.clone())).or_default().push(id);
                    r.methods_by_name.entry(def.name.clone()).or_default().push(id);
                }
                None => {
                    r.free_by_name.entry(def.name.clone()).or_default().push(id);
                }
            }
            if let Some(t) = &def.trait_name {
                r.type_names.insert(t.clone());
            }
        }
        r
    }

    /// Resolves every call site of `caller` to candidate callee ids.
    fn callees(&self, index: &ItemIndex, caller: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let caller_qual = index.fns[caller].qualifier.clone();
        for call in &index.calls[caller] {
            match &call.kind {
                CallKind::Method => {
                    // Unknown receiver: every workspace method of that
                    // name is a candidate (this is where trait-method
                    // dispatch — policy hooks included — is resolved).
                    if let Some(ids) = self.methods_by_name.get(&call.name) {
                        out.extend_from_slice(ids);
                    }
                }
                CallKind::Qualified(q) => {
                    let q = if q == "Self" {
                        match &caller_qual {
                            Some(own) => own.clone(),
                            None => continue,
                        }
                    } else {
                        q.clone()
                    };
                    if self.type_names.contains(&q) {
                        if let Some(ids) = self.by_qual.get(&(q.clone(), call.name.clone())) {
                            out.extend_from_slice(ids);
                        }
                        // A trait-qualified call (`LltPolicy::on_fill(p, ..)`)
                        // dispatches to every impl of that trait method.
                        if let Some(ids) = self.methods_by_name.get(&call.name) {
                            out.extend(
                                ids.iter()
                                    .copied()
                                    .filter(|&id| index.fns[id].trait_name.as_deref() == Some(&q)),
                            );
                        }
                    } else {
                        // Module-qualified path (`hash::hash_pc`) or a
                        // foreign type (`Vec::new`): only free fns match —
                        // falling back to every method of that name would
                        // drag foreign-constructor names like `new` in.
                        if let Some(ids) = self.free_by_name.get(&call.name) {
                            out.extend_from_slice(ids);
                        }
                    }
                }
                CallKind::Bare => {
                    if let Some(ids) = self.free_by_name.get(&call.name) {
                        out.extend_from_slice(ids);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(sources: &[(&str, &str)]) -> Vec<SourceFile> {
        sources.iter().map(|(rel, src)| SourceFile::from_str(rel, src)).collect()
    }

    fn hot_names(reach: &Reachability) -> Vec<String> {
        let mut names: Vec<String> =
            reach.hot_by_rel.values().flatten().map(|s| s.fn_name.clone()).collect();
        names.sort();
        names
    }

    #[test]
    fn two_hop_bare_call_chain_reachable() {
        let reach = analyze(&files(&[(
            "crates/memsim/src/system.rs",
            "impl<L, C> System<L, C> { pub fn step(&mut self) { helper_a(); } }\n\
             fn helper_a() { helper_b(); }\n\
             fn helper_b() { }\n\
             fn unrelated() { }\n",
        )]));
        assert_eq!(hot_names(&reach), vec!["System::step", "helper_a", "helper_b"]);
        let spans = reach.hot_spans("crates/memsim/src/system.rs");
        let b = spans.iter().find(|s| s.fn_name == "helper_b").expect("helper_b hot");
        assert_eq!(b.via, "System::step → helper_a → helper_b");
    }

    #[test]
    fn cross_crate_qualified_and_method_calls() {
        let reach = analyze(&files(&[
            (
                "crates/memsim/src/system.rs",
                "impl<L, C> System<L, C> { pub fn run_stream(&mut self, s: &EventStream) {\n    \
                 s.decode_chunk(0);\n    let p = Pfn::new(0);\n} }\n",
            ),
            (
                "crates/types/src/stream.rs",
                "impl EventStream { pub fn decode_chunk(&self, n: u64) { inner_decode(n); } }\n\
                 fn inner_decode(_n: u64) {}\n",
            ),
            (
                "crates/types/src/addr.rs",
                "impl Pfn { pub fn new(raw: u64) -> Self { Pfn(raw) } }\n\
                 impl Pfn { pub fn unused(raw: u64) -> Self { Pfn(raw) } }\n",
            ),
        ]));
        let names = hot_names(&reach);
        assert!(names.contains(&"EventStream::decode_chunk".to_owned()), "{names:?}");
        assert!(names.contains(&"inner_decode".to_owned()), "{names:?}");
        assert!(names.contains(&"Pfn::new".to_owned()), "{names:?}");
        assert!(!names.contains(&"Pfn::unused".to_owned()), "{names:?}");
    }

    #[test]
    fn trait_method_edges_reach_every_impl() {
        let reach = analyze(&files(&[(
            "crates/memsim/src/policy.rs",
            "pub trait LltPolicy { fn on_fill(&mut self) { default_helper(); } }\n\
             fn default_helper() {}\n\
             pub struct DpPred;\n\
             impl LltPolicy for DpPred { fn on_fill(&mut self) { dppred_helper(); } }\n\
             fn dppred_helper() {}\n",
        )]));
        let names = hot_names(&reach);
        for expected in ["LltPolicy::on_fill", "DpPred::on_fill", "default_helper", "dppred_helper"]
        {
            assert!(names.contains(&expected.to_owned()), "{expected} missing from {names:?}");
        }
    }

    #[test]
    fn closure_body_calls_create_edges() {
        let reach = analyze(&files(&[(
            "crates/memsim/src/set_assoc.rs",
            "impl<P> SetAssoc<P> { pub fn locate(&self, v: &[u32]) {\n    \
             v.iter().map(|x| from_closure(x)).count();\n} }\n\
             fn from_closure(_x: &u32) {}\n",
        )]));
        assert!(hot_names(&reach).contains(&"from_closure".to_owned()));
    }

    #[test]
    fn cycles_terminate_and_stay_hot() {
        let reach = analyze(&files(&[(
            "crates/memsim/src/system.rs",
            "impl<L, C> System<L, C> { pub fn step(&mut self) { ping(); } }\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); }\n",
        )]));
        assert_eq!(hot_names(&reach), vec!["System::step", "ping", "pong"]);
    }

    #[test]
    fn test_code_and_out_of_scope_files_excluded() {
        let reach = analyze(&files(&[
            (
                "crates/memsim/src/system.rs",
                "impl<L, C> System<L, C> { pub fn step(&mut self) {} }\n\
                 #[cfg(test)]\nmod tests {\n    impl LltPolicy for Fake { fn on_fill(&mut self) \
                 {} }\n}\n",
            ),
            ("tests/integration.rs", "fn step() { anything(); }\nfn anything() {}\n"),
        ]));
        assert_eq!(hot_names(&reach), vec!["System::step"]);
    }

    #[test]
    fn self_qualified_calls_resolve_in_own_impl() {
        let reach = analyze(&files(&[(
            "crates/memsim/src/set_assoc.rs",
            "impl<P> SetAssoc<P> { pub fn fill(&mut self) { Self::helper(); }\n    \
             fn helper() {} }\n",
        )]));
        assert!(hot_names(&reach).contains(&"SetAssoc::helper".to_owned()));
    }

    #[test]
    fn roots_missing_from_scope_are_reported() {
        let reach = analyze(&files(&[
            (
                "crates/memsim/src/system.rs",
                "impl<L, C> System<L, C> { pub fn step(&mut self) {} }\n\
                 #[cfg(test)]\nmod tests {\n    impl<L, C> System<L, C> { fn run_stream(&mut \
                 self) {} }\n}\n",
            ),
            ("tests/integration.rs", "impl Hierarchy { pub fn access(&mut self) {} }\n"),
        ]));
        let unresolved = &reach.unresolved_roots;
        assert_eq!(unresolved.len(), HOT_ROOTS.len() - 1, "{unresolved:?}");
        assert!(!unresolved.contains(&"System::step".to_owned()));
        // Test code and out-of-scope files do not define a root.
        assert!(unresolved.contains(&"System::run_stream".to_owned()));
        assert!(unresolved.contains(&"Hierarchy::access".to_owned()));
    }

    #[test]
    fn foreign_qualifier_does_not_overmatch_methods() {
        // `Vec::new` must not edge to every workspace `new` method.
        let reach = analyze(&files(&[(
            "crates/memsim/src/system.rs",
            "impl<L, C> System<L, C> { pub fn step(&mut self) { let v = Vec::new(); } }\n\
             pub struct Other;\n\
             impl Other { pub fn new() -> Self { expensive_setup(); Other } }\n\
             fn expensive_setup() {}\n",
        )]));
        let names = hot_names(&reach);
        assert!(!names.contains(&"Other::new".to_owned()), "{names:?}");
        assert!(!names.contains(&"expensive_setup".to_owned()), "{names:?}");
    }
}
