//! Workspace call graph with conservative name-based resolution.
//!
//! Nodes are every `fn` item the item parser found; edges are call sites
//! resolved **by name**, over-approximating wherever the lexical view
//! cannot decide (DESIGN.md §8):
//!
//! * `.name(...)` method calls resolve to every *self-taking* method
//!   named `name` in any `impl`/`trait` block in the workspace — receiver
//!   types are invisible lexically, and `dyn`/trait dispatch makes even a
//!   typed resolver over-approximate here. Self-less associated fns are
//!   excluded: Rust only reaches those through `Type::name(...)` syntax,
//!   so dropping them loses no edges;
//! * `Qual::name(...)` qualified calls narrow to methods of containers
//!   named `Qual` when the pair exists. Otherwise, a TitleCase qualifier
//!   is a type or trait: any workspace `impl`/`trait` on it would have
//!   registered the pair, so the only workspace code the call can still
//!   reach is a trait *default* method body named `name` (inherited
//!   without an override); failing that, the target is derived or
//!   external code. A lowercase qualifier is a module path segment. When
//!   the caller's module declares an inline `mod q { … }` in the same file
//!   and `q` defines a free fn `name`, `q::name` resolves to those defs
//!   only: there Rust resolves `q` to that child module (a `use` of the
//!   same name beside it would not compile). Otherwise it falls back wide
//!   — every def named `name`;
//! * bare `name(...)` calls resolve to every *free* function named
//!   `name` — a bare call can never reach a method, so excluding methods
//!   loses nothing; closure and fn-pointer invocations resolve to the
//!   same-named free fns, and closure *bodies* are audited as part of
//!   the function that defines them.
//!
//! Candidates are additionally filtered by the crate dependency map
//! ([`crate::deps`]): code in crate A can only name items from crates in
//! A's `[dependencies]` closure, so dropping the rest removes only edges
//! the compiler itself would reject.
//!
//! Calls that resolve to nothing are external (std / vendored stand-ins)
//! and terminate the walk. The direction of every approximation is more
//! edges, never fewer: a reachability false **negative** is impossible
//! for workspace-defined code, and every false positive is auditable at
//! the diagnostic it produces.

use std::collections::BTreeMap;

use crate::deps::CrateMap;
use crate::items::FnItem;

/// A node: one `fn` item, tagged with the file it came from.
#[derive(Debug)]
pub struct Def {
    /// Index into the workspace file list.
    pub file: usize,
    /// The parsed item.
    pub item: FnItem,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Callee def index.
    pub to: usize,
    /// 1-based line of the call site (in the caller's file).
    pub line: usize,
    /// Index into the caller's `item.calls` — groups the edges one call
    /// site fanned out to, so rules can tell an unambiguous resolution
    /// (one candidate) from a conservative spray.
    pub call: usize,
}

/// The resolved workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// All function defs, in (file, offset) order.
    pub defs: Vec<Def>,
    /// Outgoing resolved edges per def, deduplicated, in call order.
    pub edges: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Builds the graph with no crate-visibility filtering (every file in
    /// one virtual crate) — the in-memory fixture path.
    pub fn build(per_file: Vec<Vec<FnItem>>) -> Self {
        let file_crate = vec![0; per_file.len()];
        Self::build_with_deps(per_file, &file_crate, &CrateMap::permissive())
    }

    /// Builds the graph from per-file item lists (parallel to the
    /// workspace file list), keeping only edges permitted by the crate
    /// dependency map (`file_crate[i]` is the crate owning file `i`).
    pub fn build_with_deps(
        per_file: Vec<Vec<FnItem>>,
        file_crate: &[usize],
        deps: &CrateMap,
    ) -> Self {
        let mut defs = Vec::new();
        for (file, items) in per_file.into_iter().enumerate() {
            for item in items {
                defs.push(Def { file, item });
            }
        }
        // Name indexes. `free` holds container-less defs; `methods` holds
        // self-taking defs inside impl/trait blocks (the `.name(` targets);
        // `assoc` holds every containered def (the module-path fallback);
        // `trait_defaults` holds bodied trait-block defs (what a qualified
        // call on an unregistered type can still reach); `by_container`
        // narrows qualified calls.
        let mut free: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut assoc: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut trait_defaults: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut by_container: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
        // Free defs inside inline mods, by (file, module path, name): what
        // a `q::name` call beside `mod q { … }` reaches.
        let mut inline: BTreeMap<(usize, &[String], &str), Vec<usize>> = BTreeMap::new();
        for (i, d) in defs.iter().enumerate() {
            if d.item.container.is_none() && !d.item.module.is_empty() {
                inline.entry((d.file, &d.item.module, &d.item.name)).or_default().push(i);
            }
            match &d.item.container {
                Some(c) => {
                    assoc.entry(&d.item.name).or_default().push(i);
                    if d.item.has_self {
                        methods.entry(&d.item.name).or_default().push(i);
                    }
                    if d.item.in_trait && d.item.body.is_some() {
                        trait_defaults.entry(&d.item.name).or_default().push(i);
                    }
                    by_container.entry((c.as_str(), &d.item.name)).or_default().push(i);
                }
                None => free.entry(&d.item.name).or_default().push(i),
            }
        }
        let mut edges: Vec<Vec<Edge>> = Vec::with_capacity(defs.len());
        for d in &defs {
            let caller_crate = file_crate[d.file];
            let mut out: Vec<Edge> = Vec::new();
            for (call_i, call) in d.item.calls.iter().enumerate() {
                let name = call.name.as_str();
                let mut targets: Vec<usize> = if let Some(q) = &call.qualifier {
                    let child: Vec<String> =
                        d.item.module.iter().chain(std::iter::once(q)).cloned().collect();
                    let in_child = inline.get(&(d.file, child.as_slice(), name));
                    match in_child.or_else(|| by_container.get(&(q.as_str(), name))) {
                        Some(t) => t.clone(),
                        // TitleCase qualifier = type/trait with no such
                        // member in the workspace: only an inherited trait
                        // default body can still be the target (see module
                        // docs). Lowercase = module path: fall back wide.
                        None if q.starts_with(|c: char| c.is_ascii_uppercase()) => {
                            trait_defaults.get(name).cloned().unwrap_or_default()
                        }
                        None => free
                            .get(name)
                            .into_iter()
                            .chain(assoc.get(name))
                            .flatten()
                            .copied()
                            .collect(),
                    }
                } else if call.is_method {
                    methods.get(name).cloned().unwrap_or_default()
                } else {
                    free.get(name).cloned().unwrap_or_default()
                };
                targets.retain(|&t| deps.visible(caller_crate, file_crate[defs[t].file]));
                for t in targets {
                    let e = Edge { to: t, line: call.line, call: call_i };
                    if !out.contains(&e) {
                        out.push(e);
                    }
                }
            }
            edges.push(out);
        }
        Self { defs, edges }
    }

    /// Total edge count (for the report's stats line).
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Defs in `file` whose body span contains byte `offset`, innermost
    /// (latest-starting) first. Used to attribute unsafe sites to their
    /// enclosing function.
    pub fn enclosing_def(&self, file: usize, offset: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, d) in self.defs.iter().enumerate() {
            if d.file != file {
                continue;
            }
            let Some((s, e)) = d.item.body else { continue };
            if offset >= s && offset <= e {
                let better = match best {
                    Some(prev) => self.defs[prev].item.body.map(|(ps, _)| s > ps).unwrap_or(true),
                    None => true,
                };
                if better {
                    best = Some(i);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_fns;
    use crate::scan::SourceFile;

    fn graph(files: &[&str]) -> CallGraph {
        CallGraph::build(
            files
                .iter()
                .map(|src| parse_fns(&SourceFile::new("t.rs".into(), (*src).into())))
                .collect(),
        )
    }

    fn names_of(g: &CallGraph, from: &str) -> Vec<String> {
        let i = g.defs.iter().position(|d| d.item.name == from).unwrap();
        g.edges[i].iter().map(|e| g.defs[e.to].item.qualified_name()).collect()
    }

    #[test]
    fn bare_calls_resolve_to_free_fns_only() {
        let g = graph(&[
            "fn root() { step(); }\nfn step() {}\n",
            "impl Engine { fn step(&mut self) {} }\n",
        ]);
        assert_eq!(names_of(&g, "root"), ["step"], "bare call must not reach the method");
    }

    #[test]
    fn method_calls_resolve_to_every_impl_conservatively() {
        let g = graph(&[
            "fn root(e: &mut Engine) { e.step(); }\n",
            "impl Engine { fn step(&mut self) {} }\nimpl Pool { fn step(&mut self) {} }\n",
        ]);
        assert_eq!(names_of(&g, "root"), ["Engine::step", "Pool::step"]);
    }

    #[test]
    fn qualified_calls_narrow_to_the_container_when_known() {
        let g = graph(&[
            "fn root() { Mat::zeros(3); kernels::gemm(1); }\n",
            "impl Mat { fn zeros(n: usize) {} }\nimpl Other { fn zeros(n: usize) {} }\nfn gemm(n: usize) {}\n",
        ]);
        assert_eq!(names_of(&g, "root"), ["Mat::zeros", "gemm"]);
    }

    #[test]
    fn module_calls_narrow_to_the_inline_child_module_that_defines_them() {
        // The shape of `kernels/int8.rs` beside `kernels.rs`: each file
        // declares its own `mod avx2` with a `gemm_abt`.
        let int8 = "fn run() { avx2::gemm_abt(); }\n\
                    mod avx2 { pub unsafe fn gemm_abt() {} }\n\
                    mod inner {\n    fn nested() { avx2::gemm_abt(); simd::gemm_abt(); }\n    \
                    mod simd { fn gemm_abt() {} }\n}\n";
        let f32 = "mod avx2 { pub unsafe fn gemm_abt() {} }\nfn other() { avx2::gemm_abt(); }\n";
        let g = graph(&[int8, f32]);
        // (file, module path) of each def call site `call` of `from` reaches.
        let targets = |from: &str, call: usize| -> Vec<(usize, Vec<String>)> {
            let i = g.defs.iter().position(|d| d.item.name == from).unwrap();
            let reached = g.edges[i].iter().filter(|e| e.call == call);
            reached.map(|e| (g.defs[e.to].file, g.defs[e.to].item.module.clone())).collect()
        };
        let path = |p: &[&str]| p.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(targets("run", 0), [(0, path(&["avx2"]))], "only this file's child module");
        assert_eq!(targets("other", 0), [(1, path(&["avx2"]))]);
        // Inside `inner`, `avx2` is no child module, so that call falls
        // back wide; `simd` is one.
        assert_eq!(
            targets("nested", 0),
            [(0, path(&["avx2"])), (0, path(&["inner", "simd"])), (1, path(&["avx2"]))]
        );
        assert_eq!(targets("nested", 1), [(0, path(&["inner", "simd"]))]);
    }

    #[test]
    fn receiver_calls_skip_selfless_associated_fns() {
        // `.quantize(` can only dispatch to a method taking `self`;
        // `QNet::quantize(net)` is reachable solely via qualified syntax.
        let g = graph(&[
            "fn root(q: &ActQuant) { q.quantize(0.5); }\n",
            "impl ActQuant { fn quantize(&self, x: f32) {} }\n\
             impl QNet { fn quantize(net: usize) {} }\n",
        ]);
        assert_eq!(names_of(&g, "root"), ["ActQuant::quantize"]);
    }

    #[test]
    fn unknown_type_qualifiers_reach_trait_defaults_only() {
        let g = graph(&[
            "fn root() { Widget::tick(); Vec::with_capacity(4); Derived::default(); }\n",
            "trait Clock { fn tick() { helper(); } }\nfn helper() {}\n\
             impl Adam { fn default() -> usize { 0 } }\n",
        ]);
        // `Widget` has no workspace member `tick` → the inherited trait
        // default is the only candidate; `Vec`/`Derived` resolve to
        // nothing — NOT to the unrelated `Adam::default`.
        assert_eq!(names_of(&g, "root"), ["Clock::tick"]);
    }

    #[test]
    fn external_calls_terminate() {
        let g = graph(&["fn root(v: &mut Vec<u8>) { v.push(1); Vec::with_capacity(4); }\n"]);
        assert_eq!(names_of(&g, "root"), Vec::<String>::new());
    }

    #[test]
    fn dependency_map_gates_cross_crate_edges() {
        let per_file = |srcs: &[&str]| -> Vec<Vec<crate::items::FnItem>> {
            srcs.iter()
                .map(|src| parse_fns(&SourceFile::new("t.rs".into(), (*src).into())))
                .collect()
        };
        let srcs = ["fn root() { step(); }\n", "fn step() {}\n"];
        // a depends on nothing: the same-named free fn in b is invisible.
        let isolated = CrateMap::from_parts(
            vec!["crates/a".into(), "crates/b".into()],
            vec![vec![true, false], vec![false, true]],
        );
        let g = CallGraph::build_with_deps(per_file(&srcs), &[0, 1], &isolated);
        assert_eq!(names_of(&g, "root"), Vec::<String>::new());
        // a depends on b: the edge appears.
        let linked = CrateMap::from_parts(
            vec!["crates/a".into(), "crates/b".into()],
            vec![vec![true, true], vec![false, true]],
        );
        let g = CallGraph::build_with_deps(per_file(&srcs), &[0, 1], &linked);
        assert_eq!(names_of(&g, "root"), ["step"]);
    }

    #[test]
    fn enclosing_def_picks_innermost() {
        let src = "fn outer() {\n    fn inner() { work(); }\n    inner();\n}\n";
        let g = graph(&[src]);
        let off = src.find("work").unwrap();
        let d = g.enclosing_def(0, off).unwrap();
        assert_eq!(g.defs[d].item.name, "inner");
    }
}
