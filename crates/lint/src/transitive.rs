//! The call-graph rule families: transitive hot-path allocation freedom,
//! transitive panic-reachability, tag hygiene (missing/unreachable tags),
//! and the unsafe-inventory reachability column.
//!
//! The lexical rules in [`crate::rules`] audit what a function's own body
//! says; these passes audit what it can *reach*. Roots:
//!
//! * **hot-path roots** — every `// lint: hot-path`-tagged fn;
//! * **decision-path roots** — every non-test fn defined in a
//!   `[panic]`-scoped file (`reactor`, `core::serve`, `core::engine`,
//!   `faults::fleet`, `ingress::{codec,server}`).
//!
//! Resolution is the conservative name-based over-approximation described
//! in [`crate::graph`]: a diagnostic here may name a chain that dynamic
//! dispatch would never take, but no chain that exists can be missed.
//! Every diagnostic carries its call chain so an allow's reason can be
//! judged against the actual route.

use std::collections::BTreeSet;

use crate::config::Config;
use crate::graph::CallGraph;
use crate::reach::Reachability;
use crate::rules::{alloc_hits, panic_hits, AllowTable, Diagnostic, FileFindings};
use crate::scan::{Directive, SourceFile};

/// The computed reachability closures, kept for the inventory column.
pub struct TransitiveInfo {
    /// Closure from the hot-path roots.
    pub hot: Reachability,
    /// Closure from the decision-path roots.
    pub decision: Reachability,
    /// Def indices of the hot-path roots (tagged fns).
    pub hot_roots: Vec<usize>,
    /// Def indices of the decision-path roots.
    pub decision_roots: Vec<usize>,
}

/// Runs every call-graph pass. `files`, `allows` are parallel to the
/// workspace file list; `graph` was built from the same files.
pub fn run(
    files: &[SourceFile],
    graph: &CallGraph,
    cfg: &Config,
    allows: &mut [AllowTable],
    out: &mut FileFindings,
) -> TransitiveInfo {
    let rels: Vec<String> = files.iter().map(|f| f.rel.clone()).collect();

    // --- Root discovery -----------------------------------------------
    let mut hot_roots: Vec<usize> = Vec::new();
    let mut tagged: BTreeSet<usize> = BTreeSet::new();
    for (fi, file) in files.iter().enumerate() {
        for d in &file.directives {
            let Directive::HotPath { line } = d else { continue };
            // The tagged fn: first def in this file at/after the tag line.
            let def = graph
                .defs
                .iter()
                .enumerate()
                .filter(|(_, d)| d.file == fi && d.item.line >= *line)
                .min_by_key(|(_, d)| d.item.line);
            let Some((di, def)) = def else { continue }; // dangling tag: lexical rule reports it
            if def.item.is_test {
                out.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line: *line,
                    rule: "hot-path",
                    message: format!(
                        "unreachable `lint: hot-path` tag: fn `{}` is test-only code, so the \
                         tag audits nothing in production — remove it",
                        def.item.name
                    ),
                    chain: Vec::new(),
                });
                continue;
            }
            if tagged.insert(di) {
                hot_roots.push(di);
            }
        }
    }
    let decision_roots: Vec<usize> = graph
        .defs
        .iter()
        .enumerate()
        .filter(|(_, d)| !d.item.is_test && crate::in_scope(&rels[d.file], &cfg.panic_paths))
        .map(|(i, _)| i)
        .collect();

    let hot = Reachability::compute(graph, &hot_roots);
    let decision = Reachability::compute(graph, &decision_roots);

    // --- Transitive hot-path allocation freedom -----------------------
    for (di, def) in graph.defs.iter().enumerate() {
        if !hot.reached(di) || tagged.contains(&di) || def.item.is_test {
            continue;
        }
        let Some((bs, be)) = def.item.body else { continue };
        let file = &files[def.file];
        for (at, pat) in alloc_hits(file, bs, be + 1) {
            let line = file.line_of(at);
            if allows[def.file].consume("alloc", line).is_some() {
                continue;
            }
            let chain = Reachability::render_chain(graph, &rels, &hot.chain_to(di, line));
            out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line,
                rule: "alloc",
                message: format!(
                    "`{pat}` allocates in fn `{}`, which is reachable from hot-path root \
                     `{}` — hoist it, or justify with `// lint: allow(alloc, reason = \"...\")`; \
                     chain: {}",
                    def.item.qualified_name(),
                    root_name(graph, &hot.chain_to(di, line)),
                    chain.join(" -> ")
                ),
                chain,
            });
        }
    }

    // --- Missing-tag-on-reachable-callee ------------------------------
    // A hot-path fn's *unambiguously resolved* direct callee should carry
    // the tag itself, so the lexical per-body audit covers it and the tag
    // set stays closed under the call relation. Ambiguous (sprayed)
    // resolutions are exempt — demanding tags across a conservative
    // over-approximation would force tags onto unrelated same-named fns.
    let mut flagged: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &t in &hot_roots {
        let caller = &graph.defs[t];
        let ncalls = caller.item.calls.len();
        for call_i in 0..ncalls {
            let candidates: Vec<_> = graph.edges[t].iter().filter(|e| e.call == call_i).collect();
            if candidates.len() != 1 {
                continue;
            }
            let e = candidates[0];
            let g = &graph.defs[e.to];
            if g.item.is_test || g.item.body.is_none() || tagged.contains(&e.to) {
                continue;
            }
            if !flagged.insert((t, e.to)) {
                continue;
            }
            if allows[caller.file].consume("hot-path", e.line).is_some() {
                continue;
            }
            out.diagnostics.push(Diagnostic {
                file: rels[caller.file].clone(),
                line: e.line,
                rule: "hot-path",
                message: format!(
                    "hot-path fn `{}` calls `{}` ({}:{}), which is not tagged \
                     `// lint: hot-path` — tag the callee so its body is audited, or justify \
                     the call with `// lint: allow(hot-path, reason = \"...\")`",
                    caller.item.qualified_name(),
                    g.item.qualified_name(),
                    rels[g.file],
                    g.item.line
                ),
                chain: Vec::new(),
            });
        }
    }

    // --- Transitive panic-reachability --------------------------------
    // Sites inside the scoped files are owned by the stricter lexical
    // rule (which also bans indexing); this pass extends the macro and
    // unwrap/expect families to everything those files can reach.
    for (di, def) in graph.defs.iter().enumerate() {
        if !decision.reached(di) || def.item.is_test {
            continue;
        }
        if crate::in_scope(&rels[def.file], &cfg.panic_paths) {
            continue;
        }
        let Some((bs, be)) = def.item.body else { continue };
        let file = &files[def.file];
        for (at, what) in panic_hits(file, bs, be + 1) {
            let line = file.line_of(at);
            if allows[def.file].consume("panic", line).is_some() {
                continue;
            }
            let chain = Reachability::render_chain(graph, &rels, &decision.chain_to(di, line));
            out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line,
                rule: "panic",
                message: format!(
                    "{what} in fn `{}` is reachable from decision-path root `{}` — propagate \
                     a typed error or justify with `// lint: allow(panic, reason = \"...\")`; \
                     chain: {}",
                    def.item.qualified_name(),
                    root_name(graph, &decision.chain_to(di, line)),
                    chain.join(" -> ")
                ),
                chain,
            });
        }
    }

    TransitiveInfo { hot, decision, hot_roots, decision_roots }
}

/// The qualified name of the chain's root (first element).
fn root_name(graph: &CallGraph, chain: &[(usize, usize)]) -> String {
    chain.first().map(|&(d, _)| graph.defs[d].item.qualified_name()).unwrap_or_default()
}

/// Renders the inventory reachability cell for the fn enclosing an unsafe
/// site: which hot-path and decision-path roots reach it. Deterministic;
/// lists the two lexicographically-first root names per category plus a
/// count for the rest.
pub fn reach_cell(graph: &CallGraph, info: &TransitiveInfo, file: usize, offset: usize) -> String {
    let Some(d) = graph.enclosing_def(file, offset) else {
        return "item-level (no enclosing fn)".into();
    };
    if graph.defs[d].item.is_test {
        return "test-only".into();
    }
    let mut parts = Vec::new();
    for (label, reach) in [("hot-path", &info.hot), ("decision", &info.decision)] {
        let mut names: Vec<String> = reach
            .roots_reaching(d)
            .into_iter()
            .map(|r| graph.defs[r].item.qualified_name())
            .collect();
        if names.is_empty() {
            continue;
        }
        names.sort();
        names.dedup();
        let shown = names.len().min(2);
        let mut cell = names[..shown].join(", ");
        if names.len() > shown {
            cell.push_str(&format!(" +{}", names.len() - shown));
        }
        parts.push(format!("{label}: {cell}"));
    }
    if parts.is_empty() {
        "unreached".into()
    } else {
        parts.join(" · ")
    }
}
