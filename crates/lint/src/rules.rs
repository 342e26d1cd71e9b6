//! The per-file (lexical) rule families: accumulation-order (no-FMA),
//! no-panic decision path, hot-path allocation audit, determinism, and the
//! unsafe inventory. The call-graph (transitive) families live in
//! [`crate::transitive`] and share this module's allow/audit machinery.
//!
//! All rules run over the **masked** source (see [`crate::scan`]) so a
//! forbidden token inside a string or comment can never trip a rule — and,
//! symmetrically, a `SAFETY:` justification is only ever read from real
//! comment text.

use crate::scan::{is_ident, next_token, token_offsets, Directive, SourceFile};

/// One rule violation, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule family short name (`fma`, `panic`, `alloc`, `determinism`,
    /// `unsafe`, `hot-path`, `directive`).
    pub rule: &'static str,
    /// What went wrong and, where useful, how to fix it.
    pub message: String,
    /// For transitive diagnostics: the call chain from the root to the
    /// offending site, each element `name (file:line)`. Empty for lexical
    /// diagnostics.
    pub chain: Vec<String>,
}

/// One `// lint: allow(...)` escape hatch that actually suppressed a
/// diagnostic — inventoried so reviewers can audit every exemption.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct UsedAllow {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the allow comment.
    pub line: usize,
    /// Rule family it suppresses.
    pub rule: String,
    /// The justification given.
    pub reason: String,
}

/// One `unsafe` site for the inventory.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the `unsafe` token.
    pub line: usize,
    /// Byte offset of the `unsafe` token (used to attribute the site to
    /// its enclosing fn for the reachability column; not rendered).
    pub offset: usize,
    /// `block`, `fn`, `impl`, or `trait`.
    pub kind: &'static str,
    /// First line of the justifying `SAFETY:` comment (or `# Safety` doc
    /// section), without the comment introducer.
    pub justification: String,
    /// Which hot-path / decision-path roots reach the enclosing fn —
    /// filled by the call-graph pass, rendered as the inventory's
    /// reachability column. Empty until computed.
    pub reach: String,
}

/// Everything one file contributes to the report.
#[derive(Debug, Default)]
pub struct FileFindings {
    /// Violations.
    pub diagnostics: Vec<Diagnostic>,
    /// Exercised escape hatches.
    pub allows: Vec<UsedAllow>,
    /// Unsafe inventory entries.
    pub unsafe_sites: Vec<UnsafeSite>,
}

/// Tracks which `allow` directives exist and which got used, so unused
/// allows (stale exemptions) can be flagged. One table per file; the
/// transitive passes consume from the same tables as the lexical ones, so
/// finalization (the stale-allow sweep) must run only after **every** pass
/// is done — see [`finalize_allows`].
pub struct AllowTable {
    /// (line, rule, reason, used)
    entries: Vec<(usize, String, String, bool)>,
}

impl AllowTable {
    /// Collects the file's `allow` directives into a fresh table.
    pub fn new(file: &SourceFile) -> Self {
        let entries = file
            .directives
            .iter()
            .filter_map(|d| match d {
                Directive::Allow { line, rule, reason } => {
                    Some((*line, rule.clone(), reason.clone(), false))
                }
                _ => None,
            })
            .collect();
        Self { entries }
    }

    /// Consumes an allow for `rule` covering `line` (the allow sits on the
    /// same line or the line directly above). A same-line allow is
    /// preferred over one on the line above, so stacked allows on adjacent
    /// lines each suppress their own line's diagnostics rather than one
    /// shadowing the other into a false "unused" report. Returns the
    /// reason if found.
    pub fn consume(&mut self, rule: &str, line: usize) -> Option<String> {
        for same_line_pass in [true, false] {
            for (allow_line, allow_rule, reason, used) in &mut self.entries {
                let covers =
                    if same_line_pass { *allow_line == line } else { *allow_line + 1 == line };
                if allow_rule == rule && covers {
                    *used = true;
                    return Some(reason.clone());
                }
            }
        }
        None
    }
}

/// Known rule names an `allow(...)` may target. `fma` is deliberately
/// absent: the accumulation-order contract has no escape hatch.
const ALLOWABLE_RULES: &[&str] = &["panic", "alloc", "determinism", "hot-path"];

/// Which rule families apply to one file (derived from `lint.toml`
/// scopes).
#[derive(Debug, Clone, Copy, Default)]
pub struct FileScope {
    /// Accumulation-order (no-FMA) rule.
    pub fma: bool,
    /// No-panic decision-path rule (lexical; also marks the file's fns as
    /// decision-path roots for the transitive pass).
    pub panic: bool,
    /// Determinism rule (bit-exactness-scoped code).
    pub determinism: bool,
}

/// Runs the lexical rule families over one file, consuming from `allows`
/// but **not** finalizing it — the transitive passes still get to consume.
pub fn lexical_pass(
    file: &SourceFile,
    scope: FileScope,
    allows: &mut AllowTable,
    out: &mut FileFindings,
) {
    check_directives(file, out);
    if scope.fma {
        check_fma(file, out);
    }
    if scope.panic {
        check_panic(file, allows, out);
    }
    if scope.determinism {
        check_determinism(file, allows, out);
    }
    check_hot_paths(file, allows, out);
    check_unsafe(file, out);
}

/// Emits the allow audit trail and flags stale exemptions. Stale
/// exemptions are themselves violations: an allow that suppresses nothing
/// hides a remediation that already happened.
pub fn finalize_allows(rel: &str, allows: AllowTable, out: &mut FileFindings) {
    for (line, rule, reason, used) in allows.entries {
        if used {
            out.allows.push(UsedAllow { file: rel.to_string(), line, rule, reason });
        } else {
            out.diagnostics.push(Diagnostic {
                file: rel.to_string(),
                line,
                rule: "directive",
                message: format!("unused `lint: allow({rule})` — remove the stale exemption"),
                chain: Vec::new(),
            });
        }
    }
}

/// Runs every lexical rule family over one file in isolation (no
/// call-graph context) and finalizes its allows. This is the entry the
/// single-file fixture tests use; the tree pipeline in [`crate::check_tree`]
/// runs [`lexical_pass`] and the transitive passes before finalizing.
pub fn check_file(file: &SourceFile, scope: FileScope) -> FileFindings {
    let mut out = FileFindings::default();
    let mut allows = AllowTable::new(file);
    lexical_pass(file, scope, &mut allows, &mut out);
    finalize_allows(&file.rel, allows, &mut out);
    out.diagnostics.sort();
    out
}

/// Flags malformed directives and allows naming unknown rules.
fn check_directives(file: &SourceFile, out: &mut FileFindings) {
    for d in &file.directives {
        match d {
            Directive::Malformed { line, message } => out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line: *line,
                rule: "directive",
                message: message.clone(),
                chain: Vec::new(),
            }),
            Directive::Allow { line, rule, .. } if !ALLOWABLE_RULES.contains(&rule.as_str()) => {
                out.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line: *line,
                    rule: "directive",
                    message: format!(
                        "allow({rule}) targets an unknown or unallowable rule \
                         (allowable: panic, alloc, determinism, hot-path; fma has no escape hatch)"
                    ),
                    chain: Vec::new(),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 1: accumulation-order contract (no FMA, no fast-math)
// ---------------------------------------------------------------------------

/// Substrings whose presence in masked code means the serial
/// ascending-k accumulation order can no longer be bit-exact across
/// backends. Substring (not token) matching is deliberate: it catches
/// `_mm256_fmadd_ps`, `vfmaq_f32`, `simd_fma`, future-width variants, and
/// any wrapper someone names after the operation.
const FMA_PATTERNS: &[&str] = &[
    "fmadd",
    "fmsub",
    "fnmadd",
    "fnmsub",
    "vfma",
    "vfms",
    "mul_add",
    "fadd_fast",
    "fsub_fast",
    "fmul_fast",
    "fdiv_fast",
    "frem_fast",
    "fast_math",
    "ffast-math",
];

/// The FMA rule covers the whole file — tests included — and has no allow:
/// a fused multiply-add in a test helper would still let an incorrect
/// kernel pass a bit-exactness comparison against itself.
fn check_fma(file: &SourceFile, out: &mut FileFindings) {
    for pat in FMA_PATTERNS {
        let mut from = 0usize;
        while let Some(pos) = file.masked[from..].find(pat) {
            let at = from + pos;
            out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line: file.line_of(at),
                rule: "fma",
                message: format!(
                    "`{pat}` breaks the serial ascending-k accumulation contract \
                     (bit-exactness across scalar/AVX2/NEON); no allow exists for this rule"
                ),
                chain: Vec::new(),
            });
            from = at + pat.len();
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: no-panic decision path
// ---------------------------------------------------------------------------

/// Macros that abort the decision path. `assert!`/`debug_assert!` are
/// deliberately not listed: they are the sanctioned loud-invariant
/// mechanism (DESIGN.md §8).
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Methods that panic on the error/none case.
const PANIC_METHODS: &[&str] = &[".unwrap(", ".unwrap_err(", ".expect(", ".expect_err("];

fn check_panic(file: &SourceFile, allows: &mut AllowTable, out: &mut FileFindings) {
    for (at, what) in panic_hits(file, 0, file.masked.len()) {
        if file.in_test(at) {
            continue;
        }
        let line = file.line_of(at);
        if allows.consume("panic", line).is_some() {
            continue;
        }
        out.diagnostics.push(Diagnostic {
            file: file.rel.clone(),
            line,
            rule: "panic",
            message: format!(
                "{what} in a decision path — propagate a typed error or justify with \
                 `// lint: allow(panic, reason = \"...\")`"
            ),
            chain: Vec::new(),
        });
    }
    check_indexing(file, allows, out);
}

/// Keywords that legitimately precede `[` without it being an index
/// expression (array literals / types / patterns).
const PRE_BRACKET_KEYWORDS: &[&str] = &[
    "mut", "in", "return", "break", "dyn", "as", "ref", "move", "else", "if", "match", "const",
    "let",
];

/// Flags `expr[...]` indexing (which panics out-of-bounds) outside tests.
/// An index expression is a `[` directly preceded (modulo whitespace) by an
/// identifier byte, `)`, `]`, or `?` — and the preceding word, if any, is
/// not a keyword introducing an array literal/type.
fn check_indexing(file: &SourceFile, allows: &mut AllowTable, out: &mut FileFindings) {
    let b = file.masked.as_bytes();
    for at in 0..b.len() {
        if b[at] != b'[' {
            continue;
        }
        // `vec![` and friends are macro invocations, not indexing.
        let mut p = at;
        while p > 0 && (b[p - 1] as char).is_whitespace() {
            p -= 1;
        }
        if p == 0 {
            continue;
        }
        let prev = b[p - 1];
        if prev == b'!' {
            continue;
        }
        let is_index_base = is_ident(prev) || prev == b')' || prev == b']' || prev == b'?';
        if !is_index_base {
            continue;
        }
        if is_ident(prev) {
            // Word before the bracket: skip keywords (`let x: [u8; 4]` has
            // `:` before, handled above; `return [..]`, `&mut [..]`, ...).
            let mut w = p;
            while w > 0 && is_ident(b[w - 1]) {
                w -= 1;
            }
            let word = &file.masked[w..p];
            if PRE_BRACKET_KEYWORDS.contains(&word) {
                continue;
            }
            // A lifetime is a type position, never an index base
            // (`&'a [u8]`).
            if w > 0 && b[w - 1] == b'\'' {
                continue;
            }
        }
        if file.in_test(at) {
            continue;
        }
        let line = file.line_of(at);
        if allows.consume("panic", line).is_some() {
            continue;
        }
        out.diagnostics.push(Diagnostic {
            file: file.rel.clone(),
            line,
            rule: "panic",
            message: "slice/array index can panic out-of-bounds — use `.get()`/iterators or \
                      justify with `// lint: allow(panic, reason = \"...\")`"
                .into(),
            chain: Vec::new(),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule 3: hot-path allocation audit
// ---------------------------------------------------------------------------

/// Patterns that allocate (or strongly suggest allocation) — forbidden in
/// `// lint: hot-path` function bodies. Matched in masked code; `word:`
/// entries require token boundaries.
const ALLOC_SUBSTRINGS: &[&str] = &[
    "Vec::new",
    "vec!",
    ".to_vec(",
    ".clone(",
    "format!",
    "Box::new",
    "Rc::new",
    "Arc::new",
    "String::new",
    ".to_string(",
    ".to_owned(",
    "with_capacity",
    ".collect(",
    ".collect::",
];

fn check_hot_paths(file: &SourceFile, allows: &mut AllowTable, out: &mut FileFindings) {
    for d in &file.directives {
        let Directive::HotPath { line } = d else { continue };
        let tagged = match file.tagged_fn(*line) {
            Ok(t) => t,
            Err(message) => {
                out.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line: *line,
                    rule: "directive",
                    message,
                    chain: Vec::new(),
                });
                continue;
            }
        };
        for (at, pat) in alloc_hits(file, tagged.body_start, tagged.body_end + 1) {
            if file.in_test(at) {
                continue;
            }
            let at_line = file.line_of(at);
            if allows.consume("alloc", at_line).is_some() {
                continue;
            }
            out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line: at_line,
                rule: "alloc",
                message: format!(
                    "`{pat}` allocates inside hot-path fn `{}` — hoist it to construction \
                     or justify with `// lint: allow(alloc, reason = \"...\")`",
                    tagged.name
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// Every (byte offset, pattern) allocation hit in the masked byte span
/// `start..end` of `file`, in offset order — the one scanner behind the
/// lexical hot-path audit and the transitive allocation pass.
pub fn alloc_hits(file: &SourceFile, start: usize, end: usize) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    let body = &file.masked[start..end.min(file.masked.len())];
    for pat in ALLOC_SUBSTRINGS {
        out.extend(body.match_indices(pat).map(|(at, _)| (start + at, *pat)));
    }
    out.sort_unstable();
    out
}

/// Every (byte offset, what) panic-family hit in the masked byte span
/// `start..end` of `file`, in offset order: the panic macros and the
/// panicking `unwrap`/`expect` methods. The one scanner behind the lexical
/// no-panic rule and the transitive panic pass. Deliberately **not**
/// `expr[...]` indexing — indexing is ubiquitous, bounds are usually pinned
/// by construction, and flagging it across the whole conservative
/// reachability closure would drown the audit in unfixable noise; the
/// lexical rule still bans it inside the scoped decision-path files
/// themselves (`check_indexing`, DESIGN.md §8).
pub fn panic_hits(file: &SourceFile, start: usize, end: usize) -> Vec<(usize, String)> {
    let masked = &file.masked;
    let b = masked.as_bytes();
    let end = end.min(masked.len());
    let mut out = Vec::new();
    for mac in PANIC_MACROS {
        for at in token_offsets(masked, mac) {
            // Only the macro form: `panic!`, possibly with whitespace.
            if (start..end).contains(&at)
                && next_token(b, at + mac.len()).map(|t| t.1) == Some(b'!')
            {
                out.push((at, format!("`{mac}!`")));
            }
        }
    }
    for method in PANIC_METHODS {
        let what = format!("`{}()`", &method[1..method.len() - 1]);
        out.extend(
            masked[start..end].match_indices(method).map(|(at, _)| (start + at, what.clone())),
        );
    }
    out.sort_unstable();
    out
}

// ---------------------------------------------------------------------------
// Rule 4: determinism (bit-exactness-scoped code)
// ---------------------------------------------------------------------------

/// Patterns that smuggle nondeterminism into bit-exactness-scoped code,
/// with the reason each one breaks replay equality. Matched lexically in
/// masked non-test code of `[determinism]`-scoped files.
const DETERMINISM_PATTERNS: &[(&str, &str)] = &[
    ("HashMap", "iteration order is randomized per process — use BTreeMap or a Vec"),
    ("HashSet", "iteration order is randomized per process — use BTreeSet or a sorted Vec"),
    ("Instant::now", "a wall-clock value flowing into a decision breaks replay bit-equality"),
    ("SystemTime::now", "a wall-clock value flowing into a decision breaks replay bit-equality"),
    (".sum(", "iterator reduction hides the accumulation order — write the serial ascending loop"),
    (
        ".sum::<",
        "iterator reduction hides the accumulation order — write the serial ascending loop",
    ),
    (".product(", "iterator reduction hides the accumulation order — write the serial loop"),
    (".product::<", "iterator reduction hides the accumulation order — write the serial loop"),
    ("from_entropy", "OS-entropy seeding makes every run different — thread a fixed seed"),
    ("thread_rng", "OS-entropy seeding makes every run different — thread a fixed seed"),
];

/// Every bit-equality gate (`repro_serve --smoke`, the quant digest, fleet
/// equivalence) silently depends on scoped code never iterating a hashed
/// container, never deriving decisions from the clock, and never
/// reassociating float reductions. Tests are exempt: the runtime property
/// is about serving code, and test oracles are pinned by the no-FMA rule
/// where reassociation could mask a kernel bug.
fn check_determinism(file: &SourceFile, allows: &mut AllowTable, out: &mut FileFindings) {
    for (pat, why) in DETERMINISM_PATTERNS {
        let mut from = 0usize;
        while let Some(pos) = file.masked[from..].find(pat) {
            let at = from + pos;
            from = at + pat.len();
            // Token-boundary check for identifier-shaped pattern edges so
            // e.g. `HashMapLike` or a longer method name never matches.
            let b = file.masked.as_bytes();
            let first = pat.as_bytes()[0];
            let last = pat.as_bytes()[pat.len() - 1];
            if is_ident(first) && at > 0 && is_ident(b[at - 1]) {
                continue;
            }
            if is_ident(last) && at + pat.len() < b.len() && is_ident(b[at + pat.len()]) {
                continue;
            }
            if file.in_test(at) {
                continue;
            }
            let line = file.line_of(at);
            if allows.consume("determinism", line).is_some() {
                continue;
            }
            out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line,
                rule: "determinism",
                message: format!(
                    "`{pat}` in bit-exactness-scoped code: {why}; or justify with \
                     `// lint: allow(determinism, reason = \"...\")`"
                ),
                chain: Vec::new(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: unsafe inventory
// ---------------------------------------------------------------------------

/// Classifies and justifies every `unsafe` token. Covers tests too: the
/// counting-allocator test harness carries unsafe code the inventory must
/// list.
fn check_unsafe(file: &SourceFile, out: &mut FileFindings) {
    let masked = &file.masked;
    let b = masked.as_bytes();
    for at in token_offsets(masked, "unsafe") {
        let Some((_, next)) = next_token(b, at + "unsafe".len()) else { continue };
        let kind = match next {
            b'{' => "block",
            _ => {
                let rest = &masked[at + "unsafe".len()..];
                let word_start = rest.len() - rest.trim_start().len();
                let word = rest[word_start..]
                    .split(|c: char| !(c == '_' || c.is_ascii_alphanumeric()))
                    .next()
                    .unwrap_or("");
                match word {
                    "fn" => "fn",
                    "impl" => "impl",
                    "trait" => "trait",
                    // `unsafe extern "C"` etc. — inventory as a block-level
                    // site; still needs a justification.
                    _ => "block",
                }
            }
        };
        let line = file.line_of(at);
        // `unsafe impl`/`unsafe trait` carry their obligation at the impl
        // head; `unsafe fn` may use a `# Safety` doc section instead of a
        // SAFETY comment (rustdoc convention).
        let accept_doc_safety = kind == "fn" || kind == "impl" || kind == "trait";
        match find_justification(file, line, accept_doc_safety) {
            Some(justification) => out.unsafe_sites.push(UnsafeSite {
                file: file.rel.clone(),
                line,
                offset: at,
                kind,
                justification,
                reach: String::new(),
            }),
            None => out.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line,
                rule: "unsafe",
                message: format!(
                    "unsafe {kind} without a `SAFETY:` comment{} — state the invariant that \
                     makes it sound",
                    if accept_doc_safety { " (or `# Safety` doc section)" } else { "" }
                ),
                chain: Vec::new(),
            }),
        }
    }
}

/// Finds the justifying comment for an unsafe site on `line`: a `SAFETY:`
/// marker in the same-line comment, or in the contiguous run of
/// comment/attribute/blank lines directly above. For items,
/// a `# Safety` doc heading also qualifies.
fn find_justification(file: &SourceFile, line: usize, accept_doc: bool) -> Option<String> {
    let extract = |comment: &str| -> Option<String> {
        if let Some(pos) = comment.find("SAFETY:") {
            let text = comment[pos + "SAFETY:".len()..].trim();
            return Some(if text.is_empty() { "SAFETY".into() } else { text.to_string() });
        }
        if accept_doc {
            if let Some(pos) = comment.find("# Safety") {
                let text = comment[pos + "# Safety".len()..].trim();
                return Some(if text.is_empty() {
                    "# Safety (doc section)".into()
                } else {
                    text.to_string()
                });
            }
        }
        None
    };

    // Same line first (trailing `// SAFETY: ...`).
    let same = file.comment_text(line);
    if !same.is_empty() {
        if let Some(j) = extract(same) {
            return Some(j);
        }
    }
    // Walk upward through comments, attributes, and blank lines. Attributes
    // matter: `#[target_feature(...)]` commonly sits between an unsafe fn
    // and its `# Safety` docs.
    let mut l = line;
    let mut best: Option<String> = None;
    while l > 1 {
        l -= 1;
        let code = file.code_text(l).trim();
        let comment = file.comment_text(l);
        let is_attr = code.starts_with("#[") || code.starts_with("#![");
        if !code.is_empty() && !is_attr {
            break;
        }
        if !comment.is_empty() {
            if let Some(j) = extract(comment) {
                // Keep walking: the *first* line of a multi-line SAFETY
                // comment is the one we want, and it is the highest match.
                best = Some(j);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::SourceFile;

    fn findings(src: &str, fma: bool, panic: bool) -> FileFindings {
        let scope = FileScope { fma, panic, determinism: false };
        check_file(&SourceFile::new("t.rs".into(), src.into()), scope)
    }

    fn det_findings(src: &str) -> FileFindings {
        let scope = FileScope { determinism: true, ..FileScope::default() };
        check_file(&SourceFile::new("t.rs".into(), src.into()), scope)
    }

    #[test]
    fn fma_rule_fires_on_intrinsics_and_mul_add_only_in_code() {
        let f = findings("let y = _mm256_fmadd_ps(a, b, c);\n", true, false);
        assert_eq!(f.diagnostics.len(), 1);
        assert_eq!(f.diagnostics[0].rule, "fma");
        let f =
            findings("// never use _mm256_fmadd_ps here\nlet x = a.mul_add(b, c);\n", true, false);
        assert_eq!(f.diagnostics.len(), 1, "comment mention must not fire: {:?}", f.diagnostics);
        assert_eq!(f.diagnostics[0].line, 2);
    }

    #[test]
    fn panic_rule_flags_macros_methods_and_indexing_outside_tests() {
        let src = "fn f(v: &[u8]) -> u8 {\n    let x = v[0];\n    v.get(1).unwrap()\n}\n\
                   #[cfg(test)]\nmod t { fn g(v: &[u8]) { v[0]; v.iter().next().unwrap(); } }\n";
        let f = findings(src, false, true);
        let rules: Vec<_> = f.diagnostics.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(rules, [("panic", 2), ("panic", 3)], "{:?}", f.diagnostics);
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let f = findings("fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n", false, true);
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
    }

    #[test]
    fn patterns_and_types_are_not_index_expressions() {
        // `let` destructuring and lifetime-qualified slice types both put
        // an identifier before `[` without any indexing happening.
        let src = "fn f(v: kinematics::Vec3, s: &'a [u8]) {\n    \
                   let [x, y, z] = v.to_array();\n    let _ = (x, y, z, s);\n}\n";
        let f = findings(src, false, true);
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
    }

    #[test]
    fn allow_suppresses_and_is_inventoried_and_unused_allow_fires() {
        let src =
            "fn f(v: &[u8]) -> u8 {\n    // lint: allow(panic, reason = \"len checked\")\n    \
                   v[0]\n}\n// lint: allow(panic, reason = \"stale\")\nfn g() {}\n";
        let f = findings(src, false, true);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].reason, "len checked");
        assert_eq!(f.diagnostics.len(), 1);
        assert!(f.diagnostics[0].message.contains("unused"));
    }

    #[test]
    fn hot_path_rule_audits_tagged_body_only() {
        let src = "// lint: hot-path\nfn hot(&mut self) { self.buf.clone(); }\n\
                   fn cold() { Vec::<u8>::new(); }\n";
        let f = findings(src, false, false);
        assert_eq!(f.diagnostics.len(), 1, "{:?}", f.diagnostics);
        assert_eq!(f.diagnostics[0].rule, "alloc");
        assert_eq!(f.diagnostics[0].line, 2);
    }

    #[test]
    fn unsafe_needs_safety_and_doc_safety_counts_for_fns() {
        let bare =
            findings("fn f() { unsafe { core::hint::unreachable_unchecked() } }\n", false, false);
        assert_eq!(bare.diagnostics.iter().filter(|d| d.rule == "unsafe").count(), 1);
        let ok = findings(
            "fn f() {\n    // SAFETY: pointer is valid for the call\n    unsafe { g() }\n}\n",
            false,
            false,
        );
        assert!(ok.diagnostics.is_empty(), "{:?}", ok.diagnostics);
        assert_eq!(ok.unsafe_sites.len(), 1);
        assert_eq!(ok.unsafe_sites[0].justification, "pointer is valid for the call");
        let doc = findings(
            "/// Does things.\n///\n/// # Safety\n///\n/// Caller upholds X.\n\
             #[target_feature(enable = \"avx2\")]\npub unsafe fn g() {}\n",
            false,
            false,
        );
        assert!(doc.diagnostics.is_empty(), "{:?}", doc.diagnostics);
        assert_eq!(doc.unsafe_sites[0].kind, "fn");
    }

    #[test]
    fn determinism_rule_flags_hashed_iteration_clocks_and_reductions() {
        let src = "use std::collections::HashMap;\n\
                   fn f(xs: &[f32]) -> f32 {\n    let t = Instant::now();\n    \
                   let _ = t;\n    xs.iter().sum::<f32>()\n}\n\
                   #[cfg(test)]\nmod t { fn g(xs: &[f32]) -> f32 { xs.iter().sum() } }\n";
        let f = det_findings(src);
        let hits: Vec<_> = f.diagnostics.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(
            hits,
            [("determinism", 1), ("determinism", 3), ("determinism", 5)],
            "{:?}",
            f.diagnostics
        );
    }

    #[test]
    fn determinism_allow_and_token_boundaries_work() {
        let src = "struct HashMapLike;\nfn f(lanes: &[i32]) -> i32 {\n    \
                   // lint: allow(determinism, reason = \"integer sum is exact in any order\")\n    \
                   lanes.iter().sum()\n}\n";
        let f = det_findings(src);
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
        assert_eq!(f.allows.len(), 1);
        assert_eq!(f.allows[0].rule, "determinism");
    }

    #[test]
    fn unsafe_in_identifiers_is_ignored() {
        let f = findings(
            "#![deny(unsafe_op_in_unsafe_fn)]\nlet unsafe_probability = 0.1;\n",
            false,
            false,
        );
        assert!(f.unsafe_sites.is_empty());
        assert!(f.diagnostics.is_empty(), "{:?}", f.diagnostics);
    }
}
