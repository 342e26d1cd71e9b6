//! Function-item and call-site extraction on top of the masked token
//! stream — the layer the call graph is built from.
//!
//! [`parse_fns`] walks one [`SourceFile`]'s masked text and produces every
//! `fn` item with its name, enclosing `impl`/`trait` container, brace-matched
//! body span, and the call sites inside that body. Like the scanner itself
//! this is deliberately not a Rust parser: the gated paths contain no
//! macro-generated items, so a token-level read of the masked text sees
//! every function and every call that the compiler will (DESIGN.md §8).
//! Ambiguity is always resolved toward *more* edges, never fewer — the
//! resolution step in [`crate::graph`] relies on that.

use crate::scan::{is_ident, next_token, skip_generics, token_offsets, SourceFile};

/// One `fn` item found in a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl` self-type or `trait` name, if any (`Mat` for
    /// `impl Mat { fn rows(...) }`); `None` for free functions.
    pub container: Option<String>,
    /// 1-based line of the `fn` token.
    pub line: usize,
    /// Byte offset of the `fn` token.
    pub offset: usize,
    /// Byte span of the body: `(offset of {, offset of matching })`.
    /// `None` for bodyless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// Whether the first parameter is a `self` receiver (`self`, `&self`,
    /// `&mut self`, `&'a self`, `mut self`, `self: ...`). Only a
    /// self-taking method can be the target of a `.name(...)` call.
    pub has_self: bool,
    /// Whether the enclosing container is a `trait` block (as opposed to
    /// an `impl` block or no container). A trait-block fn with a body is a
    /// default method — the only workspace code a qualified call on an
    /// unregistered type can still reach.
    pub in_trait: bool,
    /// Whether the item sits inside a `#[cfg(test)]` / `#[test]` span.
    pub is_test: bool,
    /// The inline `mod name { … }` blocks of its file that enclose the
    /// item, outermost first; empty at the file's top level.
    pub module: Vec<String>,
    /// Call sites inside the body, in source order.
    pub calls: Vec<CallSite>,
}

impl FnItem {
    /// `Container::name` or plain `name` — the label chains are rendered
    /// with.
    pub fn qualified_name(&self) -> String {
        match &self.container {
            Some(c) => format!("{c}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// The called name (last path segment).
    pub name: String,
    /// The path segment directly before the name (`Mat` in `Mat::zeros`,
    /// `kernels` in `kernels::gemm_ab`); `Self` is rewritten to the
    /// enclosing container. `None` for bare and method calls.
    pub qualifier: Option<String>,
    /// `true` for `.name(...)` receiver-method form.
    pub is_method: bool,
    /// 1-based line of the call.
    pub line: usize,
}

/// Keywords that can directly precede `(` without being a call, or that
/// start non-call constructs an identifier scan would otherwise trip on.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "where", "impl", "pub", "unsafe", "dyn", "const", "static",
    "use", "mod", "struct", "enum", "trait", "type", "self", "Self", "super", "crate", "true",
    "false", "async", "await", "box",
];

/// A container (`impl` or `trait`) body span with its type name.
struct Container {
    name: String,
    body: (usize, usize),
    is_trait: bool,
}

/// An inline `mod name { … }` block's name and body span.
struct InlineMod {
    name: String,
    body: (usize, usize),
}

/// Parses every `fn` item in `file`.
pub fn parse_fns(file: &SourceFile) -> Vec<FnItem> {
    let b = file.masked.as_bytes();
    let containers = find_containers(file);
    let mods = find_inline_mods(file);
    let mut out = Vec::new();
    for fn_off in file.fn_tokens() {
        // `fn(` / `fn (` is a function-pointer type, not an item.
        let Some((name_start, first)) = next_token(b, fn_off + 2) else { continue };
        if !is_ident(first) {
            continue;
        }
        let mut i = name_start;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        let name = file.masked[name_start..i].to_string();
        // Generic parameter list between name and the argument parens.
        if let Some((j, c)) = next_token(b, i) {
            if c == b'<' {
                match skip_generics(b, j) {
                    Some(end) => i = end,
                    None => continue, // unparseable signature: skip the item
                }
            }
        }
        // Argument list.
        let Some((paren, c)) = next_token(b, i) else { continue };
        if c != b'(' {
            continue;
        }
        let Some(close_paren) = matching_paren(b, paren) else { continue };
        // Body: first top-level `{` before a `;`. Return types and where
        // clauses in this workspace contain no braces (no const-generic
        // block defaults in signatures).
        let mut j = close_paren + 1;
        let body = loop {
            if j >= b.len() {
                break None;
            }
            match b[j] {
                b'{' => break matching_brace(b, j).map(|e| (j, e)),
                b';' => break None,
                _ => j += 1,
            }
        };
        let enclosing = containers.iter().find(|c| fn_off >= c.body.0 && fn_off < c.body.1);
        let container = enclosing.map(|c| c.name.clone());
        let calls = match body {
            Some((s, e)) => find_calls(file, s, e, container.as_deref()),
            None => Vec::new(),
        };
        // Inline mods nest, so the enclosing ones in source order run
        // outermost first.
        let module = mods
            .iter()
            .filter(|m| fn_off > m.body.0 && fn_off < m.body.1)
            .map(|m| m.name.clone())
            .collect();
        out.push(FnItem {
            name,
            container,
            line: file.line_of(fn_off),
            offset: fn_off,
            body,
            has_self: first_param_is_self(file, b, paren, close_paren),
            in_trait: enclosing.map(|c| c.is_trait).unwrap_or(false),
            is_test: file.in_test(fn_off),
            module,
            calls,
        });
    }
    out
}

/// Whether the first parameter inside `(paren..close_paren)` is a `self`
/// receiver, in any of its spellings: `self`, `&self`, `&mut self`,
/// `&'a self`, `mut self`, `self: Pin<...>`.
fn first_param_is_self(file: &SourceFile, b: &[u8], paren: usize, close_paren: usize) -> bool {
    let mut i = paren + 1;
    loop {
        let Some((s, c)) = next_token(b, i) else { return false };
        if s >= close_paren {
            return false;
        }
        if c == b'&' {
            i = s + 1;
            continue;
        }
        if c == b'\'' {
            // Lifetime: skip the tick and its identifier.
            i = s + 1;
            while i < close_paren && is_ident(b[i]) {
                i += 1;
            }
            continue;
        }
        if !is_ident(c) {
            return false;
        }
        let mut e = s;
        while e < close_paren && is_ident(b[e]) {
            e += 1;
        }
        if &file.masked[s..e] == "mut" {
            i = e;
            continue;
        }
        return &file.masked[s..e] == "self";
    }
}

/// Finds inline `mod name { … }` blocks, in source order. `mod name;`
/// declares a module in another file and has no body here.
fn find_inline_mods(file: &SourceFile) -> Vec<InlineMod> {
    let b = file.masked.as_bytes();
    let mut out = Vec::new();
    for off in token_offsets(&file.masked, "mod") {
        let Some((start, c)) = next_token(b, off + 3) else { continue };
        if !is_ident(c) {
            continue;
        }
        let mut end = start;
        while end < b.len() && is_ident(b[end]) {
            end += 1;
        }
        let Some((open, b'{')) = next_token(b, end) else { continue };
        if let Some(close) = matching_brace(b, open) {
            out.push(InlineMod { name: file.masked[start..end].to_string(), body: (open, close) });
        }
    }
    out
}

/// Finds `impl`/`trait` blocks and their self-type/trait names. For
/// `impl Trait for Type`, the container is `Type` (where the methods
/// live); for `impl Type` and `trait Name` it is that name.
fn find_containers(file: &SourceFile) -> Vec<Container> {
    let b = file.masked.as_bytes();
    let mut out = Vec::new();
    for kw in ["impl", "trait"] {
        for off in token_offsets(&file.masked, kw) {
            let mut i = off + kw.len();
            // `impl<T: Bound>` generic params.
            if let Some((j, c)) = next_token(b, i) {
                if c == b'<' {
                    match skip_generics(b, j) {
                        Some(end) => i = end,
                        None => continue,
                    }
                }
            }
            // Path (possibly two: `Trait for Type`). Take the segment after
            // `for` when present, else the first.
            let Some((head, head_end)) = read_type_head(file, b, i) else { continue };
            let mut name = head;
            let mut k = head_end;
            if let Some(for_off) = next_word_is(file, b, k, "for") {
                match read_type_head(file, b, for_off) {
                    Some((n, e)) => {
                        name = n;
                        k = e;
                    }
                    None => continue,
                }
            }
            // Body braces (skip a `where` clause if present).
            let mut j = k;
            let body = loop {
                if j >= b.len() {
                    break None;
                }
                match b[j] {
                    b'{' => break matching_brace(b, j).map(|e| (j, e)),
                    b';' => break None,
                    _ => j += 1,
                }
            };
            if let Some(body) = body {
                if !name.is_empty() {
                    out.push(Container { name, body, is_trait: kw == "trait" });
                }
            }
        }
    }
    out
}

/// Reads a type path starting at/after `from`; returns the **last**
/// segment's identifier (generics stripped) and the offset one past the
/// path. `core::Mat<'a, T>` → (`Mat`, after `>`).
fn read_type_head(file: &SourceFile, b: &[u8], from: usize) -> Option<(String, usize)> {
    let (mut i, first) = next_token(b, from)?;
    // `&`, `&mut`, `dyn` prefixes (trait objects / reference impls).
    if first == b'&' {
        i += 1;
    }
    let mut last = String::new();
    loop {
        let (s, c) = next_token(b, i)?;
        if !is_ident(c) {
            break;
        }
        let mut e = s;
        while e < b.len() && is_ident(b[e]) {
            e += 1;
        }
        let word = &file.masked[s..e];
        i = e;
        if word == "dyn" || word == "mut" {
            continue;
        }
        last = word.to_string();
        // Generic arguments on this segment.
        if let Some((j, c2)) = next_token(b, i) {
            if c2 == b'<' {
                i = skip_generics(b, j)?;
            }
        }
        // `::` → another segment follows.
        match next_token(b, i) {
            Some((j, b':')) if b.get(j + 1) == Some(&b':') => i = j + 2,
            _ => break,
        }
    }
    if last.is_empty() {
        None
    } else {
        Some((last, i))
    }
}

/// If the next word at/after `from` is `word`, returns the offset one past
/// it.
fn next_word_is(file: &SourceFile, b: &[u8], from: usize, word: &str) -> Option<usize> {
    let (s, c) = next_token(b, from)?;
    if !is_ident(c) {
        return None;
    }
    let mut e = s;
    while e < b.len() && is_ident(b[e]) {
        e += 1;
    }
    if &file.masked[s..e] == word {
        Some(e)
    } else {
        None
    }
}

/// Extracts call sites from the masked byte range `[start, end]` (a fn
/// body). A call is an identifier followed — possibly via a `::<...>`
/// turbofish — by `(`. Classification:
///
/// * `.name(` → method call (resolved by name across all impls);
/// * `Qual::name(` → qualified call (the qualifier narrows resolution);
/// * `name(` → free-function call (also covers closure/fn-pointer
///   invocation, which resolves conservatively by name).
///
/// Macro invocations (`name!(`) are not calls — the panic-family macros
/// are handled lexically by the panic rule.
fn find_calls(
    file: &SourceFile,
    start: usize,
    end: usize,
    container: Option<&str>,
) -> Vec<CallSite> {
    let b = file.masked.as_bytes();
    let mut out = Vec::new();
    let mut i = start;
    while i < end {
        if !is_ident(b[i]) || (i > 0 && is_ident(b[i - 1])) {
            i += 1;
            continue;
        }
        let word_start = i;
        while i < end && is_ident(b[i]) {
            i += 1;
        }
        let word = &file.masked[word_start..i];
        if word.as_bytes()[0].is_ascii_digit() || KEYWORDS.contains(&word) {
            continue;
        }
        let Some((j, c)) = next_token(b, i) else { break };
        // `name::<T>(` — skip the turbofish, then require `(`.
        let after_generics = if c == b':'
            && b.get(j + 1) == Some(&b':')
            && next_token(b, j + 2).is_some_and(|(_, c2)| c2 == b'<')
        {
            let (g, _) = next_token(b, j + 2).expect("checked above");
            match skip_generics(b, g) {
                Some(e) => e,
                None => continue,
            }
        } else {
            j
        };
        let Some((p, pc)) = next_token(b, after_generics) else { break };
        // Macros (`name!(`) never reach here: their `!` fails the `(`
        // check above, and the panic rule handles them lexically.
        if pc != b'(' || p > end {
            continue;
        }
        // Classify by what precedes the identifier.
        let mut q = word_start;
        while q > 0 && (b[q - 1] as char).is_whitespace() {
            q -= 1;
        }
        let (is_method, qualifier) = if q > 0 && b[q - 1] == b'.' {
            (true, None)
        } else if q > 1 && b[q - 1] == b':' && b[q - 2] == b':' {
            // Walk back over the qualifying segment (possibly with its own
            // `::` chain; only the innermost segment is kept).
            let mut s = q - 2;
            while s > 0 && (b[s - 1] as char).is_whitespace() {
                s -= 1;
            }
            let seg_end = s;
            while s > 0 && is_ident(b[s - 1]) {
                s -= 1;
            }
            let seg = &file.masked[s..seg_end];
            let qual = if seg.is_empty() {
                None // `<T as Trait>::name(`, `Vec::<u8>::new(` — give up, resolve wide
            } else if seg == "Self" {
                container.map(str::to_string)
            } else {
                Some(seg.to_string())
            };
            (false, qual)
        } else {
            (false, None)
        };
        out.push(CallSite {
            name: word.to_string(),
            qualifier,
            is_method,
            line: file.line_of(word_start),
        });
    }
    out
}

/// Offset of the `)` matching `b[open]`.
fn matching_paren(b: &[u8], open: usize) -> Option<usize> {
    matching_pair(b, open, b'(', b')')
}

/// Offset of the `}` matching `b[open]`.
fn matching_brace(b: &[u8], open: usize) -> Option<usize> {
    matching_pair(b, open, b'{', b'}')
}

fn matching_pair(b: &[u8], open: usize, lhs: u8, rhs: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == lhs {
            depth += 1;
        } else if c == rhs {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<FnItem> {
        parse_fns(&SourceFile::new("t.rs".into(), src.into()))
    }

    #[test]
    fn free_fn_and_method_are_parsed_with_containers() {
        let src = "pub fn free(x: usize) -> usize { helper(x) }\n\
                   impl Mat {\n    pub fn rows(&self) -> usize { self.r }\n}\n\
                   impl std::fmt::Display for Mat {\n    fn fmt(&self) {}\n}\n\
                   trait Sink {\n    fn push_frame(&mut self) { self.flush() }\n    fn flush(&mut self);\n}\n";
        let items = fns(src);
        let names: Vec<(String, Option<String>)> =
            items.iter().map(|f| (f.name.clone(), f.container.clone())).collect();
        assert_eq!(
            names,
            [
                ("free".to_string(), None),
                ("rows".to_string(), Some("Mat".to_string())),
                ("fmt".to_string(), Some("Mat".to_string())),
                ("push_frame".to_string(), Some("Sink".to_string())),
                ("flush".to_string(), Some("Sink".to_string())),
            ],
            "{items:#?}"
        );
        assert!(items[4].body.is_none(), "trait declaration is bodyless");
        assert_eq!(items[0].calls.len(), 1);
        assert_eq!(items[0].calls[0].name, "helper");
        assert!(!items[0].has_self && !items[0].in_trait);
        assert!(items[1].has_self && !items[1].in_trait);
        assert!(items[3].has_self && items[3].in_trait);
    }

    #[test]
    fn self_receiver_spellings_are_recognised() {
        let src = "impl M {\n    fn a(self) {}\n    fn b(&self) {}\n    fn c(&mut self) {}\n    \
                   fn d(&'a self) {}\n    fn e(mut self) {}\n    fn f() {}\n    fn g(x: &Self) {}\n}\n";
        let by_self: Vec<bool> = fns(src).iter().map(|f| f.has_self).collect();
        assert_eq!(by_self, [true, true, true, true, true, false, false]);
    }

    #[test]
    fn generic_signatures_parse_through_fn_bounds() {
        let items = fns("fn map<F: Fn(usize) -> f32, T>(f: F, x: T) -> f32 { f(0) }\n");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "map");
        assert_eq!(
            items[0].calls,
            [CallSite { name: "f".into(), qualifier: None, is_method: false, line: 1 }]
        );
    }

    #[test]
    fn call_classification_distinguishes_method_qualified_free_and_macros() {
        let src =
            "fn f(&self) {\n    self.step(1);\n    Mat::zeros(2);\n    kernels::gemm_ab(3);\n    \
                   helper();\n    panic!(\"not a call\");\n    parse::<u32>(s);\n}\n";
        let items = fns(src);
        let calls = &items[0].calls;
        let view: Vec<(&str, Option<&str>, bool)> =
            calls.iter().map(|c| (c.name.as_str(), c.qualifier.as_deref(), c.is_method)).collect();
        assert_eq!(
            view,
            [
                ("step", None, true),
                ("zeros", Some("Mat"), false),
                ("gemm_ab", Some("kernels"), false),
                ("helper", None, false),
                ("parse", None, false),
            ],
            "{calls:#?}"
        );
    }

    #[test]
    fn self_qualifier_rewrites_to_container() {
        let src = "impl Pool {\n    fn spawn() { Self::build(); }\n    fn build() {}\n}\n";
        let items = fns(src);
        assert_eq!(items[0].calls[0].qualifier.as_deref(), Some("Pool"));
    }

    #[test]
    fn turbofish_with_nested_generics_does_not_swallow_the_call() {
        // Regression: `>>` closing two levels. A shift-style lexer would
        // extend the generic to the `>` comparison and lose the call.
        let src = "fn f(level: usize) -> bool {\n    let g = make_grid::<Vec<Vec<f32>>>();\n    \
                   level > g.len()\n}\n";
        let items = fns(src);
        let names: Vec<&str> = items[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"make_grid"), "{:#?}", items[0].calls);
        assert!(names.contains(&"len"), "{:#?}", items[0].calls);
    }

    #[test]
    fn inline_module_paths_are_recorded() {
        let src = "fn top() {}\nmod a {\n    fn in_a() {}\n    mod b { fn in_b() {} }\n    fn after_b() {}\n}\n\
                   mod elsewhere;\nfn bottom() {}\n";
        let paths: Vec<(String, Vec<String>)> =
            fns(src).into_iter().map(|f| (f.name, f.module)).collect();
        let path = |p: &[&str]| p.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            paths,
            [
                ("top".to_string(), path(&[])),
                ("in_a".to_string(), path(&["a"])),
                ("in_b".to_string(), path(&["a", "b"])),
                ("after_b".to_string(), path(&["a"])),
                ("bottom".to_string(), path(&[])),
            ]
        );
    }

    #[test]
    fn test_items_are_flagged() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}\n";
        let items = fns(src);
        assert!(!items[0].is_test);
        assert!(items[1].is_test);
    }
}
