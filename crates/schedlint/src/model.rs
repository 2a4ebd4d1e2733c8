//! The per-file structural model the rules run against.
//!
//! One pass over the token stream extracts: function bodies, annotated
//! atomic declarations (`// sched-atomic(<category>): <why>`), counter
//! registration sites, and the token ranges of `mod tests { … }` blocks
//! (excluded from the concurrency rules — test-local atomics and locks
//! follow different conventions and would drown the signal).

use crate::lexer::{lex, Comment, Lexed, Tok, Token};

/// How an atomic participates in synchronization — declared next to the
/// atomic itself with a `// sched-atomic(<category>): <justification>`
/// comment. The ordering rules key off this registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicCategory {
    /// Publishes data read by another thread: stores/RMWs/loads must
    /// carry at least Release/Acquire; `SeqCst` is flagged as
    /// over-strong (AcqRel suffices for a pairwise hand-off).
    Handoff,
    /// Part of a Dekker-style store-load protocol: every operation must
    /// be `SeqCst` (anything weaker reorders the handshake).
    SeqCst,
    /// Pure statistic or hint: `Relaxed` by design, and anything
    /// stronger is flagged (hidden cost on a hot path).
    Relaxed,
    /// Orderings proven elsewhere (loom model, literature); the
    /// analyzer does not second-guess them. The annotation's
    /// justification should say where the proof lives.
    Verified,
}

impl AtomicCategory {
    /// Parses the annotation keyword.
    pub fn parse(s: &str) -> Option<AtomicCategory> {
        match s {
            "handoff" => Some(AtomicCategory::Handoff),
            "seqcst" => Some(AtomicCategory::SeqCst),
            "relaxed" => Some(AtomicCategory::Relaxed),
            "verified" => Some(AtomicCategory::Verified),
            _ => None,
        }
    }

    /// The annotation keyword.
    pub fn name(self) -> &'static str {
        match self {
            AtomicCategory::Handoff => "handoff",
            AtomicCategory::SeqCst => "seqcst",
            AtomicCategory::Relaxed => "relaxed",
            AtomicCategory::Verified => "verified",
        }
    }
}

/// A declared atomic field/static and its annotation, if any.
#[derive(Debug, Clone)]
pub struct AtomicDecl {
    /// Field or static name (the key usages are matched by).
    pub name: String,
    /// 1-based declaration line.
    pub line: u32,
    /// Parsed `sched-atomic` category; `None` when unannotated.
    pub category: Option<AtomicCategory>,
}

/// One `registry.counter(…)` or `registry.counter_source(…)`
/// registration site.
#[derive(Debug, Clone)]
pub struct CounterReg {
    /// Counter names this site registers. A literal site has one; a
    /// dynamic site (`&format!`) lists the names from its
    /// `// sched-counters: a b c` annotation, or is empty when the
    /// annotation is missing (itself a finding).
    pub names: Vec<String>,
    /// 1-based line of the call.
    pub line: u32,
    /// The binding the handle is stored into (struct-literal field or
    /// `let` name), when the increment happens elsewhere.
    pub binding: Option<String>,
    /// The registration is immediately followed by `.incr()`/`.add(`.
    pub inline_incr: bool,
    /// The site used a non-literal name and carried no `sched-counters`
    /// annotation.
    pub unannotated_dynamic: bool,
    /// A `counter_source(…)` site: the names (always from the
    /// `sched-counters` annotation) are snapshot-time sums over
    /// single-writer cells, which are then both where the counter is
    /// "registered" and where it is bumped — a field of the same name
    /// that its owner stores to.
    pub source: bool,
}

/// A function (or method) body.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Token index of the opening `{`.
    pub body_start: usize,
    /// Token index one past the closing `}`.
    pub body_end: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `// sched-counter-exits(a|b): why` annotation above the function:
    /// a claim that every exit path increments at least one of the named
    /// counter bindings, verified path-sensitively by SL031.
    pub counter_exits: Option<Vec<String>>,
}

/// The parsed model of one source file.
#[derive(Debug)]
pub struct FileModel {
    /// Display path (workspace-relative).
    pub path: String,
    /// Owning crate (directory under `crates/`).
    pub crate_name: String,
    /// Token stream.
    pub tokens: Vec<Token>,
    /// Comment list.
    pub comments: Vec<Comment>,
    /// Functions with bodies, in source order.
    pub functions: Vec<Func>,
    /// Annotated/unannotated atomic declarations.
    pub atomic_decls: Vec<AtomicDecl>,
    /// Counter registration sites.
    pub counter_regs: Vec<CounterReg>,
    /// Token ranges (start..end) inside `mod tests { … }` blocks.
    pub test_ranges: Vec<(usize, usize)>,
}

const ATOMIC_TYPES: &[&str] = &[
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU64",
    "AtomicI64",
    "AtomicU32",
    "AtomicI32",
    "AtomicU8",
    "AtomicI8",
    "AtomicU16",
    "AtomicI16",
    "AtomicBool",
    "AtomicPtr",
];

impl FileModel {
    /// Lexes and models one file.
    pub fn parse(path: &str, crate_name: &str, src: &str) -> FileModel {
        let Lexed { tokens, comments } = lex(src);
        let mut m = FileModel {
            path: path.to_string(),
            crate_name: crate_name.to_string(),
            tokens,
            comments,
            functions: Vec::new(),
            atomic_decls: Vec::new(),
            counter_regs: Vec::new(),
            test_ranges: Vec::new(),
        };
        m.find_test_ranges();
        m.find_functions();
        m.find_atomic_decls();
        m.find_counter_regs();
        m
    }

    /// True when token index `i` is inside a `mod tests` block.
    pub fn in_tests(&self, i: usize) -> bool {
        self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.tokens.get(i).map(|t| &t.tok) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        matches!(self.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
    }

    /// Finds the matching `}` for the `{` at `open`, returning the index
    /// one past it.
    pub fn match_brace(&self, open: usize) -> usize {
        let mut depth = 0isize;
        let mut i = open;
        while i < self.tokens.len() {
            match self.tokens[i].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.tokens.len()
    }

    fn find_test_ranges(&mut self) {
        let mut i = 0;
        while i + 2 < self.tokens.len() {
            if self.ident_at(i) == Some("mod")
                && matches!(self.ident_at(i + 1), Some(name) if name == "tests" || name.ends_with("_tests"))
                && self.punct_at(i + 2, '{')
            {
                let end = self.match_brace(i + 2);
                self.test_ranges.push((i, end));
                i = end;
                continue;
            }
            i += 1;
        }
    }

    fn find_functions(&mut self) {
        let mut funcs = Vec::new();
        let mut i = 0;
        let n = self.tokens.len();
        while i < n {
            if self.ident_at(i) == Some("fn") {
                let Some(name) = self.ident_at(i + 1).map(str::to_string) else {
                    i += 1;
                    continue;
                };
                let line = self.tokens[i].line;
                // Scan to the body `{`, skipping the parameter list,
                // return type, and where clause. `->` must not be read
                // as closing an angle bracket; a `;` first means a
                // bodyless declaration (trait method, extern).
                let mut j = i + 2;
                let mut paren = 0isize;
                let mut angle = 0isize;
                let mut found = None;
                while j < n {
                    match self.tokens[j].tok {
                        Tok::Punct('(') | Tok::Punct('[') => paren += 1,
                        Tok::Punct(')') | Tok::Punct(']') => paren -= 1,
                        Tok::Punct('<') => angle += 1,
                        Tok::Punct('>')
                            if !self.punct_at(j - 1, '-') && !self.punct_at(j - 1, '=') =>
                        {
                            angle -= 1;
                        }
                        Tok::Punct(';') if paren == 0 => break,
                        Tok::Punct('{') if paren == 0 && angle <= 0 => {
                            found = Some(j);
                            break;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if let Some(open) = found {
                    let end = self.match_brace(open);
                    funcs.push(Func {
                        name,
                        body_start: open,
                        body_end: end,
                        line,
                        counter_exits: self.counter_exits_annotation(line),
                    });
                    // Functions nest (closures are part of the body;
                    // nested `fn` items are rare) — continue the scan
                    // right after the header, not the body, so nested
                    // named fns are modeled too.
                    i = open + 1;
                    continue;
                }
            }
            i += 1;
        }
        self.functions = funcs;
    }

    /// The `// sched-counter-exits(a|b): why` annotation covering
    /// `line` (the `fn` keyword's line): on that line or in the
    /// contiguous comment block directly above it.
    fn counter_exits_annotation(&self, line: u32) -> Option<Vec<String>> {
        let mut probe = line;
        loop {
            for c in &self.comments {
                if c.end_line >= probe && c.start_line <= probe {
                    // The annotation must open the comment (after the
                    // `//`/`///`/`//!` marker) — prose *mentioning* the
                    // annotation syntax in rustdoc is not a claim.
                    let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
                    if let Some(rest) = body.strip_prefix("sched-counter-exits(") {
                        let end = rest.find(')')?;
                        let names: Vec<String> = rest[..end]
                            .split('|')
                            .map(|s| s.trim().to_string())
                            .filter(|s| !s.is_empty())
                            .collect();
                        return (!names.is_empty()).then_some(names);
                    }
                }
            }
            let above = probe.saturating_sub(1);
            if above == 0 {
                return None;
            }
            let covered = self
                .comments
                .iter()
                .any(|c| c.start_line <= above && c.end_line >= above);
            let has_code = self.tokens.iter().any(|t| t.line == above);
            if !covered || has_code {
                return None;
            }
            probe = above;
        }
    }

    /// The `sched-atomic(...)` annotation covering `line`, if any: on
    /// the declaration line itself or in the contiguous comment block
    /// directly above it.
    fn atomic_annotation(&self, line: u32) -> Option<AtomicCategory> {
        let mut probe = line;
        // Same line, then walk up through contiguous comment lines.
        loop {
            for c in &self.comments {
                if c.end_line >= probe.saturating_sub(0) && c.start_line <= probe {
                    if let Some(cat) = parse_sched_atomic(&c.text) {
                        return Some(cat);
                    }
                }
            }
            // Walk up only through comment-only lines: a trailing
            // comment on the previous *declaration's* line covers that
            // declaration, not this one.
            let above = probe.saturating_sub(1);
            if above == 0 {
                return None;
            }
            let covered = self
                .comments
                .iter()
                .any(|c| c.start_line <= above && c.end_line >= above);
            let has_code = self.tokens.iter().any(|t| t.line == above);
            if !covered || has_code {
                return None;
            }
            probe = above;
        }
    }

    fn find_atomic_decls(&mut self) {
        let n = self.tokens.len();
        let mut decls = Vec::new();
        for i in 0..n {
            let Some(ty) = self.ident_at(i) else { continue };
            if !ATOMIC_TYPES.contains(&ty) {
                continue;
            }
            // `AtomicUsize::new(…)` is a constructor use, not a
            // declaration.
            if self.punct_at(i + 1, ':') && self.punct_at(i + 2, ':') {
                continue;
            }
            if self.in_tests(i) {
                continue;
            }
            // Walk back over type wrappers (`Arc<`, `Box<[`, `[`, …) to
            // the `name :` of a field/static/let declaration.
            let mut j = i;
            let mut ok = false;
            while j > 0 {
                j -= 1;
                match &self.tokens[j].tok {
                    Tok::Punct('<') | Tok::Punct('[') | Tok::Punct('(') => continue,
                    Tok::Ident(w)
                        if ["Arc", "Box", "Option", "Vec", "Cell", "UnsafeCell"]
                            .contains(&w.as_str()) =>
                    {
                        continue
                    }
                    Tok::Punct(':') => {
                        // Skip `::` paths like `atomic::AtomicUsize`.
                        if j > 0 && self.punct_at(j - 1, ':') {
                            j -= 1;
                            continue;
                        }
                        ok = true;
                        break;
                    }
                    _ => break,
                }
            }
            if !ok || j == 0 {
                continue;
            }
            let Some(name) = self.ident_at(j - 1).map(str::to_string) else {
                continue;
            };
            let line = self.tokens[i].line;
            decls.push(AtomicDecl {
                name,
                line,
                category: self.atomic_annotation(line),
            });
        }
        self.atomic_decls = decls;
    }

    /// The `// sched-counters: a b c` annotation near `line`.
    fn counters_annotation(&self, line: u32) -> Option<Vec<String>> {
        for c in &self.comments {
            if c.end_line + 4 >= line && c.start_line <= line {
                if let Some(pos) = c.text.find("sched-counters:") {
                    let rest = &c.text[pos + "sched-counters:".len()..];
                    let names: Vec<String> = rest
                        .split_whitespace()
                        .map(str::to_string)
                        .take_while(|w| !w.starts_with("//"))
                        .collect();
                    if !names.is_empty() {
                        return Some(names);
                    }
                }
            }
        }
        None
    }

    fn find_counter_regs(&mut self) {
        let n = self.tokens.len();
        let mut regs = Vec::new();
        for i in 0..n {
            let source = match self.ident_at(i) {
                Some("counter") => false,
                Some("counter_source") => true,
                _ => continue,
            };
            if !self.punct_at(i - 1, '.') {
                continue;
            }
            if !self.punct_at(i + 1, '(') {
                continue;
            }
            if self.in_tests(i) {
                continue;
            }
            let line = self.tokens[i].line;
            // Literal name or dynamic?
            let mut names = Vec::new();
            let mut unannotated_dynamic = false;
            if let Some(Tok::Literal(text)) = self.tokens.get(i + 2).map(|t| &t.tok) {
                names.push(text.trim_matches('"').to_string());
            } else {
                match self.counters_annotation(line) {
                    Some(list) => names = list,
                    None => unannotated_dynamic = true,
                }
            }
            // Find the end of the call to detect `.incr()` / `.add(`.
            let close = {
                let mut depth = 0isize;
                let mut k = i + 1;
                loop {
                    match self.tokens.get(k).map(|t| &t.tok) {
                        Some(Tok::Punct('(')) => depth += 1,
                        Some(Tok::Punct(')')) => {
                            depth -= 1;
                            if depth == 0 {
                                break k;
                            }
                        }
                        None => break k,
                        _ => {}
                    }
                    k += 1;
                }
            };
            let inline_incr = self.punct_at(close + 1, '.')
                && matches!(self.ident_at(close + 2), Some("incr") | Some("add"));
            // Binding: `name : registry . counter (` (struct literal) or
            // `let name = registry . counter (` / `let name = … from_fn`.
            let mut binding = None;
            // registry.counter → tokens i-2 = registry ident, i-3 = ':' or '='
            if let Some(Tok::Ident(_)) = self.tokens.get(i.wrapping_sub(2)).map(|t| &t.tok) {
                let k = i - 3;
                if self.punct_at(k, ':') && !self.punct_at(k.wrapping_sub(1), ':') {
                    binding = self.ident_at(k - 1).map(str::to_string);
                } else if self.punct_at(k, '=') {
                    // let NAME = registry.counter(...)
                    let mut back = k;
                    while back > 0 {
                        back -= 1;
                        if let Some(Tok::Ident(w)) = self.tokens.get(back).map(|t| &t.tok) {
                            if w == "let" {
                                break;
                            }
                            if binding.is_none() {
                                binding = Some(w.clone());
                            }
                        } else {
                            break;
                        }
                    }
                }
            }
            regs.push(CounterReg {
                names,
                line,
                binding,
                inline_incr,
                unannotated_dynamic,
                source,
            });
        }
        self.counter_regs = regs;
    }
}

fn parse_sched_atomic(text: &str) -> Option<AtomicCategory> {
    let pos = text.find("sched-atomic(")?;
    let rest = &text[pos + "sched-atomic(".len()..];
    let end = rest.find(')')?;
    AtomicCategory::parse(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_annotated_atomic_field() {
        let src = r#"
struct S {
    /// Jobs outstanding.
    // sched-atomic(handoff): pairs with wait_idle's Acquire load.
    outstanding: AtomicUsize,
    plain: AtomicBool,
}
fn mk() { let x = AtomicUsize::new(0); }
"#;
        let m = FileModel::parse("s.rs", "c", src);
        assert_eq!(m.atomic_decls.len(), 2);
        assert_eq!(m.atomic_decls[0].name, "outstanding");
        assert_eq!(m.atomic_decls[0].category, Some(AtomicCategory::Handoff));
        assert_eq!(m.atomic_decls[1].name, "plain");
        assert_eq!(m.atomic_decls[1].category, None);
    }

    #[test]
    fn wrapped_and_static_decls_are_found() {
        let src = r#"
static SHUTDOWN: AtomicBool = AtomicBool::new(false); // sched-atomic(relaxed): flag only.
struct S {
    flags: Box<[AtomicBool]>, // sched-atomic(handoff): drained-deque publication.
    stop: Arc<AtomicBool>,
}
"#;
        let m = FileModel::parse("s.rs", "c", src);
        let names: Vec<&str> = m.atomic_decls.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["SHUTDOWN", "flags", "stop"]);
        assert_eq!(m.atomic_decls[0].category, Some(AtomicCategory::Relaxed));
        assert_eq!(m.atomic_decls[1].category, Some(AtomicCategory::Handoff));
        assert_eq!(m.atomic_decls[2].category, None);
    }

    #[test]
    fn functions_and_test_mods_are_delimited() {
        let src = r#"
fn alpha(x: usize) -> Vec<u32> { x + 1 }
impl Foo {
    fn beta(&self) where Self: Sized { self.go() }
}
#[cfg(test)]
mod tests {
    fn gamma() {}
}
"#;
        let m = FileModel::parse("s.rs", "c", src);
        let names: Vec<&str> = m.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["alpha", "beta", "gamma"]);
        let gamma = &m.functions[2];
        assert!(m.in_tests(gamma.body_start));
        let beta = &m.functions[1];
        assert!(!m.in_tests(beta.body_start));
    }
}
