//! The rule implementations. Each module exposes
//! `check(models, …) -> Vec<Diagnostic>`, plus the token-pattern
//! helpers (receiver extraction, paren matching, guard-acquire and
//! atomic-op classification) shared across rule families.

pub mod atomics;
pub mod counters;
pub mod hb;
pub mod locks;
pub mod proto;
pub mod unsafety;

use crate::lexer::Tok;
use crate::model::FileModel;

/// Calls that block the calling thread. Deliberately *not* listed:
/// `join` (collides with `slice::join`/`str::join`), `yield_now`
/// (bounded), `write`/`read` (collide with `io::Write`/RwLock naming).
pub(crate) const BLOCKING: &[&str] = &[
    "sleep",
    "sleep_ms",
    "park",
    "park_timeout",
    "read_line",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "write_all",
    "write_fmt",
    "flush",
    "accept",
    "connect",
    "recv",
    "recv_timeout",
    "recv_from",
    "send_to",
];

/// Condvar-style waits (release the named guard while parked).
pub(crate) const WAITS: &[&str] = &["wait", "wait_while", "wait_timeout", "wait_timeout_while"];

/// Memory-ordering path tails (`Ordering::X`).
pub(crate) const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Atomic operations that only load.
pub(crate) const LOAD_OPS: &[&str] = &["load"];
/// Atomic operations that only store.
pub(crate) const STORE_OPS: &[&str] = &["store"];
/// Read-modify-write atomic operations (success ordering is checked).
pub(crate) const RMW_OPS: &[&str] = &[
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_nand",
    "fetch_min",
    "fetch_max",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// How an atomic method call touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    /// Pure load.
    Load,
    /// Pure store.
    Store,
    /// Read-modify-write (both sides of a hand-off).
    Rmw,
}

impl OpKind {
    /// Classifies an atomic method name.
    pub(crate) fn classify(op: &str) -> Option<OpKind> {
        if LOAD_OPS.contains(&op) {
            Some(OpKind::Load)
        } else if STORE_OPS.contains(&op) {
            Some(OpKind::Store)
        } else if RMW_OPS.contains(&op) {
            Some(OpKind::Rmw)
        } else {
            None
        }
    }
}

/// The first `…::<ordering>` path between token indices `from..to` —
/// for `compare_exchange*`/`fetch_update` this is the *success*
/// ordering, which is the one the audit checks.
pub(crate) fn first_ordering(m: &FileModel, from: usize, to: usize) -> Option<&str> {
    for j in from..to.min(m.tokens.len()) {
        if let Tok::Ident(w) = &m.tokens[j].tok {
            if ORDERINGS.contains(&w.as_str())
                && j >= 2
                && matches!(m.tokens[j - 1].tok, Tok::Punct(':'))
                && matches!(m.tokens[j - 2].tok, Tok::Punct(':'))
            {
                return Some(w);
            }
        }
    }
    None
}

/// True when the token at `i` is a method-call name (`.name(`).
pub(crate) fn is_method(m: &FileModel, i: usize) -> bool {
    i > 0 && matches!(m.tokens[i - 1].tok, Tok::Punct('.'))
}

/// True when the token at `i` is the tail of a `path::call(`.
pub(crate) fn is_path_call(m: &FileModel, i: usize) -> bool {
    i > 0 && matches!(m.tokens[i - 1].tok, Tok::Punct(':'))
}

/// How a `.lock()` call site binds its guard.
#[derive(Debug, Clone)]
pub(crate) struct AcquireInfo {
    /// The `let` binding holding the guard, if any.
    pub bind: Option<String>,
    /// The guard is an unbound temporary dying at its statement's end
    /// (not one in an `if`/`while` condition, which lives through the
    /// block).
    pub temp: bool,
}

/// Analyzes the `.lock()` call at token `i` (the `lock` ident):
/// resolves the `let` binding by scanning back to the statement head,
/// detects `if`/`while` conditions, and treats method chains past the
/// guard (other than `.unwrap()`/`.expect()`) as unbinding it.
pub(crate) fn acquire_info(m: &FileModel, body_start: usize, i: usize) -> AcquireInfo {
    let (mut bind, cond) = binding_for(m, body_start, i);
    let mut j = match_paren(m, i + 1);
    while matches!(m.tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('.')))
        && matches!(
            m.tokens.get(j + 1).map(|t| &t.tok),
            Some(Tok::Ident(w)) if w == "unwrap" || w == "expect"
        )
        && matches!(m.tokens.get(j + 2).map(|t| &t.tok), Some(Tok::Punct('(')))
    {
        j = match_paren(m, j + 2);
    }
    let chained = matches!(m.tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('.')));
    if chained {
        bind = None;
    }
    AcquireInfo {
        temp: (bind.is_none() || chained) && !cond,
        bind,
    }
}

/// Looks back from the `.lock()` call to the statement head for a
/// `let [mut] NAME =` binding; also reports whether the binding sits in
/// an `if let`/`while let` condition.
pub(crate) fn binding_for(m: &FileModel, body_start: usize, i: usize) -> (Option<String>, bool) {
    let mut j = i;
    let mut toks: Vec<&Tok> = Vec::new();
    while j > body_start {
        j -= 1;
        match &m.tokens[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
            t => toks.push(t),
        }
        if toks.len() > 24 {
            break;
        }
    }
    toks.reverse(); // statement head → lock call, in source order
    let mut bind = None;
    let mut cond = false;
    for (k, t) in toks.iter().enumerate() {
        if let Tok::Ident(w) = t {
            match w.as_str() {
                "if" | "while" => cond = true,
                "let" => {
                    let mut n = k + 1;
                    while let Some(Tok::Ident(next)) = toks.get(n) {
                        if next == "mut" {
                            n += 1;
                            continue;
                        }
                        bind = Some(next.to_string());
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    // `if cond { ... }` without `let` is not a condition binding.
    (bind, cond)
}

/// Extracts the receiver *name* of a method call whose `.` sits at token
/// index `dot` — the last field in the access chain, skipping an index
/// expression: `self.inner.top` → `top`, `sh.flags[victim]` → `flags`,
/// `SHUTDOWN` → `SHUTDOWN`. Returns `None` for computed receivers
/// (`foo().bar`, `(*ptr).bar`, tuple fields).
pub(crate) fn receiver_name(m: &FileModel, dot: usize) -> Option<String> {
    let mut i = dot;
    // Skip a trailing index `[ … ]`.
    if i > 0 && matches!(m.tokens[i - 1].tok, Tok::Punct(']')) {
        let mut depth = 0isize;
        let mut j = i - 1;
        loop {
            match m.tokens[j].tok {
                Tok::Punct(']') => depth += 1,
                Tok::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        i = j;
    }
    match m.tokens.get(i.checked_sub(1)?).map(|t| &t.tok) {
        Some(Tok::Ident(name)) => Some(name.clone()),
        _ => None,
    }
}

/// The index one past the `)` closing the `(` at `open`.
pub(crate) fn match_paren(m: &FileModel, open: usize) -> usize {
    let mut depth = 0isize;
    let mut i = open;
    while i < m.tokens.len() {
        match m.tokens[i].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    m.tokens.len()
}
