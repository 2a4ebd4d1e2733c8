//! Intra-function control-flow model for the guard-liveness and
//! exit-conservation rules.
//!
//! A linear walk over a function body cannot tell which branch a
//! `drop(guard)` sits in, and an early `return` is invisible to it.
//! That is exactly where conditional bugs hide — a guard dropped on one
//! arm but held across a blocking call on the other (SL020), or a
//! counter bumped on the success path but skipped by an `ERR`
//! early-return (SL031). This module parses each body into a
//! structured region tree (sequences, branch alternatives, loops,
//! scopes, early exits — including `?` and `let … else`) and runs small
//! dataflow analyses over it:
//!
//! - [`may_live`]: a *may* analysis of live `MutexGuard`s — every event
//!   together with the guards that can be live there on **some** path.
//!   SL010, SL011 and SL020 (`rules::locks`) are all answered from it.
//! - [`exit_increments`]: a *must* analysis for functions annotated
//!   `// sched-counter-exits(a|b): why` — every path from entry to
//!   every exit (normal end, `return`, `?`) must increment at least one
//!   of the named counter bindings, directly or through a same-crate
//!   callee that unconditionally does (one level deep, via
//!   [`always_incremented`] summaries).
//!
//! The tree is approximate where the token model is (closure bodies are
//! inlined as blocks, `break`/`continue` end their path without an exit
//! check, loop bodies are analyzed for one iteration) — conservative in
//! the direction each analysis needs, and bounded: nesting beyond
//! [`MAX_DEPTH`] degrades to a flat scan instead of recursing.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Tok;
use crate::model::{FileModel, Func};
use crate::rules::{
    acquire_info, is_method, is_path_call, match_paren, receiver_name, BLOCKING, WAITS,
};

/// Structural nesting bound: beyond this the builder stops adding
/// structure (events still terminate) so pathological input cannot
/// overflow the stack.
pub const MAX_DEPTH: usize = 96;

/// How a path leaves the function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// `return` — ends the path at a function exit.
    Return,
    /// `?` — *may* end the path at a function exit; the fall-through
    /// continues.
    Question,
    /// `break`/`continue` — ends the path without reaching a function
    /// exit (no exit-invariant check applies).
    LoopJump,
}

/// One atomic step on a path.
#[derive(Debug, Clone)]
pub enum Event {
    /// A `.lock()` acquisition. `id` is unique per syntactic site.
    Acquire {
        /// Site id (stable across analysis passes).
        id: usize,
        /// Receiver name of the `.lock()` call — the lock's identity.
        lock: String,
        /// `let` binding holding the guard, when there is one.
        bind: Option<String>,
        /// Unbound temporary: dies at the next statement end.
        temp: bool,
        /// 1-based source line.
        line: u32,
    },
    /// `drop(name)` — kills guards bound as (or locked on) `name`.
    Drop(
        /// The dropped binding or lock name.
        String,
    ),
    /// Statement boundary (`;`) — kills temporary guards.
    StmtEnd,
    /// A blocking call while the path runs.
    Blocking {
        /// The callee name (`sleep`, `write_all`, …).
        name: String,
        /// 1-based source line.
        line: u32,
    },
    /// A condvar-style wait (`cv.wait(&mut g)`): it releases the guards
    /// its arguments name while parked, and no others.
    Wait {
        /// Every identifier in the argument list.
        names: Vec<String>,
        /// 1-based source line.
        line: u32,
    },
    /// `recv.incr()` / `recv.add(…)` — bumps counter binding `recv`.
    Incr(
        /// Receiver (counter binding) name.
        String,
    ),
    /// A call to a function named like one in the analyzed set.
    Call {
        /// Callee name.
        name: String,
        /// `recv.name(…)` rather than `name(…)`/`path::name(…)`; only
        /// free calls earn SL031's one-level summaries.
        method: bool,
        /// 1-based source line.
        line: u32,
    },
    /// A path exit.
    Exit {
        /// How the path leaves.
        kind: ExitKind,
        /// 1-based source line.
        line: u32,
    },
}

/// A region-tree node.
#[derive(Debug, Clone)]
pub enum Node {
    /// A `{ … }` scope: guards born inside die at its end.
    Block(Vec<Node>),
    /// Mutually exclusive alternatives (if/else arms, match arms). An
    /// `if` without `else` carries an empty second alternative, as does
    /// a `let … else` beside its diverging block.
    Branch(Vec<Vec<Node>>),
    /// A loop body (may run zero times).
    Loop(Vec<Node>),
    /// A leaf event.
    Event(Event),
}

/// Builds the region tree for one function body. Calls to names in
/// `known_fns` become [`Event::Call`]s.
pub fn build(m: &FileModel, f: &Func, known_fns: &BTreeSet<String>) -> Vec<Node> {
    let mut b = Builder {
        m,
        body_start: f.body_start,
        known_fns,
        next_id: 0,
        depth: 0,
    };
    let mut i = f.body_start + 1;
    let end = f.body_end.saturating_sub(1).min(m.tokens.len());
    b.parse_seq(&mut i, end, false)
}

struct Builder<'a> {
    m: &'a FileModel,
    body_start: usize,
    known_fns: &'a BTreeSet<String>,
    next_id: usize,
    depth: usize,
}

impl Builder<'_> {
    fn tok(&self, i: usize) -> Option<&Tok> {
        self.m.tokens.get(i).map(|t| &t.tok)
    }

    fn punct(&self, i: usize, c: char) -> bool {
        matches!(self.tok(i), Some(Tok::Punct(p)) if *p == c)
    }

    fn ident(&self, i: usize) -> Option<&str> {
        match self.tok(i) {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn line(&self, i: usize) -> u32 {
        self.m.tokens.get(i).map(|t| t.line).unwrap_or(0)
    }

    /// Parses a statement/expression sequence from `*i` to `end`,
    /// stopping (without consuming) at a `}` closing the current scope,
    /// or — when `stop_at_comma` — at a top-level `,` (match-arm tail).
    fn parse_seq(&mut self, i: &mut usize, end: usize, stop_at_comma: bool) -> Vec<Node> {
        self.depth += 1;
        let mut nodes = Vec::new();
        let mut paren = 0isize;
        // Pending path-ender (`return`/`break`/`continue`) flushed at
        // the statement boundary so events in the tail expression still
        // precede the exit on the path.
        let mut pending: Option<(ExitKind, u32)> = None;
        let flush = |pending: &mut Option<(ExitKind, u32)>, nodes: &mut Vec<Node>| {
            if let Some((kind, line)) = pending.take() {
                nodes.push(Node::Event(Event::Exit { kind, line }));
            }
        };
        while *i < end {
            match self.tok(*i) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                    paren += 1;
                    *i += 1;
                }
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => {
                    paren -= 1;
                    *i += 1;
                }
                Some(Tok::Punct('{')) => {
                    if self.depth > MAX_DEPTH {
                        // Degrade: skip the block flat (events inside
                        // are lost, rules go conservatively silent).
                        *i = self.m.match_brace(*i).min(end);
                        continue;
                    }
                    *i += 1;
                    let inner = self.parse_seq(i, end, false);
                    if self.punct(*i, '}') {
                        *i += 1;
                    }
                    nodes.push(Node::Block(inner));
                }
                Some(Tok::Punct('}')) => break,
                Some(Tok::Punct(',')) if stop_at_comma && paren == 0 => break,
                Some(Tok::Punct(';')) => {
                    flush(&mut pending, &mut nodes);
                    nodes.push(Node::Event(Event::StmtEnd));
                    *i += 1;
                }
                Some(Tok::Punct('?')) => {
                    nodes.push(Node::Event(Event::Exit {
                        kind: ExitKind::Question,
                        line: self.line(*i),
                    }));
                    *i += 1;
                }
                Some(Tok::Ident(w)) => {
                    let w = w.clone();
                    match w.as_str() {
                        "return" => {
                            pending = Some((ExitKind::Return, self.line(*i)));
                            *i += 1;
                        }
                        "break" | "continue" => {
                            if pending.is_none() {
                                pending = Some((ExitKind::LoopJump, self.line(*i)));
                            }
                            *i += 1;
                        }
                        "if" => {
                            *i += 1;
                            nodes.push(self.parse_if(i, end));
                        }
                        "match" => {
                            *i += 1;
                            nodes.push(self.parse_match(i, end));
                        }
                        "loop" | "while" | "for" => {
                            *i += 1;
                            nodes.push(self.parse_loop(i, end, &w));
                        }
                        // An `else` that `parse_if` did not consume is a
                        // `let PAT = EXPR else { … }`: its block runs
                        // only on the path where the pattern fails.
                        "else" if self.punct(*i + 1, '{') && self.depth <= MAX_DEPTH => {
                            *i += 2;
                            let diverge = self.parse_seq(i, end, false);
                            if self.punct(*i, '}') {
                                *i += 1;
                            }
                            nodes.push(Node::Branch(vec![Vec::new(), diverge]));
                        }
                        _ => {
                            self.leaf(&w, i, &mut nodes);
                        }
                    }
                }
                _ => *i += 1,
            }
        }
        flush(&mut pending, &mut nodes);
        self.depth -= 1;
        nodes
    }

    /// One non-structural token: lock/drop/blocking/wait/incr/call
    /// events.
    fn leaf(&mut self, w: &str, i: &mut usize, nodes: &mut Vec<Node>) {
        let at = *i;
        *i = at + 1;
        if !self.punct(at + 1, '(') {
            return;
        }
        let method = is_method(self.m, at);
        let line = self.line(at);
        let mut push = |ev| nodes.push(Node::Event(ev));
        match w {
            // `drop` is never a callable crate function (E0040).
            "drop" => {
                if let (Some(victim), true) = (self.ident(at + 2), self.punct(at + 3, ')')) {
                    push(Event::Drop(victim.to_string()));
                    *i = at + 4;
                }
            }
            "lock" if method => {
                if let Some(lock) = receiver_name(self.m, at - 1) {
                    let info = acquire_info(self.m, self.body_start, at);
                    push(Event::Acquire {
                        id: self.next_id,
                        lock,
                        bind: info.bind,
                        temp: info.temp,
                        line,
                    });
                    self.next_id += 1;
                }
            }
            _ if method && WAITS.contains(&w) => {
                let close = match_paren(self.m, at + 1).min(self.m.tokens.len());
                let names = (at + 2..close)
                    .filter_map(|k| self.ident(k).map(str::to_string))
                    .collect();
                push(Event::Wait { names, line });
            }
            _ if BLOCKING.contains(&w) && (method || is_path_call(self.m, at)) => {
                push(Event::Blocking {
                    name: w.to_string(),
                    line,
                });
            }
            _ => {
                if (w == "incr" || w == "add") && method {
                    if let Some(recv) = receiver_name(self.m, at - 1) {
                        push(Event::Incr(recv));
                    }
                }
                if self.known_fns.contains(w) {
                    push(Event::Call {
                        name: w.to_string(),
                        method,
                        line,
                    });
                }
            }
        }
    }

    /// `if [let …] cond { then } [else if … | else { … }]`. Condition
    /// events run before the branch; guards acquired in the condition
    /// (or its scrutinee temporary, edition 2021) live through the
    /// whole statement, so the result is wrapped in a scope block.
    fn parse_if(&mut self, i: &mut usize, end: usize) -> Node {
        let cond = self.parse_header(i, end);
        let mut then_alt = Vec::new();
        if self.punct(*i, '{') {
            if self.depth > MAX_DEPTH {
                *i = self.m.match_brace(*i).min(end);
            } else {
                *i += 1;
                then_alt = self.parse_seq(i, end, false);
                if self.punct(*i, '}') {
                    *i += 1;
                }
            }
        }
        let mut else_alt = Vec::new();
        if self.ident(*i) == Some("else") {
            *i += 1;
            if self.ident(*i) == Some("if") {
                *i += 1;
                else_alt.push(self.parse_if(i, end));
            } else if self.punct(*i, '{') {
                if self.depth > MAX_DEPTH {
                    *i = self.m.match_brace(*i).min(end);
                } else {
                    *i += 1;
                    else_alt = self.parse_seq(i, end, false);
                    if self.punct(*i, '}') {
                        *i += 1;
                    }
                }
            }
        }
        let mut out = cond;
        out.push(Node::Branch(vec![then_alt, else_alt]));
        Node::Block(out)
    }

    /// `match scrutinee { pat => expr, … }` → scrutinee events then a
    /// branch of one alternative per arm.
    fn parse_match(&mut self, i: &mut usize, end: usize) -> Node {
        let scrutinee = self.parse_header(i, end);
        let mut alts = Vec::new();
        if self.punct(*i, '{') {
            let close = self.m.match_brace(*i).saturating_sub(1).min(end);
            if self.depth > MAX_DEPTH {
                *i = (close + 1).min(end);
            } else {
                *i += 1;
                while *i < close {
                    // Skip the pattern (and any `if` guard) to its `=>`
                    // at bracket depth 0.
                    let mut depth = 0isize;
                    let mut found_arrow = false;
                    while *i < close {
                        match self.tok(*i) {
                            Some(Tok::Punct('('))
                            | Some(Tok::Punct('['))
                            | Some(Tok::Punct('{')) => depth += 1,
                            Some(Tok::Punct(')'))
                            | Some(Tok::Punct(']'))
                            | Some(Tok::Punct('}')) => depth -= 1,
                            Some(Tok::Punct('=')) if depth == 0 && self.punct(*i + 1, '>') => {
                                *i += 2;
                                found_arrow = true;
                                break;
                            }
                            _ => {}
                        }
                        *i += 1;
                    }
                    if !found_arrow {
                        break;
                    }
                    // Arm body: a block, or an expression up to the
                    // top-level `,`.
                    let alt = if self.punct(*i, '{') {
                        *i += 1;
                        let inner = self.parse_seq(i, end.min(close), false);
                        if self.punct(*i, '}') {
                            *i += 1;
                        }
                        inner
                    } else {
                        self.parse_seq(i, close, true)
                    };
                    alts.push(alt);
                    if self.punct(*i, ',') {
                        *i += 1;
                    }
                }
                if self.punct(*i, '}') {
                    *i += 1;
                }
            }
        }
        let mut out = scrutinee;
        if !alts.is_empty() {
            out.push(Node::Branch(alts));
        }
        Node::Block(out)
    }

    /// `loop { … }` / `while cond { … }` / `for pat in iter { … }`.
    /// `while` headers re-run every iteration, so their events live in
    /// the loop body; `for` iterator expressions run once, before it.
    fn parse_loop(&mut self, i: &mut usize, end: usize, kw: &str) -> Node {
        let header = self.parse_header(i, end);
        let mut body = Vec::new();
        if self.punct(*i, '{') {
            if self.depth > MAX_DEPTH {
                *i = self.m.match_brace(*i).min(end);
            } else {
                *i += 1;
                body = self.parse_seq(i, end, false);
                if self.punct(*i, '}') {
                    *i += 1;
                }
            }
        }
        match kw {
            "while" => {
                let mut inner = header;
                inner.append(&mut body);
                Node::Block(vec![Node::Loop(inner)])
            }
            _ => {
                let mut out = header;
                out.push(Node::Loop(body));
                Node::Block(out)
            }
        }
    }

    /// Scans a condition/scrutinee/loop header up to its body `{` at
    /// bracket depth 0 (Rust forbids bare struct literals there, so the
    /// first depth-0 `{` *is* the body), emitting leaf events found on
    /// the way. Closure blocks inside parens recurse as scopes.
    fn parse_header(&mut self, i: &mut usize, end: usize) -> Vec<Node> {
        let mut nodes = Vec::new();
        let mut paren = 0isize;
        while *i < end {
            match self.tok(*i) {
                Some(Tok::Punct('(')) | Some(Tok::Punct('[')) => {
                    paren += 1;
                    *i += 1;
                }
                Some(Tok::Punct(')')) | Some(Tok::Punct(']')) => {
                    paren -= 1;
                    *i += 1;
                }
                Some(Tok::Punct('{')) if paren <= 0 => break,
                Some(Tok::Punct('{')) => {
                    // Closure body inside the header.
                    if self.depth > MAX_DEPTH {
                        *i = self.m.match_brace(*i).min(end);
                        continue;
                    }
                    *i += 1;
                    let inner = self.parse_seq(i, end, false);
                    if self.punct(*i, '}') {
                        *i += 1;
                    }
                    nodes.push(Node::Block(inner));
                }
                Some(Tok::Punct('?')) => {
                    nodes.push(Node::Event(Event::Exit {
                        kind: ExitKind::Question,
                        line: self.line(*i),
                    }));
                    *i += 1;
                }
                Some(Tok::Ident(w)) => {
                    let w = w.clone();
                    self.leaf(&w, i, &mut nodes);
                }
                _ => *i += 1,
            }
        }
        // Header acquires (scrutinee temporaries) are not statement
        // temporaries — they live through the attached block.
        for n in &mut nodes {
            if let Node::Event(Event::Acquire { temp, .. }) = n {
                *temp = false;
            }
        }
        nodes
    }
}

// ---------------------------------------------------------------------
// Analyses
// ---------------------------------------------------------------------

/// A `MutexGuard` that can be live at a program point.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LiveGuard {
    id: usize,
    /// Receiver name of the `.lock()` call — the lock's identity.
    pub lock: String,
    /// `let` binding holding the guard, when there is one.
    pub bind: Option<String>,
    temp: bool,
}

/// May-analysis of live guards: calls `visit` once per event, in source
/// order, with the guards that can be live just before it on at least
/// one path.
pub fn may_live(nodes: &[Node], visit: &mut impl FnMut(&Event, &BTreeSet<LiveGuard>)) {
    walk_may(nodes, &BTreeSet::new(), visit);
}

struct MayOut {
    live: BTreeSet<LiveGuard>,
    ended: bool,
}

fn walk_may<F: FnMut(&Event, &BTreeSet<LiveGuard>)>(
    nodes: &[Node],
    live_in: &BTreeSet<LiveGuard>,
    visit: &mut F,
) -> MayOut {
    let mut live = live_in.clone();
    for n in nodes {
        match n {
            Node::Event(ev) => {
                visit(ev, &live);
                match ev {
                    Event::Acquire {
                        id,
                        lock,
                        bind,
                        temp,
                        ..
                    } => {
                        live.insert(LiveGuard {
                            id: *id,
                            lock: lock.clone(),
                            bind: bind.clone(),
                            temp: *temp,
                        });
                    }
                    Event::Drop(name) => {
                        live.retain(|g| {
                            g.bind.as_deref() != Some(name.as_str()) && g.lock != *name
                        });
                    }
                    // A temporary dies at the end of its own statement,
                    // not at a `;` inside a closure or block nested in
                    // it.
                    Event::StmtEnd => live.retain(|g| !g.temp || live_in.contains(g)),
                    Event::Exit { kind, .. } if !matches!(kind, ExitKind::Question) => {
                        return MayOut { live, ended: true };
                    }
                    _ => {}
                }
            }
            Node::Block(inner) => {
                let r = walk_may(inner, &live, visit);
                if r.ended {
                    return MayOut { live, ended: true };
                }
                live.retain(|g| r.live.contains(g));
            }
            Node::Branch(alts) => {
                let mut merged: BTreeSet<LiveGuard> = BTreeSet::new();
                let mut any_continues = false;
                for alt in alts {
                    let r = walk_may(alt, &live, visit);
                    if !r.ended {
                        any_continues = true;
                        merged.extend(r.live.into_iter().filter(|g| live.contains(g)));
                    }
                }
                if !any_continues {
                    return MayOut { live, ended: true };
                }
                live = merged;
            }
            Node::Loop(body) => {
                // Guards born in the body die at iteration end, and the
                // body may run zero times: liveness after the loop is
                // the entry set. One walk visits the body's events.
                let _ = walk_may(body, &live, visit);
            }
        }
    }
    MayOut { live, ended: false }
}

/// One missed-increment exit for SL031.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MissedExit {
    /// 1-based line of the exit (`return`, `?`), or the function line
    /// for a fall-off-the-end path.
    pub line: u32,
    /// The exit flavor, for the message.
    pub what: &'static str,
}

/// Must-analysis for `sched-counter-exits(a|b)`: exits reachable with
/// none of `targets` incremented. `summaries` maps same-crate function
/// names to the counter bindings they increment on every path
/// ([`always_incremented`]); a call to such a function counts.
pub fn exit_increments(
    nodes: &[Node],
    fn_line: u32,
    targets: &BTreeSet<String>,
    summaries: &BTreeMap<String, BTreeSet<String>>,
) -> Vec<MissedExit> {
    let mut missed = BTreeSet::new();
    let out = walk_must(nodes, false, targets, summaries, &mut missed);
    if !out.ended && !out.done {
        missed.insert(MissedExit {
            line: fn_line,
            what: "falls off the end of the function",
        });
    }
    missed.into_iter().collect()
}

struct MustOut {
    /// Some target counter has been incremented on every path reaching
    /// this point.
    done: bool,
    ended: bool,
}

fn walk_must(
    nodes: &[Node],
    done_in: bool,
    targets: &BTreeSet<String>,
    summaries: &BTreeMap<String, BTreeSet<String>>,
    missed: &mut BTreeSet<MissedExit>,
) -> MustOut {
    let mut done = done_in;
    for n in nodes {
        match n {
            Node::Event(ev) => match ev {
                Event::Incr(recv) if targets.contains(recv) => done = true,
                Event::Call {
                    name,
                    method: false,
                    ..
                } => {
                    if let Some(summary) = summaries.get(name) {
                        if summary.iter().any(|c| targets.contains(c)) {
                            done = true;
                        }
                    }
                }
                Event::Exit { kind, line } => match kind {
                    ExitKind::Return => {
                        if !done {
                            missed.insert(MissedExit {
                                line: *line,
                                what: "returns",
                            });
                        }
                        return MustOut { done, ended: true };
                    }
                    ExitKind::Question => {
                        if !done {
                            missed.insert(MissedExit {
                                line: *line,
                                what: "exits via `?`",
                            });
                        }
                    }
                    ExitKind::LoopJump => return MustOut { done, ended: true },
                },
                _ => {}
            },
            Node::Block(inner) => {
                let r = walk_must(inner, done, targets, summaries, missed);
                if r.ended {
                    return r;
                }
                done = r.done;
            }
            Node::Branch(alts) => {
                let mut all_done = true;
                let mut any_continues = false;
                for alt in alts {
                    let r = walk_must(alt, done, targets, summaries, missed);
                    if !r.ended {
                        any_continues = true;
                        all_done &= r.done;
                    }
                }
                if !any_continues {
                    return MustOut { done, ended: true };
                }
                done = all_done;
            }
            Node::Loop(body) => {
                // Zero iterations possible: the post-loop state is the
                // entry state. One walk (entry state) over-approximates
                // the reachable in-body exit misses.
                let _ = walk_must(body, done, targets, summaries, missed);
            }
        }
    }
    MustOut { done, ended: false }
}

/// The counter bindings a function increments on **every** path to
/// **every** exit — the one-level callee summary `exit_increments`
/// consults. No call resolution (summaries do not nest).
pub fn always_incremented(nodes: &[Node]) -> BTreeSet<String> {
    let mut exits: Vec<BTreeSet<String>> = Vec::new();
    let out = walk_sum(nodes, BTreeSet::new(), &mut exits);
    if !out.1 {
        exits.push(out.0);
    }
    let mut iter = exits.into_iter();
    let Some(first) = iter.next() else {
        return BTreeSet::new();
    };
    iter.fold(first, |acc, s| acc.intersection(&s).cloned().collect())
}

fn walk_sum(
    nodes: &[Node],
    mut incr: BTreeSet<String>,
    exits: &mut Vec<BTreeSet<String>>,
) -> (BTreeSet<String>, bool) {
    for n in nodes {
        match n {
            Node::Event(ev) => match ev {
                Event::Incr(recv) => {
                    incr.insert(recv.clone());
                }
                Event::Exit { kind, .. } => match kind {
                    ExitKind::Return => {
                        exits.push(incr.clone());
                        return (incr, true);
                    }
                    ExitKind::Question => exits.push(incr.clone()),
                    ExitKind::LoopJump => return (incr, true),
                },
                _ => {}
            },
            Node::Block(inner) => {
                let r = walk_sum(inner, incr, exits);
                if r.1 {
                    return r;
                }
                incr = r.0;
            }
            Node::Branch(alts) => {
                let mut merged: Option<BTreeSet<String>> = None;
                let mut any_continues = false;
                for alt in alts {
                    let r = walk_sum(alt, incr.clone(), exits);
                    if !r.1 {
                        any_continues = true;
                        merged = Some(match merged {
                            None => r.0,
                            Some(prev) => prev.intersection(&r.0).cloned().collect(),
                        });
                    }
                }
                if !any_continues {
                    return (incr, true);
                }
                incr = merged.unwrap_or(incr);
            }
            Node::Loop(body) => {
                let mut inner_exits = Vec::new();
                let _ = walk_sum(body, incr.clone(), &mut inner_exits);
                exits.append(&mut inner_exits);
            }
        }
    }
    (incr, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> (FileModel, BTreeSet<String>) {
        let m = FileModel::parse("f.rs", "c", src);
        let known: BTreeSet<String> = m.functions.iter().map(|f| f.name.clone()).collect();
        (m, known)
    }

    fn blocking_lines(src: &str, fn_name: &str) -> Vec<u32> {
        let (m, known) = parse(src);
        let f = m
            .functions
            .iter()
            .find(|f| f.name == fn_name)
            .expect("fn present");
        let tree = build(&m, f, &known);
        let mut lines = Vec::new();
        may_live(&tree, &mut |ev, live| {
            if let (Event::Blocking { line, .. }, false) = (ev, live.is_empty()) {
                lines.push(*line);
            }
        });
        lines
    }

    #[test]
    fn conditional_drop_leaves_guard_live_on_the_other_path() {
        let src = r#"
fn f(s: &S, cond: bool) {
    let g = s.mu.lock();
    if cond { drop(g); }
    thread::sleep(D);
}
"#;
        assert_eq!(blocking_lines(src, "f"), vec![5]);
    }

    #[test]
    fn unconditional_drop_and_scope_end_clear() {
        let src = r#"
fn f(s: &S) {
    { let g = s.mu.lock(); }
    let h = s.mu.lock();
    drop(h);
    thread::sleep(D);
}
"#;
        assert!(blocking_lines(src, "f").is_empty());
    }

    #[test]
    fn match_arm_drop_is_path_sensitive() {
        let src = r#"
fn f(s: &S, x: u32) {
    let g = s.mu.lock();
    match x {
        0 => drop(g),
        _ => {}
    }
    thread::sleep(D);
}
"#;
        assert_eq!(blocking_lines(src, "f"), vec![8]);
    }

    #[test]
    fn early_return_on_the_holding_path_suppresses() {
        let src = r#"
fn f(s: &S, cond: bool) {
    let g = s.mu.lock();
    if cond { return; }
    drop(g);
    thread::sleep(D);
}
"#;
        assert!(blocking_lines(src, "f").is_empty());
    }

    #[test]
    fn while_header_guard_is_live_in_the_body() {
        let src = r#"
fn f(s: &S) {
    while s.q.lock().pending() {
        thread::sleep(D);
    }
    thread::sleep(E);
}
"#;
        assert_eq!(blocking_lines(src, "f"), vec![4]);
    }

    fn missed(src: &str, fn_name: &str) -> Vec<MissedExit> {
        let (m, known) = parse(src);
        let mut summaries = BTreeMap::new();
        for f in &m.functions {
            let tree = build(&m, f, &known);
            summaries.insert(f.name.clone(), always_incremented(&tree));
        }
        let f = m
            .functions
            .iter()
            .find(|f| f.name == fn_name)
            .expect("fn present");
        let tree = build(&m, f, &known);
        let targets = f
            .counter_exits
            .clone()
            .expect("annotated")
            .into_iter()
            .collect();
        exit_increments(&tree, f.line, &targets, &summaries)
    }

    #[test]
    fn early_return_missing_increment_is_caught() {
        let src = r#"
// sched-counter-exits(served): every reply accounts one serve.
fn f(s: &S, bad: bool) {
    if bad { return; }
    s.served.incr();
}
"#;
        let m = missed(src, "f");
        assert_eq!(m.len(), 1, "{m:?}");
        assert_eq!(m[0].line, 4);
    }

    #[test]
    fn all_paths_incremented_including_callee_summary_is_clean() {
        let src = r#"
fn reject(s: &S) { s.served.incr(); }
// sched-counter-exits(served|errors): both arms account.
fn f(s: &S, bad: bool) {
    if bad {
        reject(s);
        return;
    }
    s.errors.incr();
}
"#;
        assert!(missed(src, "f").is_empty());
    }

    #[test]
    fn question_mark_exit_before_increment_is_caught() {
        let src = r#"
// sched-counter-exits(polls): refreshed per poll.
fn f(s: &S) -> io::Result<()> {
    let t = s.read()?;
    s.polls.incr();
    Ok(())
}
"#;
        let m = missed(src, "f");
        assert_eq!(m.len(), 1, "{m:?}");
        assert_eq!(m[0].line, 4);
    }

    #[test]
    fn match_arm_without_increment_falls_off_the_end() {
        let src = r#"
// sched-counter-exits(served): every arm accounts.
fn f(s: &S, x: u32) {
    match x {
        0 => s.served.incr(),
        _ => {}
    }
}
"#;
        let m = missed(src, "f");
        assert_eq!(m.len(), 1, "{m:?}");
        assert_eq!(m[0].line, 3);
    }
}
