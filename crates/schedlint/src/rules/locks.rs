//! SL010/SL011/SL020 — lock-order and blocking-under-lock analysis.
//!
//! This is the static analogue of the paper's core pathology: a process
//! preempted (or blocked) while holding a lock stalls every sibling
//! spinning on it. Every question here is asked of one guard-liveness
//! model, the [`crate::cfg`] region tree's may-analysis: which
//! `MutexGuard`s can be live at each event on *some* path, so a guard
//! dropped on one `if` arm is still live after the other. Per function:
//!
//! - acquiring a lock while another is live adds an edge to a
//!   crate-scoped lock-order graph (cycle ⇒ SL010); acquiring the *same*
//!   lock name is an immediate self-deadlock with non-reentrant
//!   `parking_lot` locks (SL011);
//! - a blocking call — or a condvar wait whose arguments name none of
//!   the live guards — while any guard is live is SL020.
//!
//! Cross-function flow is one level deep: holding guard `A` while
//! calling a same-crate function that acquires `B` adds edge `A → B`.
//! Guards passed *into* functions and closures shipped to other threads
//! are the known blind spots (DESIGN.md §11).

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{self, Event, LiveGuard};
use crate::model::FileModel;
use crate::Diagnostic;

/// A lock-order edge with its witness site.
#[derive(Debug, Clone)]
struct Edge {
    path: String,
    line: u32,
    via: Option<String>,
}

pub(crate) fn check(models: &[FileModel]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut crate_fns: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for m in models {
        let fns = crate_fns.entry(m.crate_name.as_str()).or_default();
        fns.extend(m.functions.iter().map(|f| f.name.clone()));
    }

    // Pass 1: walk each function's region tree. Records, per
    // (crate, fn-name), the locks the function acquires, and the calls
    // made while guards were live.
    let mut fn_locks: BTreeMap<(String, String), BTreeSet<String>> = BTreeMap::new();
    // (crate, held-locks, callee, path, line)
    let mut held_calls: Vec<(String, Vec<String>, String, String, u32)> = Vec::new();
    // (crate, from, to) → witness
    let mut edges: BTreeMap<(String, String, String), Edge> = BTreeMap::new();
    for m in models {
        let known = &crate_fns[m.crate_name.as_str()];
        for f in &m.functions {
            if m.in_tests(f.body_start) {
                continue;
            }
            let tree = cfg::build(m, f, known);
            let sl020 = |line: u32, message: String| Diagnostic {
                rule: "SL020",
                path: m.path.clone(),
                line,
                message,
            };
            cfg::may_live(&tree, &mut |ev, live| match ev {
                Event::Acquire { lock, line, .. } => {
                    for g in live {
                        if g.lock == *lock {
                            diags.push(Diagnostic {
                                rule: "SL011",
                                path: m.path.clone(),
                                line: *line,
                                message: format!(
                                    "`{}` acquires `{lock}` while already holding it — \
                                     parking_lot mutexes are not reentrant; this \
                                     self-deadlocks",
                                    f.name
                                ),
                            });
                        } else {
                            edges
                                .entry((m.crate_name.clone(), g.lock.clone(), lock.clone()))
                                .or_insert(Edge {
                                    path: m.path.clone(),
                                    line: *line,
                                    via: None,
                                });
                        }
                    }
                    fn_locks
                        .entry((m.crate_name.clone(), f.name.clone()))
                        .or_default()
                        .insert(lock.clone());
                }
                _ if live.is_empty() => {}
                Event::Blocking { name, line } => diags.push(sl020(
                    *line,
                    format!(
                        "`{}` calls blocking `{name}` with {} held on at least one path — \
                         a descheduled lock holder stalls every thread contending for it",
                        f.name,
                        held_list(live)
                    ),
                )),
                // `cv.wait(&mut g)` releases `g` while parked — legal. A
                // wait naming none of the live guards parks while every
                // held lock stays held.
                Event::Wait { names, line } => {
                    let named = |n: &str| names.iter().any(|a| a == n);
                    let releases = live
                        .iter()
                        .any(|g| g.bind.as_deref().is_some_and(named) || named(&g.lock));
                    if !releases {
                        diags.push(sl020(
                            *line,
                            format!(
                                "`{}` waits on a condvar that releases none of the held \
                                 guards ({}) — the paper's preempted-lock-holder stall, \
                                 made unconditional",
                                f.name,
                                held_list(live)
                            ),
                        ));
                    }
                }
                Event::Call { name, line, .. } if *name != f.name => held_calls.push((
                    m.crate_name.clone(),
                    live.iter().map(|g| g.lock.clone()).collect(),
                    name.clone(),
                    m.path.clone(),
                    *line,
                )),
                _ => {}
            });
        }
    }

    // Pass 2: one-level cross-function edges — holding `A` across a call
    // into a function that acquires `B` orders A before B; acquiring a
    // lock already held is a self-deadlock even through the call.
    for (krate, held, callee, path, line) in &held_calls {
        let Some(locks) = fn_locks.get(&(krate.clone(), callee.clone())) else {
            continue;
        };
        for h in held {
            for l in locks {
                if h == l {
                    diags.push(Diagnostic {
                        rule: "SL011",
                        path: path.clone(),
                        line: *line,
                        message: format!(
                            "calls `{callee}` (which acquires `{l}`) while already holding \
                             `{h}` — non-reentrant acquisition through the call"
                        ),
                    });
                } else {
                    edges
                        .entry((krate.clone(), h.clone(), l.clone()))
                        .or_insert(Edge {
                            path: path.clone(),
                            line: *line,
                            via: Some(callee.clone()),
                        });
                }
            }
        }
    }

    // Pass 3: cycles in the per-crate lock-order graph.
    diags.extend(find_cycles(&edges));
    diags
}

/// The distinct lock names of `live`, backticked.
fn held_list(live: &BTreeSet<LiveGuard>) -> String {
    let names: BTreeSet<String> = live.iter().map(|g| format!("`{}`", g.lock)).collect();
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// DFS over the lock graph; a gray-node hit yields the cycle from the
/// current path. Cycles are canonicalized (rotated to their smallest
/// node) so each is reported once, at its first edge's witness site.
fn find_cycles(edges: &BTreeMap<(String, String, String), Edge>) -> Vec<Diagnostic> {
    let mut adj: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for (krate, from, to) in edges.keys() {
        adj.entry((krate.clone(), from.clone()))
            .or_default()
            .push(to.clone());
    }
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    let mut diags = Vec::new();
    let nodes: Vec<(String, String)> = adj.keys().cloned().collect();
    for start in &nodes {
        let mut path: Vec<String> = vec![start.1.clone()];
        let mut stack: Vec<(String, usize)> = vec![(start.1.clone(), 0)];
        let mut on_path: BTreeSet<String> = [start.1.clone()].into();
        let krate = &start.0;
        while let Some((node, next)) = stack.last().cloned() {
            let succs = adj
                .get(&(krate.clone(), node.clone()))
                .map(|v| v.as_slice())
                .unwrap_or(&[]);
            if next >= succs.len() {
                stack.pop();
                path.pop();
                on_path.remove(&node);
                continue;
            }
            stack.last_mut().unwrap().1 += 1;
            let succ = succs[next].clone();
            if on_path.contains(&succ) {
                // Cycle: slice of `path` from `succ` to the end.
                let pos = path.iter().position(|n| n == &succ).unwrap();
                let mut cycle: Vec<String> = path[pos..].to_vec();
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| n.as_str())
                    .map(|(k, _)| k)
                    .unwrap();
                cycle.rotate_left(min);
                if seen_cycles.insert(cycle.clone()) {
                    let from = &cycle[0];
                    let to = &cycle[1 % cycle.len()];
                    let w = &edges[&(krate.clone(), from.clone(), to.clone())];
                    let mut desc = cycle.join("` → `");
                    desc.push_str("` → `");
                    desc.push_str(&cycle[0]);
                    let via = w
                        .via
                        .as_ref()
                        .map(|f| format!(" (edge via call to `{f}`)"))
                        .unwrap_or_default();
                    diags.push(Diagnostic {
                        rule: "SL010",
                        path: w.path.clone(),
                        line: w.line,
                        message: format!(
                            "lock-order cycle in crate `{krate}`: `{desc}` — two threads \
                             taking these in opposite order deadlock{via}"
                        ),
                    });
                }
                continue;
            }
            if adj.contains_key(&(krate.clone(), succ.clone())) {
                on_path.insert(succ.clone());
                path.push(succ.clone());
                stack.push((succ, 0));
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let m = FileModel::parse("f.rs", "c", src);
        check(&[m])
    }

    #[test]
    fn opposite_order_is_a_cycle() {
        let d = run(r#"
fn ab(s: &S) { let a = s.alpha.lock(); let b = s.beta.lock(); }
fn ba(s: &S) { let b = s.beta.lock(); let a = s.alpha.lock(); }
"#);
        assert_eq!(d.iter().filter(|d| d.rule == "SL010").count(), 1, "{d:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let d = run(r#"
fn one(s: &S) { let a = s.alpha.lock(); let b = s.beta.lock(); }
fn two(s: &S) { let a = s.alpha.lock(); let b = s.beta.lock(); }
"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn same_lock_nesting_is_sl011_direct_and_through_call() {
        let d = run(r#"
fn direct(s: &S) { let a = s.mu.lock(); let b = s.mu.lock(); }
fn helper(s: &S) { let g = s.mu.lock(); }
fn through(s: &S) { let a = s.mu.lock(); helper(s); }
fn method(s: &S) { let a = s.mu.lock(); s.helper(); }
"#);
        assert_eq!(d.iter().filter(|d| d.rule == "SL011").count(), 3, "{d:?}");
    }

    #[test]
    fn blocking_under_lock_fires_and_scope_end_clears() {
        let d = run(r#"
fn bad(s: &S) { let g = s.mu.lock(); thread::sleep(D); }
fn scoped(s: &S) { { let g = s.mu.lock(); } thread::sleep(D); }
fn dropped(s: &S) { let g = s.mu.lock(); drop(g); thread::sleep(D); }
fn temp(s: &S) { s.mu.lock().x = 1; thread::sleep(D); }
fn closure(s: &S) { s.mu.lock().with(|x| { x.touch(); thread::sleep(D); }); }
"#);
        let lines: Vec<(&str, u32)> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(lines, [("SL020", 2), ("SL020", 6)], "{d:?}");
    }

    #[test]
    fn conditional_drop_is_sl020_on_the_path_that_keeps_the_guard() {
        let d = run(r#"
fn f(s: &S, flush: bool) {
    let g = s.mu.lock();
    if flush { drop(g); }
    thread::sleep(D);
}
fn g(s: &S) {
    let Some(x) = s.mu.lock().peek() else { return };
    thread::sleep(D);
    let g = s.mu.lock();
    let Some(y) = g.next() else { drop(g); return };
    thread::sleep(D);
}
"#);
        let lines: Vec<(&str, u32)> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(lines, [("SL020", 5), ("SL020", 12)], "{d:?}");
    }

    #[test]
    fn condvar_wait_on_held_guard_is_legal_foreign_wait_is_not() {
        let d = run(r#"
fn ok(s: &S) { let mut g = s.mu.lock(); while !*g { s.cv.wait(&mut g); } }
fn bad(s: &S) { let g = s.mu.lock(); s.other_cv.wait(&mut unrelated); }
fn idle(s: &S) { s.cv.wait(&mut unrelated); }
"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "SL020");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn if_let_guard_dies_with_its_block() {
        let d = run(r#"
fn f(s: &S) {
    if let g = s.mu.lock() {
        g.touch();
    }
    thread::sleep(D);
}
"#);
        assert!(d.is_empty(), "{d:?}");
    }
}
