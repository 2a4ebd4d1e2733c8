//! SL030/SL031 — counter conservation.
//!
//! Every counter registered against `native_rt::stats` must (a) have an
//! increment site somewhere in its crate (a registered-but-never-bumped
//! counter silently reads 0 in every REPORT/STATS export and masquerades
//! as "nothing happened"), and (b) appear in the DESIGN.md counter
//! catalog, which is what operators grep when a REPORT field surprises
//! them. Dynamic registrations (`&format!(...)`) can't be tied to an
//! increment site by name, so they must carry a
//! `// sched-counters: name1 name2 …` annotation enumerating the names
//! they mint; the catalog check then runs on those. Counters exported
//! through `Registry::counter_source` (snapshot-time sums over per-worker
//! single-writer cells) are annotated the same way, and for them the
//! cells *are* the increment sites: each name must be a field its owner
//! stores to somewhere in the crate.
//!
//! SL031 is the path-sensitive half: a function annotated
//! `// sched-counter-exits(a|b): why` claims that *every* exit path —
//! normal return, early `return`, `?` — increments at least one of the
//! named counter bindings. The claim is checked on the [`crate::cfg`]
//! region tree, with one-level interprocedural credit: calling a
//! same-file function that unconditionally increments a named counter
//! (e.g. a `reply_malformed` helper) satisfies the path. This catches
//! the success-path-only accounting bug: the happy arm bumps, the error
//! arm returns early and the event vanishes from every export.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg;
use crate::lexer::Tok;
use crate::model::FileModel;
use crate::workspace::Config;
use crate::Diagnostic;

pub(crate) fn check(models: &[FileModel], config: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(check_exit_annotations(models));
    for m in models {
        if !config.registry_crates.iter().any(|c| c == &m.crate_name) {
            continue;
        }
        for reg in &m.counter_regs {
            if reg.unannotated_dynamic {
                diags.push(Diagnostic {
                    rule: "SL030",
                    path: m.path.clone(),
                    line: reg.line,
                    message: "dynamic counter registration (non-literal name) without a \
                              `// sched-counters: name1 name2 …` annotation — the \
                              conservation check cannot see which counters this mints"
                        .to_string(),
                });
                continue;
            }
            if reg.source {
                for name in &reg.names {
                    if !binding_called(models, &m.crate_name, name, &["store", "fetch_add"]) {
                        diags.push(Diagnostic {
                            rule: "SL030",
                            path: m.path.clone(),
                            line: reg.line,
                            message: format!(
                                "counter `{name}` is exported by a counter source but no \
                                 cell named `{name}` is ever stored to — the sum reads 0 in \
                                 every export and hides the event it claims to measure"
                            ),
                        });
                    }
                }
            }
            // Increment evidence: only demanded of literal registrations
            // bound to a name. Annotated dynamic sites register through
            // closures/arrays the name heuristic can't bind.
            let literal = reg.names.len() == 1 && reg.binding.is_some() || reg.inline_incr;
            if literal && !reg.inline_incr {
                let b = reg.binding.as_deref().unwrap();
                if !binding_called(models, &m.crate_name, b, &["incr", "add"]) {
                    diags.push(Diagnostic {
                        rule: "SL030",
                        path: m.path.clone(),
                        line: reg.line,
                        message: format!(
                            "counter `{}` (bound as `{b}`) is registered but never \
                             incremented — it reads 0 in every export and hides the event \
                             it claims to measure",
                            reg.names.join(", ")
                        ),
                    });
                }
            }
            for name in &reg.names {
                if !config.counter_doc.contains(&format!("`{name}`")) {
                    diags.push(Diagnostic {
                        rule: "SL030",
                        path: m.path.clone(),
                        line: reg.line,
                        message: format!(
                            "counter `{name}` is missing from the {} catalog — add it \
                             (with when-it-moves semantics) so REPORT/STATS consumers can \
                             interpret it",
                            config.counter_doc_name
                        ),
                    });
                }
            }
        }
    }
    diags
}

/// SL031: verify every `sched-counter-exits(a|b)` annotation on the
/// region tree. Runs in all crates — the annotation is opt-in, so its
/// presence is the claim.
fn check_exit_annotations(models: &[FileModel]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for m in models {
        let file_fns: BTreeSet<String> = m.functions.iter().map(|f| f.name.clone()).collect();
        // Per-file callee summaries: which counter bindings a function
        // increments on every path (one level, no nesting).
        let mut summaries: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for f in &m.functions {
            let tree = cfg::build(m, f, &file_fns);
            summaries.insert(f.name.clone(), cfg::always_incremented(&tree));
        }
        for f in &m.functions {
            let Some(names) = &f.counter_exits else {
                continue;
            };
            if m.in_tests(f.body_start) {
                continue;
            }
            let targets: BTreeSet<String> = names.iter().cloned().collect();
            let tree = cfg::build(m, f, &file_fns);
            for miss in cfg::exit_increments(&tree, f.line, &targets, &summaries) {
                diags.push(Diagnostic {
                    rule: "SL031",
                    path: m.path.clone(),
                    line: miss.line,
                    message: format!(
                        "`{}` {} without incrementing any of {} — the \
                         `sched-counter-exits` claim is violated on this path, so the \
                         event disappears from every export",
                        f.name,
                        miss.what,
                        names
                            .iter()
                            .map(|n| format!("`{n}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
    }
    diags
}

/// Does `binding` get one of `ops` called on it anywhere in its crate,
/// directly or through an index — `tiers[i].incr()` for a counter
/// handle, `self.steals.store(…)` for a single-writer cell?
fn binding_called(models: &[FileModel], krate: &str, binding: &str, ops: &[&str]) -> bool {
    for m in models {
        if m.crate_name != krate {
            continue;
        }
        for i in 0..m.tokens.len() {
            let Tok::Ident(w) = &m.tokens[i].tok else {
                continue;
            };
            if w != binding {
                continue;
            }
            let mut j = i + 1;
            // Skip one index expression.
            if matches!(m.tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('['))) {
                let mut depth = 0isize;
                while j < m.tokens.len() {
                    match m.tokens[j].tok {
                        Tok::Punct('[') => depth += 1,
                        Tok::Punct(']') => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            if matches!(m.tokens.get(j).map(|t| &t.tok), Some(Tok::Punct('.')))
                && matches!(
                    m.tokens.get(j + 1).map(|t| &t.tok),
                    Some(Tok::Ident(op)) if ops.contains(&op.as_str())
                )
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, doc: &str) -> Vec<Diagnostic> {
        let m = FileModel::parse("f.rs", "native-rt", src);
        let mut cfg = Config::for_tests();
        cfg.counter_doc = doc.to_string();
        check(&[m], &cfg)
    }

    #[test]
    fn registered_and_incremented_and_documented_is_clean() {
        let d = run(
            r#"
struct Stats { jobs_run: Counter }
fn mk(r: &Registry) -> Stats { Stats { jobs_run: r.counter("jobs_run") } }
fn bump(s: &Stats) { s.jobs_run.incr(); }
"#,
            "catalog: `jobs_run` counts completed jobs.",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn never_incremented_counter_fires() {
        let d = run(
            r#"
struct Stats { ghosts: Counter }
fn mk(r: &Registry) -> Stats { Stats { ghosts: r.counter("ghosts") } }
"#,
            "catalog: `ghosts`.",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "SL030");
        assert!(d[0].message.contains("never"));
    }

    #[test]
    fn undocumented_counter_fires() {
        let d = run(
            r#"
struct Stats { drops: Counter }
fn mk(r: &Registry) -> Stats { Stats { drops: r.counter("drops") } }
fn bump(s: &Stats) { s.drops.incr(); }
"#,
            "catalog has other things only.",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("missing from"));
    }

    #[test]
    fn dynamic_registration_needs_annotation() {
        let bad = r#"
fn mk(r: &Registry) { let tiers = make(|i| r.counter(&format!("tier_{}", i))); }
"#;
        let good = r#"
fn mk(r: &Registry) {
    // sched-counters: tier_0 tier_1
    let tiers = make(|i| r.counter(&format!("tier_{}", i)));
}
"#;
        let d = run(bad, "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sched-counters"));
        let d = run(good, "`tier_0` `tier_1`");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn counter_source_names_need_annotation_catalog_and_a_stored_cell() {
        let cells = r#"
struct Cells { hits: AtomicU64, misses: AtomicU64 }
fn hit(c: &Cells) { c.hits.store(c.hits.load(Ordering::Relaxed) + 1, Ordering::Relaxed); }
"#;
        let annotated = format!(
            "{cells}fn mk(r: &Registry, q: Arc<Q>) {{\n    // sched-counters: hits\n    r.counter_source(q);\n}}\n"
        );
        assert!(run(&annotated, "`hits`").is_empty());
        let d = run(&annotated, "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("missing from"));
        // `misses` is declared but nobody ever stores to it.
        let dead = annotated.replace("sched-counters: hits", "sched-counters: hits misses");
        let d = run(&dead, "`hits` `misses`");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("ever stored"), "{d:?}");
        let bare = format!("{cells}fn mk(r: &Registry, q: Arc<Q>) {{ r.counter_source(q); }}\n");
        let d = run(&bare, "");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sched-counters"));
    }
}
