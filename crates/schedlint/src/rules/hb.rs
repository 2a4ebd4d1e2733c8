//! SL004 — happens-before pairing audit.
//!
//! SL001–SL003 check each atomic *site* against its `sched-atomic(...)`
//! category. This module checks the *pair* a `handoff` category claims
//! exists: a Release-side publish (store or RMW with a
//! Release/AcqRel/SeqCst success ordering) is only a synchronization edge
//! if some thread performs the matching Acquire-side observation (Acquire+
//! load, or Acquire/AcqRel/SeqCst RMW) of the same atomic. A handoff
//! atomic with publishes but no acquire anywhere in its crate is an
//! orphaned publish: the data it claims to hand off is read unordered, or
//! not at all.
//!
//! Sites are matched the way the rest of the audit matches them: by
//! receiver name within the declaring crate, tests excluded. RMWs count
//! on both sides (an `AcqRel` `fetch_sub` both publishes and observes).
//! The other categories are out of scope: `seqcst` sites are held to
//! SeqCst one by one by SL001, `verified` is proven elsewhere, and
//! `relaxed` promises no ordering to pair.

use std::collections::BTreeMap;

use crate::lexer::Tok;
use crate::model::{AtomicCategory, FileModel};
use crate::rules::{first_ordering, is_method, match_paren, receiver_name, OpKind};
use crate::Diagnostic;

/// One classified atomic operation site.
#[derive(Debug, Clone)]
struct Site {
    path: String,
    line: u32,
    op: String,
    kind: OpKind,
    ordering: String,
}

impl Site {
    /// Release-side publish: makes prior writes visible to an acquirer.
    fn publishes(&self) -> bool {
        self.kind != OpKind::Load
            && matches!(self.ordering.as_str(), "Release" | "AcqRel" | "SeqCst")
    }

    /// Acquire-side observation: orders subsequent reads after the
    /// publish it reads from.
    fn acquires(&self) -> bool {
        match self.kind {
            OpKind::Load => matches!(self.ordering.as_str(), "Acquire" | "SeqCst"),
            OpKind::Store => false,
            OpKind::Rmw => matches!(self.ordering.as_str(), "Acquire" | "AcqRel" | "SeqCst"),
        }
    }
}

pub(crate) fn check(models: &[FileModel]) -> Vec<Diagnostic> {
    // (crate, atomic name) → category. Conflicts are SL003's business.
    let mut registry: BTreeMap<(String, String), AtomicCategory> = BTreeMap::new();
    for m in models {
        for d in &m.atomic_decls {
            if let Some(cat) = d.category {
                registry
                    .entry((m.crate_name.clone(), d.name.clone()))
                    .or_insert(cat);
            }
        }
    }

    // Classified non-test sites per registered atomic.
    let mut sites: BTreeMap<(String, String), Vec<Site>> = BTreeMap::new();
    for m in models {
        for i in 0..m.tokens.len() {
            let Tok::Ident(op) = &m.tokens[i].tok else {
                continue;
            };
            let Some(kind) = OpKind::classify(op) else {
                continue;
            };
            if !is_method(m, i)
                || !matches!(m.tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                || m.in_tests(i)
            {
                continue;
            }
            let Some(recv) = receiver_name(m, i - 1) else {
                continue;
            };
            let key = (m.crate_name.clone(), recv);
            if !registry.contains_key(&key) {
                continue;
            }
            let close = match_paren(m, i + 1);
            let Some(ord) = first_ordering(m, i + 2, close) else {
                continue; // same-named non-atomic method
            };
            sites.entry(key).or_default().push(Site {
                path: m.path.clone(),
                line: m.tokens[i].line,
                op: op.clone(),
                kind,
                ordering: ord.to_string(),
            });
        }
    }

    let mut diags = Vec::new();
    for ((krate, name), cat) in &registry {
        let sites = sites
            .get(&(krate.clone(), name.clone()))
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        match cat {
            AtomicCategory::Handoff => {
                let publishes: Vec<&Site> = sites.iter().filter(|s| s.publishes()).collect();
                let has_acquire = sites.iter().any(|s| s.acquires());
                if !publishes.is_empty() && !has_acquire {
                    let w = publishes[0];
                    diags.push(Diagnostic {
                        rule: "SL004",
                        path: w.path.clone(),
                        line: w.line,
                        message: format!(
                            "hand-off atomic `{name}`: `{}` publishes with \
                             `Ordering::{}` but no Acquire-side load/RMW of `{name}` \
                             exists in crate `{krate}` — an orphaned publish is not a \
                             synchronization edge; add the acquire observer or \
                             re-categorize the atomic",
                            w.op, w.ordering
                        ),
                    });
                }
            }
            AtomicCategory::SeqCst | AtomicCategory::Relaxed | AtomicCategory::Verified => {}
        }
    }
    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Diagnostic> {
        let m = FileModel::parse("f.rs", "native-rt", src);
        check(&[m])
    }

    #[test]
    fn paired_handoff_is_clean() {
        let d = run(r#"
struct S { flag: AtomicBool } // sched-atomic(handoff): publishes drain.
fn publish(s: &S) { s.flag.store(true, Ordering::Release); }
fn observe(s: &S) -> bool { s.flag.load(Ordering::Acquire) }
"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn orphaned_publish_fires_sl004() {
        let d = run(r#"
struct S { flag: AtomicBool } // sched-atomic(handoff): publishes drain.
fn publish(s: &S) { s.flag.store(true, Ordering::Release); }
"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "SL004");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn acqrel_rmw_counts_as_its_own_observer() {
        let d = run(r#"
struct S { outstanding: AtomicUsize } // sched-atomic(handoff): completion count.
fn retire(s: &S) { s.outstanding.fetch_sub(1, Ordering::AcqRel); }
"#);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn test_only_acquire_does_not_pair() {
        let d = run(r#"
struct S { flag: AtomicBool } // sched-atomic(handoff): publishes drain.
fn publish(s: &S) { s.flag.store(true, Ordering::Release); }
mod tests {
    fn observe(s: &super::S) -> bool { s.flag.load(Ordering::Acquire) }
}
"#);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "SL004");
    }
}
