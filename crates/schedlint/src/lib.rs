//! `schedlint` — the workspace concurrency-invariant analyzer.
//!
//! The paper's whole failure mode is an invariant violation: a worker
//! preempted inside a spinlock-protected critical section stalls every
//! sibling. This reproduction now leans on a pile of informal rules —
//! which atomics publish data, which orderings are load-bearing, what
//! may happen while a `MutexGuard` is live, which counters the
//! observability stack expects — and this crate machine-checks them on
//! every CI run (`cargo run -p schedlint`).
//!
//! Seven rule families, each with positive/negative fixtures under
//! `tests/fixtures/`:
//!
//! | rule  | checks |
//! |-------|--------|
//! | SL001 | too-weak ordering on a registered atomic (`Relaxed` publish on a `handoff` atomic, sub-`SeqCst` on a Dekker-protocol atomic) |
//! | SL002 | over-strong ordering (`SeqCst` where `AcqRel` suffices on a `handoff` atomic, anything above `Relaxed` on a statistic) |
//! | SL003 | an atomic declared in a registry crate without a `sched-atomic(...)` annotation |
//! | SL004 | a `handoff` atomic with Release-side publishes but no Acquire-side observer anywhere in its crate (orphaned publish) |
//! | SL010 | a cycle in the cross-function lock-order graph (potential deadlock) |
//! | SL011 | nested acquisition of the same lock name in one function (self-deadlock: the runtime's mutexes are not reentrant) |
//! | SL020 | a blocking call (sleep/park/UDS I/O/foreign condvar wait) while a `MutexGuard` is live on *some* path of the [`cfg`](mod@cfg) region tree — the static analogue of the paper's preempted-lock-holder pathology |
//! | SL030 | a counter registered in `native_rt::stats` with no increment site, or missing from the DESIGN.md catalog; a dynamic registration with no `sched-counters` annotation |
//! | SL031 | a `sched-counter-exits(a\|b)`-annotated function with an exit path (early return, `?`, fall-through) that increments none of the named counters |
//! | SL040 | an `unsafe` block/impl/fn with no `// SAFETY:` comment |
//! | SL050 | wire-protocol conformance: `WIRE_VERBS` table = dispatcher arms, no match on a wire verb outside `handle_line_into`, client emitted ⊆ handled (verbs; keyword forms = arm patterns), reply heads ⊆ parsed, ERR reasons catalogued, sim opcodes mapped |
//!
//! There is no `syn` in the offline build environment, so the analyzer
//! runs on its own minimal lexer ([`lexer`]) and token-pattern matching
//! — the same in-tree-substitute policy as `shims/*`. The lock rules
//! (SL010/SL011/SL020) and SL031 run on the [`cfg`](mod@cfg) region tree built
//! over that token model. The blind spots this buys (macro-generated
//! code, aliased names, cross-crate dataflow) are listed in DESIGN.md
//! §11. A finding has no exception mechanism: it is fixed at its
//! source, or the rule that produced it is corrected.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cfg;
pub mod lexer;
pub mod model;
pub mod rules;
pub mod workspace;

pub use model::{AtomicCategory, FileModel};
pub use workspace::{analyze_workspace, collect_files, Config};

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule ID, e.g. `SL010`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Runs every rule over pre-parsed models. `config` carries the
/// registry-crate scope and the counter-catalog document.
pub fn run_rules(models: &[FileModel], config: &Config) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    diags.extend(rules::atomics::check(models, config));
    diags.extend(rules::hb::check(models));
    diags.extend(rules::locks::check(models));
    diags.extend(rules::counters::check(models, config));
    diags.extend(rules::unsafety::check(models));
    diags.extend(rules::proto::check(models, config));
    diags.sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    diags
}
