//! Fixture self-tests: every rule ID has a `bad` fixture that must fire
//! (with the expected count) and a `good` twin that must stay silent,
//! so a rule that silently stops matching fails CI the same way a rule
//! that over-matches does. Plus the self-run test: the workspace itself
//! must be clean.

use std::path::{Path, PathBuf};

use schedlint::{analyze_workspace, run_rules, Config, FileModel};

fn fixture(name: &str) -> FileModel {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    // Fixtures pose as native-rt sources so registry-scoped rules apply.
    FileModel::parse(name, "native-rt", &src)
}

fn config() -> Config {
    let mut cfg = Config::for_tests();
    // The catalog for fixture purposes: what sl030_good registers, plus
    // `ghosts` and `never_written` (so sl030_bad's findings for them are
    // the increment ones, not catalog ones) — but NOT `phantom_events` or
    // `tier_*`.
    cfg.counter_doc =
        "`jobs_run` `steal_tier_smt` `steal_tier_llc` `ghosts` `local_hits` `never_written`"
            .to_string();
    cfg
}

/// Runs the analyzer over one fixture and returns the rule IDs fired.
fn rules_fired(name: &str) -> Vec<&'static str> {
    let diags = run_rules(&[fixture(name)], &config());
    diags.iter().map(|d| d.rule).collect()
}

fn assert_fires(name: &str, rule: &str, times: usize) {
    let fired = rules_fired(name);
    let hits = fired.iter().filter(|r| **r == rule).count();
    assert_eq!(
        hits, times,
        "{name}: expected {rule} x{times}, got {fired:?}"
    );
    let others: Vec<_> = fired.iter().filter(|r| **r != rule).collect();
    assert!(
        others.is_empty(),
        "{name}: unexpected extra findings {others:?}"
    );
}

fn assert_clean(name: &str) {
    let fired = rules_fired(name);
    assert!(fired.is_empty(), "{name}: expected clean, got {fired:?}");
}

#[test]
fn sl001_too_weak_ordering() {
    assert_fires("sl001_bad.rs", "SL001", 3);
    assert_clean("sl001_good.rs");
}

#[test]
fn sl002_over_strong_ordering() {
    assert_fires("sl002_bad.rs", "SL002", 2);
    assert_clean("sl002_good.rs");
}

#[test]
fn sl003_unannotated_atomic() {
    assert_fires("sl003_bad.rs", "SL003", 1);
    assert_clean("sl003_good.rs");
}

#[test]
fn sl003_is_scoped_to_registry_crates() {
    // The same unannotated atomic outside a registry crate is fine:
    // only native-rt's atomics are forced through the registry.
    let src = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/sl003_bad.rs"),
    )
    .unwrap();
    let m = FileModel::parse("sl003_bad.rs", "workloads", &src);
    let diags = run_rules(&[m], &config());
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn sl004_orphaned_publish() {
    assert_fires("sl004_bad.rs", "SL004", 1);
    assert_clean("sl004_good.rs");
}

#[test]
fn sl010_lock_order_cycle() {
    assert_fires("sl010_bad.rs", "SL010", 1);
    assert_clean("sl010_good.rs");
}

#[test]
fn sl011_same_lock_nesting() {
    assert_fires("sl011_bad.rs", "SL011", 2);
    assert_clean("sl011_good.rs");
}

#[test]
fn sl020_blocking_under_lock() {
    assert_fires("sl020_bad.rs", "SL020", 3);
    assert_clean("sl020_good.rs");
}

#[test]
fn sl020_flow_sensitive_blocking() {
    assert_fires("sl020_flow_bad.rs", "SL020", 1);
    assert_clean("sl020_flow_good.rs");
}

#[test]
fn sl030_counter_conservation() {
    assert_fires("sl030_bad.rs", "SL030", 4);
    assert_clean("sl030_good.rs");
}

#[test]
fn sl031_exit_conservation() {
    assert_fires("sl031_bad.rs", "SL031", 1);
    assert_clean("sl031_good.rs");
}

#[test]
fn sl040_undocumented_unsafe() {
    assert_fires("sl040_bad.rs", "SL040", 3);
    assert_clean("sl040_good.rs");
}

#[test]
fn sl050_protocol_conformance() {
    assert_fires("sl050_bad.rs", "SL050", 5);
    assert_clean("sl050_good.rs");
}

/// The gate itself, as a test: the real workspace must have no
/// findings. This is what `cargo run -p schedlint` enforces in CI;
/// having it in `cargo test` too means a plain test run catches
/// regressions.
#[test]
fn workspace_is_clean() {
    let root = workspace_root();
    let diags = analyze_workspace(&root, &Config::load(&root));
    assert!(
        diags.is_empty(),
        "workspace has findings:\n{}",
        diags
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/schedlint has a workspace root two levels up")
        .to_path_buf()
}
