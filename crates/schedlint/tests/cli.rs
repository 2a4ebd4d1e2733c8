//! The binary's contract: one `path:line: RULE message` line per
//! finding on stdout, exit 0 when clean, 1 on any finding, 2 on a usage
//! error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A one-crate workspace under the temp dir whose only source file has
/// one `unsafe` block, documented or not.
fn tree(tag: &str, documented: bool) -> PathBuf {
    let root = std::env::temp_dir().join(format!("schedlint-cli-{}-{tag}", std::process::id()));
    let src = root.join("crates/demo/src");
    std::fs::create_dir_all(&src).expect("create tree");
    let comment = if documented {
        "    // SAFETY: `p` is valid for reads by the caller's contract.\n"
    } else {
        ""
    };
    std::fs::write(
        src.join("lib.rs"),
        format!("pub fn read(p: *const u64) -> u64 {{\n{comment}    unsafe {{ *p }}\n}}\n"),
    )
    .expect("write source");
    root
}

fn schedlint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_schedlint"))
        .args(args)
        .output()
        .expect("run schedlint")
}

fn run_on(root: &Path) -> Output {
    schedlint(&["--root", root.to_str().expect("utf-8 temp path")])
}

#[test]
fn one_finding_prints_one_line_and_exits_1() {
    let root = tree("dirty", false);
    let out = run_on(&root);
    std::fs::remove_dir_all(&root).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout: {stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(
        lines[0].starts_with("crates/demo/src/lib.rs:2: SL040 "),
        "{stdout}"
    );
}

#[test]
fn clean_tree_prints_nothing_and_exits_0() {
    let root = tree("clean", true);
    let out = run_on(&root);
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(out.status.code(), Some(0));
    assert!(
        out.stdout.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn removed_flag_is_a_usage_error() {
    let out = schedlint(&["--format", "text"]);
    assert_eq!(out.status.code(), Some(2));
}
