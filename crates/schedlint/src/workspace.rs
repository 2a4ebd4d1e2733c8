//! Workspace discovery and the analyzer configuration.
//!
//! The scan scope is `crates/*/src/**/*.rs` — production source only.
//! Fixture files (under `tests/fixtures/`), the shims, and `target/`
//! are outside it by construction.

use std::fs;
use std::path::{Path, PathBuf};

use crate::model::FileModel;
use crate::{run_rules, Diagnostic};

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose atomics must be annotated (SL003) and whose counter
    /// registrations are audited (SL030).
    pub registry_crates: Vec<String>,
    /// Text of the counter-catalog document; every registered counter
    /// name must appear in it backticked.
    pub counter_doc: String,
    /// Display name of the catalog document for diagnostics.
    pub counter_doc_name: String,
}

impl Config {
    /// The real configuration: `native-rt` is the registry crate and the
    /// catalog lives in DESIGN.md §11.
    pub fn load(root: &Path) -> Config {
        Config {
            registry_crates: vec!["native-rt".to_string()],
            counter_doc: fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default(),
            counter_doc_name: "DESIGN.md §11".to_string(),
        }
    }

    /// Unit-test configuration: same registry scope, empty catalog.
    pub fn for_tests() -> Config {
        Config {
            registry_crates: vec!["native-rt".to_string()],
            counter_doc: String::new(),
            counter_doc_name: "DESIGN.md §11".to_string(),
        }
    }
}

/// All `(path, crate_name)` pairs under `root/crates/*/src`, sorted for
/// deterministic output.
pub fn collect_files(root: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates_dir) else {
        return out;
    };
    let mut crates: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    crates.sort();
    for c in crates {
        let src = c.join("src");
        if !src.is_dir() {
            continue;
        }
        let crate_name = c
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let mut files = Vec::new();
        walk(&src, &mut files);
        files.sort();
        out.extend(files.into_iter().map(|f| (f, crate_name.clone())));
    }
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.filter_map(Result::ok) {
        let p = e.path();
        if p.is_dir() {
            walk(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Parses every in-scope file and runs all rules. Paths in diagnostics
/// are workspace-relative.
pub fn analyze_workspace(root: &Path, config: &Config) -> Vec<Diagnostic> {
    let mut models = Vec::new();
    for (path, crate_name) in collect_files(root) {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .into_owned();
        models.push(FileModel::parse(&rel, &crate_name, &src));
    }
    run_rules(&models, config)
}

/// Walks upward from `start` to the first directory containing a
/// `crates/` subdirectory — the workspace root, wherever the binary is
/// invoked from.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = start.to_path_buf();
    loop {
        if cur.join("crates").is_dir() && cur.join("Cargo.toml").is_file() {
            return Some(cur);
        }
        if !cur.pop() {
            return None;
        }
    }
}
