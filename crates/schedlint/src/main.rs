//! `cargo run -p schedlint` — the CI gate.
//!
//! Prints one `path:line: RULE message` line per finding on stdout and
//! a one-line summary on stderr. Exit codes: 0 clean, 1 any finding,
//! 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use schedlint::{analyze_workspace, Config};

const HELP: &str = "schedlint — workspace concurrency-invariant analyzer

USAGE: schedlint [--root <dir>]

  --root <dir>   workspace root (default: walk up from cwd)

Scans crates/*/src/**/*.rs and enforces SL001..SL050 (see
crates/schedlint/src/lib.rs for the rule catalog). Prints one
`path:line: RULE message` line per finding; exits 0 when clean, 1 on
any finding, 2 on a usage error.";

fn parse_root() -> Result<Option<PathBuf>, String> {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = Some(args.next().ok_or("--root needs a value")?.into()),
            "--help" | "-h" => {
                println!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (try --help)")),
        }
    }
    Ok(root)
}

fn main() -> ExitCode {
    let root = match parse_root() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("schedlint: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| schedlint::workspace::find_root(&d))
    }) else {
        eprintln!("schedlint: no workspace root found (no ancestor with crates/ + Cargo.toml)");
        return ExitCode::from(2);
    };

    let started = Instant::now();
    let diags = analyze_workspace(&root, &Config::load(&root));
    for d in &diags {
        println!("{d}");
    }
    eprintln!(
        "schedlint: {} finding(s), {} ms",
        diags.len(),
        started.elapsed().as_millis()
    );
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
