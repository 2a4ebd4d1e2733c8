#!/usr/bin/env bash
# The benchmark's entry point (the `command` of BENCHMARK.json): builds
# bench_all and the procctl-serverd it starts for the multi-process
# workloads (`cargo run` would build only the one it runs) and hands the
# driver's arguments to bench_all.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$here/../.."
cargo build --release --quiet --offline --manifest-path "$root/Cargo.toml" \
    -p bench-all -p native-rt --bin bench_all --bin procctl-serverd
exec "${CARGO_TARGET_DIR:-$root/target}/release/bench_all" "$@"
