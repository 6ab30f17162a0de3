#!/usr/bin/env bash
# Builds the daemon and the benchmark from this checkout, then runs one
# benchmark invocation:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Build outputs go to $CARGO_TARGET_DIR (default: .bench_build in the
# current directory). Cargo's progress goes to stderr; stdout carries only
# the benchmark's detail line and, last, its result line.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin dscw >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@" --dscw "$CARGO_TARGET_DIR/release/dscw"
