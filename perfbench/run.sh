#!/usr/bin/env bash
# Build the benchmark and the program it drives from source, then run it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default: perfbench/target); the
# build's own messages go to stderr, so stdout carries only the benchmark.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/perfbench" "$@"
