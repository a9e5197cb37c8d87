#!/usr/bin/env bash
# Build the benchmark (and, through its path dependencies, the product) in
# release mode, then run it. Arguments go to `whbench` unchanged:
#
#   benchmark/run.sh [--seed N] [--quick]          every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
#
# Paths are relative to the repository root, whatever the caller's directory.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/whbench" "$@"
