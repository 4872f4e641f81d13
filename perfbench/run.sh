#!/usr/bin/env bash
# Builds `svtd` and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload paper_cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); results and traces to $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p svt-serve --bin svtd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
