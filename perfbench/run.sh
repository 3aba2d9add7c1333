#!/usr/bin/env bash
# Builds the release rbs-netd and the benchmark from source, then runs one
# measurement:
#   bash perfbench/run.sh --workload synth_cold --seed 1 --seconds 10 --trace 0
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's
# chatter goes to stderr so the result stays the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p rbs-net --bin rbs-netd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rbs-perfbench" --netd "$CARGO_TARGET_DIR/release/rbs-netd" "$@"
