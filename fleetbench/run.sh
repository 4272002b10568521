#!/usr/bin/env bash
# Builds fleetd and the benchmark from source, then runs the benchmark with
# the given arguments. Run it from the repository root:
#
#   bash fleetbench/run.sh --workload aged_storm --seed 2014 --seconds 30 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --manifest-path Cargo.toml -p selfheal-fleet --bin fleetd >&2
cargo build --release --quiet --manifest-path fleetbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/fleetbench" "$@"
