#!/usr/bin/env bash
# Builds the CLI and the benchmark (release, offline) and runs one workload.
# Run from the repository root; extra arguments pass through, e.g.
#   bash perfbench/run.sh --workers 2 --jobs 2 --connections 2 \
#       --workload serve-miss --seed 1 --seconds 20 --trace 0
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bin rust-safety-study >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rstudy-perfbench" \
    --bin "$CARGO_TARGET_DIR/release/rust-safety-study" "$@"
