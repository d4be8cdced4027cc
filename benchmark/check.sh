#!/usr/bin/env bash
# The benchmark package's own gate: format, lints, tests, then a smoke run of
# every workload on both paths (end-to-end metrics, per-layer metrics).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --all-targets -- -D warnings
cargo test
cargo run --release -- --smoke --trace 0
cargo run --release -- --smoke --trace 1
echo "benchmark/check.sh: ok"
