#!/usr/bin/env bash
# Tooling for the benchmark package only: format, lint, unit tests, the
# BENCHMARK.json <-> catalog check, and a smoke run of everything.
# Usage: perfbench/check.sh   (from anywhere; needs the whole repository)
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --release --all-targets -- -Dwarnings
cargo clippy --release --all-targets --features trace -- -Dwarnings
cargo test --release
cargo run --release --quiet -- check-catalog
cargo run --release --quiet -- run --smoke --reps 2
echo "perfbench/check.sh: all checks passed"
