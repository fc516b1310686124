#!/usr/bin/env bash
# The benchmark's own gate: formatting, lints, self-tests, the smoke suite and
# schema validation. The single hook a later PR wires into `justfile` and CI.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
# The self-tests include the BENCHMARK.json-vs-registry and profile-drift checks.
cargo test --offline --release
# The suite validates BENCHMARK.json, then every child's result line.
cargo run --offline --release --quiet -- --smoke
echo "benchmark/check.sh: ok"
