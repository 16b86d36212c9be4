#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs all five workloads, each
# in a fresh process: untraced first, then traced. Extra arguments go to
# `run` (for instance `--seed 7`, `--smoke` or `--out results.json`).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline
exec cargo run --release --offline --quiet -- run "$@"
