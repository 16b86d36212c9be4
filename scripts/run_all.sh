#!/usr/bin/env bash
# Regenerates every experiment of the paper plus the extensions, then the
# Markdown digest. Run from the repository root.
set -euo pipefail

BINS=(table3 table4 table5 fig15 fig16 fig17 fig18 fig19 memory zeros \
      timeline ablation related_work quantization energy)

cargo build --release -p zfgan -p zfgan-bench --bins

for bin in "${BINS[@]}"; do
    echo "=== $bin ==="
    "./target/release/$bin"
done
# The fault and crash campaigns run through the CLI, their one front end.
for campaign in faults crashtest; do
    echo "=== $campaign ==="
    ./target/release/zfgan "$campaign" --seed 2024 --out "results/$campaign.json"
done
echo "=== report ==="
./target/release/report

echo "All experiments regenerated; digest at results/RESULTS.md"
