#!/usr/bin/env bash
# Regenerates every committed result under results/: the fault and crash
# campaigns, then every table and figure of the paper plus the extensions
# and the Markdown digest of all of them. Run from the repository root.
# Every file it writes is a pure function of the tree, so on a clean
# checkout `git status --porcelain results/` stays empty.
set -euo pipefail

cargo build --release -p zfgan

# The campaigns first: the digest `paper all` writes last collects them too.
for campaign in faults crashtest; do
    echo "=== $campaign ==="
    ./target/release/zfgan "$campaign" --seed 2024 --out "results/$campaign.json"
done
echo "=== paper all ==="
./target/release/zfgan paper all

echo "All experiments regenerated; digest at results/RESULTS.md"
