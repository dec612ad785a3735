#!/usr/bin/env bash
# Committed-digest gate for the serve workloads.
#
# hostbench/fixture/digests.json commits one report digest per seed
# (0-31) for serve-hot and serve-churn. This runs one untraced unit of
# each workload at every committed seed and fails when any run reports
# a failed unit: a digest moved, or a conservation or attribution check
# broke. scripts/scaling_gate.sh checks seed 0 only.
#
# hostbench rejects `--seconds 0`; a budget far below one unit's time
# still runs exactly one unit.
#
# Usage: scripts/digest_gate.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS=$(seq 0 31)

cargo build --release --offline --quiet --manifest-path hostbench/Cargo.toml

status=0
for workload in serve-hot serve-churn; do
    bad=""
    for seed in $SEEDS; do
        line="$(cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds 0.001 --trace 0 | tail -n 1)" || true
        failed="$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')"
        if [ "$failed" != "0" ]; then
            bad="$bad $seed"
        fi
    done
    if [ -n "$bad" ]; then
        echo "FAIL $workload: failed units at seeds:$bad"
        status=1
    else
        echo "ok   $workload: seeds 0-31 match their committed digests"
    fi
done
exit "$status"
