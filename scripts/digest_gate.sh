#!/usr/bin/env bash
# Committed-digest gate for the priced cost table and the serve
# workloads.
#
# hostbench/fixture/cost_table.json commits the quick cost table. This
# runs one untraced `price` unit (the real, concurrent
# CostTable::build) and fails unless its table equals the fixture bit
# for bit. Pricing does not depend on the seed, so seed 0 stands for
# all of them.
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

# Failed units of one untraced hostbench unit ("" when it never reported).
failed_units() {
    local line
    line="$(cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 0.001 --trace 0 | tail -n 1)" || true
    printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p'
}

status=0
if [ "$(failed_units price 0)" = "0" ]; then
    echo "ok   price: the priced table matches hostbench/fixture/cost_table.json"
else
    echo "FAIL price: the priced table differs from hostbench/fixture/cost_table.json"
    status=1
fi
for workload in serve-hot serve-churn; do
    bad=""
    for seed in $SEEDS; do
        if [ "$(failed_units "$workload" "$seed")" != "0" ]; then
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
