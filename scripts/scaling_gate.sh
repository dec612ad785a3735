#!/usr/bin/env bash
# Host-clock scaling gate for the serve event loops.
#
# Runs the host-clock benchmark (hostbench/) traced on the two serve
# workloads and fails when
#   - any unit failed: for seed 0 every unit's report digest is checked
#     against hostbench/fixture/digests.json, so a nonzero count means
#     the simulated outputs moved;
#   - serve.scaling_exp or policy.scaling_exp (log10 of the event-loop
#     time ratio between n and n/10 requests; 1.0 is linear) exceeds
#     MAX_EXP. A per-event linear scan reads about 1.6.
#
# The benchmark's last stdout line is one JSON object; it is parsed
# with sed and awk only.
#
# Usage: scripts/scaling_gate.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

MAX_EXP=1.35

# The value of metric $1 in the JSON object $2.
metric() {
    printf '%s\n' "$2" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"
}

status=0
for workload in serve-hot serve-churn; do
    echo "==> hostbench --workload $workload --seed 0 --seconds 1 --trace 1"
    line="$(cargo run --release --offline --quiet --manifest-path hostbench/Cargo.toml -- \
        --workload "$workload" --seed 0 --seconds 1 --trace 1 | tail -n 1)"
    failed="$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')"
    if [ "$failed" != "0" ]; then
        echo "FAIL $workload: failed units = ${failed:-unparsed} (digest or conservation check)"
        status=1
    fi
    for m in serve.scaling_exp policy.scaling_exp; do
        exp="$(metric "$m" "$line")"
        if awk -v x="$exp" -v max="$MAX_EXP" 'BEGIN { exit !(x != "" && x + 0 <= max + 0) }'; then
            echo "ok   $workload: $m = $exp (<= $MAX_EXP)"
        else
            echo "FAIL $workload: $m = ${exp:-unparsed} (> $MAX_EXP)"
            status=1
        fi
    done
done
exit "$status"
