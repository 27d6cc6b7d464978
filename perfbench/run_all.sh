#!/bin/sh
# Run every workload once, untraced, each in its own process, from the
# repository root:  sh perfbench/run_all.sh [seed] [seconds]
# Exits nonzero if any op of any workload fails its correctness check.
seed=${1:-0}
seconds=${2:-30}
status=0
for workload in pvalue-study fit-large scoring; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 || status=1
done
exit $status
