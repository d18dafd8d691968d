#!/usr/bin/env bash
# Records one set of untraced runs: every workload once per seed, seeds
# FIRST..FIRST+N-1, appended as JSON lines to OUT. Run it from the root of
# the checkout:
#
#   bash bench/record.sh bench/results/set-a.jsonl 1 10
#
# Compare two sets with: bash bench/run.sh -compare A.jsonl B.jsonl
set -euo pipefail

out=${1:?usage: record.sh OUT [FIRST_SEED] [N] [SECONDS]}
first=${2:-1}
n=${3:-10}
seconds=${4:-20}
for ((seed = first; seed < first + n; seed++)); do
	for w in explore-cold grid-warm serve-steady net-churn; do
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" | tail -n 1
	done
done
