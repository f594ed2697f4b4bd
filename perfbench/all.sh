#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json end to end and traced, printing
# each metric by name with its unit. Exits nonzero if any run failed an
# output check or a counter cross-check. Run from the repository root:
#
#   bash perfbench/all.sh [seed] [seconds]
set -uo pipefail
seed=${1:-1}
seconds=${2:-20}
status=0
for w in live-read live-write sim-verify; do
	for trace in 0 1; do
		echo "== $w --trace $trace"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
	done
done
exit $status
