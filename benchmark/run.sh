#!/usr/bin/env bash
# Run the four benchmark workloads one after another, each in its own
# single-threaded process, and print every metric as
# "workload metric value unit" (plus each run's JSON result line).
#
# usage: benchmark/run.sh [seed] [seconds] [trace 0|1]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-42}
seconds=${2:-20} # BENCHMARK.json's run_seconds
trace=${3:-0}
for workload in ao_fig12 ao_paperscale photon pathtrace; do
    python3 benchmark/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace "$trace"
done
