#!/usr/bin/env bash
# Repeatability of the benchmark on one commit: two sets of RUNS full
# runs per workload, every run with another seed, the two sets taking
# turns to go first. Prints and writes (benchmark/results/spread.json)
# the table `probkb-benchmark spread` computes, and fails when a metric
# is unsteady or the sets disagree by more than its bound.
#   bash benchmark/repeat.sh [RUNS] [SECONDS] [--quick]
set -euo pipefail
home="$(dirname "${BASH_SOURCE[0]}")"
runs="${1:-10}"
seconds="${2:-10}"
quick="${3:-}"

sets="$home/out/repeat"
rm -rf "$sets"
mkdir -p "$sets/1" "$sets/2"
workloads="$(grep -o '"name": "[a-z_]*", "why"' "$home/../BENCHMARK.json" | cut -d'"' -f4)"

one_run() { # set seed workload
    bash "$home/run.sh" --workload "$3" --seed "$2" --seconds "$seconds" --trace 0 $quick \
        >/dev/null
    cp "$home/out/$3.result0.json" "$sets/$1/$3.$2.json"
}

for i in $(seq 1 "$runs"); do
    for workload in $workloads; do
        # Set 1 uses seeds 1.., set 2 seeds 101..; odd rounds start
        # with set 1, even rounds with set 2.
        if (( i % 2 )); then
            one_run 1 "$i" "$workload"
            one_run 2 "$((100 + i))" "$workload"
        else
            one_run 2 "$((100 + i))" "$workload"
            one_run 1 "$i" "$workload"
        fi
    done
    echo "round $i of $runs done" >&2
done

"${CARGO_TARGET_DIR:-$home/target}/release/probkb-benchmark" spread --home "$home" \
    "$sets/1" "$sets/2"
