#!/usr/bin/env bash
# Runs the untraced pass of every workload twice and holds the two sets of
# end-to-end metrics against the bounds in BENCHMARK.json. Exits non-zero if
# any metric of any workload differs by more than its bound.
#
#   benchmark/repeat.sh                  # default seed, 20 s per run
#   benchmark/repeat.sh --seed 1000003   # extra arguments go to every run
set -euo pipefail
cd "$(dirname "$0")/.."

run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
out=benchmark/out/repeat
# The names BENCHMARK.json lists; `compare` fails if one has no result.
workloads=(stock_q4 stock_q4_bl stock_blend soccer_q1_ladder)

for set in first second; do
    mkdir -p "$out/$set"
    for workload in "${workloads[@]}"; do
        "${run[@]}" --workload "$workload" --trace 0 "$@" | tail -n 1 > "$out/$set/$workload.json"
    done
done
"${run[@]}" compare "$out/first" "$out/second"
