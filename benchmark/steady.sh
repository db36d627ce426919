#!/usr/bin/env bash
# Steadiness proof: runs one workload RUNS times, each with another
# seed, and prints every metric's median, quartiles and quartile
# spread (q3 - q1) / median over the runs.
#
# usage: benchmark/steady.sh WORKLOAD [RUNS] [SECONDS]
set -euo pipefail
cd "$(dirname "$0")/.."
workload=$1
runs=${2:-10}
seconds=${3:-10}
target=${CARGO_TARGET_DIR:-benchmark/target}
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=$target/release/tagwatch-benchmark
out=$target/steady-$workload.jsonl
: >"$out"
for ((seed = 1; seed <= runs; seed++)); do
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 |
        tail -n 1 | tee -a "$out"
done
"$bin" spread <"$out"
