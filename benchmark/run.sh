#!/usr/bin/env bash
# The repo benchmark, one command.
#
#   benchmark/run.sh [--seed N] [--seconds S]      every workload, untraced then
#                                                   traced; prints every metric and
#                                                   writes benchmark/out/result.json
#   benchmark/run.sh --check [--seed N]            the whole set twice (second time
#                                                   in reverse order); fails if a pair
#                                                   differs by more than its bound
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                   one run of one workload; the last
#                                                   line of stdout is the result JSON
#                                                   (this is what BENCHMARK.json names)
#
# Builds the benchmark package (release, offline, locked) from source first;
# the build's own output goes to stderr so stdout stays the metrics.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/dsk-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done
exec "$bin" --suite "$@"
