#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload star3_hit --seed 42 --seconds 10 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and temporary files go to .bench_build/, trace files and the
# durable workload's scratch state to benchmark/out/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$here/out"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local
export GOPROXY=off

# The benchmark is its own module; the engine is the module one directory up
# (replace directive in go.mod), so this fails — as it must — in a directory
# that holds only the benchmark.
(cd "$here" && go build -o "$build/acache-benchmark" .)

exec "$build/acache-benchmark" -out "$here/out" "$@"
