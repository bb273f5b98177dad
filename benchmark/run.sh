#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a
# checkout:
#
#   bash benchmark/run.sh --workload notify-city --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind — the binary and Go's build
# cache — stays under .bench_build/ in the checkout, so a run reads and
# writes nothing outside it and a second run does not rebuild. `go run
# ./benchmark` with the same flags does the same with Go's usual cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod" # the module has no dependencies; never filled
export GOTOOLCHAIN=local GOFLAGS=

go build -o "$build/mwbench" ./benchmark
exec "$build/mwbench" "$@"
