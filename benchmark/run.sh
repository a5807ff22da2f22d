#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the driver's arguments. Everything Go writes (build cache, binary)
# stays under .bench_build/ in the checkout; nothing outside is touched.
# In a directory without the module's sources the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -o "$root/.bench_build/etsqp-benchmark" ./benchmark
exec "$root/.bench_build/etsqp-benchmark" "$@"
