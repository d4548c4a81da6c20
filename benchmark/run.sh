#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from this checkout's sources
# and run it with the arguments given (-workload, -seed, -seconds, -trace).
#
# Everything the build leaves behind stays inside the checkout, under
# .bench_build/: the binary, go's build cache and an (empty) module cache.
# The binary is rebuilt only when a source it depends on changed, so only the
# first run in a checkout pays for compilation.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOPROXY=off GOTOOLCHAIN=local
go build -o "$root/.bench_build/benchmark" ./benchmark
exec "$root/.bench_build/benchmark" "$@"
