#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source with
# every Go cache inside the checkout (.bench_build), then runs it with the
# driver's arguments. Run it from the repository root.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
