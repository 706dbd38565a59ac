#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark from source and runs it with
# the given arguments. The driver lets a run read and write only inside its
# checkout, so the binary, Go's build cache and its temp files go to
# .bench_build/ at the repo root, and traces to benchmark/out/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOENV=off GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
go build -C benchmark -o "$build/advm-benchmark" . >&2
exec "$build/advm-benchmark" -out benchmark/out "$@"
