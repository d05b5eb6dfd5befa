#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload native-fine --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, trace files) stays under .bench_build/ in that root.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" -out "$build" "$@"
