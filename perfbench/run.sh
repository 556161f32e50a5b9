#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cold_exact --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the
# checkout: the Go build cache, the binary and the span files.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
