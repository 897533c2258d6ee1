#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload bulk-union --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache and GOPATH, the binary, the fleet
# workers' socket directories and the traced run's span files.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$build/perfbench" .

# A relative TMPDIR keeps the fleet's unix socket paths short (the kernel
# caps them at 108 bytes); the workers inherit it and the working directory.
export TMPDIR=.bench_build/tmp
exec "$build/perfbench" "$@"
