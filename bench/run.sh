#!/bin/bash
# The BENCHMARK.json command: build the harness and run it, with the Go
# build cache, the toolchain's temporary files and the binary kept inside
# the checkout (.bench_build/, git-ignored), so that a run writes nothing
# outside it. Run from the repository root; the arguments are the
# harness's own (see README.md). go build does nothing when the binary is
# up to date.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp"
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
