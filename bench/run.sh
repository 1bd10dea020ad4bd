#!/bin/sh
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ (Go build cache and temp files included, so nothing
# is written outside the checkout) and runs it with the caller's flags.
# Run from the repository root.
set -eu
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/lvm-bench" .
exec "$build/lvm-bench" -datadir "$build/data" "$@"
