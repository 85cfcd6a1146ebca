#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. BENCHMARK.json's command is this script: the Go
# build cache, the (empty) module cache, the linker's temporary files
# and the binary all stay
# under .bench_build, so a run reads and writes only inside its checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
go build -o "$build/tracebench" ./bench
exec "$build/tracebench" "$@"
