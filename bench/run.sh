#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:  bash bench/run.sh --workload all --seed 1
# Everything it writes (Go build cache, binary, server temp directories,
# traces) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/autoax-bench" .
exec "$out/autoax-bench" "$@"
