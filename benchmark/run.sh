#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the arguments given. Every file the build and
# the run leave behind (Go build cache, temp files, template spill
# directories) stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/flashps-benchmark" .)
cd "$root"
exec "$build/flashps-benchmark" -workdir "$build" "$@"
