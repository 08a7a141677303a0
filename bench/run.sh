#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags. This is
# the command BENCHMARK.json names; `go run .` in this directory is the same
# program. Everything it writes stays inside the checkout: the build and the
# Go caches under ../.bench_build, results and scratch files under out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/claspbench" .
exec "$build/claspbench" "$@"
