#!/bin/bash
# Entry point named by BENCHMARK.json. Builds the harness from source into the
# checkout's .bench_build — Go's build cache and temporary files included, so
# nothing is written outside the checkout — and runs it from bench/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/ecobench" .
exec "$build/ecobench" "$@"
