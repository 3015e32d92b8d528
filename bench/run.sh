#!/usr/bin/env bash
# Entry point of BENCHMARK.json's command: build the benchmark (package
# sprout/bench of the root module) from source into .bench_build/ at the
# checkout root (Go's build cache and temporary files too, so nothing is
# written outside the checkout), then run it with the arguments given.
# `go build` is a no-op when nothing changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off
go build -C "$root" -o "$build/sproutperf" ./bench
exec "$build/sproutperf" -out "$here/out" "$@"
