#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout (module
# bench/ with the repository as its one dependency) and run it from the
# checkout's root, passing every argument through. Everything the build and
# the run write lands under .bench_build/ of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd "$here" && { go build -o "$build/bench" . 2>/dev/null || go build -buildvcs=false -o "$build/bench" .; })
exec "$build/bench" "$@"
