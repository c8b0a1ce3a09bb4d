#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of a
# checkout (see BENCHMARK.json); every file the toolchain or the benchmark
# writes lands under .bench_build/ in that checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/piggybench" .)
exec "$build/piggybench" "$@"
