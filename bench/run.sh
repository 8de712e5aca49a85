#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout: everything written — the go build cache,
# the binary, temp stores, traces — stays under .bench_build there.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build"
mkdir -p "$out"

# The go tool's own state goes under .bench_build too, and it must not reach
# for a newer toolchain or a module proxy: the module needs neither.
export GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/persona-bench" .)
exec "$out/persona-bench" "$@"
