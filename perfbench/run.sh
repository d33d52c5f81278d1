#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload read --seed 1 --seconds 10 --trace 0
# Every file the Go toolchain writes (build cache, binary) stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
