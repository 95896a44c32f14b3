#!/usr/bin/env bash
# Builds the benchmark driver from the checkout it is run in and executes it
# with the given arguments. Run from the repository root:
#
#	bash bench/run.sh --workload repro-npb --seed 1 --seconds 20 --trace 0
#
# bench/ is a Go module of its own (its go.mod replaces the tlbmap module
# with ../), so outside a full checkout the build fails and the script exits
# non-zero before printing a result. Everything the build and the run write
# (Go build cache, the driver binary, durable-server directories, span
# files) stays under .bench_build/ in the current directory: the Go
# environment below keeps the toolchain's caches and temporary files there,
# reads no user Go configuration and never tries to download anything.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/bench" && go build -o "$out/benchdrv" .)
exec "$out/benchdrv" "$@"
