#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments (see perfbench/main.go). Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload figs-cold --seed 1 --seconds 30 --trace 0
#
# The build cache, the binary and the Go tool's own files all stay under
# .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
GOMAXPROCS="$(nproc)" exec "$out/perfbench" "$@"
