#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash bench/run.sh --workload route-warm --seed 1 --seconds 15 --trace 0
#
# Every build output, the Go build cache and the run logs stay under
# .bench_build/ in the working directory; nothing is fetched.
set -euo pipefail
work="$PWD/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" XDG_CONFIG_HOME="$work/config"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
go build -C bench -o "$work/bench" .
exec "$work/bench" "$@"
