#!/usr/bin/env bash
# Builds the lagbench program from this checkout and runs it with the
# given arguments. Run from the repository root:
#
#   bash lagbench/run.sh --workload study-cold --seed 1 --seconds 5 --trace 0
#
# Every Go cache and scratch file stays under .bench_build in the
# checkout.
set -euo pipefail
root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export XDG_CONFIG_HOME="$work/config" XDG_CACHE_HOME="$work/cache"
export TMPDIR="$work/tmp" GOTMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off
go build -C lagbench -o "$work/lagbench" .
exec "$work/lagbench" "$@"
