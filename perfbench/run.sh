#!/usr/bin/env bash
# Builds dbtserver and the perfbench program from this checkout into
# .bench_build/, then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ticks --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off
cd "$root"
go build -o "$out/dbtserver" ./cmd/dbtserver
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/dbtserver" -work "$out" "$@"
