#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sql-train --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root; the program's sources are missing here" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
