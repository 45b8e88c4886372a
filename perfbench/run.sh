#!/usr/bin/env bash
# Builds the benchmark binary from the checkout's sources and runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-tpcc-wb --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# and .bench_out/ in the repository root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are required)" >&2
	exit 2
fi

build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/modcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/modcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOENV=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

commit=unknown
if top=$(git -C "$root" rev-parse --show-toplevel 2>/dev/null) && [ "$top" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
exec "$build/perfbench" --commit "$commit" "$@"
