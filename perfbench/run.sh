#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload space-ops --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build cache, the binary, durable-space
# data and span dumps all stay under .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
