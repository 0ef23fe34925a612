#!/usr/bin/env bash
# Builds tscfpbench from this checkout and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload anneal-ibm01 --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, temp files, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The go command's telemetry counters and env file live in the user config
# directory; keep them inside the build directory too.
export XDG_CONFIG_HOME="$build/config" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$here" build -o "$build/tscfpbench" ./cmd/tscfpbench
exec "$build/tscfpbench" "$@"
