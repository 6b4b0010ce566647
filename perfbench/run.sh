#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload reweight_narrow --seed 1 --seconds 24 --trace 0
#
# Every build artifact, Go cache and span file stays under .bench_build
# in the working directory; the toolchain is never fetched and no module
# is downloaded (the module's only dependency is the repository itself).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

bin="$build/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .) >&2
exec "$bin" "$@"
