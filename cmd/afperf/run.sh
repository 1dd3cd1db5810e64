#!/usr/bin/env bash
# Builds afperf from source and runs it with the given arguments, e.g.
#
#   bash cmd/afperf/run.sh --workload randwrite-deep --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The build cache, temporary files, the go
# command's own state (XDG_CONFIG_HOME) and the binary all live under
# .bench_build/ in that directory, and the build never touches the network
# (the module has no external requirements).
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$root/cmd/afperf" && go build -o "$build/afperf" .)
exec "$build/afperf" "$@"
