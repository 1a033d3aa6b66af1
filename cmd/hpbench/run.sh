#!/usr/bin/env bash
# Builds cmd/hpbench from source and runs it with the given flags.
#
# Run from the repository root:
#   bash cmd/hpbench/run.sh --workload core --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the run's stores and
# journals, and trace files. The toolchain is the local one and module
# downloads are off, so the build fails fast when the repository's
# packages are missing.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
go build -buildvcs=false -o "$out/hpbench" ./cmd/hpbench
exec "$out/hpbench" "$@"
