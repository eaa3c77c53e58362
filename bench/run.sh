#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark from source inside the
# checkout and run it there. Everything Go writes stays under .bench_build/,
# which .gitignore names. Run from the repository root:
#
#   bash bench/run.sh --workload tcp_warm --seed 1 --seconds 15 --trace 0
#
# It fails (non-zero, nothing printed on stdout) where the repository's
# sources are missing: bench/go.mod replaces the parent module with "..".
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep the toolchain's own files in the checkout too: build cache, module
# cache, scratch directory and its config/telemetry directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/parcel-perfbench" . >&2
exec "$build/parcel-perfbench" "$@"
