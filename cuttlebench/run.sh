#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout, then runs it
# from the checkout root with the arguments given, e.g.
#
#   bash cuttlebench/run.sh --workload single-steady --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, the toolchain's temporary files and
# its config/telemetry directory all stay under .bench_build/, and the
# build never reaches for a module proxy.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd cuttlebench && go build -o "$out/cuttlebench" .) >&2
exec "$out/cuttlebench" "$@"
