#!/usr/bin/env bash
# Builds the p2psize benchmark from this checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload static-estimate --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every build output (binary, Go build
# cache, temporary files, span logs) stays under .bench_build/ in the
# checkout. Build messages go to stderr; the last stdout line is the
# JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOWORK=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

# Build to a private name first so concurrent runs never exec a
# half-written binary.
bin="$out/bin/p2pbench"
(cd "$root/perfbench" && go build -o "$bin.$$" .) >&2
mv -f "$bin.$$" "$bin"

cd "$root"
exec "$bin" -spans "$out/spans" "$@"
