#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash numbench/run.sh --workload coflows-waterfill --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write (Go build cache, binary, span
# dumps) lands under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/numbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/numbench" && go build -o "$out/numbench" .)
exec "$out/numbench" -out "$out" "$@"
