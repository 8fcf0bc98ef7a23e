#!/usr/bin/env bash
# Builds the epoch-ledger benchmark from source and runs it, from the root
# of a dcfp checkout:
#
#   bash epochledger/run.sh --workload crisis-replay --seed 42 --seconds 30 --trace 0
#
# Every file the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary and
# the traced runs' timeline and spans.
set -euo pipefail

build="$PWD/.bench_build"
src="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOPATH="$build/home/go" \
	GOFLAGS= GOTOOLCHAIN=local
(cd "$src" && go build -o "$build/bin/epochledger" .)
exec "$build/bin/epochledger" --out "$build/epochledger" "$@"
