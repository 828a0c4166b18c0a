#!/usr/bin/env bash
# Builds iglrbench from this checkout and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload edit_small --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, every temporary file (the daemon_mix
# persistence directory included) and the library's compiled-language disk
# cache (under the user cache directory, so XDG_CACHE_HOME) stay under
# $CARGO_TARGET_DIR when it is set, else under .bench_build. A checkout
# without the library's sources fails the build, and so the script, with a
# non-zero exit.
#
# bench/ is a Go module of its own, so the repository's `go test ./...`
# does not reach it. `go vet` type-checks the benchmark's tests with every
# build, so a library API change that breaks them stops the benchmark too;
# `cd bench && go test ./...` runs them.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/bench" && go vet ./... && go build -o "$out/iglrbench" ./iglrbench) >&2
exec "$out/iglrbench" "$@"
