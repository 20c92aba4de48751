#!/bin/sh
# The benchmark driver's entry point: builds ./benchmark from source and
# runs it, keeping the Go build cache, the toolchain's temporary and
# configuration files and the binary under .bench_build in the working
# directory, so nothing is written outside the checkout. Arguments go to
# the benchmark as they are. By hand, `go run ./benchmark` does the same
# with the user's cache.
#
# The go command's telemetry is switched off in that private configuration
# directory first: with a fresh one it starts a detached child (the daily
# upload check) that outlives `go build`, and the benchmark may leave no
# process behind, not even when the build fails.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false \
	go build -o "$build/llva-benchmark" ./benchmark
exec "$build/llva-benchmark" "$@"
