#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.
#
#   bash bench/run.sh --workload sweep-accel --seed 3 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, telemetry)
# stays under .bench_build/ in the current directory, and GOPROXY=off keeps
# the build offline. The binary is exec'd, so it owns and waits for every
# child process it starts.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$out/sdam-bench" .
exec "$out/sdam-bench" "$@"
