#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run it from
# the repository root:
#
#   bash repobench/run.sh --workload dumbbell --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, checkpoint files and span traces all
# stay under the build directory ($CARGO_TARGET_DIR, default .bench_build)
# of the current checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
# Keep the toolchain's caches, config, telemetry and temporary files
# inside the build directory, and never fetch a toolchain or module.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd repobench && go build -o "$out/repobench" .)
exec "$out/repobench" -out "$out" "$@"
