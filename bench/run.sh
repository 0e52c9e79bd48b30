#!/usr/bin/env bash
# Builds the harness from the checkout's own source and runs it from the
# checkout root. The Go build cache, the toolchain's work directory and its
# telemetry counters all live in .bench_build so nothing is written outside
# the checkout; the build is a no-op once cached.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o ../.bench_build/geoproof-bench .
exec .bench_build/geoproof-bench "$@"
