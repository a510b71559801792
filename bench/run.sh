#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload edit_d0 --seed 1 --seconds 18 --trace 0
#
# The Go build cache, the binary and any Chrome traces go under
# .bench_build/ in the current directory, and nothing is fetched: the
# benchmark uses the standard library and the repository's own packages.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go -C bench build -o "$out/ofence-bench" . >&2
exec "$out/ofence-bench" "$@"
