#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload campaign-seq --seed 1 --seconds 15 --trace 0
#
# The Go build cache, temporary files and the benchmark's scratch
# directory all live under $CARGO_TARGET_DIR (default .bench_build), so
# the run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE=$build/go-cache GOTMPDIR=$build/go-tmp GOPATH=$build/go-path \
	GOMODCACHE=$build/go-path/pkg/mod XDG_CONFIG_HOME=$build/config \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/perfbench-work" "$@"
