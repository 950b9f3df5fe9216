#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through to the benchmark, for example
#
#   bash perfbench/run.sh --workload hash-equi-1m --seed 1 --seconds 25 --trace 0
#
# Build products, the Go caches and the compiler's temporary files stay
# inside the checkout, under .bench_build (or $CARGO_TARGET_DIR when set).
# No module is fetched: the benchmark depends only on the repository.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod GOTMPDIR=$build/tmp
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spec BENCHMARK.json "$@"
