#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload steady --seed 1 --seconds 10 --trace 0
#
# Every build and run artifact (Go build cache, binary, checkpoints,
# span files) stays under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -workdir .bench_build/work "$@"
