#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
# Build products, the Go build cache, the go command's own config and
# telemetry files, and the open loop's unix socket all stay in
# .bench_build at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
