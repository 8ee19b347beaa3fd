#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout's source and runs it.
# Run from the repository root; arguments go to the benchmark:
#
#   bash wallbench/run.sh --workload ledger-open --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache, so the checkout
# is the only directory written.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f wallbench/go.mod ]; then
	echo "wallbench: run from the repository root (the repro module is needed to build)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C wallbench build -o "$out/wallbench.bin" .
exec "$out/wallbench.bin" --out "$out/wallbench" "$@"
