#!/usr/bin/env bash
# Builds wfbench from source into .bench_build/ at the checkout root and runs
# it with the given arguments. Run from the checkout root:
#
#   bash cmd/wfbench/run.sh --workload direct-sweep --seed 1 --seconds 25 --trace 0
#
# The Go build cache lives under .bench_build/ too, so building and running
# read and write nothing outside the checkout. Without the repository's
# sources next to cmd/wfbench the build fails and no result is printed.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C cmd/wfbench -o "$out/wfbench" .
exec "$out/wfbench" "$@"
