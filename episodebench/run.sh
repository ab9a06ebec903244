#!/usr/bin/env bash
# Builds the episode benchmark from the sources in this checkout and runs it.
# Run from the repository root; flags are passed through, e.g.
#   bash episodebench/run.sh --workload paper-horus-slm --seed 1 --seconds 30 --trace 0
# The Go build cache, the binary and the traced run's span/profile files all
# live under .bench_build/episodebench, so nothing is written outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/episodebench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/episodebench" && go build -o "$out/episodebench" .)
exec "$out/episodebench" --out "$out" "$@"
