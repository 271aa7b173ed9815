#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bulk-read --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The build cache, the binary, durable
# deployments and span files all stay under .bench_build there.
set -euo pipefail
src="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOENV=off
(cd "$src" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
