#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. Everything the build and the run write stays under
# .bench_build in the checkout. Arguments go to the benchmark, e.g.
#   bash layerbench/run.sh --workload serve --seed 3 --seconds 15 --trace 0
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's config and telemetry files
# in the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS=
(cd layerbench && go build -o "$build/bin/layerbench" .) >&2
exec "$build/bin/layerbench" "$@"
