#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build
# leaves behind stays under .bench_build in the checkout, and the Go
# toolchain is kept offline and local.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "bench/run.sh: $PWD is not a checkout of the repository (no go.mod, no internal/): nothing to measure" >&2
	exit 3
fi
export GOCACHE="$PWD/.bench_build/go-cache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p .bench_build
# VCS stamping is off so the build cannot fail on a checkout that is not a
# git repository (or sits inside someone else's); the commit, where there
# is one, reaches the env block through BENCH_COMMIT instead.
if [[ -z "${BENCH_COMMIT:-}" ]] && BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse --short=12 HEAD 2>/dev/null); then
	git diff --quiet HEAD 2>/dev/null || BENCH_COMMIT+="+dirty"
fi
export BENCH_COMMIT="${BENCH_COMMIT:-unknown}"
go build -buildvcs=false -o .bench_build/lsi-bench ./bench
exec .bench_build/lsi-bench "$@"
