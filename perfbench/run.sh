#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload peer-mix --seed 1 --seconds 15 --trace 0
#
# Every build product and run file stays under .bench_build/ in the
# checkout; the Go build cache is kept there too, so the first run
# compiles the standard library and later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go -C perfbench build -o "$out/perfbench" .

# The live group dials a new TCP connection per fetch, so each run fills
# the kernel's TIME_WAIT table; in a shared network namespace one run's
# leftovers (and other programs' traffic) change what the next run's
# connects cost. Where the kernel allows it, each run gets a fresh
# network namespace with its own loopback.
if unshare -n true 2>/dev/null && command -v ip >/dev/null; then
	exec unshare -n sh -c 'ip link set lo up && exec "$@"' sh \
		"$out/perfbench" -workdir "$out" "$@"
fi
exec "$out/perfbench" -workdir "$out" "$@"
