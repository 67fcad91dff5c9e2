#!/usr/bin/env bash
# Builds the daemon and the benchmark program from this checkout's sources,
# then runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve_jsonl --seed 1 --seconds 25 --trace 0
#
# Run it from the root of the repository. Everything it builds or writes
# stays under .bench_build/ there, including the Go build cache.
set -euo pipefail

root=$PWD
if [ ! -f go.mod ] || [ ! -d cmd/prognosd ]; then
	echo "perfbench: run from the root of the repository (no go.mod or cmd/prognosd here)" >&2
	exit 1
fi
out=$root/.bench_build
mkdir -p "$out/bin" "$out/home" "$out/tmp"
export HOME=$out/home
export XDG_CONFIG_HOME=$out/home/.config
export XDG_CACHE_HOME=$out/home/.cache
export TMPDIR=$out/tmp
export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export CGO_ENABLED=0

go build -o "$out/bin/prognosd" ./cmd/prognosd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -out "$out" "$@"
