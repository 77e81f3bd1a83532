#!/usr/bin/env bash
# Builds tcsb-experiments, tcsb-server and the benchmark from the source
# tree in the current directory, which must be the repository root, and
# runs the benchmark with the given arguments:
#
#   bash bench/run.sh --workload paper --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tcsb-experiments || ! -d cmd/tcsb-server || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run it from the root of a tcsb source tree" >&2
	exit 2
fi

out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$out/bin"

go build -o "$out/bin/" ./cmd/tcsb-experiments ./cmd/tcsb-server
(cd bench && go build -o "$out/bin/tcsb-bench" .)
exec "$out/bin/tcsb-bench" -bin "$out/bin" -work "$out/work" "$@"
