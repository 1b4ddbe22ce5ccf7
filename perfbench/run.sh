#!/usr/bin/env bash
# Builds the benchmark and the mcserve binary from the source tree this
# script sits in, then runs one benchmark workload. Run it from the root
# of the repository:
#
#   bash perfbench/run.sh --workload build-select --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache, binaries, temporary server
# state, trace dumps) lands under .bench_build/ in the current
# directory. Compile time is not part of any metric.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$here/../go.mod" ]; then
	echo "perfbench: the mincore source tree is missing next to perfbench/" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export TMPDIR="$out/tmp"

go -C "$here" build -o "$out/bin/perfbench" . >&2
go -C "$here/.." build -o "$out/bin/mcserve" ./cmd/mcserve >&2

exec "$out/bin/perfbench" --out "$out" --mcserve "$out/bin/mcserve" "$@"
