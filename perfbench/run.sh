#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload query-mix --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files and
# the toolchain's own configuration and telemetry) stays under
# .bench_build/ in the checkout, and the build never looks for modules on
# the network: the only module it needs is the checkout itself.
set -euo pipefail

if [[ ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config" "$out/gopath"
(
	cd perfbench
	GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
