#!/bin/sh
# bench_record.sh — record the benchmark trajectory.
#
# Runs the sweep, memsim hot-path, serve-stack, calibration-fit, and
# collective-planner benchmarks and normalizes the `go test -bench`
# output into BENCH_sweep.json, BENCH_hotpath.json, BENCH_serve.json,
# BENCH_fit.json and BENCH_collective.json:
# one JSON object per benchmark per recording, carrying name, ns/op,
# rows/sec (where the benchmark reports it), B/op, allocs/op, the
# current commit and the UTC date. Entries APPEND — the files are the
# repo's checked-in performance trajectory, one entry per recorded
# commit, and CI's bench-gate compares fresh runs against the latest
# BenchmarkSweep entry (scripts/bench_gate.sh).
#
# Usage:
#   sh scripts/bench_record.sh            # append to ./BENCH_*.json (then commit them)
#   BENCH_DIR=out sh scripts/bench_record.sh   # write/append under out/ instead
#
# Environment: GO (go binary, default "go"), BENCH_DIR (output
# directory, default repo root), BENCHTIME (per-benchmark -benchtime,
# default "1s").
set -eu

cd "$(dirname "$0")/.."
GO="${GO:-go}"
BENCH_DIR="${BENCH_DIR:-.}"
BENCHTIME="${BENCHTIME:-1s}"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
DATE="$(date -u +%Y-%m-%d)"
mkdir -p "$BENCH_DIR"

# normalize <raw bench output> -> one compact JSON object per line.
normalize() {
	awk -v commit="$COMMIT" -v date="$DATE" '
	$1 ~ /^Benchmark/ && / ns\/op/ {
		name = $1; sub(/-[0-9]+$/, "", name)
		iters = $2
		ns = ""; rows = ""; bytes = ""; allocs = ""
		for (i = 3; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			if ($(i + 1) == "rows/sec") rows = $i
			if ($(i + 1) == "B/op") bytes = $i
			if ($(i + 1) == "allocs/op") allocs = $i
		}
		line = sprintf("{\"name\":\"%s\",\"date\":\"%s\",\"commit\":\"%s\",\"iterations\":%s", \
			name, date, commit, iters)
		if (ns != "")     line = line sprintf(",\"ns_per_op\":%s", ns)
		if (rows != "")   line = line sprintf(",\"rows_per_sec\":%s", rows)
		if (bytes != "")  line = line sprintf(",\"bytes_per_op\":%s", bytes)
		if (allocs != "") line = line sprintf(",\"allocs_per_op\":%s", allocs)
		print line "}"
	}'
}

# record <out.json> — append the normalized entries on stdin to the
# JSON array in out.json, keeping one object per line so the gate can
# read the file with grep.
record() {
	out="$1"
	new="$(normalize)"
	if [ -z "$new" ]; then
		echo "bench_record: no benchmark lines to record for $out" >&2
		exit 1
	fi
	old=""
	if [ -f "$out" ]; then
		# Strip each kept line's separator comma; the join below adds
		# exactly one back.
		old="$(grep '^{' "$out" | sed 's/,*$//' || true)"
	fi
	{
		printf '[\n'
		printf '%s\n' "$old" "$new" | sed '/^$/d' | sed '$!s/$/,/'
		printf ']\n'
	} > "$out.tmp"
	mv "$out.tmp" "$out"
	echo "recorded -> $out"
}

echo "== sweep benchmarks (batch vs engine-per-cell) =="
"$GO" test -bench 'BenchmarkSweep$|BenchmarkSweepEngine$' -benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/sweep/ \
	| tee /dev/stderr | record "$BENCH_DIR/BENCH_sweep.json"

echo "== memsim hot-path benchmarks =="
"$GO" test -bench 'BenchmarkRunStream$|BenchmarkEngineWrite$' \
	-benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/memsim/ \
	| tee /dev/stderr | record "$BENCH_DIR/BENCH_hotpath.json"

echo "== serve-stack benchmarks (handler + router gateway) =="
{
	"$GO" test -bench 'BenchmarkServeMixed$' -benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/serve/
	"$GO" test -bench 'BenchmarkRouterMixed$' -benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/router/
} | tee /dev/stderr | record "$BENCH_DIR/BENCH_serve.json"

echo "== calibration-fit benchmark (hierarchical least-squares fit) =="
"$GO" test -bench 'BenchmarkFit$' -benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/calibrate/ \
	| tee /dev/stderr | record "$BENCH_DIR/BENCH_fit.json"

echo "== collective benchmarks (planner + words-law sweep vs engine-per-cell) =="
{
	"$GO" test -bench 'BenchmarkCollectivePlan$' -benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/collective/
	"$GO" test -bench 'BenchmarkCollectiveSweep$|BenchmarkCollectiveSweepEngine$' -benchtime "$BENCHTIME" -benchmem -run '^$' ./internal/sweep/
} | tee /dev/stderr | record "$BENCH_DIR/BENCH_collective.json"
