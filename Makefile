# Convenience targets for the ctcomm reproduction.

GO ?= go
J ?= 4
CIOUT ?= ci-out

.PHONY: all build test test-short bench bench-hotpath bench-serve sweep-bench bench-record bench-gate experiments fuzz fuzz-smoke gofmt-check race serve-smoke router-smoke load-test ci clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

test-short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench . -benchmem ./...

# The memsim streaming hot path must stay allocation-free: the
# steady-state RunStream benchmarks report 0 allocs/op (also asserted
# by TestRunStreamAllocFree).
bench-hotpath:
	$(GO) test -bench 'BenchmarkRunStream|BenchmarkEngineWrite' -benchmem ./internal/memsim/

# Serve-stack benchmarks: steady-state (cache-hot) mixed workload and
# the cold (parse + evaluate) path, through the full HTTP handler stack.
bench-serve:
	$(GO) test -bench 'BenchmarkServe' -benchmem ./internal/serve/

# Batched-sweep benchmarks: the analytic batch path vs the
# engine-per-cell reference in internal/sweep, plus the /v1/sweep NDJSON
# handler (warm and cold) in internal/serve. The trajectory JSON is
# bench-record's job.
sweep-bench:
	$(GO) test -bench 'BenchmarkSweep$$|BenchmarkSweepEngine$$' -benchmem -run '^$$' ./internal/sweep/
	$(GO) test -bench 'BenchmarkSweep' -benchmem ./internal/serve/

# Append a fresh trajectory entry per benchmark (median, min and max
# of 3 samples) to the checked-in BENCH_*.json files (commit the
# result). The benchmarks and files are the table in cmd/benchtrack.
bench-record:
	$(GO) run ./cmd/benchtrack record

# Fail if a gated benchmark regressed past its threshold against the
# latest checked-in entry (the gate table in cmd/benchtrack; override:
# ALLOW_BENCH_REGRESSION=1, mirroring the CI bench-regression-ok PR
# label).
bench-gate:
	$(GO) run ./cmd/benchtrack gate

experiments:
	$(GO) run ./cmd/experiments -check -j $(J)

# End-to-end smoke test of the ctserved HTTP service over a real
# socket: healthz, eval twice (cache hit), metrics, SIGTERM, clean
# drain. Mirrors the CI serve-smoke job.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke test of the sharded tier over real sockets: two
# persisted ctserved replicas behind ctrouter, shard-stable cache hits,
# replica-kill failover, a warm cold-restart, and a law sweep whose laws
# are fitted on one replica only. Mirrors the CI router-smoke job.
router-smoke:
	sh scripts/router_smoke.sh

# Scale-out acceptance: 1 vs 4 replicas behind the router in-process,
# mixed eval/sweep workload, then a cold restart replayed against the
# persisted caches. Prints machine-readable JSON; fails unless
# throughput scales >=3x and >=90% of restart answers come back warm.
load-test:
	$(GO) run ./cmd/ctloadtest

# Every fuzz target, one after another; scripts/fuzz.sh holds the list.
fuzz:
	GO=$(GO) sh scripts/fuzz.sh 30s

fuzz-smoke:
	GO=$(GO) sh scripts/fuzz.sh 10s

gofmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi

race:
	$(GO) test -race ./...
	$(GO) test -race -count=5 -run 'TestSimulatorPoolConcurrent$$' ./internal/machine/

# ci mirrors .github/workflows/ci.yml locally: build/vet/test, gofmt,
# race, the parallel experiment shape gate (metrics archived under
# $(CIOUT)/), the fast-forward differential gate (stdout must be
# byte-identical with and without -no-fast-forward), the fuzz smoke
# pass, the one-iteration bench sweep, and the benchmark regression
# gate against the checked-in BENCH_*.json baselines.
ci: build gofmt-check test race serve-smoke router-smoke
	mkdir -p $(CIOUT)
	$(GO) run ./cmd/experiments -quick -check -j $(J) -stats $(CIOUT)/experiments-stats.json
	$(GO) run ./cmd/experiments -quick -check -only tab1,tab2,tab3,fig4 -j $(J) > $(CIOUT)/ff-on.txt 2>/dev/null
	$(GO) run ./cmd/experiments -quick -check -only tab1,tab2,tab3,fig4 -j $(J) -no-fast-forward > $(CIOUT)/ff-off.txt 2>/dev/null
	cmp $(CIOUT)/ff-on.txt $(CIOUT)/ff-off.txt
	$(MAKE) fuzz-smoke
	$(GO) test -bench . -benchtime 1x -benchmem ./... | tee $(CIOUT)/bench.txt
	$(MAKE) bench-gate

clean:
	$(GO) clean -testcache
	rm -rf $(CIOUT)
