# Developer entry points. The repo is plain `go build`-able; these targets
# just name the workflows CI and PRs rely on.

.PHONY: build test vet misvet race cover alloc-gate smoke perfbench-check ci loc bench bench-faults bench-trace bench-alloc bench-scale bench-dynmis bench-dist bench-layout

build:
	go build ./...

test: build
	go test ./...

vet:
	go vet ./...

# Repo-specific static analysis (internal/lint via cmd/misvet): the
# determinism and CONGEST contracts — no wall clocks / math/rand /
# atomics / goroutines / map ranges in deterministic packages, closed
# wire-kind and frame-kind namespaces, encoder bit sizes within
# congest.MaxWireBits, allocation-free //congest:hotpath call chains,
# internal/external vertex-ID separation (idspace), and coordinator-only
# randomness (draworder). Any non-baselined finding fails the build; the
# summary line records the suite's wall time so analyzer cost
# regressions show up in CI logs. See README "Static analysis" for the
# escape hatches.
misvet:
	go run ./cmd/misvet ./...

# Engine safety net: vet plus race-detector coverage of the concurrent
# code — the CONGEST drivers (sharded worker pool with its parallel merge
# and rebalancer, distributed coordinator) and the multi-process fleet
# transport (frame codec, worker protocol, crash recovery).
race:
	go vet ./internal/congest/... ./internal/distrib/... && go test -race ./internal/congest/... ./internal/distrib/...

# Coverage gates: the engine, the fault-injection subsystem, and the
# execution-trace subsystem are the load-bearing packages; their statement
# coverage must stay at or above the threshold. The analyzer suite holds a
# higher bar — its fixture tests are the only thing standing between an
# analyzer regression and silently-unguarded determinism contracts.
COVER_PKGS        = repro/internal/faultsim repro/internal/congest repro/internal/trace
COVER_MIN         = 60.0
LINT_COVER_MIN    = 80.0
DYNMIS_COVER_MIN  = 80.0
DISTRIB_COVER_MIN = 80.0
LAYOUT_COVER_MIN  = 80.0

COVER_AWK = { print } \
	/coverage:/ { \
		for (i = 1; i <= NF; i++) if ($$i == "coverage:") { pct = $$(i+1); sub(/%/, "", pct); \
			if (pct + 0 < min) { printf "FAIL: %s coverage %s%% below %s%%\n", $$2, pct, min; bad = 1 } } \
	} \
	END { exit bad }

cover:
	@go test -cover $(COVER_PKGS) | awk -v min=$(COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/lint | awk -v min=$(LINT_COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/dynmis | awk -v min=$(DYNMIS_COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/distrib | awk -v min=$(DISTRIB_COVER_MIN) '$(COVER_AWK)'
	@go test -cover repro/internal/layout | awk -v min=$(LAYOUT_COVER_MIN) '$(COVER_AWK)'

# Allocation gate: a steady-state sequential round (n = 1024 ring,
# every node broadcasting) must perform zero heap allocations — the
# invariant the value-typed wire payloads and the flat inbox arena exist
# to provide. Fast (< 1s); runs in ci.
alloc-gate:
	go test -run '^TestSteadyStateRound' -count=1 ./internal/congest/

# Benchmark smoke: the performance experiments at test size in one
# compile — E17 tracing modes and E18 allocation profile (counters and
# fingerprints agree across modes/drivers), E19 scaling (sequential + pool
# at two worker counts, clean and faulted fingerprints forced identical),
# E20 dynamic MIS (sequential/pool stream-fingerprint equality), E21
# distributed driver (shard worker processes over unix sockets reproduce
# the sequential fingerprint, clean and faulted) and E22 layouts
# (within-layout sequential/pool fingerprint equality). Any divergence
# fails the run. Fast (a few seconds); runs in ci. The full trajectories
# are the bench-* targets below.
smoke:
	go run ./cmd/bench -quick -only E17,E18,E19,E20,E21,E22

# Benchmark build check: perfbench/ is its own module (it requires this
# one through a replace directive), so the root `go build ./...` never
# compiles it. Vetting and testing it here catches an engine API change
# that would break the benchmark. Fast (a few seconds); runs in ci.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

# Full pre-merge gate: build (cmd/traceview included via ./...) + tests,
# repo-wide vet, the misvet analyzer suite, race-detector pass, coverage
# floors, allocation gate, benchmark smoke (E17–E22), benchmark build
# check.
ci: test vet misvet race cover alloc-gate smoke perfbench-check

# Go line counts per package: non-test and test files, then the module
# totals — the figures a PR reports as its net line count. Not part of ci.
loc:
	@printf '%8s %8s  %s\n' non-test test package
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		src=$$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		tst=$$(find $$dir -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%8d %8d  %s\n' $$src $$tst $$pkg; \
	done | awk '{ print; src += $$1; tst += $$2 } END { printf "%8d %8d  total\n", src, tst }'

# Refresh the seed-pinned fault-tolerance sweep (safety must hold at every
# fault intensity; rounds and coverage are the recorded trajectory).
bench-faults:
	go run ./cmd/bench -faults BENCH_faults.json

# Refresh the seed-pinned tracing-overhead trajectory (E17: off / ring /
# JSONL are the recorded modes; the ring recorder must stay within 15%
# wall-clock overhead at n = 2^14 on the pool driver or the run fails).
bench-trace:
	go run ./cmd/bench -trace-bench BENCH_trace.json

# Refresh the seed-pinned allocation trajectory (E18: allocations and
# bytes per run, allocations per message, messages/sec per driver at
# n = 2^14).
bench-alloc:
	go run ./cmd/bench -alloc-bench BENCH_alloc.json

# Refresh the seed-pinned cores × n scaling trajectory (E19 / DESIGN.md
# S27: sequential + pool at workers ∈ {1,2,4,8,GOMAXPROCS} across
# n ∈ {2^18, 2^20, 2^22}, every cell's clean and faulted fingerprints
# forced bit-identical). GOMAXPROCS is raised to the widest request for
# the run; on fewer physical cores the wall-clock curve is hardware-bound
# and the artifact records num_cpu so the bound is visible.
bench-scale:
	go run ./cmd/bench -scale-bench BENCH_scale.json

# Refresh the seed-pinned dynamic-MIS trajectory (E20 / DESIGN.md S28:
# incremental-repair vs full-recompute throughput and the repaired-region
# size distribution on low-locality streams over tree and union-of-trees
# at n ∈ {2^12, 2^14, 2^16}). The n = 2^16 rows must beat full
# recomputation by ≥ 10x or the run fails; the sequential and pool
# drivers must agree on every stream fingerprint.
bench-dynmis:
	go run ./cmd/bench -dynmis-bench BENCH_dynmis.json

# Refresh the seed-pinned distributed-driver trajectory (E21: fleet shapes
# shards ∈ {1,2,4,8} at n = 2^10, each a set of worker OS processes over
# unix sockets; every shape must reproduce the sequential run's
# deterministic fingerprint bit-for-bit, clean and faulted, or the run
# fails; frame bytes and round-trip latency per round are the recorded
# transport cost).
bench-dist:
	go run ./cmd/bench -dist-bench BENCH_dist.json

# Refresh the seed-pinned layout-locality trajectory (E22 / DESIGN.md S30:
# identity vs degsort vs bfs over scrambled union / powerlaw / grid at
# n ∈ {2^16, 2^18, 2^20}, timed on the sequential driver and the pool at
# 4 workers; within every layout the sequential and pool fingerprints are
# forced identical, and the best non-identity sequential layout on the
# densest family at the largest n must beat identity by ≥ 1.15x or the
# run fails).
bench-layout:
	go run ./cmd/bench -layout-bench BENCH_layout.json

# Engine driver micro-benchmarks (ns/round per driver at n = 2^11, 2^14).
bench:
	go test -run '^$$' -bench BenchmarkEngineDrivers -benchmem .
