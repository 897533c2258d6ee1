# Developer entry points. The repo is plain `go build`-able; these targets
# just name the workflows CI and PRs rely on.

.PHONY: build test vet misvet race cover alloc-gate smoke artifacts-check perfbench-check ci loc bench

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
# to provide — and a whole Métivier run at n = 2^16 (sequential and
# two-worker pool) must allocate at most 448 bytes per vertex, what
# broadcast records and presized outboxes buy. Fast (< 1s); runs in ci.
alloc-gate:
	go test -run '^(TestSteadyStateRound|TestWholeRunAllocBudget)' -count=1 ./internal/congest/

# Benchmark smoke: the performance experiments at test size in one
# compile, through the same producers as the BENCH_*.json artifacts — the
# Métivier suites E17 (tracing modes), E18 (allocation profile), E19
# (sequential + pool at two worker counts) and E21 (sequential + two
# fleets of shard worker processes over unix sockets), each forcing
# counters and clean/faulted fingerprints identical across its cells,
# E20 dynamic MIS (sequential/pool stream-fingerprint equality) and E22
# layouts (within-layout sequential/pool fingerprint equality). Any
# divergence fails the run. Fast (a few seconds); runs in ci. The full
# trajectories are the bench-% targets below.
smoke:
	go run ./cmd/bench -quick -only E17,E18,E19,E20,E21,E22

# Artifact determinism gate: BENCH_faults.json records no timings, so
# regenerating it must reproduce the committed file byte for byte. Fast
# (about a second); runs in ci.
artifacts-check:
	@tmp=$$(mktemp -d) && go run ./cmd/bench -artifact $$tmp/BENCH_faults.json >/dev/null && \
		cmp $$tmp/BENCH_faults.json BENCH_faults.json; status=$$?; rm -rf $$tmp; exit $$status

# Benchmark build check: perfbench/ is its own module (it requires this
# one through a replace directive), so the root `go build ./...` never
# compiles it. Vetting and testing it here catches an engine API change
# that would break the benchmark. Fast (a few seconds); runs in ci.
perfbench-check:
	cd perfbench && go vet ./... && go test ./...

# Full pre-merge gate: build (cmd/traceview included via ./...) + tests,
# repo-wide vet, the misvet analyzer suite, race-detector pass, coverage
# floors, allocation gate, benchmark smoke (E17–E22), artifact
# determinism gate, benchmark build check.
ci: test vet misvet race cover alloc-gate smoke artifacts-check perfbench-check

# Go line counts per package: non-test and test files, then the module
# totals — the figures a PR reports as its net line count. Not part of ci.
loc:
	@printf '%8s %8s  %s\n' non-test test package
	@go list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		src=$$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		tst=$$(find $$dir -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%8d %8d  %s\n' $$src $$tst $$pkg; \
	done | awk '{ print; src += $$1; tst += $$2 } END { printf "%8d %8d  total\n", src, tst }'

# Refresh one seed-pinned artifact: `make bench-<name>` regenerates
# BENCH_<name>.json through `cmd/bench -artifact` at the size pinned in
# internal/exp, and fails if a determinism check or an acceptance bar
# does (the file is still written on a bar miss):
#   - alloc (E18): allocations, bytes and msgs/s per in-process driver
#     at n = 2^14.
#   - trace (E17): tracing off / ring / JSONL on the pool driver at
#     n = 2^14; ring must stay within 15% wall-clock overhead.
#   - scale (E19 / DESIGN.md S27): sequential + pool at workers ∈
#     {1,2,4,8,GOMAXPROCS} over n ∈ {2^18, 2^20, 2^22}, clean and
#     faulted. GOMAXPROCS is raised to the widest pool request; on
#     fewer cores the curve is hardware-bound (num_cpu is recorded).
#   - dist (E21 / S29): sequential + fleets of 1, 2, 4, 8 shard worker
#     processes at n = 2^10, clean and faulted; frame bytes and
#     round-trip latency per round are the recorded transport cost.
#   - layout (E22 / S30): identity / degsort over scrambled union,
#     powerlaw and grid at n ∈ {2^16, 2^18, 2^20}, sequential and pool at
#     4 workers; the best non-identity sequential layout on the densest
#     family at 2^20 must beat identity by ≥ 1.15x.
#   - dynmis (E20 / S28): incremental repair vs full recompute on
#     low-locality streams over tree and union at n ∈ {2^12, 2^14, 2^16};
#     the 2^16 rows must win by ≥ 10x.
#   - faults (E16): the fault sweep at n = 2^10 over 5 seeds; zero
#     independence violations.
# Every suite forces its cells' counters and clean/faulted fingerprints
# identical; dynmis forces sequential/pool stream-fingerprint equality.
bench-%:
	go run ./cmd/bench -artifact BENCH_$*.json

# Engine driver micro-benchmarks (ns/round per driver at n = 2^11, 2^14).
bench:
	go test -run '^$$' -bench BenchmarkEngineDrivers -benchmem .
