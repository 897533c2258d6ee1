package exp

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/gen"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/stats"
)

// AllocBenchEntry is one driver's allocation and throughput measurement in
// an E18 run (the BENCH_alloc.json schema).
type AllocBenchEntry struct {
	// Driver names the execution strategy (congest.DriverKind.String).
	Driver string `json:"driver"`
	// Workers is the pool shard count (0 for non-pool drivers).
	Workers int `json:"workers,omitempty"`
	// WallNS is the best-of-reps wall time for one full run.
	WallNS int64 `json:"wall_ns"`
	// Rounds and Messages are the run's CONGEST counters (identical across
	// drivers by the determinism guarantee).
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	// AllocsPerRun and BytesPerRun are the smallest heap-allocation count
	// and allocated-byte total observed for one full run across the reps
	// (runtime.MemStats Mallocs / TotalAlloc deltas; the minimum filters
	// background noise the same way best-of wall time does).
	AllocsPerRun uint64 `json:"allocs_per_run"`
	BytesPerRun  uint64 `json:"bytes_per_run"`
	// AllocsPerMessage normalizes AllocsPerRun by delivered messages — the
	// headline number the zero-alloc message path drives toward 0.
	AllocsPerMessage float64 `json:"allocs_per_message"`
	// MessagesPerSec derives from WallNS.
	MessagesPerSec float64 `json:"messages_per_sec"`
}

// AllocBenchReport is the allocation-trajectory artifact cmd/bench
// -alloc-bench writes to BENCH_alloc.json. Baseline fields carry the
// sequential throughput recorded by an earlier PR's BENCH_congest.json so
// the speedup of the value-typed message path is part of the artifact.
type AllocBenchReport struct {
	Algorithm  string            `json:"algorithm"`
	Graph      string            `json:"graph"`
	N          int               `json:"n"`
	Seed       uint64            `json:"seed"`
	Reps       int               `json:"reps"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Drivers    []AllocBenchEntry `json:"drivers"`
	// BaselineMessagesPerSec is the sequential-driver throughput from the
	// pre-refactor BENCH_congest.json (0 when no baseline was supplied).
	BaselineMessagesPerSec float64 `json:"baseline_messages_per_sec,omitempty"`
	// SequentialSpeedup is this run's sequential throughput over the
	// baseline (0 when no baseline was supplied).
	SequentialSpeedup float64 `json:"sequential_speedup,omitempty"`
}

// RunAllocBench measures the in-process drivers' allocation profile on the
// same pinned workload as RunEngineBench — Métivier MIS on
// UnionOfTrees(n, 2) at the given seed — so BENCH_alloc.json is directly
// comparable to BENCH_congest.json. Per driver it records best-of-reps
// wall time plus minimum heap allocations and bytes for one full run.
// baselineMsgsPerSec, when positive, is the pre-refactor sequential
// throughput to compute the speedup against. The run counters must agree
// across drivers; a mismatch is an error, so the benchmark doubles as a
// determinism check.
func RunAllocBench(n int, seed uint64, reps int, baselineMsgsPerSec float64) (*AllocBenchReport, error) {
	if reps < 1 {
		reps = 1
	}
	g := gen.UnionOfTrees(n, 2, rng.New(seed))
	report := &AllocBenchReport{
		Algorithm:              "metivier",
		Graph:                  "union-of-trees(alpha=2)",
		N:                      n,
		Seed:                   seed,
		Reps:                   reps,
		GoMaxProcs:             runtime.GOMAXPROCS(0),
		BaselineMessagesPerSec: baselineMsgsPerSec,
	}
	var ref *congest.Result
	var ms runtime.MemStats
	for _, kind := range []congest.DriverKind{congest.DriverSequential, congest.DriverPool} {
		entry := AllocBenchEntry{Driver: kind.String()}
		if kind == congest.DriverPool {
			entry.Workers = congest.Options{}.WorkerCount(n)
		}
		var best time.Duration
		for rep := 0; rep < reps; rep++ {
			opts := congest.Options{Seed: seed, Driver: kind}
			// Settle the heap so the MemStats delta is the run's own work,
			// not a GC cycle that happened to land inside it.
			runtime.GC()
			runtime.ReadMemStats(&ms)
			mallocs, bytes := ms.Mallocs, ms.TotalAlloc
			start := time.Now()
			_, res, err := metivier.Run(g, opts)
			wall := time.Since(start)
			runtime.ReadMemStats(&ms)
			if err != nil {
				return nil, fmt.Errorf("alloc bench: %s: %w", kind, err)
			}
			if ref == nil {
				r := res
				ref = &r
			} else if res != *ref {
				return nil, fmt.Errorf("alloc bench: %s diverged: %+v != %+v", kind, res, *ref)
			}
			allocs, alloced := ms.Mallocs-mallocs, ms.TotalAlloc-bytes
			if rep == 0 || wall < best {
				best = wall
			}
			if rep == 0 || allocs < entry.AllocsPerRun {
				entry.AllocsPerRun = allocs
			}
			if rep == 0 || alloced < entry.BytesPerRun {
				entry.BytesPerRun = alloced
			}
			entry.Rounds, entry.Messages = res.Rounds, res.Messages
		}
		entry.WallNS = int64(best)
		if entry.Messages > 0 {
			entry.AllocsPerMessage = float64(entry.AllocsPerRun) / float64(entry.Messages)
		}
		if secs := best.Seconds(); secs > 0 {
			entry.MessagesPerSec = float64(entry.Messages) / secs
		}
		if kind == congest.DriverSequential && baselineMsgsPerSec > 0 {
			report.SequentialSpeedup = entry.MessagesPerSec / baselineMsgsPerSec
		}
		report.Drivers = append(report.Drivers, entry)
	}
	return report, nil
}

// E18AllocProfile measures the allocation profile of the zero-allocation
// message path (DESIGN.md S25): allocations and bytes per full run,
// allocations per delivered message, and throughput, per driver, on the
// same pinned workload as the engine benchmark. The acceptance shape is a
// per-message allocation rate far below 1 (steady-state rounds allocate
// nothing — the residual is run setup) on the sequential and pool drivers;
// the quick configuration shrinks n but checks the same shape.
func E18AllocProfile(c Config) (*Report, error) {
	n := 1 << 14
	reps := 5
	if c.Quick {
		n = 1 << 9
		reps = 1
	}
	seed := rng.New(c.Seed).Split(0xE18).Uint64()
	bench, err := RunAllocBench(n, seed, reps, 0)
	if err != nil {
		return nil, err
	}
	table := stats.NewTable(fmt.Sprintf("Allocation profile — metivier, n=%d, best of %d", n, reps),
		"driver", "wall ms", "msgs/s", "allocs/run", "KB/run", "allocs/msg")
	for _, d := range bench.Drivers {
		table.AddRow(d.Driver, float64(d.WallNS)/1e6, d.MessagesPerSec,
			int(d.AllocsPerRun), float64(d.BytesPerRun)/1024, d.AllocsPerMessage)
	}
	rep := &Report{
		ID:    "E18",
		Title: "the value-typed message path allocates nothing per steady-state round",
		Table: table,
	}
	seq := bench.Drivers[0]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"sequential: %.3f allocs per delivered message (%d allocs over %d messages — run setup, not rounds; the AllocsPerRun CI gate pins steady-state rounds at 0)",
		seq.AllocsPerMessage, seq.AllocsPerRun, seq.Messages))
	return rep, nil
}
