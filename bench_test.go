package repro

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/distrib"
	"repro/internal/exp"
)

// TestMain lets this test binary double as the misnode worker: the E21
// benchmark spawns self-exec fleets, which re-run the binary with the
// worker socket in the environment.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// BenchmarkExperiments runs every experiment in DESIGN.md's index, one
// sub-benchmark per exp.All() entry, at test size (cmd/bench runs the full
// sweeps) and reports the wall cost of regenerating the table. `go test
// -bench=Experiments -benchmem` therefore touches every table and figure
// of EXPERIMENTS.md.
func BenchmarkExperiments(b *testing.B) {
	cfg := exp.QuickConfig()
	for _, d := range exp.All() {
		b.Run(d.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := d.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Table.NumRows() == 0 {
					b.Fatal("empty table")
				}
			}
		})
	}
}

// Micro-benchmarks: single-algorithm runs on a fixed graph, reporting
// CONGEST rounds alongside wall time.

func benchAlgo(b *testing.B, run func(*Graph, Options) ([]bool, Result, error)) {
	b.Helper()
	g := UnionOfTrees(1<<12, 3, 99)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err := run(g, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkAlgoMetivier(b *testing.B) { benchAlgo(b, Metivier) }
func BenchmarkAlgoLubyA(b *testing.B)    { benchAlgo(b, LubyA) }
func BenchmarkAlgoLubyB(b *testing.B)    { benchAlgo(b, LubyB) }
func BenchmarkAlgoGhaffari(b *testing.B) { benchAlgo(b, Ghaffari) }

func BenchmarkAlgoArbMIS(b *testing.B) {
	g := UnionOfTrees(1<<12, 3, 99)
	var rounds int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ComputeMIS(g, 3, Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = out.TotalRounds()
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// benchEngineDriver runs Métivier MIS under one engine driver, reporting
// ns/round so drivers are comparable even if round counts drift with seed.
func benchEngineDriver(b *testing.B, g *Graph, opts Options) {
	b.Helper()
	var rounds int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i)
		_, res, err := Metivier(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds += int64(res.Rounds)
	}
	b.StopTimer()
	if rounds > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rounds), "ns/round")
	}
}

// BenchmarkEngineDrivers compares the in-process execution strategies on
// the same workload at n = 2^11 and 2^14 (BENCH_alloc.json records the
// whole-run trajectory at n = 2^14).
func BenchmarkEngineDrivers(b *testing.B) {
	for _, n := range []int{1 << 11, 1 << 14} {
		g := UnionOfTrees(n, 2, 7)
		b.Run(fmt.Sprintf("n=%d/sequential", n), func(b *testing.B) {
			benchEngineDriver(b, g, Options{Driver: DriverSequential})
		})
		b.Run(fmt.Sprintf("n=%d/pool", n), func(b *testing.B) {
			benchEngineDriver(b, g, Options{Driver: DriverPool})
		})
	}
}
