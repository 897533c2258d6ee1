package exp

import (
	"errors"
	"fmt"

	"repro/internal/congest"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/mis/base"
	"repro/internal/mis/ftmetivier"
	"repro/internal/rng"
	"repro/internal/stats"
)

// faultScenario is one fault family swept at several intensities. The
// intensity knob means different things per family (drop probability,
// crashed fraction, delay in rounds) — build renders it into a plan.
type faultScenario struct {
	name        string
	intensities []float64
	build       func(n int, x float64) faultsim.Plan
}

// faultScenarios returns the fault sweep of E16 and BENCH_faults.json:
// every faultsim plan kind at escalating intensities, plus a composed
// worst case.
func faultScenarios() []faultScenario {
	return []faultScenario{
		{"drop", []float64{0, 0.02, 0.05, 0.1, 0.2}, func(_ int, p float64) faultsim.Plan {
			if p == 0 {
				return nil
			}
			return faultsim.BernoulliDrop{P: p}
		}},
		{"crash-stop", []float64{1.0 / 32, 1.0 / 16, 1.0 / 8}, func(n int, f float64) faultsim.Plan {
			return faultsim.NewCrashStop(faultsim.SpreadCrashes(n, int(f*float64(n)), 2, 7))
		}},
		{"crash-restart", []float64{1.0 / 16, 1.0 / 8}, func(n int, f float64) faultsim.Plan {
			windows := make(map[int]faultsim.Window)
			for v, r := range faultsim.SpreadCrashes(n, int(f*float64(n)), 2, 7) {
				windows[v] = faultsim.Window{Down: r, Up: r + 9}
			}
			return faultsim.NewCrashRestart(windows)
		}},
		{"partition", []float64{6, 18}, func(n int, w float64) faultsim.Plan {
			side := make([]bool, n)
			for v := range side {
				side[v] = v%2 == 0
			}
			return faultsim.NewPartition(side, 3, 3+int(w))
		}},
		{"delay", []float64{1, 3}, func(_ int, k float64) faultsim.Plan {
			return faultsim.DelayK{K: int(k)}
		}},
		{"composed", []float64{0.05}, func(n int, p float64) faultsim.Plan {
			return faultsim.Compose(
				faultsim.BernoulliDrop{P: p},
				faultsim.NewCrashStop(faultsim.SpreadCrashes(n, n/32, 4, 11)),
			)
		}},
	}
}

// faultSweepN is the fault sweep's graph size at each pinned sizing.
func faultSweepN(size sizing) int { return size.pick(1<<7, 1<<9, 1<<10) }

// E16FaultTolerance runs the BENCH_faults.json sweep at experiment size
// on the config's driver and sinks: the faultsim plan families against
// the fault-tolerant Métivier variant. Rounds and coverage degrade with
// fault intensity, but independence (safety) must hold in every single
// run and every run must terminate within its iteration budget — a
// violation or a stall fails the experiment outright. This is the
// constructive counterpart of A4, which measures how the *plain*
// algorithm breaks.
func E16FaultTolerance(c Config) (*Report, error) {
	opts := c.opts(0xE16, 0)
	bench, err := RunFaultBench(faultSweepN(c.size()), opts.Seed, c.seeds(), opts)
	if err != nil {
		return nil, fmt.Errorf("E16: %w", err)
	}
	for _, e := range bench.Entries {
		if e.Stalled > 0 {
			return nil, fmt.Errorf("E16: %s x=%v: %d run(s) hit MaxRounds; the iteration budget must terminate every run",
				e.Scenario, e.Intensity, e.Stalled)
		}
	}
	if err := checkBars(bench.Bars); err != nil {
		return nil, fmt.Errorf("E16: the conservative join rule is broken: %w", err)
	}
	return &Report{
		ID:    "E16",
		Title: "fault-tolerant MIS: safety holds under every fault plan; liveness (coverage) degrades with intensity",
		Table: bench.Table(),
		Notes: []string{
			"zero independence violations across the whole sweep — positive-evidence joining is safe under loss, crashes and partitions.",
			"coverage < 1 rows show the price: fault-stalled nodes give up undecided at the iteration budget instead of guessing.",
		},
	}, nil
}

// FaultBenchEntry is one (scenario, intensity) point in a fault bench run
// (the BENCH_faults.json schema). Counters are summed over runs; rounds
// and coverage are means.
type FaultBenchEntry struct {
	Scenario   string  `json:"scenario"`
	Intensity  float64 `json:"intensity"`
	Runs       int     `json:"runs"`
	MeanRounds float64 `json:"mean_rounds"`
	// Coverage is the mean fraction of non-crashed vertices that ended
	// decided (in the MIS or dominated); 1 means full liveness.
	Coverage   float64 `json:"coverage"`
	Undecided  int     `json:"undecided"`
	Crashed    int     `json:"crashed"`
	Dropped    int64   `json:"dropped"`
	Delayed    int64   `json:"delayed"`
	Stalled    int     `json:"stalled"`
	Violations int     `json:"violations"`
}

// FaultBenchReport is the seed-pinned fault-tolerance trajectory that
// cmd/bench -artifact BENCH_faults.json writes, so successive changes can
// compare safety (always zero violations) and liveness under identical
// fault plans.
type FaultBenchReport struct {
	Algorithm string            `json:"algorithm"`
	Graph     string            `json:"graph"`
	N         int               `json:"n"`
	Seed      uint64            `json:"seed"`
	Seeds     int               `json:"seeds"`
	Entries   []FaultBenchEntry `json:"entries"`
	// Bars holds the whole sweep to zero independence violations.
	Bars []Bar `json:"bars"`
}

// RunFaultBench sweeps the fault scenarios on one pinned workload:
// fault-tolerant Métivier on UnionOfTrees(n, 2), seeds replications per
// point, every run on opts's driver and sinks under a seed drawn from
// the point's stream and capped at the iteration budget's round count.
// Each output is scored by the faultsim checker. Safety is an invariant
// of the sweep, not a metric: the report's bar holds it to zero
// independence violations (checkBars).
func RunFaultBench(n int, seed uint64, seeds int, opts congest.Options) (*FaultBenchReport, error) {
	if seeds < 1 {
		seeds = 1
	}
	report := &FaultBenchReport{
		Algorithm: "ftmetivier",
		Graph:     "union-of-trees(alpha=2)",
		N:         n,
		Seed:      seed,
		Seeds:     seeds,
	}
	opts.MaxRounds = 3 * ftmetivier.DefaultMaxIters * 2
	violations := 0
	for si, sc := range faultScenarios() {
		for _, x := range sc.intensities {
			entry := FaultBenchEntry{Scenario: sc.name, Intensity: x, Runs: seeds}
			var rounds, coverage stats.Summary
			for i := 0; i < seeds; i++ {
				stream := rng.New(seed).Split(uint64(si)<<16 | uint64(x*1000)).Split(uint64(i))
				g := gen.UnionOfTrees(n, 2, stream)
				plan := sc.build(n, x)
				opts.Seed, opts.Faults = stream.Uint64(), plan
				st, res, err := ftmetivier.Run(g, opts)
				if errors.Is(err, congest.ErrMaxRounds) {
					entry.Stalled++
					continue
				}
				var rep *faultsim.Report
				if err == nil {
					rep, err = faultsim.Check(g, base.MISSet(st), faultsim.CrashedAt(plan, res.Rounds+1, g.N()))
				}
				if err != nil {
					return nil, fmt.Errorf("fault bench: %s x=%v: %w", sc.name, x, err)
				}
				rounds.Add(float64(res.Rounds))
				coverage.Add(rep.Coverage())
				entry.Undecided += rep.Undecided
				entry.Crashed += rep.Crashed
				entry.Violations += len(rep.Violations)
				entry.Dropped += res.Dropped
				entry.Delayed += res.Delayed
			}
			entry.MeanRounds = rounds.Mean()
			entry.Coverage = coverage.Mean()
			violations += entry.Violations
			report.Entries = append(report.Entries, entry)
		}
	}
	report.Bars = faultBar.at(nil, n, "fault sweep", float64(violations))
	return report, nil
}

// Table renders one row per (scenario, intensity) point.
func (r *FaultBenchReport) Table() *stats.Table {
	table := stats.NewTable(fmt.Sprintf("Fault sweep — %s, %s, n=%d, %d seeds", r.Algorithm, r.Graph, r.N, r.Seeds),
		"scenario", "intensity", "rounds", "coverage", "undecided", "crashed", "dropped", "delayed", "stalled", "violations")
	for _, e := range r.Entries {
		table.AddRow(e.Scenario, e.Intensity, e.MeanRounds, e.Coverage, e.Undecided, e.Crashed,
			int(e.Dropped), int(e.Delayed), e.Stalled, e.Violations)
	}
	return table
}
