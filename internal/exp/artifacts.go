package exp

import (
	"fmt"

	"repro/internal/dynmis"
	"repro/internal/rng"
	"repro/internal/stats"
)

// suiteExperiment runs the named Métivier suite at the config's size on a
// seed split off the config by label, enforces its bars, and wraps the
// rendered rows in a Report.
func suiteExperiment(c Config, name string, label uint64, id, title string) (*SuiteReport, *Report, error) {
	size := sizeExperiment
	if c.Quick {
		size = sizeQuick
	}
	s, err := metivierSuite(name, size)
	if err != nil {
		return nil, nil, err
	}
	bench, err := runSuite(s, rng.New(c.Seed).Split(label).Uint64())
	if err != nil {
		return nil, nil, err
	}
	if err := checkBars(bench.Bars); err != nil {
		return nil, nil, err
	}
	return bench, &Report{ID: id, Title: title, Table: bench.Table()}, nil
}

// E17TraceOverhead measures the cost of the execution-trace subsystem
// (DESIGN.md S24): the same pinned workload with tracing off, with the
// in-memory ring recorder, and with JSONL streaming. The budget — ring
// ≤ 15% wall-clock overhead at n = 2^14 on the pool driver — is enforced
// by the full-size run; the quick slice shrinks n and records it.
func E17TraceOverhead(c Config) (*Report, error) {
	bench, rep, err := suiteExperiment(c, "trace", 0xE17, "E17",
		"execution tracing is cheap: ring recording within its 15% overhead budget")
	if err != nil {
		return nil, err
	}
	ring, jsonl := bench.Rows[1], bench.Rows[2]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"ring overhead %.1f%% (budget 15%%, enforced at n ≥ 2^14), jsonl %.1f%%; %d events, fingerprint %s identical across tracing modes",
		overheadPct(ring), overheadPct(jsonl), ring.Events, ring.FingerprintClean))
	return rep, nil
}

// E18AllocProfile measures the allocation profile of the zero-allocation
// message path (DESIGN.md S25): allocations and bytes per full run,
// allocations per delivered message, and throughput, per driver. The
// acceptance shape is a per-message allocation rate far below 1
// (steady-state rounds allocate nothing — the residual is run setup).
func E18AllocProfile(c Config) (*Report, error) {
	bench, rep, err := suiteExperiment(c, "alloc", 0xE18, "E18",
		"the value-typed message path allocates nothing per steady-state round")
	if err != nil {
		return nil, err
	}
	seq := bench.Rows[0]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"sequential: %.3f allocs per delivered message (%d allocs over %d messages — run setup, not rounds; the AllocsPerRun CI gate pins steady-state rounds at 0)",
		column(seq, "allocs/msg"), seq.AllocsPerRun, seq.Messages))
	return rep, nil
}

// E19MulticoreScaling runs a slice of the cores × n scaling matrix
// (DESIGN.md S27): the sequential driver plus the pool at several worker
// counts, asserting bit-identical clean and faulted fingerprints across
// every cell while recording the wall-clock curve. The production
// trajectory (n up to 2^22) is `make bench-scale`.
func E19MulticoreScaling(c Config) (*Report, error) {
	bench, rep, err := suiteExperiment(c, "scale", 0xE19, "E19",
		"the pool driver scales with cores while every worker count fingerprints identically")
	if err != nil {
		return nil, err
	}
	first := bench.Rows[0]
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"all %d cells agree on clean fingerprint %s and faulted fingerprint %s (enforced: divergence is an error)",
		len(bench.Rows), first.FingerprintClean, first.FingerprintFaulted))
	if bench.NumCPU < bench.GoMaxProcs {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"hardware bound: %d physical CPU(s) beneath GOMAXPROCS=%d — wall-clock speedup is capped by cores, not workers; determinism is what this cell matrix certifies",
			bench.NumCPU, bench.GoMaxProcs))
	}
	return rep, nil
}

// E22LayoutLocality runs a slice of the layout × family matrix
// (DESIGN.md S30): every ordering over every scrambled family, asserting
// within-layout sequential/pool bit-identity while recording the
// locality speedups. The production matrix (n up to 2^20, where the
// ≥ 1.15x bar applies) is `make bench-layout`.
func E22LayoutLocality(c Config) (*Report, error) {
	bench, rep, err := suiteExperiment(c, "layout", 0xE22, "E22",
		"vertex relabeling recovers the locality scrambled labels destroy, bit-identically")
	if err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes,
		"inputs are label-scrambled first: generators emit natural orderings real inputs lack, so identity here is the layout an arbitrary input arrives with")
	for _, r := range bench.Rows {
		if r.Layout == "identity" && r.Driver == "sequential" {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"%s n=%d: every layout's pool run reproduced its sequential fingerprint (identity %s)",
				r.Family, r.N, r.FingerprintClean))
		}
	}
	return rep, nil
}

// RunArtifact runs the BENCH_<name>.json producer at its pinned artifact
// sizes and checks its bars. It returns the report to write and its
// rendered table; a bar miss returns them along with the error, so the
// artifact records the measured value. seeds (0 = 5) is the fault
// sweep's replication count.
func RunArtifact(name string, seed uint64, seeds int) (interface{}, *stats.Table, error) {
	var (
		report interface{}
		table  *stats.Table
		bars   []Bar
	)
	switch name {
	case "dynmis":
		var cases []DynmisBenchCase
		for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
			cases = append(cases, DynmisBenchCase{Family: "tree", N: n, Batches: 64},
				DynmisBenchCase{Family: "union", N: n, Batches: 64})
		}
		cfg := dynmis.StreamConfig{BatchSize: 16, Locality: 0, Churn: 0.05}
		r, err := RunDynmisBench(cases, cfg, seed)
		if err != nil {
			return nil, nil, err
		}
		report, table, bars = r, r.Table(), r.Bars
	case "dist":
		r, err := RunDistBench(1<<10, []int{1, 2, 4, 8}, seed, 3)
		if err != nil {
			return nil, nil, err
		}
		report, table = r, r.Table()
	case "faults":
		if seeds < 1 {
			seeds = 5
		}
		r, err := RunFaultBench(1<<10, seed, seeds)
		if err != nil {
			return nil, nil, err
		}
		report, table, bars = r, r.Table(), r.Bars
	default:
		s, err := metivierSuite(name, sizeArtifact)
		if err != nil {
			return nil, nil, err
		}
		r, err := runSuite(s, seed)
		if err != nil {
			return nil, nil, err
		}
		report, table, bars = r, r.Table(), r.Bars
	}
	return report, table, checkBars(bars)
}
