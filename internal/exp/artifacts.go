package exp

import (
	"fmt"

	"repro/internal/congest"
	"repro/internal/rng"
	"repro/internal/stats"
)

// suiteExperiment runs the named Métivier suite at the config's size on a
// seed split off the config by label, enforces its bars, and wraps the
// rendered rows in a Report.
func suiteExperiment(c Config, name string, label uint64, id, title string) (*SuiteReport, *Report, error) {
	s, err := metivierSuite(name, c.size())
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

// E21DistributedDriver runs a slice of the distributed-driver suite
// (DESIGN.md S29): fleets of shard worker processes against the
// sequential driver, asserting bit-identical clean and faulted
// fingerprints while recording the transport cost per round. The
// production fleet shapes at n = 2^10 are `make bench-dist`.
func E21DistributedDriver(c Config) (*Report, error) {
	bench, rep, err := suiteExperiment(c, "dist", 0xE21, "E21",
		"distributed multi-process driver: bit-identical with sequential over sockets")
	if err != nil {
		return nil, err
	}
	seq := bench.Rows[0]
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("every fleet reproduced the sequential fingerprints %s clean and %s faulted (plan: %s; enforced: divergence is an error)",
			seq.FingerprintClean, seq.FingerprintFaulted, bench.FaultPlan),
		"speedup divides the sequential row's warm best-of-reps wall time by the fleet's",
		"fault/RNG draws stay on the coordinator in global sender order; workers are pure functions of (config, input sequence)")
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

// ArtifactNames lists the BENCH_<name>.json producers RunArtifact knows.
func ArtifactNames() []string {
	return append([]string{"dynmis", "faults"}, suiteNames...)
}

// RunArtifact runs the BENCH_<name>.json producer at its pinned artifact
// size on seed and checks its bars. It returns the report to write and
// its rendered table; a bar miss returns them along with the error, so
// the artifact records the measured value.
func RunArtifact(name string, seed uint64) (interface{}, *stats.Table, error) {
	switch name {
	case "dynmis":
		r, err := runDynmisBench(sizeArtifact, seed)
		if err != nil {
			return nil, nil, err
		}
		return r, r.Table(), checkBars(r.Bars)
	case "faults":
		r, err := RunFaultBench(faultSweepN(sizeArtifact), seed, 5, congest.Options{})
		if err != nil {
			return nil, nil, err
		}
		return r, r.Table(), checkBars(r.Bars)
	}
	s, err := metivierSuite(name, sizeArtifact)
	if err != nil {
		return nil, nil, err
	}
	r, err := runSuite(s, seed)
	if err != nil {
		return nil, nil, err
	}
	return r, r.Table(), checkBars(r.Bars)
}
