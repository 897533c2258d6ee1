// Command bench regenerates every experiment table in EXPERIMENTS.md.
//
// Usage:
//
//	bench [-quick] [-seeds N] [-seed S] [-only E1,E4,A2] [-parallel] [-workers W] [-format csv]
//	bench [-trace run.jsonl] [-trace-format jsonl|chrome] ...
//	bench -engine-bench BENCH_congest.json [-engine-n N] [-seed S]
//	bench -faults BENCH_faults.json [-faults-n N] [-seeds K] [-seed S]
//	bench -trace-bench BENCH_trace.json [-trace-n N] [-seed S]
//	bench -alloc-bench BENCH_alloc.json [-alloc-n N] [-alloc-baseline BENCH_congest.json] [-seed S]
//	bench -dynmis-bench BENCH_dynmis.json [-dynmis-ns 4096,65536] [-dynmis-batches B] [-seed S]
//	bench -dist-bench BENCH_dist.json [-dist-n N] [-dist-shards 1,2,4,8] [-dist-reps R] [-seed S]
//	bench [-cpuprofile cpu.pprof] [-memprofile mem.pprof] ...
//
// Each experiment prints its table and notes; the process exits non-zero if
// any driver fails. With -parallel the runs use the sharded worker-pool
// engine and a driver-efficiency summary (per-shard busy time, merge time,
// parallel efficiency) is printed at the end. With -trace every engine run
// the selected experiments spawn streams its execution-trace events to one
// file — JSONL (replayable with cmd/traceview) or the Chrome trace-event
// format (loadable in chrome://tracing).
//
// -engine-bench measures the in-process engine drivers (sequential, worker
// pool) on a seed-pinned workload and writes the rounds/sec and
// messages/sec trajectory as JSON, so perf changes are visible across PRs.
//
// -faults sweeps the E16 fault scenarios (drops, crashes, partitions)
// against the fault-tolerant MIS on a seed-pinned workload and writes the
// rounds/coverage trajectory as JSON; the run fails if any fault plan
// produces an independence violation.
//
// -trace-bench measures the execution-tracing overhead (off / ring / JSONL)
// on a seed-pinned workload and writes BENCH_trace.json, the E17 budget
// check (ring ≤ 15% at n = 2^14 on the pool driver).
//
// -alloc-bench measures each in-process driver's heap-allocation profile
// (allocations and bytes per run, allocations per message) plus throughput
// on the same seed-pinned workload as -engine-bench, and writes
// BENCH_alloc.json, the E18 zero-allocation message-path check.
// -alloc-baseline points at an earlier BENCH_congest.json whose sequential
// messages/sec becomes the embedded speedup baseline.
//
// -dynmis-bench replays generated update streams through the dynamic-MIS
// engine (internal/dynmis) on the tree and union-of-trees families,
// measuring incremental-repair throughput against the full-recompute
// baseline and the repaired-region size distribution, and writes
// BENCH_dynmis.json. Rows at n >= 2^16 must beat full recomputation by
// -dynmis-min-speedup (default 10x) or the run fails; the sequential and
// pool drivers must agree on every stream fingerprint (always enforced).
//
// -dist-bench measures the distributed multi-process driver (shard workers
// in separate OS processes over unix sockets) across fleet shapes on a
// seed-pinned workload and writes BENCH_dist.json. Every fleet shape must
// reproduce the sequential run's deterministic fingerprint bit-for-bit —
// clean and under a pinned fault plan — or the run fails; the report
// records frame bytes and round-trip latency per round.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever work
// the invocation did (experiments or one of the bench modes); inspect them
// with `go tool pprof`. The memory profile is written at exit with an
// up-to-date heap picture (runtime.GC precedes the write).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/dynmis"
	"repro/internal/exp"
	"repro/internal/trace"
)

func main() {
	// Self-exec hook first: -dist-bench and E21 spawn ExecFleet workers by
	// re-running this binary, which must never reach flag parsing.
	distrib.MaybeWorker()
	os.Exit(run())
}

func run() int {
	quick := flag.Bool("quick", false, "use test-sized sweeps")
	seeds := flag.Int("seeds", 0, "replications per point (0 = config default)")
	seed := flag.Uint64("seed", 1, "root seed")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	parallel := flag.Bool("parallel", false, "use the sharded worker-pool engine")
	workers := flag.Int("workers", 0, "worker-pool shard count (0 = GOMAXPROCS)")
	format := flag.String("format", "table", "output format: table|csv")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	engineBench := flag.String("engine-bench", "", "write engine driver throughput JSON to this file and exit")
	engineN := flag.Int("engine-n", 1<<14, "graph size for -engine-bench")
	engineReps := flag.Int("engine-reps", 3, "runs per driver for -engine-bench (best wall time wins)")
	faults := flag.String("faults", "", "write fault-tolerance sweep JSON to this file and exit")
	faultsN := flag.Int("faults-n", 1<<10, "graph size for -faults")
	tracePath := flag.String("trace", "", "stream every run's execution-trace events to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl|chrome")
	traceBench := flag.String("trace-bench", "", "write tracing-overhead JSON to this file and exit")
	traceN := flag.Int("trace-n", 1<<14, "graph size for -trace-bench")
	traceReps := flag.Int("trace-reps", 5, "runs per mode for -trace-bench (best wall time wins)")
	scaleBench := flag.String("scale-bench", "", "write cores × n scaling JSON to this file and exit")
	scaleNS := flag.String("scale-ns", "262144,1048576,4194304", "comma-separated graph sizes for -scale-bench")
	scaleWorkers := flag.String("scale-workers", "1,2,4,8,0", "comma-separated pool worker counts for -scale-bench (0 = GOMAXPROCS)")
	scaleReps := flag.Int("scale-reps", 2, "timed runs per cell for -scale-bench (best wall time wins)")
	dynmisBench := flag.String("dynmis-bench", "", "write dynamic-MIS incremental-repair JSON to this file and exit")
	dynmisNS := flag.String("dynmis-ns", "4096,16384,65536", "comma-separated graph sizes for -dynmis-bench")
	dynmisBatches := flag.Int("dynmis-batches", 64, "update batches per case for -dynmis-bench")
	dynmisBatchSize := flag.Int("dynmis-batch-size", 16, "updates per batch for -dynmis-bench")
	dynmisLocality := flag.Float64("dynmis-locality", 0, "stream locality in [0,1] for -dynmis-bench")
	dynmisChurn := flag.Float64("dynmis-churn", 0.05, "stream node-churn probability in [0,1] for -dynmis-bench")
	dynmisMinSpeedup := flag.Float64("dynmis-min-speedup", 10, "fail -dynmis-bench when a row with n >= 65536 falls below this incremental-vs-recompute speedup (0 = record only)")
	distBench := flag.String("dist-bench", "", "write distributed-driver fleet JSON to this file and exit")
	distN := flag.Int("dist-n", 1<<10, "graph size for -dist-bench")
	distShards := flag.String("dist-shards", "1,2,4,8", "comma-separated shard-process counts for -dist-bench")
	distReps := flag.Int("dist-reps", 3, "clean runs per fleet shape for -dist-bench (best wall time wins)")
	layoutBench := flag.String("layout-bench", "", "write layout × family × n locality JSON to this file and exit")
	layoutNS := flag.String("layout-ns", "65536,262144,1048576", "comma-separated graph sizes for -layout-bench")
	layoutReps := flag.Int("layout-reps", 2, "timed runs per cell for -layout-bench (best wall time wins)")
	layoutMinSpeedup := flag.Float64("layout-min-speedup", 1.15, "fail -layout-bench when the best non-identity layout on the densest family at the largest n falls below this sequential speedup over identity (0 = record only)")
	allocBench := flag.String("alloc-bench", "", "write allocation-profile JSON to this file and exit")
	allocN := flag.Int("alloc-n", 1<<14, "graph size for -alloc-bench")
	allocReps := flag.Int("alloc-reps", 5, "runs per driver for -alloc-bench (best wall time / min allocs win)")
	allocBaseline := flag.String("alloc-baseline", "", "BENCH_congest.json whose sequential msgs/s is the -alloc-bench speedup baseline")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the invocation to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: bench [flags]\n\nRegenerates the experiment tables of EXPERIMENTS.md.\n\nExperiments (-only):\n")
		for _, d := range exp.All() {
			fmt.Fprintf(out, "  %-4s %s\n", d.ID, d.Name)
		}
		fmt.Fprintf(out, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize an up-to-date heap picture
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	if *engineBench != "" {
		return runEngineBench(*engineBench, *engineN, *seed, *engineReps)
	}
	if *traceBench != "" {
		return runTraceBench(*traceBench, *traceN, *seed, *traceReps)
	}
	if *scaleBench != "" {
		return runScaleBench(*scaleBench, *scaleNS, *scaleWorkers, *seed, *scaleReps)
	}
	if *layoutBench != "" {
		return runLayoutBench(*layoutBench, *layoutNS, *seed, *layoutReps, *layoutMinSpeedup)
	}
	if *allocBench != "" {
		return runAllocBench(*allocBench, *allocN, *seed, *allocReps, *allocBaseline)
	}
	if *distBench != "" {
		return runDistBench(*distBench, *distN, *distShards, *seed, *distReps)
	}
	if *dynmisBench != "" {
		return runDynmisBench(*dynmisBench, *dynmisNS, *dynmisBatches, *dynmisBatchSize,
			*dynmisLocality, *dynmisChurn, *seed, *dynmisMinSpeedup)
	}
	if *faults != "" {
		k := *seeds
		if k <= 0 {
			k = 5
		}
		return runFaultBench(*faults, *faultsN, *seed, k)
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *parallel {
		cfg.Driver = congest.DriverPool
		cfg.PoolStats = &congest.DriverStats{}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		defer f.Close()
		switch *traceFormat {
		case "jsonl":
			sink := trace.NewJSONLSink(f)
			defer func() {
				if err := sink.Flush(); err != nil {
					fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				}
			}()
			cfg.Events = sink
		case "chrome":
			sink := trace.NewChromeSink(f)
			defer func() {
				if err := sink.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				}
			}()
			cfg.Events = sink
		default:
			fmt.Fprintf(os.Stderr, "trace: unknown format %q (want jsonl or chrome)\n", *traceFormat)
			return 1
		}
	}

	if *list {
		for _, d := range exp.All() {
			fmt.Printf("%-4s %s\n", d.ID, d.Name)
		}
		return 0
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	failed := 0
	for _, d := range exp.All() {
		if len(want) > 0 && !want[d.ID] {
			continue
		}
		start := time.Now()
		rep, err := d.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (%s): FAILED: %v\n", d.ID, d.Name, err)
			failed++
			continue
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s", rep.ID, rep.Title, rep.Table.CSV())
			// Notes carry derived observations (compliance ratios, fit
			// exponents); emit them as comment lines so machine-readable
			// runs keep them.
			for _, note := range rep.Notes {
				fmt.Printf("# note: %s\n", note)
			}
			fmt.Println()
		} else {
			fmt.Println(rep.String())
			fmt.Printf("(%s completed in %v)\n\n", d.ID, time.Since(start).Round(time.Millisecond))
		}
	}
	if cfg.PoolStats != nil && cfg.PoolStats.Rounds > 0 {
		fmt.Println(cfg.PoolStats.String())
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

// runEngineBench measures all drivers and writes BENCH_congest.json.
func runEngineBench(path string, n int, seed uint64, reps int) int {
	report, err := exp.RunEngineBench(n, seed, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "engine bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "engine bench: %v\n", err)
		return 1
	}
	for _, d := range report.Drivers {
		// The pool row reports the worker count the engine resolved the
		// request to (clamped to GOMAXPROCS and n), so the output is
		// self-describing on any machine.
		name := d.Driver
		if d.Workers > 0 {
			name = fmt.Sprintf("%s(w=%d)", d.Driver, d.Workers)
		}
		fmt.Printf("%-22s n=%d rounds=%d wall=%v rounds/s=%.0f msgs/s=%.0f\n",
			name, report.N, d.Rounds, time.Duration(d.WallNS).Round(time.Microsecond),
			d.RoundsPerSec, d.MessagesPerSec)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// parseInts parses a comma-separated integer list flag.
func parseInts(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%s: bad entry %q: %v", flagName, part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty list", flagName)
	}
	return out, nil
}

// runScaleBench measures the cores × n scaling matrix and writes
// BENCH_scale.json. Every text row names both the requested and resolved
// worker counts, so clamped requests are visible at a glance.
func runScaleBench(path, nsFlag, workersFlag string, seed uint64, reps int) int {
	ns, err := parseInts("-scale-ns", nsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale bench: %v\n", err)
		return 1
	}
	workerSet, err := parseInts("-scale-workers", workersFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale bench: %v\n", err)
		return 1
	}
	report, err := exp.RunScaleBench(ns, workerSet, seed, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scale bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "scale bench: %v\n", err)
		return 1
	}
	fmt.Printf("cores × n scaling (cpus=%d, gomaxprocs ambient=%d effective=%d)\n",
		report.NumCPU, report.GoMaxProcsAmbient, report.GoMaxProcsEffective)
	for _, size := range report.Sizes {
		for _, e := range size.Entries {
			name := e.Driver
			if e.Workers > 0 {
				name = fmt.Sprintf("%s(w=%d req=%d)", e.Driver, e.Workers, e.WorkersRequested)
			}
			stall := ""
			if e.FaultedStalled {
				stall = " faulted-stalled"
			}
			fmt.Printf("%-24s n=%-8d wall=%-12v speedup=%.2fx msgs/s=%-12.0f rebalances=%-3d fp=%s/%s%s\n",
				name, size.N, time.Duration(e.WallNS).Round(time.Microsecond), e.SpeedupVsPool1,
				e.MessagesPerSec, e.Rebalances, e.FingerprintClean, e.FingerprintFaulted, stall)
		}
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// runLayoutBench measures the cache-locality win of vertex relabeling
// across the layout × family × n matrix and writes BENCH_layout.json,
// enforcing the minimum-speedup bar in-run unless it is 0.
func runLayoutBench(path, nsFlag string, seed uint64, reps int, minSpeedup float64) int {
	ns, err := parseInts("-layout-ns", nsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layout bench: %v\n", err)
		return 1
	}
	report, err := exp.RunLayoutBench(ns, seed, reps, minSpeedup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "layout bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "layout bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "layout bench: %v\n", err)
		return 1
	}
	fmt.Printf("layout × family × n locality matrix (cpus=%d, scrambled labels)\n", report.NumCPU)
	for _, cse := range report.Cases {
		for _, e := range cse.Entries {
			fmt.Printf("%-9s %-9s n=%-8d m=%-8d wall=%-12v relabel=%-10v speedup=%.3fx msgs/s=%-12.0f fp=%s\n",
				cse.Family, e.Layout, cse.N, cse.M,
				time.Duration(e.WallNS).Round(time.Microsecond),
				time.Duration(e.RelabelNS).Round(time.Microsecond),
				e.SpeedupVsIdentity, e.MessagesPerSec, e.FingerprintClean)
		}
	}
	if report.BarLayout != "" {
		fmt.Printf("bar: %s on %s n=%d reaches %.3fx over identity (min %.2fx)\n",
			report.BarLayout, report.BarFamily, report.BarN, report.BarSpeedup, report.MinSpeedup)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// runDynmisBench measures the dynamic-MIS engine's incremental-repair
// throughput against full recomputation and writes BENCH_dynmis.json. Each
// size runs on the tree and union-of-trees families under a low-locality
// stream; rows at n >= 2^16 must clear the minSpeedup acceptance bar.
func runDynmisBench(path, nsFlag string, batches, batchSize int, locality, churn float64, seed uint64, minSpeedup float64) int {
	ns, err := parseInts("-dynmis-ns", nsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynmis bench: %v\n", err)
		return 1
	}
	var cases []exp.DynmisBenchCase
	for _, n := range ns {
		cases = append(cases,
			exp.DynmisBenchCase{Family: "tree", N: n, Batches: batches},
			exp.DynmisBenchCase{Family: "union", N: n, Batches: batches})
	}
	cfg := dynmis.StreamConfig{BatchSize: batchSize, Locality: locality, Churn: churn}
	report, err := exp.RunDynmisBench(cases, cfg, seed, minSpeedup, 1<<16)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynmis bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dynmis bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dynmis bench: %v\n", err)
		return 1
	}
	for _, e := range report.Entries {
		fmt.Printf("%-6s n=%-8d updates/s=%-11.0f recompute/s=%-9.0f speedup=%-8.1f region mean=%-6.1f p90=%-4d max=%-5d fp=%s\n",
			e.Family, e.N, e.UpdatesPerSec, e.RecomputePerSec, e.Speedup, e.RegionMean, e.RegionP90, e.RegionMax, e.Fingerprint)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// runDistBench measures the distributed multi-process driver across fleet
// shapes and writes BENCH_dist.json. Every text row names the resolved
// topology — shard-process count, transport, socket — the way the engine
// bench names pool(w=N); a fingerprint divergence from the sequential
// reference fails the run.
func runDistBench(path string, n int, shardsFlag string, seed uint64, reps int) int {
	shardSet, err := parseInts("-dist-shards", shardsFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist bench: %v\n", err)
		return 1
	}
	report, err := exp.RunDistBench(n, shardSet, seed, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dist bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dist bench: %v\n", err)
		return 1
	}
	fmt.Printf("sequential reference      n=%d wall=%v fp=%s faulted-fp=%s\n",
		report.N, time.Duration(report.SequentialWallNS).Round(time.Microsecond),
		report.SequentialFingerprint, report.SequentialFingerprintFault)
	for _, e := range report.Entries {
		name := fmt.Sprintf("dist(shards=%d, transport=%s, socket=%s)", e.Shards, e.Transport, e.Socket)
		fmt.Printf("%s\n  n=%d rounds=%d wall=%v msgs/s=%.0f speedup=%.2fx frameKB/round=%.1f rtt=%v clean=%t faulted=%t\n",
			name, report.N, e.Rounds, time.Duration(e.WallNS).Round(time.Microsecond),
			e.MessagesPerSec, e.SpeedupVsSequential, e.FrameBytesPerRound/1024,
			time.Duration(e.MeanRTTNanos).Round(time.Microsecond), e.CleanMatch, e.FaultedMatch)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// runTraceBench measures tracing overhead and writes BENCH_trace.json.
func runTraceBench(path string, n int, seed uint64, reps int) int {
	report, err := exp.RunTraceBench(n, seed, reps)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "trace bench: %v\n", err)
		return 1
	}
	for _, m := range report.Modes {
		fmt.Printf("%-6s n=%d wall=%v overhead=%+.1f%% events=%d\n",
			m.Mode, report.N, time.Duration(m.WallNS).Round(time.Microsecond), m.OverheadPct, m.Events)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// runAllocBench measures every driver's allocation profile and writes
// BENCH_alloc.json. baselinePath, when set, names an earlier
// BENCH_congest.json whose sequential messages/sec seeds the speedup field.
func runAllocBench(path string, n int, seed uint64, reps int, baselinePath string) int {
	baseline := 0.0
	if baselinePath != "" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "alloc bench: baseline: %v\n", err)
			return 1
		}
		var prior exp.EngineBenchReport
		if err := json.Unmarshal(data, &prior); err != nil {
			fmt.Fprintf(os.Stderr, "alloc bench: baseline: %v\n", err)
			return 1
		}
		for _, d := range prior.Drivers {
			if d.Driver == congest.DriverSequential.String() {
				baseline = d.MessagesPerSec
			}
		}
		if baseline == 0 {
			fmt.Fprintf(os.Stderr, "alloc bench: baseline %s has no sequential entry\n", baselinePath)
			return 1
		}
	}
	report, err := exp.RunAllocBench(n, seed, reps, baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloc bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "alloc bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "alloc bench: %v\n", err)
		return 1
	}
	for _, d := range report.Drivers {
		fmt.Printf("%-22s n=%d wall=%v msgs/s=%.0f allocs/run=%d B/run=%d allocs/msg=%.4f\n",
			d.Driver, report.N, time.Duration(d.WallNS).Round(time.Microsecond),
			d.MessagesPerSec, d.AllocsPerRun, d.BytesPerRun, d.AllocsPerMessage)
	}
	if report.SequentialSpeedup > 0 {
		fmt.Printf("sequential speedup vs baseline (%.0f msgs/s): %.2fx\n",
			report.BaselineMessagesPerSec, report.SequentialSpeedup)
	}
	fmt.Printf("wrote %s\n", path)
	return 0
}

// runFaultBench sweeps the fault scenarios and writes BENCH_faults.json.
func runFaultBench(path string, n int, seed uint64, seeds int) int {
	report, err := exp.RunFaultBench(n, seed, seeds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault bench: %v\n", err)
		return 1
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "fault bench: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fault bench: %v\n", err)
		return 1
	}
	for _, e := range report.Entries {
		fmt.Printf("%-14s x=%-6v runs=%d rounds=%.1f coverage=%.3f undecided=%d crashed=%d dropped=%d delayed=%d\n",
			e.Scenario, e.Intensity, e.Runs, e.MeanRounds, e.Coverage, e.Undecided, e.Crashed, e.Dropped, e.Delayed)
	}
	fmt.Printf("wrote %s (safety: 0 violations across %d entries)\n", path, len(report.Entries))
	return 0
}
