// Command bench regenerates every experiment table in EXPERIMENTS.md and
// the committed BENCH_*.json artifacts.
//
// Usage:
//
//	bench [-quick] [-seeds N] [-seed S] [-only E1,E4,A2] [-parallel] [-workers W] [-format csv]
//	bench [-trace run.jsonl] [-trace-format jsonl|chrome] ...
//	bench -alloc-bench BENCH_alloc.json [-seed S]
//	bench -trace-bench BENCH_trace.json [-seed S]
//	bench -scale-bench BENCH_scale.json [-seed S]
//	bench -layout-bench BENCH_layout.json [-seed S]
//	bench -dynmis-bench BENCH_dynmis.json [-seed S]
//	bench -dist-bench BENCH_dist.json [-seed S]
//	bench -faults BENCH_faults.json [-seeds K] [-seed S]
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
// Each artifact flag runs one producer at the sizes pinned in
// internal/exp (exp.RunArtifact), prints its table, writes the JSON
// report, and exits non-zero if a determinism check or an acceptance bar
// fails (the report is still written on a bar miss, so it records the
// measured value):
//
//   - -alloc-bench, -trace-bench, -scale-bench, -layout-bench run the
//     Métivier suites (E18, E17, E19, E22 at production size): every cell
//     of a layout must agree on counters and fingerprints. Bars: ring
//     tracing overhead ≤ 15% at n = 2^14 on the pool driver; the best
//     non-identity layout ≥ 1.15x identity on the densest family at the
//     largest n (2^20).
//   - -dynmis-bench replays update streams through internal/dynmis;
//     sequential and pool must agree on every stream fingerprint, and
//     rows at n ≥ 2^16 must beat full recomputation by ≥ 10x.
//   - -dist-bench runs fleets of shard worker processes; every shape must
//     reproduce the sequential fingerprint, clean and faulted.
//   - -faults sweeps the E16 fault scenarios; safety must hold (zero
//     independence violations). -seeds sets its replications (default 5).
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
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/distrib"
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
	tracePath := flag.String("trace", "", "stream every run's execution-trace events to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace file format: jsonl|chrome")
	artifacts := []struct {
		name string
		path *string
	}{
		{"alloc", flag.String("alloc-bench", "", "write allocation-profile JSON to this file and exit")},
		{"trace", flag.String("trace-bench", "", "write tracing-overhead JSON to this file and exit")},
		{"scale", flag.String("scale-bench", "", "write cores × n scaling JSON to this file and exit")},
		{"layout", flag.String("layout-bench", "", "write layout × family × n locality JSON to this file and exit")},
		{"dynmis", flag.String("dynmis-bench", "", "write dynamic-MIS incremental-repair JSON to this file and exit")},
		{"dist", flag.String("dist-bench", "", "write distributed-driver fleet JSON to this file and exit")},
		{"faults", flag.String("faults", "", "write fault-tolerance sweep JSON to this file and exit")},
	}
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

	for _, a := range artifacts {
		if *a.path != "" {
			return writeArtifact(a.name, *a.path, *seed, *seeds)
		}
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

// writeArtifact runs one BENCH_*.json producer, prints its table, and
// writes its report — also when a bar fails, so the file records the miss.
func writeArtifact(name, path string, seed uint64, seeds int) int {
	report, table, err := exp.RunArtifact(name, seed, seeds)
	if report != nil {
		fmt.Print(table.String())
		if werr := writeReport(path, report); werr != nil {
			fmt.Fprintf(os.Stderr, "%s bench: %v\n", name, werr)
			return 1
		}
		fmt.Printf("wrote %s\n", path)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s bench: %v\n", name, err)
		return 1
	}
	return 0
}

// writeReport writes v to path as indented JSON.
func writeReport(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
