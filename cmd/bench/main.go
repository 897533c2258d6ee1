// Command bench regenerates every experiment table in EXPERIMENTS.md and
// the committed BENCH_*.json artifacts.
//
// Usage:
//
//	bench [-quick] [-seeds N] [-seed S] [-only E1,E4,A2] [-parallel] [-workers W] [-format table|csv]
//	bench [-trace run.jsonl] [-trace-format jsonl|chrome] ...
//	bench -artifact BENCH_<name>.json [-seed S]
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
// -artifact runs the BENCH_<name>.json producer its file's base name
// names — alloc, trace, scale, dist and layout are the Métivier suites
// of E18, E17, E19, E21 and E22, dynmis replays E20's update streams,
// faults is E16's fault sweep — at the size pinned in internal/exp
// (exp.RunArtifact). It prints the table, writes the JSON report, and
// exits non-zero if a determinism check or an acceptance bar fails (the
// report is still written on a bar miss, so it records the measured
// value). Any other base name is a usage error, as is a -format other
// than table or csv. The Makefile's bench-% rule lists each producer's
// sizes and bars.
//
// -cpuprofile and -memprofile write pprof profiles covering whatever work
// the invocation did (experiments or an artifact); inspect them with
// `go tool pprof`. The memory profile is written at exit with an
// up-to-date heap picture (runtime.GC precedes the write).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/exp"
	"repro/internal/trace"
)

func main() {
	// Self-exec hook first: the dist artifact and E21 spawn ExecFleet
	// workers by re-running this binary, which must never reach flag
	// parsing.
	distrib.MaybeWorker()
	os.Exit(run(os.Args[1:]))
}

// artifactName derives the producer name from an artifact path's base
// name, BENCH_<name>.json.
func artifactName(path string) (string, error) {
	base := filepath.Base(path)
	name := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json")
	if base != "BENCH_"+name+".json" || !slices.Contains(exp.ArtifactNames(), name) {
		return "", fmt.Errorf("artifact %q: the base name must be BENCH_<name>.json with name one of %s",
			base, strings.Join(exp.ArtifactNames(), ", "))
	}
	return name, nil
}

// usageError reports a bad invocation: exit status 2, as for a flag
// parse error.
func usageError(format string, args ...interface{}) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 2
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	quick := fs.Bool("quick", false, "use test-sized sweeps")
	seeds := fs.Int("seeds", 0, "replications per point (0 = config default)")
	seed := fs.Uint64("seed", 1, "root seed")
	only := fs.String("only", "", "comma-separated experiment IDs to run (default: all)")
	parallel := fs.Bool("parallel", false, "use the sharded worker-pool engine")
	workers := fs.Int("workers", 0, "worker-pool shard count (0 = GOMAXPROCS)")
	format := fs.String("format", "table", "output format: table|csv")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	tracePath := fs.String("trace", "", "stream every run's execution-trace events to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace file format: jsonl|chrome")
	artifact := fs.String("artifact", "", "run the producer named by the file's base name BENCH_<name>.json, write its JSON there and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the invocation to this file (go tool pprof)")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file (go tool pprof)")
	fs.Usage = func() {
		out := fs.Output()
		fmt.Fprintf(out, "Usage: bench [flags]\n\nRegenerates the experiment tables of EXPERIMENTS.md.\n\nExperiments (-only):\n")
		for _, d := range exp.All() {
			fmt.Fprintf(out, "  %-4s %s\n", d.ID, d.Name)
		}
		fmt.Fprintf(out, "\nArtifacts (-artifact BENCH_<name>.json): %s\n\nFlags:\n", strings.Join(exp.ArtifactNames(), ", "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if *format != "table" && *format != "csv" {
		return usageError("unknown -format %q (want table or csv)", *format)
	}
	name := ""
	if *artifact != "" {
		var err error
		if name, err = artifactName(*artifact); err != nil {
			return usageError("%v", err)
		}
	}

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

	if name != "" {
		return writeArtifact(name, *artifact, *seed)
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
func writeArtifact(name, path string, seed uint64) int {
	report, table, err := exp.RunArtifact(name, seed)
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
