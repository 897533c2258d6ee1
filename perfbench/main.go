// Command perfbench is the repository's whole-run benchmark. It runs one
// named workload through the public entry points of the engine
// (internal/congest), the ArbMIS pipeline (repro, internal/core), the
// dynamic-MIS engine (internal/dynmis) or the multi-process driver
// (internal/distrib), checks every output, and prints the metrics
// declared in BENCHMARK.json as one JSON object on its last line.
//
// Build and run it from the repository root with perfbench/run.sh; see
// perfbench/README.md for the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/distrib"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 3

// minRuns is the least number of measured runs, however short the
// measurement window.
const minRuns = 3

// gomaxprocs is the benchmark process's parallelism, pinned so results
// from hosts with more CPUs stay comparable.
const gomaxprocs = 2

func main() {
	// Fleet workers are this binary re-executed: serve and exit.
	distrib.MaybeWorker()
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 15, "length of the measurement window, in seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a separate traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *secs < 1 || (*traceFlag != 0 && *traceFlag != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	cleanup, err := privateTempDir()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer cleanup()
	cfg := config{
		seed:     *seed,
		window:   time.Duration(*secs) * time.Second,
		traced:   *traceFlag == 1,
		sizes:    fullSizes,
		spansDir: ".bench_build/spans",
	}
	res, env, err := measure(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, v := range []any{map[string]any{"env": env}, res} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// privateTempDir points TMPDIR, which the fleet's socket directory and the
// workers inherit, at a directory of this process's own. It is removed on
// return and on SIGINT or SIGTERM, so an interrupted run leaves no fleet
// directory behind; the workers exit when their coordinator does.
func privateTempDir() (cleanup func(), err error) {
	dir, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, fmt.Errorf("temp dir: %w", err)
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			os.RemoveAll(dir)
			os.Exit(1)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
		os.RemoveAll(dir)
	}, nil
}

// config is one benchmark invocation.
type config struct {
	seed     uint64
	window   time.Duration
	traced   bool
	sizes    sizes
	spansDir string // where the traced run writes its spans
	corrupt  bool   // corrupt the first measured run's output before its check
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// environment is printed with every result.
type environment struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	MaxDegree  int    `json:"max_degree"`
	Runs       int    `json:"runs"`
	Traced     bool   `json:"traced"`
}

// bench is the state of one invocation.
type bench struct {
	cfg     config
	sp      *spans
	pending bool     // a corruption is still to be applied
	outs    []runOut // the successful untraced runs
}

// tamper reports, once, whether the current run must corrupt its output
// before checking it.
func (b *bench) tamper() bool {
	t := b.pending
	b.pending = false
	return t
}

// measure sets the workload up, runs it for the window, and, when traced,
// makes one more run with the event bus attached.
func measure(w workload, cfg config) (*result, *environment, error) {
	b := &bench{cfg: cfg, sp: newSpans()}
	var inst instance
	defer func() {
		// Early returns still stop the fleet; the normal path closes it
		// itself and reports a failure to clean up.
		if inst != nil {
			_ = inst.close()
		}
	}()
	var setup []float64
	for i := 0; i < setupReps; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("close: %w", err)
			}
			inst = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(b)
		setup = append(setup, time.Since(t0).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
	}

	res := &result{Correct: true}
	var first *runOut
	record := func(out runOut, err error, label string) bool {
		res.Attempted++
		if err == nil && first != nil && (out.msgs != first.msgs || out.rounds != first.rounds || out.fp != first.fp) {
			err = fmt.Errorf("output differs from the first run's (messages %d/%d, rounds %d/%d, fingerprint %#x/%#x)",
				out.msgs, first.msgs, out.rounds, first.rounds, out.fp, first.fp)
		}
		if err != nil {
			res.Failed++
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s run %d failed: %v\n", w.name, label, res.Attempted, err)
			return false
		}
		if first == nil {
			first = &out
		}
		return true
	}

	// The first run maps the heap the later ones reuse; it is checked but
	// not measured.
	runtime.GC()
	out, err := inst.run(b, nil)
	record(out, err, "warm-up")
	b.pending = cfg.corrupt
	start := time.Now()
	for res.Attempted <= minRuns || time.Since(start) < cfg.window {
		// Every run starts from a collected heap, so the garbage of the
		// previous run does not decide when this one's collections fall.
		runtime.GC()
		out, err := inst.run(b, nil)
		if record(out, err, "untraced") {
			b.outs = append(b.outs, out)
		}
	}
	var walls []float64
	for _, o := range b.outs {
		walls = append(walls, o.wall.Seconds())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d measured runs, wall seconds %.3f\n", w.name, cfg.seed, len(walls), walls)

	m := metricSet{}
	decls := endToEnd
	if !cfg.traced {
		m["setup_s"] = median(setup)
		var rate, alloc []float64
		for _, o := range b.outs {
			rate = append(rate, float64(o.msgs)/o.wall.Seconds())
			alloc = append(alloc, float64(o.rt.allocBytes)/1e6)
		}
		m["msgs_per_s"] = median(rate)
		m["alloc_mb"] = median(alloc)
	} else {
		b.sp.phase = "traced"
		sink := newEventSink()
		tr := &tracer{sp: b.sp, rec: trace.NewRecorder(0, sink), sink: sink}
		runtime.GC()
		out, err := inst.run(b, tr)
		if record(out, err, "traced") {
			if err := b.layerMetrics(m, inst, tr, out); err != nil {
				return nil, nil, err
			}
		}
		m["fail_ratio"] = float64(res.Failed) / float64(res.Attempted)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		m["runtime.peak_rss_mb"] = rss
		if cfg.spansDir != "" {
			if err := b.sp.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed)); err != nil {
				return nil, nil, fmt.Errorf("write spans: %w", err)
			}
		}
		decls = perLayer
	}
	if res.Metrics, err = m.emit(decls); err != nil {
		return nil, nil, err
	}

	n, edges, maxDeg := inst.shape()
	env := &environment{
		Workload: w.name, Seed: cfg.seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), N: n, M: edges, MaxDegree: maxDeg, Runs: res.Attempted, Traced: cfg.traced,
	}
	err = inst.close()
	inst = nil
	if err != nil {
		return nil, nil, fmt.Errorf("close: %w", err)
	}
	return res, env, nil
}

// layerMetrics derives the per-layer metrics of the traced run: spans,
// the event sink, and the runtime counters of the untraced runs (tracing
// allocates, so the traced run's own counters would overstate them).
func (b *bench) layerMetrics(m metricSet, inst instance, tr *tracer, last runOut) error {
	g, order := inst.layoutInput()
	o, err := layout.Parse(order)
	if err != nil {
		return err
	}
	end := b.sp.begin("layout.compute")
	perm, _, err := layout.Compute(g, o)
	end()
	if err != nil {
		return err
	}
	if perm != nil {
		end = b.sp.begin("layout.relabel")
		_, err = graph.Relabel(g, perm)
		end()
		if err != nil {
			return err
		}
	}
	// A verified MIS covers every vertex; the faulted workload measures it.
	m["faultsim.coverage"] = 1
	inst.layers(b, m, last)

	const setupPhase, traced = "setup", "traced"
	m["graph.gen_s"] = median(seconds(b.sp.durations(setupPhase, "graph.gen")))
	m["graph.scramble_s"] = median(seconds(b.sp.durations(setupPhase, "graph.scramble")))
	m["graph.verify_s"] = (b.sp.total(traced, "graph.verify") + b.sp.total(traced, "dynmis.verify") +
		b.sp.total(traced, "faultsim.check")).Seconds()
	m["layout.compute_s"] = b.sp.total(traced, "layout.compute").Seconds()
	m["layout.relabel_s"] = b.sp.total(traced, "layout.relabel").Seconds()
	m["congest.newrunner_s"] = b.sp.total(traced, "congest.newrunner").Seconds()
	m["congest.run_s"] = b.sp.total(traced, "congest.run").Seconds()
	for layer, d := range b.sp.selfTime(traced) {
		m[layer+".self_s"] = d.Seconds()
	}

	m["congest.rounds"] = float64(last.rounds)
	m["congest.messages"] = float64(last.msgs)
	k := tr.sink
	m["congest.sweep_s"] = k.sweep.Seconds()
	m["congest.sweep_busy_s"] = k.busy.Seconds()
	m["congest.merge_s"] = k.mergeTotal.Seconds()
	m["congest.coord_s"] = k.coord.Seconds()
	if k.meanBusy > 0 {
		m["congest.shard_imbalance"] = float64(k.sweep) / k.meanBusy
	}
	m["congest.rebalances"] = float64(k.rebalances)
	walls := seconds(k.roundWalls)
	m["congest.round_s_p50"] = quantile(walls, 0.5)
	m["congest.round_s_max"] = quantile(walls, 1)
	if last.rounds > 0 {
		m["distrib.frame_bytes_per_round"] = float64(k.frameBytes) / float64(last.rounds)
	}
	rtt := make([]float64, len(k.frameRTT))
	for i, ns := range k.frameRTT {
		rtt[i] = float64(ns) / 1e3
	}
	m["distrib.rtt_us_p50"] = quantile(rtt, 0.5)
	m["distrib.rtt_us_p99"] = quantile(rtt, 0.99)
	m["distrib.respawns"] = float64(k.respawns)
	m["rng.node_draws"] = float64(k.nodeDraws)
	m["rng.fault_draws"] = float64(k.faultDraws)
	m["trace.events"] = float64(tr.rec.Total())

	var walls0, gcs, pauses, gcFrac, mallocs, perMsg []float64
	for _, o := range b.outs {
		walls0 = append(walls0, o.wall.Seconds())
		gcs = append(gcs, float64(o.rt.gcCycles))
		pauses = append(pauses, float64(o.rt.pauseNS)/1e9)
		if o.rt.totalCPU > 0 {
			gcFrac = append(gcFrac, o.rt.gcCPU/o.rt.totalCPU)
		}
		mallocs = append(mallocs, float64(o.rt.mallocs))
		if o.msgs > 0 {
			perMsg = append(perMsg, float64(o.rt.mallocs)/float64(o.msgs))
		}
	}
	if len(walls0) > 0 {
		m["trace.overhead_frac"] = last.wall.Seconds()/median(walls0) - 1
	}
	m["runtime.gc_cycles"] = median(gcs)
	m["runtime.gc_pause_s"] = median(pauses)
	m["runtime.gc_cpu_frac"] = median(gcFrac)
	m["runtime.mallocs"] = median(mallocs)
	m["congest.allocs_per_msg"] = median(perMsg)
	return nil
}

// metricSet holds a run's metric values by name.
type metricSet map[string]float64

type decl struct{ name, unit string }

// emit pairs every declared metric with its value; a metric the run did
// not exercise reads 0. A value under an undeclared name is a bug.
func (m metricSet) emit(decls []decl) (map[string]metric, error) {
	out := make(map[string]metric, len(decls))
	for _, d := range decls {
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", name)
		}
	}
	return out, nil
}
