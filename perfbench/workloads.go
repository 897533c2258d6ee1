package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/dynmis"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/trace"
)

// sizes fixes the traffic of every workload. The benchmark always runs
// fullSizes; the tests run tinySizes.
type sizes struct {
	bulkN, arbN, dynN, dynBatches, distN int
}

var (
	fullSizes = sizes{bulkN: 1 << 20, arbN: 1 << 19, dynN: 1 << 16, dynBatches: 40000, distN: 1 << 16}
	tinySizes = sizes{bulkN: 1 << 10, arbN: 1 << 10, dynN: 1 << 9, dynBatches: 200, distN: 1 << 9}
)

// workload is one named input set; BENCHMARK.json and README.md give the
// reason for each. setup builds the inputs from the seed; everything it
// does counts toward setup_s.
type workload struct {
	name  string
	setup func(b *bench) (instance, error)
}

// instance is a set-up workload, ready to run repeatedly.
type instance interface {
	// shape reports the input graph's vertex and edge counts and maximum
	// degree.
	shape() (n, m, maxDeg int)
	// layoutInput is the graph and vertex ordering the run hands the
	// engine, for the layout probe of the traced run.
	layoutInput() (*graph.Graph, string)
	// run makes one run: the timed region, then the output check. tr is
	// nil for untraced runs. An error is a failed run.
	run(b *bench, tr *tracer) (runOut, error)
	// layers adds the workload's own per-layer metrics after the traced
	// run, whose output is last.
	layers(b *bench, m metricSet, last runOut)
	close() error
}

// runOut is what one run reports. msgs, rounds and fp are exact and must
// repeat from run to run.
type runOut struct {
	wall   time.Duration
	rt     rtSample
	msgs   int64
	rounds int64
	fp     uint64
}

// tracer is the traced run's instrumentation: the benchmark's spans, and
// a trace.Recorder that feeds the event sink.
type tracer struct {
	sp   *spans
	rec  *trace.Recorder
	sink *eventSink
}

func (t *tracer) spans() *spans {
	if t == nil {
		return nil
	}
	return t.sp
}

// options attaches the recorder, if any, to a run's options, with the
// drivers' advisory timing events on.
func (t *tracer) options(o congest.Options) congest.Options {
	if t != nil && t.rec != nil {
		o.Events = t.rec
		o.EventTiming = true
	}
	return o
}

var workloads = []workload{
	{"bulk-union", setupBulk},
	{"arbmis-powerlaw", setupArbMIS},
	{"dynmis-stream", setupDynMIS},
	{"dist-faulted", setupDist},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// timed runs f as the run's timed region and returns its wall time and
// the runtime counters' growth across it.
func timed(f func() error) (time.Duration, rtSample, error) {
	r0 := sampleRuntime()
	t0 := time.Now()
	err := f()
	wall := time.Since(t0)
	return wall, sampleRuntime().sub(r0), err
}

// fingerprint hashes a run's per-vertex output, one byte per vertex.
func fingerprint(out []byte) uint64 {
	h := fnv.New64a()
	h.Write(out)
	return h.Sum64()
}

func misBytes(mis []bool) []byte {
	out := make([]byte, len(mis))
	for v, in := range mis {
		if in {
			out[v] = 1
		}
	}
	return out
}

func statusFingerprint(statuses []base.Status) uint64 {
	out := make([]byte, len(statuses))
	for v, s := range statuses {
		out[v] = byte(s)
	}
	return fingerprint(out)
}

func graphShape(g *graph.Graph) (int, int, int) { return g.N(), g.M(), g.MaxDegree() }

// ---- bulk-union ----

type bulk struct {
	g    *graph.Graph
	seed uint64
}

func setupBulk(b *bench) (instance, error) {
	end := b.sp.begin("graph.gen")
	g := gen.UnionOfTrees(b.cfg.sizes.bulkN, 2, rng.New(b.cfg.seed))
	end()
	return &bulk{g: g, seed: b.cfg.seed}, nil
}

func (w *bulk) shape() (int, int, int)              { return graphShape(w.g) }
func (w *bulk) layoutInput() (*graph.Graph, string) { return w.g, "" }
func (w *bulk) close() error                        { return nil }

func (w *bulk) run(b *bench, tr *tracer) (runOut, error) {
	sp := tr.spans()
	opts := tr.options(congest.Options{Seed: w.seed, Driver: congest.DriverPool, Workers: 2})
	var r *congest.Runner
	var res congest.Result
	wall, rt, err := timed(func() error {
		end := sp.begin("congest.newrunner")
		r = congest.NewRunner(w.g, metivier.New(), opts)
		end()
		end = sp.begin("congest.run")
		var err error
		res, err = r.Run()
		end()
		return err
	})
	out := runOut{wall: wall, rt: rt, msgs: res.Messages, rounds: int64(res.Rounds)}
	if err != nil {
		return out, err
	}
	mis := base.MISSet(base.Statuses(r, w.g.N()))
	out.fp = fingerprint(misBytes(mis))
	return out, verifyMIS(b, sp, w.g, mis)
}

func (w *bulk) layers(*bench, metricSet, runOut) {}

// verifyMIS is the clean workloads' output check.
func verifyMIS(b *bench, sp *spans, g *graph.Graph, mis []bool) error {
	if b.tamper() {
		mis[0] = !mis[0]
	}
	defer sp.begin("graph.verify")()
	return g.VerifyMIS(mis)
}

// ---- arbmis-powerlaw ----

type arbmis struct {
	g    *graph.Graph
	seed uint64
	out  *repro.Outcome // the traced run's outcome
}

const arbAlpha = 3

func setupArbMIS(b *bench) (instance, error) {
	n := b.cfg.sizes.arbN
	end := b.sp.begin("graph.gen")
	g0 := gen.PreferentialAttachment(n, arbAlpha, rng.New(b.cfg.seed))
	end()
	// Scramble the labels: the generator numbers vertices by arrival, which
	// would hand degsort a graph that is already nearly sorted.
	end = b.sp.begin("graph.scramble")
	g, err := graph.Relabel(g0, rng.New(b.cfg.seed).Split(1).Perm(n))
	end()
	if err != nil {
		return nil, fmt.Errorf("scramble: %w", err)
	}
	return &arbmis{g: g, seed: b.cfg.seed}, nil
}

func (w *arbmis) shape() (int, int, int)              { return graphShape(w.g) }
func (w *arbmis) layoutInput() (*graph.Graph, string) { return w.g, "degsort" }
func (w *arbmis) close() error                        { return nil }

func (w *arbmis) options(tr *tracer) congest.Options {
	return tr.options(congest.Options{Seed: w.seed, Driver: congest.DriverSequential, Layout: "degsort"})
}

func (w *arbmis) run(b *bench, tr *tracer) (runOut, error) {
	sp := tr.spans()
	opts := w.options(tr)
	var o *repro.Outcome
	wall, rt, err := timed(func() error {
		defer sp.begin("core.computemis")()
		var err error
		o, err = repro.ComputeMIS(w.g, arbAlpha, opts)
		return err
	})
	out := runOut{wall: wall, rt: rt}
	if err != nil {
		return out, err
	}
	out.msgs, out.rounds = o.TotalMessages(), int64(o.TotalRounds())
	out.fp = fingerprint(misBytes(o.MIS))
	if tr != nil {
		w.out = o
	}
	return out, verifyMIS(b, sp, w.g, o.MIS)
}

func (w *arbmis) layers(b *bench, m metricSet, _ runOut) {
	if w.out == nil {
		return
	}
	a := w.out.Alg1
	m["core.alg1_rounds"] = float64(a.Result.Rounds)
	m["core.alg1_msgs"] = float64(a.Result.Messages)
	m["core.deferred_nodes"] = float64(a.CountStatus(base.StatusActive))
	m["core.bad_nodes"] = float64(a.CountStatus(base.StatusBad))
	// NewRunner runs inside ComputeMIS, out of the benchmark's reach; time
	// the one the pipeline's first stage builds on the whole graph.
	params := core.PracticalParams(arbAlpha, w.g.MaxDegree())
	end := b.sp.begin("congest.newrunner")
	congest.NewRunner(w.g, core.NewProgram(params), w.options(nil))
	end()
}

// ---- dynmis-stream ----

type dynStream struct {
	g       *graph.Graph
	seed    uint64
	batches []dynmis.Batch
	updates int
	eng     *dynmis.Engine // bootstrapped and not yet used, or nil
	reports []dynmis.BatchReport
}

func (w *dynStream) newEngine(events trace.Sink) (*dynmis.Engine, error) {
	return dynmis.New(w.g, dynmis.Options{Seed: w.seed, Driver: congest.DriverSequential, Events: events})
}

func setupDynMIS(b *bench) (instance, error) {
	w := &dynStream{seed: b.cfg.seed}
	end := b.sp.begin("graph.gen")
	w.g = gen.UnionOfTrees(b.cfg.sizes.dynN, 2, rng.New(b.cfg.seed))
	end()
	end = b.sp.begin("dynmis.stream_gen")
	var err error
	w.batches, err = dynmis.UpdateStream(w.g, dynmis.StreamConfig{
		Batches: b.cfg.sizes.dynBatches, BatchSize: 16, Locality: 0, Churn: 0.05,
	}, rng.New(b.cfg.seed).Split(2))
	end()
	if err != nil {
		return nil, fmt.Errorf("update stream: %w", err)
	}
	for _, bt := range w.batches {
		w.updates += len(bt)
	}
	end = b.sp.begin("dynmis.new")
	w.eng, err = w.newEngine(nil)
	end()
	if err != nil {
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	return w, nil
}

func (w *dynStream) shape() (int, int, int)              { return graphShape(w.g) }
func (w *dynStream) layoutInput() (*graph.Graph, string) { return w.g, "" }
func (w *dynStream) close() error                        { return nil }

func (w *dynStream) run(b *bench, tr *tracer) (runOut, error) {
	sp := tr.spans()
	// Each pass replays the stream on a freshly bootstrapped engine; the
	// bootstrap is set-up work and stays outside the timed region.
	eng := w.eng
	w.eng = nil
	if eng == nil || tr != nil {
		var events trace.Sink
		if tr != nil {
			events = tr.rec
		}
		var err error
		if eng, err = w.newEngine(events); err != nil {
			return runOut{}, fmt.Errorf("bootstrap: %w", err)
		}
	}
	before := eng.Stats()
	var reports []dynmis.BatchReport
	if tr != nil {
		reports = make([]dynmis.BatchReport, 0, len(w.batches))
	}
	wall, rt, err := timed(func() error {
		for _, bt := range w.batches {
			end := sp.begin("dynmis.apply")
			rep, err := eng.Apply(bt)
			end()
			if err != nil {
				return err
			}
			if reports != nil {
				reports = append(reports, rep)
			}
		}
		return nil
	})
	after := eng.Stats()
	out := runOut{wall: wall, rt: rt, msgs: after.Messages - before.Messages, rounds: after.Rounds - before.Rounds}
	if err != nil {
		return out, err
	}
	if tr != nil {
		w.reports = reports
	}
	out.fp = eng.Fingerprint()
	if b.tamper() {
		out.fp ^= 1
	}
	defer sp.begin("dynmis.verify")()
	return out, eng.Verify()
}

func (w *dynStream) layers(b *bench, m metricSet, last runOut) {
	m["dynmis.bootstrap_s"] = median(seconds(b.sp.durations("setup", "dynmis.new")))
	m["dynmis.stream_gen_s"] = median(seconds(b.sp.durations("setup", "dynmis.stream_gen")))
	applies := b.sp.durations("traced", "dynmis.apply")
	if len(applies) != len(w.reports) {
		return // the traced run failed part-way
	}
	var all, repair, norepair, region, free, rounds []float64
	for i, d := range applies {
		us := float64(d) / 1e3
		all = append(all, us)
		rep := w.reports[i]
		if rep.Region == 0 {
			norepair = append(norepair, us)
			continue
		}
		repair = append(repair, us)
		region = append(region, float64(rep.Region))
		free = append(free, float64(rep.Free))
		rounds = append(rounds, float64(rep.Rounds))
	}
	m["dynmis.updates_per_s"] = float64(w.updates) / last.wall.Seconds()
	m["dynmis.batch_p50_us"] = quantile(all, 0.5)
	m["dynmis.batch_p99_us"] = quantile(all, 0.99)
	m["dynmis.batch_samples"] = float64(len(all))
	m["dynmis.repair_batch_us_p50"] = quantile(repair, 0.5)
	m["dynmis.norepair_batch_us_p50"] = quantile(norepair, 0.5)
	m["dynmis.region_mean"] = mean(region)
	m["dynmis.region_p99"] = quantile(region, 0.99)
	m["dynmis.free_mean"] = mean(free)
	m["dynmis.repair_rounds_mean"] = mean(rounds)
	m["dynmis.repairs"] = float64(len(repair))
	var kb []float64
	for _, o := range b.outs {
		kb = append(kb, float64(o.rt.allocBytes)/1e3/float64(len(w.batches)))
	}
	m["dynmis.alloc_kb_per_batch"] = median(kb)
}

// ---- dist-faulted ----

// distShards is the fleet's worker process count.
const distShards = 2

// spannedFleet records a span around each of the fleet's Shard calls: a
// spawn plus the config handshake on a fresh fleet, a re-handshake on a
// reused one.
type spannedFleet struct {
	*distrib.ExecFleet
	sp *spans
}

// Shard implements congest.Fleet.
func (f *spannedFleet) Shard(cfg congest.ShardConfig) (congest.ShardConn, error) {
	defer f.sp.begin("distrib.shard")()
	return f.ExecFleet.Shard(cfg)
}

type distFaulted struct {
	g       *graph.Graph
	seed    uint64
	factory func(int) congest.Node
	fleet   *spannedFleet
	dir     string // the fleet's temp directory, gone once it is closed
	ref     []base.Status
	res     congest.Result   // the traced run's result
	check   *faultsim.Report // the traced run's verdict
}

var distPlan = faultsim.BernoulliDrop{P: 0.01}

func setupDist(b *bench) (instance, error) {
	w := &distFaulted{seed: b.cfg.seed}
	end := b.sp.begin("graph.gen")
	w.g = gen.UnionOfTrees(b.cfg.sizes.distN, 2, rng.New(b.cfg.seed))
	end()
	prog := distrib.Program{Algorithm: "ftmetivier"}
	var err error
	if w.factory, err = distrib.Factory(prog, w.g.N()); err != nil {
		return nil, err
	}

	// The in-process reference: same program, plan and seed, sequential.
	end = b.sp.begin("congest.run")
	r := congest.NewRunner(w.g, w.factory, congest.Options{Seed: w.seed, Driver: congest.DriverSequential, Faults: distPlan})
	_, err = r.Run()
	end()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	w.ref = base.Statuses(r, w.g.N())

	end = b.sp.begin("distrib.newfleet")
	fleet, err := distrib.NewExecFleet(w.g, prog, distShards)
	end()
	if err != nil {
		return nil, err
	}
	w.fleet = &spannedFleet{ExecFleet: fleet, sp: b.sp}
	w.dir = filepath.Dir(fleet.Socket())
	// The first run spawns the workers and hands them their configs; it is
	// checked like any other run.
	if _, err := w.run(b, &tracer{sp: b.sp}); err != nil {
		return w, fmt.Errorf("warm-up run: %w", err)
	}
	return w, nil
}

func (w *distFaulted) shape() (int, int, int)              { return graphShape(w.g) }
func (w *distFaulted) layoutInput() (*graph.Graph, string) { return w.g, "" }

// close stops the workers and removes the fleet's temp directory.
func (w *distFaulted) close() error {
	if w.fleet == nil {
		return nil
	}
	err := w.fleet.Close()
	w.fleet = nil
	if _, statErr := os.Stat(w.dir); !os.IsNotExist(statErr) {
		return fmt.Errorf("fleet temp dir %s left behind", w.dir)
	}
	return err
}

func (w *distFaulted) run(b *bench, tr *tracer) (runOut, error) {
	sp := tr.spans()
	w.fleet.sp = sp
	opts := tr.options(congest.Options{Seed: w.seed, Driver: congest.DriverDistributed, Fleet: w.fleet, Faults: distPlan})
	var r *congest.Runner
	var res congest.Result
	wall, rt, err := timed(func() error {
		end := sp.begin("congest.newrunner")
		r = congest.NewRunner(w.g, w.factory, opts)
		end()
		end = sp.begin("congest.run")
		var err error
		res, err = r.Run()
		end()
		return err
	})
	out := runOut{wall: wall, rt: rt, msgs: res.Messages, rounds: int64(res.Rounds)}
	if err != nil {
		return out, err
	}
	statuses := base.Statuses(r, w.g.N())
	if b.tamper() {
		statuses[0] = base.StatusInMIS
		if w.ref[0] == base.StatusInMIS {
			statuses[0] = base.StatusDominated
		}
	}
	out.fp = statusFingerprint(statuses)
	for v, s := range statuses {
		if s != w.ref[v] {
			return out, fmt.Errorf("vertex %d ends %v, the in-process reference run %v", v, s, w.ref[v])
		}
	}
	end := sp.begin("faultsim.check")
	rep, err := faultsim.Check(w.g, base.MISSet(statuses), nil)
	end()
	if err != nil {
		return out, err
	}
	if !rep.Safe() {
		return out, fmt.Errorf("unsafe output: %s", rep)
	}
	if tr != nil {
		w.res, w.check = res, rep
	}
	return out, nil
}

func (w *distFaulted) layers(b *bench, m metricSet, _ runOut) {
	m["distrib.spawn_s"] = b.sp.total("setup", "distrib.shard").Seconds() / setupReps
	if w.check == nil {
		return
	}
	m["faultsim.dropped"] = float64(w.res.Dropped)
	m["faultsim.drop_frac"] = float64(w.res.Dropped) / float64(w.res.Messages+w.res.Dropped)
	m["faultsim.coverage"] = w.check.Coverage()
	m["faultsim.violations"] = float64(len(w.check.Violations))
}
