// The Métivier benchmark suites behind E17–E19, E21, E22 and BENCH_alloc,
// BENCH_trace, BENCH_scale, BENCH_dist and BENCH_layout.json: one cell
// runner over one spec (groups × cells) and one row schema, with the
// determinism checks and acceptance bars applied the same way to every
// suite.
package exp

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/mis/metivier"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Group is one input graph of a suite: a generator family at size n,
// optionally label-scrambled first. Scrambling models the arbitrary
// labeling real inputs arrive with; the generators emit natural,
// already cache-friendly orders.
type Group struct {
	Family    string
	N         int
	Scrambled bool
}

// Cell is one run configuration applied to every group of a suite.
type Cell struct {
	// Layout is the engine's vertex ordering; "" keeps the ingest
	// labeling and skips the relabel-cost measurement.
	Layout string
	Driver congest.DriverKind
	// Workers is the pool's shard count request (0 = GOMAXPROCS) or the
	// distributed driver's worker-process count.
	Workers int
	// Trace is the timed runs' tracing mode: "" (off), "ring" (a
	// Recorder) or "jsonl" (a Recorder streaming to a temp file).
	Trace string
	// Faulted adds a traced run under the suite's fault plan whose
	// fingerprint joins the group-agreement check.
	Faulted bool
}

// Suite is one Métivier benchmark: every group run through every cell.
type Suite struct {
	Name   string
	Title  string
	Groups []Group
	Cells  []Cell
	// Ref indexes the cell whose row is each group's speedup reference.
	Ref  int
	Reps int
	// Columns selects the rendered table's columns (see column).
	Columns []string
	// bars derives the suite's acceptance bars from its rows.
	bars func([]Row) []Bar
	// faults is the fault model of the Faulted cells.
	faults faultPlan
}

// Row is one (group, cell) measurement — the schema of every suite
// artifact.
type Row struct {
	Family           string `json:"family"`
	N                int    `json:"n"`
	M                int    `json:"m"`
	Scrambled        bool   `json:"scrambled,omitempty"`
	Layout           string `json:"layout,omitempty"`
	Driver           string `json:"driver"`
	WorkersRequested int    `json:"workers_requested,omitempty"`
	// Workers is the pool shard count the engine resolved the request to
	// (clamped to GOMAXPROCS and n) or the distributed worker-process
	// count; 0 on the sequential driver.
	Workers int    `json:"workers,omitempty"`
	Trace   string `json:"trace"`
	// WallNS is the best-of-reps wall time for one full run (JSONL flush
	// included); AllocsPerRun/BytesPerRun are the smallest heap
	// allocation count and byte total over the same reps.
	WallNS         int64   `json:"wall_ns"`
	Rounds         int     `json:"rounds"`
	Messages       int64   `json:"messages"`
	MessagesPerSec float64 `json:"messages_per_sec"`
	AllocsPerRun   uint64  `json:"allocs_per_run"`
	BytesPerRun    uint64  `json:"bytes_per_run"`
	// Events is the trace event count of a traced timed run.
	Events uint64 `json:"events,omitempty"`
	// FingerprintClean/FingerprintFaulted are the deterministic-event
	// fingerprints of one traced clean and (Faulted cells) one traced
	// faulted run; FaultedStalled records a faulted run that hit its
	// round cap, which every cell of a layout must do alike.
	FingerprintClean   string `json:"fingerprint_clean"`
	FingerprintFaulted string `json:"fingerprint_faulted,omitempty"`
	FaultedStalled     bool   `json:"faulted_stalled,omitempty"`
	// Rebalances counts the traced clean run's shard rebalances
	// (advisory: depends on the worker count).
	Rebalances int64 `json:"rebalances,omitempty"`
	// FrameBytesPerRound and MeanRTTNS are the distributed driver's
	// transport cost in the traced clean run: coordinator↔worker frame
	// bytes per round and the mean per-shard frame round trip (advisory).
	FrameBytesPerRound float64 `json:"frame_bytes_per_round,omitempty"`
	MeanRTTNS          int64   `json:"mean_rtt_ns,omitempty"`
	// RelabelNS is the one-time cost of computing the layout and
	// rebuilding the CSR in its order.
	RelabelNS int64 `json:"relabel_ns,omitempty"`
	// Speedup is wall(group's reference row) / wall(this row).
	Speedup float64 `json:"speedup"`

	result congest.Result
}

// SuiteReport is a suite's artifact (BENCH_<suite>.json).
type SuiteReport struct {
	Suite      string `json:"suite"`
	Title      string `json:"title"`
	Algorithm  string `json:"algorithm"`
	Seed       uint64 `json:"seed"`
	Reps       int    `json:"reps"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	FaultPlan  string `json:"fault_plan,omitempty"`
	Rows       []Row  `json:"rows"`
	Bars       []Bar  `json:"bars,omitempty"`

	columns []string
}

// sizing picks one of the pinned sizes every Métivier suite is defined at.
type sizing int

const (
	// sizeQuick is the smoke/test slice (cmd/bench -quick).
	sizeQuick sizing = iota
	// sizeExperiment is a full cmd/bench experiment pass.
	sizeExperiment
	// sizeArtifact is what `make bench-<suite>` records.
	sizeArtifact
)

// pick returns the value for size s.
func (s sizing) pick(quick, experiment, artifact int) int {
	return [...]int{quick, experiment, artifact}[s]
}

// suiteNames lists the Métivier suites metivierSuite knows.
var suiteNames = []string{"alloc", "trace", "scale", "dist", "layout"}

// metivierSuite returns the named suite at the given size.
func metivierSuite(name string, size sizing) (Suite, error) {
	switch name {
	case "alloc":
		return allocSuite(size.pick(1<<9, 1<<14, 1<<14), size.pick(1, 5, 5)), nil
	case "trace":
		return traceSuite(size.pick(1<<9, 1<<14, 1<<14), size.pick(1, 5, 5)), nil
	case "scale":
		switch size {
		case sizeQuick:
			return scaleSuite([]int{1 << 11}, []int{1, 2}, 1), nil
		case sizeExperiment:
			return scaleSuite([]int{1 << 16}, []int{1, 2, 4, 8}, 2), nil
		}
		return scaleSuite([]int{1 << 18, 1 << 20, 1 << 22}, []int{1, 2, 4, 8, 0}, 2), nil
	case "dist":
		shards := []int{1, 2, 4, 8}
		if size == sizeQuick {
			shards = []int{2, 3}
		}
		return distSuite(size.pick(192, 1<<10, 1<<10), shards, size.pick(1, 1, 3)), nil
	case "layout":
		switch size {
		case sizeQuick:
			return layoutSuite([]int{1 << 11}, 1), nil
		case sizeExperiment:
			return layoutSuite([]int{1 << 16}, 2), nil
		}
		return layoutSuite([]int{1 << 16, 1 << 18, 1 << 20}, 2), nil
	}
	return Suite{}, fmt.Errorf("unknown suite %q", name)
}

// allocSuite is E18: allocations and throughput per in-process driver.
func allocSuite(n, reps int) Suite {
	return Suite{
		Name:    "alloc",
		Title:   "Allocation profile — metivier, union-of-trees(α=2)",
		Groups:  []Group{{Family: "union-a2", N: n}},
		Cells:   []Cell{{Driver: congest.DriverSequential}, {Driver: congest.DriverPool}},
		Reps:    reps,
		Columns: []string{"n", "driver", "workers", "wall ms", "msgs/s", "allocs/run", "KB/run", "allocs/msg"},
	}
}

// traceSuite is E17: tracing off / ring / JSONL on the pool driver.
func traceSuite(n, reps int) Suite {
	var cells []Cell
	for _, mode := range []string{"", "ring", "jsonl"} {
		cells = append(cells, Cell{Driver: congest.DriverPool, Trace: mode})
	}
	return Suite{
		Name:    "trace",
		Title:   "Tracing overhead — metivier, union-of-trees(α=2), pool driver",
		Groups:  []Group{{Family: "union-a2", N: n}},
		Cells:   cells,
		Reps:    reps,
		Columns: []string{"n", "trace", "wall ms", "overhead %", "events", "rounds"},
		bars:    traceBars,
	}
}

// scaleSuite is E19: the sequential driver plus the pool at each worker
// count (0 = GOMAXPROCS), clean and faulted. workers[0] must be 1: the
// single-worker pool row is the speedup reference.
func scaleSuite(ns, workers []int, reps int) Suite {
	s := Suite{
		Name:    "scale",
		Title:   "Multicore scaling — metivier, union-of-trees(α=2)",
		Cells:   []Cell{{Driver: congest.DriverSequential, Faulted: true}},
		Ref:     1,
		Reps:    reps,
		Columns: []string{"n", "driver", "requested", "workers", "wall ms", "speedup", "msgs/s", "rebalances"},
		faults:  dropFaults,
	}
	for _, n := range ns {
		s.Groups = append(s.Groups, Group{Family: "union-a2", N: n})
	}
	for _, w := range workers {
		s.Cells = append(s.Cells, Cell{Driver: congest.DriverPool, Workers: w, Faulted: true})
	}
	return s
}

// distSuite is E21: the sequential driver against fleets of shard worker
// processes over unix sockets, clean and faulted. The sequential row is
// the speedup reference.
func distSuite(n int, shards []int, reps int) Suite {
	s := Suite{
		Name:    "dist",
		Title:   "Distributed driver — metivier, union-of-trees(α=2), shard worker processes",
		Groups:  []Group{{Family: "union-a2", N: n}},
		Cells:   []Cell{{Driver: congest.DriverSequential, Faulted: true}},
		Reps:    reps,
		Columns: []string{"n", "driver", "workers", "wall ms", "speedup", "msgs/s", "frame B/round", "rtt µs"},
		faults:  distFaults,
	}
	for _, w := range shards {
		s.Cells = append(s.Cells, Cell{Driver: congest.DriverDistributed, Workers: w, Faulted: true})
	}
	return s
}

// layoutSuite is E22: every ordering over scrambled families, timed on
// the sequential driver and on the pool at 4 workers.
func layoutSuite(ns []int, reps int) Suite {
	s := Suite{
		Name:    "layout",
		Title:   "Cache-conscious layouts — metivier, scrambled labels",
		Reps:    reps,
		Columns: []string{"family", "n", "layout", "driver", "wall ms", "relabel ms", "speedup", "msgs/s"},
		bars:    layoutBars,
	}
	for _, fam := range []string{"union-a4", "powerlaw", "grid"} {
		for _, n := range ns {
			s.Groups = append(s.Groups, Group{Family: fam, N: n, Scrambled: true})
		}
	}
	for _, lo := range layout.Orderings() {
		s.Cells = append(s.Cells,
			Cell{Layout: string(lo), Driver: congest.DriverSequential},
			Cell{Layout: string(lo), Driver: congest.DriverPool, Workers: 4})
	}
	return s
}

// buildGroup generates a group's input graph. The generator streams are
// the ones the recorded fingerprints were pinned under: the α=2 engine
// workload draws from the seed itself, the layout families from its 0xf
// split, and the scramble permutation from its n split.
func buildGroup(gr Group, seed uint64) (*graph.Graph, error) {
	var g *graph.Graph
	switch gr.Family {
	case "union-a2":
		g = gen.UnionOfTrees(gr.N, 2, rng.New(seed))
	case "union-a4":
		g = gen.UnionOfTrees(gr.N, 4, rng.New(seed).Split(0xf).Split(1))
	case "powerlaw":
		g = gen.PreferentialAttachment(gr.N, 4, rng.New(seed).Split(0xf).Split(2))
	case "grid":
		side := 1
		for side*side < gr.N {
			side++
		}
		g = gen.Grid(side, side)
	default:
		return nil, fmt.Errorf("unknown family %q", gr.Family)
	}
	if !gr.Scrambled {
		return g, nil
	}
	return graph.Relabel(g, rng.New(seed).Split(uint64(gr.N)).Perm(g.N()))
}

// faultPlan is a suite's fault model for its faulted cells, sized to the
// group's n and named in the report. Métivier can stall under loss, so
// faulted runs are capped at suiteFaultMaxRounds; an identical stall is
// still a valid comparison.
type faultPlan struct {
	name  string
	build func(n int) faultsim.Plan
}

const suiteFaultMaxRounds = 300

var (
	// dropFaults is a light Bernoulli drop, enough to exercise the fault
	// stream in global sender order.
	dropFaults = faultPlan{"bernoulli-drop(p=0.01)", func(int) faultsim.Plan {
		return faultsim.BernoulliDrop{P: 0.01}
	}}
	// distFaults adds crash windows, whose fates the coordinator ships to
	// the shard processes: vertex 1 is down for rounds 2–8, vertex n/2 is
	// gone from round 3.
	distFaults = faultPlan{"bernoulli-drop(p=0.02)+crash-restart(1:[2,9), n/2:gone@3)", func(n int) faultsim.Plan {
		return faultsim.Compose(
			faultsim.BernoulliDrop{P: 0.02},
			faultsim.NewCrashRestart(map[int]faultsim.Window{1: {Down: 2, Up: 9}, n / 2: {Down: 3}}),
		)
	}}
)

// runSuite runs every cell of s on every group at seed and returns one
// row per (group, cell). Within a group, every cell of a layout must
// agree on the run counters and fingerprints; a divergence is an error,
// so each suite doubles as a determinism check. GOMAXPROCS is raised to
// the widest pool worker request for the run (and restored); distributed
// shards are processes and need no raise. Bars are computed, not
// enforced: callers run checkBars on the report.
func runSuite(s Suite, seed uint64) (*SuiteReport, error) {
	if s.Reps < 1 {
		s.Reps = 1
	}
	procs := runtime.GOMAXPROCS(0)
	for _, c := range s.Cells {
		if c.Driver != congest.DriverPool {
			continue
		}
		if w := c.Workers; w > procs {
			procs = w
		} else if w <= 0 && runtime.NumCPU() > procs {
			procs = runtime.NumCPU()
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	rep := &SuiteReport{
		Suite: s.Name, Title: s.Title, Algorithm: "metivier", Seed: seed, Reps: s.Reps,
		NumCPU: runtime.NumCPU(), GoMaxProcs: procs, columns: s.Columns,
	}
	for _, c := range s.Cells {
		if c.Faulted {
			rep.FaultPlan = s.faults.name
		}
	}
	for _, gr := range s.Groups {
		g, err := buildGroup(gr, seed)
		if err != nil {
			return nil, fmt.Errorf("%s bench: %w", s.Name, err)
		}
		// One untimed warm-up run, so the first cell does not pay the
		// heap growth and cold caches every later cell skips.
		if _, _, err := metivier.Run(g, congest.Options{Seed: seed}); err != nil {
			return nil, fmt.Errorf("%s bench: warm-up: %w", s.Name, err)
		}
		rows := make([]Row, len(s.Cells))
		for i, c := range s.Cells {
			rows[i] = Row{Family: gr.Family, N: g.N(), M: g.M(), Scrambled: gr.Scrambled}
			if err := runCell(&rows[i], g, s, c, seed); err != nil {
				return nil, fmt.Errorf("%s bench: %s: %w", s.Name, rows[i].name(), err)
			}
		}
		if err := checkGroup(rows); err != nil {
			return nil, fmt.Errorf("%s bench: %w", s.Name, err)
		}
		for i := range rows {
			if rows[i].WallNS > 0 {
				rows[i].Speedup = float64(rows[s.Ref].WallNS) / float64(rows[i].WallNS)
			}
		}
		rep.Rows = append(rep.Rows, rows...)
	}
	if s.bars != nil {
		rep.Bars = s.bars(rep.Rows)
	}
	return rep, nil
}

// runCell fills row with cell c's measurements on g: the relabel cost,
// s.Reps timed runs (best wall, fewest allocations), one traced clean
// fingerprint run and, for faulted cells, one traced faulted run. A
// distributed cell runs all of them on one fleet of worker processes.
func runCell(row *Row, g *graph.Graph, s Suite, c Cell, seed uint64) error {
	row.Layout, row.Driver, row.Trace = c.Layout, c.Driver.String(), c.Trace
	if row.Trace == "" {
		row.Trace = "off"
	}
	opts := congest.Options{Seed: seed, Driver: c.Driver, Workers: c.Workers, Layout: c.Layout}
	switch c.Driver {
	case congest.DriverPool:
		row.WorkersRequested, row.Workers = c.Workers, opts.WorkerCount(g.N())
	case congest.DriverDistributed:
		fleet, err := distrib.NewExecFleet(g, distrib.Program{Algorithm: "metivier"}, c.Workers)
		if err != nil {
			return err
		}
		defer fleet.Close()
		opts.Fleet = fleet
		row.WorkersRequested, row.Workers = c.Workers, c.Workers
	}

	if c.Layout != "" {
		start := time.Now()
		perm, _, err := layout.Compute(g, layout.Ordering(c.Layout))
		if err == nil && perm != nil {
			_, err = graph.Relabel(g, perm)
		}
		if err != nil {
			return err
		}
		row.RelabelNS = int64(time.Since(start))
	}

	var ms runtime.MemStats
	timedFP := ""
	for rep := 0; rep < s.Reps; rep++ {
		rec, finish, err := timedSink(c.Trace)
		if err != nil {
			return err
		}
		o := opts
		if rec != nil {
			o.Events = rec
		}
		// Settle the heap so the MemStats delta is the run's own work.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		mallocs, bytes := ms.Mallocs, ms.TotalAlloc
		start := time.Now()
		_, res, err := metivier.Run(g, o)
		if ferr := finish(); err == nil {
			err = ferr
		}
		wall := int64(time.Since(start))
		runtime.ReadMemStats(&ms)
		if err != nil {
			return err
		}
		allocs, alloced := ms.Mallocs-mallocs, ms.TotalAlloc-bytes
		if rep == 0 {
			row.result, row.WallNS, row.AllocsPerRun, row.BytesPerRun = res, wall, allocs, alloced
		} else if res != row.result {
			return fmt.Errorf("rep %d diverged: %+v != %+v", rep, res, row.result)
		}
		row.WallNS = min(row.WallNS, wall)
		row.AllocsPerRun = min(row.AllocsPerRun, allocs)
		row.BytesPerRun = min(row.BytesPerRun, alloced)
		if rec != nil {
			timedFP, row.Events = fingerprintHex(rec.Fingerprint()), rec.Total()
		}
	}
	row.Rounds, row.Messages = row.result.Rounds, row.result.Messages
	if row.WallNS > 0 {
		row.MessagesPerSec = float64(row.Messages) / (float64(row.WallNS) / 1e9)
	}

	fp, counts, _, err := fingerprintRun(g, opts)
	if err != nil {
		return fmt.Errorf("traced: %w", err)
	}
	row.FingerprintClean, row.Rebalances = fp, counts.rebalances
	if counts.frames > 0 {
		row.FrameBytesPerRound = float64(counts.frameBytes) / float64(row.Rounds)
		row.MeanRTTNS = counts.rttNS / counts.frames
	}
	if timedFP != "" && timedFP != row.FingerprintClean {
		return fmt.Errorf("timed %s run fingerprint %s != traced run %s", c.Trace, timedFP, row.FingerprintClean)
	}
	if c.Faulted {
		faulted := opts
		faulted.Faults, faulted.MaxRounds = s.faults.build(g.N()), suiteFaultMaxRounds
		if row.FingerprintFaulted, _, row.FaultedStalled, err = fingerprintRun(g, faulted); err != nil {
			return fmt.Errorf("faulted: %w", err)
		}
	}
	return nil
}

// timedSink builds the event sink of one timed run in tracing mode:
// none when off, a Recorder for "ring", and for "jsonl" a Recorder
// streaming to a temp file. finish flushes and removes the file.
func timedSink(mode string) (*trace.Recorder, func() error, error) {
	switch mode {
	case "":
		return nil, func() error { return nil }, nil
	case "ring":
		return trace.NewRecorder(0), func() error { return nil }, nil
	case "jsonl":
		f, err := os.CreateTemp("", "trace-bench-*.jsonl")
		if err != nil {
			return nil, nil, err
		}
		sink := trace.NewJSONLSink(f)
		return trace.NewRecorder(0, sink), func() error {
			err := sink.Flush()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			os.Remove(f.Name()) // a scratch file: a failed removal loses nothing
			return err
		}, nil
	}
	return nil, nil, fmt.Errorf("unknown trace mode %q", mode)
}

// fingerprintHex renders a deterministic trace fingerprint the way every
// BENCH artifact and experiment note records it.
func fingerprintHex(fp uint64) string { return fmt.Sprintf("%#016x", fp) }

// runCounts tallies a traced run's advisory events: the pool driver's
// shard rebalances and the distributed driver's frame round trips.
type runCounts struct {
	rebalances, frames, frameBytes, rttNS int64
}

// Emit implements trace.Sink.
func (c *runCounts) Emit(e trace.Event) {
	switch e.Type {
	case trace.EvRebalance:
		c.rebalances++
	case trace.EvFrame:
		c.frames++
		c.frameBytes += e.X + e.Y
		c.rttNS += e.Z
	}
}

// fingerprintRun executes one traced run with timing events on and
// returns its deterministic fingerprint, its advisory counts, and whether
// it stalled at the round cap (tolerated only for faulted runs).
func fingerprintRun(g *graph.Graph, opts congest.Options) (string, runCounts, bool, error) {
	var counts runCounts
	rec := trace.NewRecorder(0, &counts)
	opts.Events, opts.EventTiming = rec, true
	_, _, err := metivier.Run(g, opts)
	stalled := opts.Faults != nil && errors.Is(err, congest.ErrMaxRounds)
	if err != nil && !stalled {
		return "", runCounts{}, false, err
	}
	return fingerprintHex(rec.Fingerprint()), counts, stalled, nil
}

// name identifies a row in errors: family, n, then the cell.
func (r Row) name() string {
	s := fmt.Sprintf("%s n=%d", r.Family, r.N)
	if r.Layout != "" {
		s += " " + r.Layout
	}
	s += " " + r.Driver
	if r.Workers > 0 {
		s += fmt.Sprintf("(w=%d)", r.Workers)
	}
	if r.Trace != "off" {
		s += " trace=" + r.Trace
	}
	return s
}

// checkGroup enforces the determinism contract on one group's rows:
// every cell of a layout must agree on the run counters and on the clean
// and faulted fingerprints.
func checkGroup(rows []Row) error {
	first := map[string]Row{}
	for _, r := range rows {
		ref, ok := first[r.Layout]
		if !ok {
			first[r.Layout] = r
			continue
		}
		switch {
		case r.result != ref.result || r.Rounds != ref.Rounds || r.Messages != ref.Messages:
			return fmt.Errorf("%s counters (%d rounds, %d msgs) diverge from %s (%d rounds, %d msgs)",
				r.name(), r.Rounds, r.Messages, ref.name(), ref.Rounds, ref.Messages)
		case r.FingerprintClean != ref.FingerprintClean:
			return fmt.Errorf("%s clean fingerprint %s != %s of %s",
				r.name(), r.FingerprintClean, ref.FingerprintClean, ref.name())
		case r.FingerprintFaulted != ref.FingerprintFaulted || r.FaultedStalled != ref.FaultedStalled:
			return fmt.Errorf("%s faulted fingerprint %s (stalled %t) != %s (stalled %t) of %s",
				r.name(), r.FingerprintFaulted, r.FaultedStalled, ref.FingerprintFaulted, ref.FaultedStalled, ref.name())
		}
	}
	return nil
}

// Bar is one acceptance threshold with the value measured against it.
type Bar struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Limit float64 `json:"limit"`
	// AtMost makes Limit a budget Value must not exceed; otherwise it is
	// a floor Value must reach.
	AtMost bool `json:"at_most,omitempty"`
}

// checkBars fails on every bar whose value misses its limit.
func checkBars(bars []Bar) error {
	var errs []error
	for _, b := range bars {
		if b.AtMost && b.Value > b.Limit {
			errs = append(errs, fmt.Errorf("%s: %.3f exceeds the %.3g budget", b.Name, b.Value, b.Limit))
		} else if !b.AtMost && b.Value < b.Limit {
			errs = append(errs, fmt.Errorf("%s: %.3f is below the %.3g bar", b.Name, b.Value, b.Limit))
		}
	}
	return errors.Join(errs...)
}

// barSpec declares an acceptance bar. It applies from minN up only, so
// the quick and experiment slices record their values without it.
type barSpec struct {
	name   string
	limit  float64
	atMost bool
	minN   int
}

// The acceptance bars.
var (
	layoutBar = barSpec{"best non-identity layout's sequential speedup over identity", 1.15, false, 1 << 20}
	dynmisBar = barSpec{"incremental-repair speedup over full recompute", 10, false, 1 << 16}
	traceBar  = barSpec{"ring tracing overhead % on the pool driver", 15, true, 1 << 14}
	faultBar  = barSpec{"independence violations", 0, true, 0}
)

// at appends the bar for a measurement at size n, if it applies there.
func (s barSpec) at(bars []Bar, n int, where string, value float64) []Bar {
	if n < s.minN {
		return bars
	}
	return append(bars, Bar{Name: where + ": " + s.name, Value: value, Limit: s.limit, AtMost: s.atMost})
}

// overheadPct is a row's wall-time overhead over its group's reference.
func overheadPct(r Row) float64 {
	if r.Speedup <= 0 {
		return 0
	}
	return (1/r.Speedup - 1) * 100
}

// traceBars holds every ring row of the trace suite to the E17 budget.
func traceBars(rows []Row) []Bar {
	var bars []Bar
	for _, r := range rows {
		if r.Trace == "ring" && r.Driver == congest.DriverPool.String() {
			bars = traceBar.at(bars, r.N, r.name(), overheadPct(r))
		}
	}
	return bars
}

// layoutBars holds the best non-identity sequential layout to the bar
// on the densest (most edges) family at the largest n.
func layoutBars(rows []Row) []Bar {
	var cell *Row
	for i := range rows {
		r := &rows[i]
		if cell == nil || r.N > cell.N || r.N == cell.N && r.M > cell.M {
			cell = r
		}
	}
	var best *Row
	for i := range rows {
		r := &rows[i]
		if r.Family == cell.Family && r.N == cell.N && r.Layout != string(layout.Identity) &&
			r.Driver == congest.DriverSequential.String() && (best == nil || r.Speedup > best.Speedup) {
			best = r
		}
	}
	if best == nil {
		return nil
	}
	return layoutBar.at(nil, best.N, best.name(), best.Speedup)
}

// Table renders the report's rows under the suite's columns.
func (r *SuiteReport) Table() *stats.Table {
	t := stats.NewTable(fmt.Sprintf("%s, best of %d (cpus=%d)", r.Title, r.Reps, r.NumCPU), r.columns...)
	for _, row := range r.Rows {
		cells := make([]interface{}, len(r.columns))
		for i, c := range r.columns {
			cells[i] = column(row, c)
		}
		t.AddRow(cells...)
	}
	return t
}

// column renders one named table column of a row.
func column(r Row, name string) interface{} {
	switch name {
	case "family":
		return r.Family
	case "n":
		return r.N
	case "layout":
		return r.Layout
	case "driver":
		return r.Driver
	case "requested":
		return r.WorkersRequested
	case "workers":
		return r.Workers
	case "trace":
		return r.Trace
	case "wall ms":
		return float64(r.WallNS) / 1e6
	case "relabel ms":
		return float64(r.RelabelNS) / 1e6
	case "speedup":
		return r.Speedup
	case "overhead %":
		return overheadPct(r)
	case "msgs/s":
		return r.MessagesPerSec
	case "rounds":
		return r.Rounds
	case "allocs/run":
		return int(r.AllocsPerRun)
	case "KB/run":
		return float64(r.BytesPerRun) / 1024
	case "allocs/msg":
		return float64(r.AllocsPerRun) / float64(max(r.Messages, 1))
	case "events":
		return int(r.Events)
	case "rebalances":
		return int(r.Rebalances)
	case "frame B/round":
		return r.FrameBytesPerRound
	case "rtt µs":
		return float64(r.MeanRTTNS) / 1e3
	}
	return "?"
}
