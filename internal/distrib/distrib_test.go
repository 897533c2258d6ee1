// End-to-end suite for the distributed multi-process driver: every run
// here spawns real worker processes (the test binary re-execs itself via
// TestMain/MaybeWorker) and must be bit-identical with the sequential
// driver — statuses, Result counters, and deterministic trace
// fingerprints, clean and faulted, including runs where a worker is
// SIGKILLed mid-run and recovered from the replay log.
package distrib_test

import (
	"net"
	"os"
	"syscall"
	"testing"

	"repro/internal/congest"
	"repro/internal/distrib"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis/base"
	"repro/internal/rng"
	"repro/internal/trace"
)

// TestMain is the self-exec hook: when ExecFleet spawns this test binary
// as a shard worker, MaybeWorker serves the run and exits before any
// test runs.
func TestMain(m *testing.M) {
	distrib.MaybeWorker()
	os.Exit(m.Run())
}

// bfsParents builds the rooted-forest parent map Cole-Vishkin needs
// (mirrors the congest cross-driver suite).
func bfsParents(g *graph.Graph) []int {
	parent := make([]int, g.N())
	for v := range parent {
		parent[v] = -2
	}
	for s := 0; s < g.N(); s++ {
		if parent[s] != -2 {
			continue
		}
		parent[s] = -1
		queue := []int{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(v) {
				if parent[w] == -2 {
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
	}
	return parent
}

// runSequential executes prog under the sequential driver with the same
// factory a worker constructs, as the reference for every comparison.
func runSequential(t *testing.T, g *graph.Graph, prog distrib.Program, opts congest.Options) ([]base.Status, congest.Result, error) {
	t.Helper()
	factory, err := distrib.Factory(prog, g.N())
	if err != nil {
		t.Fatal(err)
	}
	opts.Driver = congest.DriverSequential
	r := congest.NewRunner(g, factory, opts)
	res, err := r.Run()
	if err != nil {
		return nil, res, err
	}
	return base.Statuses(r, g.N()), res, nil
}

// runDistributed executes prog over a fresh self-exec fleet.
func runDistributed(t *testing.T, g *graph.Graph, prog distrib.Program, shards int, opts congest.Options) ([]base.Status, congest.Result, error) {
	t.Helper()
	res, r, err := distrib.Run(g, prog, shards, opts)
	if err != nil {
		return nil, res, err
	}
	return base.Statuses(r, g.N()), res, nil
}

// compareRuns fails the test on any divergence between a sequential
// reference and a distributed run of the same program and options.
func compareRuns(t *testing.T, label string, g *graph.Graph, prog distrib.Program, shards int, opts congest.Options) {
	t.Helper()
	seqSt, seqRes, seqErr := runSequential(t, g, prog, opts)
	distSt, distRes, distErr := runDistributed(t, g, prog, shards, opts)
	if (seqErr == nil) != (distErr == nil) || (seqErr != nil && seqErr.Error() != distErr.Error()) {
		t.Fatalf("%s: sequential err %v, distributed err %v", label, seqErr, distErr)
	}
	if seqRes != distRes {
		t.Fatalf("%s: sequential Result %+v != distributed Result %+v", label, seqRes, distRes)
	}
	for v := range seqSt {
		if seqSt[v] != distSt[v] {
			t.Fatalf("%s: node %d status %v sequential, %v distributed", label, v, seqSt[v], distSt[v])
		}
	}
}

// TestDistributedMatchesSequentialClean sweeps every registry algorithm:
// a clean distributed run over real worker processes must reproduce the
// sequential driver's statuses and counters exactly.
func TestDistributedMatchesSequentialClean(t *testing.T) {
	n := 96
	union := gen.UnionOfTrees(n, 2, rng.New(12))
	forest := gen.RandomTree(n, rng.New(11))
	for _, name := range distrib.Algorithms() {
		prog := distrib.Program{Algorithm: name}
		g := union
		if name == "colevishkin" {
			g = forest
			prog.Args = distrib.ColeVishkinArgs(bfsParents(forest))
		}
		compareRuns(t, name, g, prog, 3, congest.Options{Seed: 77})
	}
}

// TestDistributedShardCounts checks the driver across degenerate and
// uneven fleet shapes: one shard, more shards than fits evenly, and more
// shards than vertices (the engine clamps; empty shards never spawn).
func TestDistributedShardCounts(t *testing.T) {
	prog := distrib.Program{Algorithm: "metivier"}
	g := gen.UnionOfTrees(40, 2, rng.New(5))
	for _, shards := range []int{1, 3, 7, 64} {
		compareRuns(t, "metivier/shards", g, prog, shards, congest.Options{Seed: 9})
	}
}

// TestDistributedFaulted runs the full faultsim plan spectrum through the
// distributed driver: fates and message faults are drawn on the
// coordinator, so faulted executions must stay bit-identical too.
func TestDistributedFaulted(t *testing.T) {
	n := 128
	g := gen.UnionOfTrees(n, 2, rng.New(21))
	plan := faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.08},
		faultsim.NewCrashRestart(map[int]faultsim.Window{
			1:     {Down: 2, Up: 8},
			n / 2: {Down: 3, Up: 0},
			n - 1: {Down: 5, Up: 20},
		}),
		faultsim.DelayK{K: 3},
	)
	for _, alg := range []string{"metivier", "ftmetivier"} {
		prog := distrib.Program{Algorithm: alg}
		opts := congest.Options{Seed: 33, Faults: plan, MaxRounds: 400}
		compareRuns(t, alg+"/faulted", g, prog, 3, opts)
	}
}

// goldenFaultedPlan is the exact plan of the congest package's
// TestGoldenFaultedExecution; the distributed driver must reproduce the
// same pinned run.
func goldenFaultedPlan() faultsim.Plan {
	return faultsim.Compose(
		faultsim.BernoulliDrop{P: 0.1},
		faultsim.NewCrashRestart(map[int]faultsim.Window{
			5:   {Down: 2, Up: 14},
			64:  {Down: 4, Up: 0},
			128: {Down: 6, Up: 0},
			200: {Down: 3, Up: 0},
		}),
	)
}

// goldenFaultedConstants are the pinned values shared with the congest
// golden suite. Any drift is a cross-PR determinism break.
const (
	goldenRounds      = 204
	goldenMIS         = 94
	goldenCrashed     = 3
	goldenFingerprint = uint64(0x6608fb1ead99f649)
)

// statusFingerprint matches the congest golden suite's pinning hash
// (FNV-1a over the status bytes).
func statusFingerprint(st []base.Status) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, s := range st {
		h ^= uint64(byte(s))
		h *= prime64
	}
	return h
}

// checkGolden asserts a run reproduced the pinned golden faulted
// execution exactly.
func checkGolden(t *testing.T, label string, g *graph.Graph, st []base.Status, res congest.Result, plan faultsim.Plan) {
	t.Helper()
	if res.Rounds != goldenRounds {
		t.Fatalf("%s: rounds = %d, want %d", label, res.Rounds, goldenRounds)
	}
	crashed := faultsim.CrashedAt(plan, res.Rounds+1, g.N())
	rep, err := faultsim.Check(g, base.MISSet(st), crashed)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() {
		t.Fatalf("%s: independence violated: %v", label, rep.Violations)
	}
	if rep.InMIS != goldenMIS || rep.Crashed != goldenCrashed {
		t.Fatalf("%s: |MIS| = %d crashed = %d, want %d/%d", label, rep.InMIS, rep.Crashed, goldenMIS, goldenCrashed)
	}
	if fp := statusFingerprint(st); fp != goldenFingerprint {
		t.Fatalf("%s: status fingerprint %#x, want %#x", label, fp, goldenFingerprint)
	}
}

// TestDistributedGoldenFaulted extends the engine's pinned golden faulted
// execution to the distributed driver: n = 256 over four worker
// processes must land on the exact fingerprint every in-process driver
// pins.
func TestDistributedGoldenFaulted(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	plan := goldenFaultedPlan()
	prog := distrib.Program{Algorithm: "ftmetivier"}
	opts := congest.Options{Seed: 1234, Faults: plan, MaxRounds: 400}
	st, res, err := runDistributed(t, g, prog, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "distributed", g, st, res, plan)
}

// TestDistributedTraceFingerprint pins the deterministic event stream:
// a traced distributed run must produce the exact deterministic
// fingerprint of the traced sequential run — program events, halts, RNG
// accounting and round markers all cross the socket unchanged.
func TestDistributedTraceFingerprint(t *testing.T) {
	n := 512
	g := gen.UnionOfTrees(n, 2, rng.New(3))
	prog := distrib.Program{Algorithm: "metivier"}
	factory, err := distrib.Factory(prog, n)
	if err != nil {
		t.Fatal(err)
	}

	seqRec := trace.NewRecorder(0)
	seqRunner := congest.NewRunner(g, factory, congest.Options{Seed: 42, Events: seqRec})
	seqRes, err := seqRunner.Run()
	if err != nil {
		t.Fatal(err)
	}

	distRec := trace.NewRecorder(0)
	distRes, _, err := distrib.Run(g, prog, 3, congest.Options{Seed: 42, Events: distRec})
	if err != nil {
		t.Fatal(err)
	}
	if seqRes != distRes {
		t.Fatalf("Result diverged: sequential %+v, distributed %+v", seqRes, distRes)
	}
	if seqRec.Fingerprint() != distRec.Fingerprint() {
		t.Fatalf("deterministic fingerprint diverged: sequential %#x, distributed %#x",
			seqRec.Fingerprint(), distRec.Fingerprint())
	}
	if seqRec.DeterministicCount() != distRec.DeterministicCount() {
		t.Fatalf("deterministic event count diverged: sequential %d, distributed %d",
			seqRec.DeterministicCount(), distRec.DeterministicCount())
	}
}

// killerSink is a trace sink that SIGKILLs a worker process when a pinned
// round starts, and counts the respawn events recovery emits.
type killerSink struct {
	inner    trace.Sink
	killAt   int32
	pid      func() int
	fired    bool
	respawns int
}

func (k *killerSink) Emit(e trace.Event) {
	k.inner.Emit(e)
	switch {
	case e.Type == trace.EvRoundStart && e.Round == k.killAt && !k.fired:
		k.fired = true
		if pid := k.pid(); pid > 0 {
			_ = syscall.Kill(pid, syscall.SIGKILL)
		}
	case e.Type == trace.EvRespawn:
		k.respawns++
	}
}

// TestDistributedCrashRecovery is the subsystem's headline guarantee: a
// shard worker SIGKILLed at a pinned round mid-way through the golden
// faulted run is respawned and fast-forwarded from the replay log, and
// the run still converges to the exact pinned golden fingerprint.
func TestDistributedCrashRecovery(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	plan := goldenFaultedPlan()
	prog := distrib.Program{Algorithm: "ftmetivier"}
	fleet, err := distrib.NewExecFleet(g, prog, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	const killRound = 57
	const killShard = 2
	rec := trace.NewRecorder(0)
	killer := &killerSink{inner: rec, killAt: killRound, pid: func() int { return fleet.Pid(killShard) }}
	factory, err := distrib.Factory(prog, n)
	if err != nil {
		t.Fatal(err)
	}
	opts := congest.Options{
		Seed: 1234, Faults: plan, MaxRounds: 400,
		Driver: congest.DriverDistributed, Fleet: fleet, Events: killer,
	}
	r := congest.NewRunner(g, factory, opts)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !killer.fired {
		t.Fatalf("kill hook never fired: run ended after %d rounds", res.Rounds)
	}
	if killer.respawns == 0 {
		t.Fatal("no respawn event observed: the killed worker was never recovered")
	}
	checkGolden(t, "recovered", g, base.Statuses(r, n), res, plan)
}

// TestFleetReuse is the fleet-reuse guarantee: one ExecFleet serves
// several runs back-to-back over the same worker processes — a clean
// traced run, the pinned golden faulted run, and a relabeled run — each
// reconfigured over the live connections, with no respawns in between,
// and every run bit-identical to its sequential reference.
func TestFleetReuse(t *testing.T) {
	n := 256
	g := gen.UnionOfTrees(n, 2, rng.New(77))
	prog := distrib.Program{Algorithm: "ftmetivier"}
	shards := 4
	fleet, err := distrib.NewExecFleet(g, prog, shards)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	factory, err := distrib.Factory(prog, n)
	if err != nil {
		t.Fatal(err)
	}

	// Run 1 (clean, traced): pins the deterministic event fingerprint
	// against a traced sequential run of the same options.
	distRec := trace.NewRecorder(0)
	r1 := congest.NewRunner(g, factory, congest.Options{
		Seed: 42, Events: distRec, Driver: congest.DriverDistributed, Fleet: fleet,
	})
	res1, err := r1.Run()
	if err != nil {
		t.Fatal(err)
	}
	seqRec := trace.NewRecorder(0)
	seqRunner := congest.NewRunner(g, factory, congest.Options{Seed: 42, Events: seqRec})
	seqRes, err := seqRunner.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1 != seqRes {
		t.Fatalf("run 1: Result %+v != sequential %+v", res1, seqRes)
	}
	if distRec.Fingerprint() != seqRec.Fingerprint() {
		t.Fatalf("run 1: fingerprint %#x != sequential %#x", distRec.Fingerprint(), seqRec.Fingerprint())
	}
	pids := make([]int, shards)
	for s := range pids {
		if pids[s] = fleet.Pid(s); pids[s] <= 0 {
			t.Fatalf("run 1: shard %d has no live worker", s)
		}
	}

	// Run 2 (faulted): the same processes must reproduce the pinned
	// golden faulted execution after in-place reconfiguration.
	plan := goldenFaultedPlan()
	r2 := congest.NewRunner(g, factory, congest.Options{
		Seed: 1234, Faults: plan, MaxRounds: 400,
		Driver: congest.DriverDistributed, Fleet: fleet,
	})
	res2, err := r2.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "reused fleet", g, base.Statuses(r2, n), res2, plan)

	// Run 3 (relabeled): reuse once more under a non-identity layout; the
	// external-ID statuses must match the sequential run of that layout.
	r3 := congest.NewRunner(g, factory, congest.Options{
		Seed: 42, Layout: "degsort", Driver: congest.DriverDistributed, Fleet: fleet,
	})
	res3, err := r3.Run()
	if err != nil {
		t.Fatal(err)
	}
	seqSt, seqRes3, err := runSequential(t, g, prog, congest.Options{Seed: 42, Layout: "degsort"})
	if err != nil {
		t.Fatal(err)
	}
	if res3 != seqRes3 {
		t.Fatalf("run 3: Result %+v != sequential %+v", res3, seqRes3)
	}
	distSt := base.Statuses(r3, n)
	for v := range seqSt {
		if seqSt[v] != distSt[v] {
			t.Fatalf("run 3: node %d status %v sequential, %v distributed", v, seqSt[v], distSt[v])
		}
	}

	// All three runs must have ridden the same worker processes.
	for s := range pids {
		if got := fleet.Pid(s); got != pids[s] {
			t.Fatalf("shard %d respawned between runs: pid %d -> %d", s, pids[s], got)
		}
	}
}

// TestDialFleetTCP runs the distributed driver over TCP against
// in-process listeners speaking the worker protocol — the transport
// cmd/misnode serves — and checks bit-identity with sequential.
func TestDialFleetTCP(t *testing.T) {
	n := 80
	g := gen.UnionOfTrees(n, 2, rng.New(8))
	prog := distrib.Program{Algorithm: "metivier"}
	shards := 3

	addrs := make([]string, shards)
	lns := make([]net.Listener, shards)
	for s := 0; s < shards; s++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[s] = ln
		addrs[s] = ln.Addr().String()
		go func(ln net.Listener) {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				go func(c net.Conn) {
					defer c.Close()
					_ = distrib.ServeConn(c)
				}(c)
			}
		}(ln)
	}

	fleet, err := distrib.NewDialFleet(g, prog, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if got := fleet.Transport(); got != "tcp" {
		t.Fatalf("Transport() = %q, want tcp", got)
	}
	factory, err := distrib.Factory(prog, n)
	if err != nil {
		t.Fatal(err)
	}
	opts := congest.Options{Seed: 77, Driver: congest.DriverDistributed, Fleet: fleet}
	r := congest.NewRunner(g, factory, opts)
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}

	seqSt, seqRes, err := runSequential(t, g, prog, congest.Options{Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	if res != seqRes {
		t.Fatalf("tcp Result %+v != sequential %+v", res, seqRes)
	}
	distSt := base.Statuses(r, n)
	for v := range seqSt {
		if seqSt[v] != distSt[v] {
			t.Fatalf("node %d status %v sequential, %v tcp", v, seqSt[v], distSt[v])
		}
	}
}

// TestFrameEventsEmitted checks the coordinator publishes advisory
// EvFrame transport events when timing is requested, and that they stay
// out of the deterministic fingerprint.
func TestFrameEventsEmitted(t *testing.T) {
	n := 48
	g := gen.UnionOfTrees(n, 2, rng.New(2))
	prog := distrib.Program{Algorithm: "metivier"}
	rec := trace.NewRecorder(0)
	_, _, err := distrib.Run(g, prog, 2, congest.Options{Seed: 5, Events: rec, EventTiming: true})
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	var bytesOut int64
	for _, e := range rec.Events() {
		if e.Type == trace.EvFrame {
			frames++
			bytesOut += e.X
			if e.Type.Deterministic() {
				t.Fatal("EvFrame must be advisory, not deterministic")
			}
		}
	}
	if frames == 0 {
		t.Fatal("no EvFrame events observed with EventTiming on")
	}
	if bytesOut == 0 {
		t.Fatal("EvFrame events carried no transport volume")
	}

	// The same run untimed must fingerprint identically: EvFrame is
	// advisory and cannot leak into the deterministic stream.
	rec2 := trace.NewRecorder(0)
	_, _, err = distrib.Run(g, prog, 2, congest.Options{Seed: 5, Events: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fingerprint() != rec2.Fingerprint() {
		t.Fatalf("EventTiming changed the deterministic fingerprint: %#x vs %#x",
			rec.Fingerprint(), rec2.Fingerprint())
	}
}

// TestRunValidation covers the driver's refusal paths: a missing fleet, a
// bad algorithm name, and a malformed program argument must all surface
// as errors, never panics.
func TestRunValidation(t *testing.T) {
	g := gen.UnionOfTrees(16, 2, rng.New(1))
	factory, err := distrib.Factory(distrib.Program{Algorithm: "metivier"}, g.N())
	if err != nil {
		t.Fatal(err)
	}
	r := congest.NewRunner(g, factory, congest.Options{Driver: congest.DriverDistributed})
	if _, err := r.Run(); err == nil {
		t.Fatal("DriverDistributed without a fleet must fail")
	}
	if _, err := distrib.Factory(distrib.Program{Algorithm: "nope"}, 16); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if _, err := distrib.Factory(distrib.Program{Algorithm: "colevishkin"}, 16); err == nil {
		t.Fatal("colevishkin without parents must fail")
	}
	if _, err := distrib.Factory(distrib.Program{Algorithm: "degreduce", Args: []uint64{0}}, 16); err == nil {
		t.Fatal("degreduce with zero iterations must fail")
	}
	if _, err := distrib.NewExecFleet(g, distrib.Program{Algorithm: "metivier"}, 0); err == nil {
		t.Fatal("zero-shard fleet must fail")
	}
	if _, err := distrib.NewDialFleet(g, distrib.Program{Algorithm: "metivier"}, nil); err == nil {
		t.Fatal("empty dial fleet must fail")
	}
}
