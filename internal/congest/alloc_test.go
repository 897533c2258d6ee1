package congest

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// steadyBroadcaster broadcasts every round and never halts — the
// steady-state message load the allocation gate measures.
type steadyBroadcaster struct{}

func (steadyBroadcaster) Init(ctx *Context)               { ctx.Broadcast(rawWire(8)) }
func (steadyBroadcaster) Round(ctx *Context, _ []Message) { ctx.Broadcast(rawWire(8)) }

// ringGraph builds a cycle on n vertices.
func ringGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n)
	for i := 0; i < n-1; i++ {
		edges[i] = graph.Edge{U: i, V: i + 1}
	}
	edges[n-1] = graph.Edge{U: 0, V: n - 1}
	return graph.MustNew(n, edges)
}

// delayEveryFourth delays every fourth message by two rounds and never
// drops or crashes anything, exercising the delay-bucket free list without
// consuming randomness.
type delayEveryFourth struct{ n int }

func (d *delayEveryFourth) Message(_, _, _ int, _ *rng.RNG) faultsim.Fate {
	d.n++
	if d.n%4 == 0 {
		return faultsim.Fate{Delay: 2}
	}
	return faultsim.Fate{}
}

func (*delayEveryFourth) Vertex(int, int) faultsim.VertexFate { return faultsim.VertexUp }

// TestSteadyStateRoundZeroAllocs is the allocation gate for the value-typed
// message path: once the reused buffers (shard outboxes, the inbox arena)
// have grown to steady-state capacity, a full sequential round — sweep,
// delivery, live refresh, round bookkeeping — must allocate nothing. It
// drives the exact per-round body of runLoop whitebox so the measurement
// isolates rounds from run setup.
func TestSteadyStateRoundZeroAllocs(t *testing.T) {
	const n = 1024
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{Seed: 1})
	st := r.newExecState(1)
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	// Warm up: round 0 (Init) plus a few steady rounds grow every reused
	// buffer to its final capacity.
	for i := 0; i < 4; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state sequential round allocates %v objects, want 0", avg)
	}
}

// TestSteadyStateRoundZeroAllocsBucketed extends the gate to the pool
// driver's destination-bucketed delivery (deliverBuckets/mergeBucket):
// once the per-destination buckets, frontiers, and arena have grown to
// steady-state capacity, a bucketed round must allocate nothing. The
// shards are swept on the test goroutine (the worker barrier is driver
// plumbing, not allocation behavior) and the coordinator-loop merge runs,
// which is byte-for-byte the same merge the workers execute in parallel.
func TestSteadyStateRoundZeroAllocsBucketed(t *testing.T) {
	const n = 1024
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:   1,
		Driver: DriverPool,
	})
	st := r.newExecState(4)
	if st.buckets != 4 {
		t.Fatalf("expected bucketed delivery (buckets=4), got %d", st.buckets)
	}
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	for i := 0; i < 4; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state bucketed round allocates %v objects, want 0", avg)
	}
}

// TestSteadyStateRoundZeroAllocsRelabeled extends the gate to a
// non-identity layout: with the BFS relabeling active, every round runs
// the external↔internal translation path (extID, the dual
// neighbors/targets context slices) and must still allocate nothing.
func TestSteadyStateRoundZeroAllocsRelabeled(t *testing.T) {
	const n = 1024
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:   1,
		Layout: "bfs",
	})
	if r.layoutErr != nil {
		t.Fatal(r.layoutErr)
	}
	if r.perm == nil {
		t.Fatal("bfs layout on a ring should produce a non-identity permutation")
	}
	st := r.newExecState(1)
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	for i := 0; i < 4; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state relabeled round allocates %v objects, want 0", avg)
	}
}

// TestSteadyStateRoundZeroAllocsWithDelays extends the gate to the faulted
// path: with a plan that only delays (never drops), steady-state rounds —
// the per-round fate scan and its reused down mask included — must still
// allocate nothing once the delay buckets have cycled through the free
// list a few times.
func TestSteadyStateRoundZeroAllocsWithDelays(t *testing.T) {
	const n = 256
	r := NewRunner(ringGraph(n), func(int) Node { return steadyBroadcaster{} }, Options{
		Seed:   1,
		Faults: &delayEveryFourth{},
	})
	st := r.newExecState(1)
	round := 0
	oneRound := func() {
		r.startRound(st, round)
		st.scanFates(round)
		for _, sh := range st.shards {
			r.sweepShard(st, sh, round)
		}
		if err := r.deliver(st, round); err != nil {
			t.Fatal(err)
		}
		st.refreshLive()
		r.endRound(st, round)
		round++
	}
	// Longer warm-up: the delay map and its buckets need several rounds to
	// reach the steady population the free list then recycles.
	for i := 0; i < 12; i++ {
		oneRound()
	}
	if avg := testing.AllocsPerRun(20, oneRound); avg != 0 {
		t.Fatalf("steady-state delayed round allocates %v objects, want 0", avg)
	}
}

// priorityMIS is Métivier's random-priority MIS in the engine's own
// terms (internal/mis/metivier imports this package, so its tests cannot
// use it): phase 0 broadcasts a fresh priority, phase 1's local maxima
// broadcast "joined" and halt, phase 2's nodes with a joined neighbor
// broadcast "removed" and halt.
type priorityMIS struct{ priority uint64 }

const (
	kindPriority WireKind = 1 + iota
	kindJoined
	kindRemoved
)

func (nd *priorityMIS) Init(ctx *Context) { nd.draw(ctx) }

func (nd *priorityMIS) draw(ctx *Context) {
	nd.priority = ctx.RNG().Uint64()
	ctx.Broadcast(Wire{Kind: kindPriority, Bits: 65, A: nd.priority, B: 1})
}

func (nd *priorityMIS) Round(ctx *Context, inbox []Message) {
	switch ctx.Round() % 3 {
	case 1:
		for _, m := range inbox {
			if m.Wire.Kind == kindPriority && (m.Wire.A > nd.priority || m.Wire.A == nd.priority && m.From > ctx.ID()) {
				return
			}
		}
		ctx.Broadcast(Wire{Kind: kindJoined, Bits: 4})
		ctx.Halt()
	case 2:
		for _, m := range inbox {
			if m.Wire.Kind == kindJoined {
				ctx.Broadcast(Wire{Kind: kindRemoved, Bits: 4})
				ctx.Halt()
				return
			}
		}
	case 0:
		nd.draw(ctx)
	}
}

// wholeRunBudget is the TotalAlloc bound per vertex for one whole run:
// runner construction, contexts, program state, outboxes and the inbox
// arena, at n = 2^16.
const wholeRunBudget = 448

// TestWholeRunAllocBudget bounds what a whole Métivier run allocates, not
// just a steady-state round: on a union of two random spanning trees at
// n = 2^16, NewRunner plus Run must allocate at most wholeRunBudget bytes
// per vertex under the sequential driver and the two-worker pool. The
// budget holds because a Broadcast is one outbox record, outboxes are
// presized and RNG streams live in the contexts; copying every message
// into an outbox grown by append costs over 1100.
func TestWholeRunAllocBudget(t *testing.T) {
	const n = 1 << 16
	g := gen.UnionOfTrees(n, 2, rng.New(1))
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"sequential", Options{Seed: 1}},
		{"pool-2", Options{Seed: 1, Driver: DriverPool, Workers: 2}},
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		nodes := make([]priorityMIS, n)
		r := NewRunner(g, func(v int) Node { return &nodes[v] }, c.opts)
		res, err := r.Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		perVertex := float64(after.TotalAlloc-before.TotalAlloc) / n
		t.Logf("%s: %.0f B/vertex over %d rounds, %d messages", c.name, perVertex, res.Rounds, res.Messages)
		if perVertex > wholeRunBudget {
			t.Errorf("%s: whole run allocates %.0f B/vertex, budget %d", c.name, perVertex, wholeRunBudget)
		}
	}
}

// TestOutboxRecordSize pins the outbox record at 40 bytes: every point
// send and every distributed packet the coordinator re-addresses costs
// one record, so a larger record costs memory on point-heavy runs.
func TestOutboxRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 40 {
		t.Fatalf("outbox record is %d bytes, want at most 40", size)
	}
}

// TestSweepStateFillsCacheLines pins the shard and its outbox bucket at
// whole numbers of 64-byte cache lines: the pool's workers write their own
// shard and buckets on every halt and send, and one that shared a line
// with another worker's would make those writes contend. Adjust the
// structs' padding when a field is added.
func TestSweepStateFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(bucket{}); size%64 != 0 {
		t.Errorf("outbox bucket is %d bytes, want a multiple of 64", size)
	}
	if size := unsafe.Sizeof(shard{}); size%64 != 0 {
		t.Errorf("shard is %d bytes, want a multiple of 64", size)
	}
}
