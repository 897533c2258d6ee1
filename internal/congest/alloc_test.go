package congest

import (
	"testing"

	"repro/internal/faultsim"
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
// delivery path: with a plan that only delays (never drops), steady-state
// rounds must still allocate nothing once the delay buckets have cycled
// through the free list a few times.
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
