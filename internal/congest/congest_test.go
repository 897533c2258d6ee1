package congest

import (
	"errors"
	"testing"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/trace"
)

// rawWire builds an uninterpreted test payload of the given bit size. Kind
// 99 is outside the proto range, which is fine: the engine never interprets
// kinds.
func rawWire(bits int) Wire {
	return Wire{Kind: 99, Bits: uint16(bits)}
}

// haltNow halts every node in Init.
type haltNow struct{}

func (haltNow) Init(ctx *Context)         { ctx.Halt() }
func (haltNow) Round(*Context, []Message) {}
func haltFactory(int) Node                { return haltNow{} }

// inProcess lists the in-process drivers for sequential-vs-pool checks.
var inProcess = []DriverKind{DriverSequential, DriverPool}

// roundEndSink is a per-round hook over the event stream: it calls the
// function on every round-end event with (round, live, sent).
type roundEndSink func(round, live int, sent int64)

func (f roundEndSink) Emit(e trace.Event) {
	if e.Type == trace.EvRoundEnd {
		f(int(e.Round), int(e.V), e.X)
	}
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Event)

func (f sinkFunc) Emit(e trace.Event) { f(e) }

// pingCounter broadcasts for k rounds, counting received messages.
type pingCounter struct {
	rounds   int
	received int
}

func (p *pingCounter) Init(ctx *Context) {
	ctx.Broadcast(rawWire(8))
}

func (p *pingCounter) Round(ctx *Context, inbox []Message) {
	p.received += len(inbox)
	if ctx.Round() >= p.rounds {
		ctx.Halt()
		return
	}
	ctx.Broadcast(rawWire(8))
}

func TestHaltInInit(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{{U: 0, V: 1}})
	r := NewRunner(g, haltFactory, Options{Seed: 1})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 0 || res.Messages != 0 {
		t.Fatalf("res = %+v", res)
	}
}

func TestPingCounting(t *testing.T) {
	// Triangle, 3 rounds of broadcast: Init sends once, rounds 1..2 send.
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
	r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 3} }, Options{Seed: 1})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
	// 3 broadcast sweeps × 3 nodes × 2 neighbors = 18 messages.
	if res.Messages != 18 {
		t.Fatalf("messages = %d", res.Messages)
	}
	if res.TotalBits != 18*8 || res.MaxMessageBits != 8 {
		t.Fatalf("bits = %d max = %d", res.TotalBits, res.MaxMessageBits)
	}
	// Each node received 2 messages per sweep over 3 sweeps.
	for v := 0; v < 3; v++ {
		if got := r.Node(v).(*pingCounter).received; got != 6 {
			t.Fatalf("node %d received %d", v, got)
		}
	}
}

// sendToStranger violates the neighbor-only rule.
type sendToStranger struct{}

func (sendToStranger) Init(ctx *Context) {
	ctx.Send(2, rawWire(1)) // 2 is not a neighbor of 0 in the path 0-1-2
	ctx.Halt()
}
func (sendToStranger) Round(*Context, []Message) {}

func TestSendToNonNeighborFails(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	r := NewRunner(g, func(v int) Node {
		if v == 0 {
			return sendToStranger{}
		}
		return haltNow{}
	}, Options{Seed: 1})
	if _, err := r.Run(); err == nil {
		t.Fatal("non-neighbor send not detected")
	}
}

// oversize sends a payload above the bit limit.
type oversize struct{}

func (oversize) Init(ctx *Context) {
	ctx.Broadcast(rawWire(1000))
	ctx.Halt()
}
func (oversize) Round(*Context, []Message) {}

func TestMessageBitLimit(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	r := NewRunner(g, func(int) Node { return oversize{} }, Options{Seed: 1, MessageBitLimit: 64})
	if _, err := r.Run(); err == nil {
		t.Fatal("oversized message not detected")
	}
}

// neverHalt runs forever.
type neverHalt struct{}

func (neverHalt) Init(*Context)             {}
func (neverHalt) Round(*Context, []Message) {}

func TestMaxRounds(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	r := NewRunner(g, func(int) Node { return neverHalt{} }, Options{Seed: 1, MaxRounds: 10})
	_, err := r.Run()
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v", err)
	}
}

// rngRecorder records its first RNG draw.
type rngRecorder struct {
	draw uint64
}

func (r *rngRecorder) Init(ctx *Context) {
	r.draw = ctx.RNG().Uint64()
	ctx.Halt()
}
func (r *rngRecorder) Round(*Context, []Message) {}

func TestPerNodeRNGStreamsDifferAndAreSeeded(t *testing.T) {
	g := graph.MustNew(4, nil)
	run := func(seed uint64) []uint64 {
		r := NewRunner(g, func(int) Node { return &rngRecorder{} }, Options{Seed: seed})
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		draws := make([]uint64, 4)
		for v := 0; v < 4; v++ {
			draws[v] = r.Node(v).(*rngRecorder).draw
		}
		return draws
	}
	a, b, c := run(7), run(7), run(8)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("same seed produced different streams")
		}
	}
	diff := false
	for v := range a {
		if a[v] != c[v] {
			diff = true
		}
		for w := range a {
			if w != v && a[v] == a[w] {
				t.Fatal("two nodes share a stream")
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical streams")
	}
}

// inboxOrderChecker asserts inboxes are sorted by sender.
type inboxOrderChecker struct {
	bad bool
}

func (c *inboxOrderChecker) Init(ctx *Context) {
	ctx.Broadcast(rawWire(4))
}

func (c *inboxOrderChecker) Round(ctx *Context, inbox []Message) {
	for i := 1; i < len(inbox); i++ {
		if inbox[i].From < inbox[i-1].From {
			c.bad = true
		}
	}
	ctx.Halt()
}

func TestInboxSortedBySender(t *testing.T) {
	g := graph.MustNew(6, []graph.Edge{
		{U: 0, V: 5}, {U: 0, V: 3}, {U: 0, V: 1}, {U: 0, V: 4}, {U: 0, V: 2},
	})
	for _, driver := range inProcess {
		r := NewRunner(g, func(int) Node { return &inboxOrderChecker{} }, Options{Seed: 1, Driver: driver})
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 6; v++ {
			if r.Node(v).(*inboxOrderChecker).bad {
				t.Fatalf("%s: unsorted inbox at node %d", driver, v)
			}
		}
	}
}

func TestDropInjection(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 50} }, Options{Seed: 3, Faults: faultsim.BernoulliDrop{P: 0.5}})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops at p=0.5")
	}
	total := res.Messages + res.Dropped
	if total != 2*50 {
		t.Fatalf("delivered+dropped = %d, want 100", total)
	}
}

func TestDropInjectionDeterministic(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	run := func() int64 {
		r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 30} }, Options{Seed: 9, Faults: faultsim.BernoulliDrop{P: 0.3}})
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Dropped
	}
	if run() != run() {
		t.Fatal("fault injection not deterministic")
	}
}

func TestParallelMatchesSequentialCounters(t *testing.T) {
	g := graph.MustNew(10, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 0},
		{U: 0, V: 5}, {U: 2, V: 7},
	})
	run := func(driver DriverKind) Result {
		r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 5} }, Options{Seed: 2, Driver: driver})
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(DriverSequential), run(DriverPool)
	if seq != par {
		t.Fatalf("sequential %+v != parallel %+v", seq, par)
	}
}

func TestEmptyGraphRun(t *testing.T) {
	g := graph.MustNew(0, nil)
	r := NewRunner(g, haltFactory, Options{Seed: 1})
	res, err := r.Run()
	if err != nil || res.Rounds != 0 {
		t.Fatalf("empty run: %+v, %v", res, err)
	}
}

func TestContextAccessors(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	r := NewRunner(g, func(v int) Node {
		return nodeFunc(func(ctx *Context) {
			if ctx.ID() != v {
				t.Errorf("ID() = %d, want %d", ctx.ID(), v)
			}
			if ctx.ID() == 0 {
				if ctx.N() != 3 || ctx.Degree() != 2 || len(ctx.Neighbors()) != 2 {
					t.Errorf("accessors wrong: n=%d deg=%d", ctx.N(), ctx.Degree())
				}
				if ctx.Round() != 0 {
					t.Errorf("Init round = %d", ctx.Round())
				}
			}
			ctx.Halt()
		})
	}, Options{Seed: 1})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
}

// nodeFunc adapts a function to the Node interface for tests.
type nodeFunc func(ctx *Context)

func (f nodeFunc) Init(ctx *Context)       { f(ctx) }
func (nodeFunc) Round(*Context, []Message) {}

func TestObserverReportsRounds(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	type obs struct {
		round, live int
		sent        int64
	}
	var seen []obs
	r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 3} }, Options{
		Seed: 1,
		Events: roundEndSink(func(round, live int, sent int64) {
			seen = append(seen, obs{round, live, sent})
		}),
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Rounds+1 { // rounds 0..Rounds
		t.Fatalf("observer called %d times for %d rounds", len(seen), res.Rounds)
	}
	if seen[0].round != 0 || seen[0].live != 4 {
		t.Fatalf("init observation wrong: %+v", seen[0])
	}
	var total int64
	for _, o := range seen {
		total += o.sent
	}
	if total != res.Messages {
		t.Fatalf("observer sent sum %d != messages %d", total, res.Messages)
	}
	if last := seen[len(seen)-1]; last.live != 0 {
		t.Fatalf("final observation has %d live nodes", last.live)
	}
}

func TestObserverSequentialParallelAgree(t *testing.T) {
	g := graph.MustNew(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}})
	capture := func(driver DriverKind) []int {
		var lives []int
		r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 4} }, Options{
			Seed:   2,
			Driver: driver,
			Events: roundEndSink(func(_, live int, _ int64) { lives = append(lives, live) }),
		})
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		return lives
	}
	a, b := capture(DriverSequential), capture(DriverPool)
	if len(a) != len(b) {
		t.Fatalf("observation counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("live counts differ at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// haltAfterSend sends a message and halts in the same call; the engine
// must still deliver the message (the MIS protocols' join/removal
// announcements rely on exactly this).
type haltAfterSend struct{ got int }

func (h *haltAfterSend) Init(ctx *Context) {
	if ctx.ID() == 0 {
		ctx.Broadcast(rawWire(2))
		ctx.Halt()
	}
}

func (h *haltAfterSend) Round(ctx *Context, inbox []Message) {
	h.got += len(inbox)
	ctx.Halt()
}

func TestMessagesSentBeforeHaltAreDelivered(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	for _, driver := range inProcess {
		r := NewRunner(g, func(int) Node { return &haltAfterSend{} }, Options{Seed: 1, Driver: driver})
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
		for v := 1; v <= 2; v++ {
			if got := r.Node(v).(*haltAfterSend).got; got != 1 {
				t.Fatalf("%s: node %d received %d messages from halting sender", driver, v, got)
			}
		}
	}
}

// allDrivers enumerates one Options per execution strategy, including
// pool shapes that exercise 1, several, and n shards.
func allDrivers(base Options) map[string]Options {
	out := map[string]Options{}
	for name, set := range map[string]func(*Options){
		"sequential": func(o *Options) { o.Driver = DriverSequential },
		"pool-1":     func(o *Options) { o.Driver = DriverPool; o.Workers = 1 },
		"pool-3":     func(o *Options) { o.Driver = DriverPool; o.Workers = 3 },
		"pool-wide":  func(o *Options) { o.Driver = DriverPool; o.Workers = 1 << 20 },
	} {
		o := base
		set(&o)
		out[name] = o
	}
	return out
}

// strangerAtRound3 behaves like a well-formed broadcaster until round 3,
// when node 0 sends to a non-neighbor and poisons the run.
type strangerAtRound3 struct{}

func (strangerAtRound3) Init(ctx *Context) { ctx.Broadcast(rawWire(4)) }

func (strangerAtRound3) Round(ctx *Context, _ []Message) {
	if ctx.Round() == 3 && ctx.ID() == 0 {
		ctx.Send(2, rawWire(4)) // 2 is not a neighbor of 0 in the path 0-1-2
		return
	}
	ctx.Broadcast(rawWire(4))
}

// TestAbortedRoundNotCounted pins the Result.Rounds fix: a run aborted by
// a model violation mid-round must report the last *completed* round (2),
// not the round that failed (3).
func TestAbortedRoundNotCounted(t *testing.T) {
	g := graph.MustNew(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	for name, opts := range allDrivers(Options{Seed: 1, MaxRounds: 10}) {
		r := NewRunner(g, func(int) Node { return strangerAtRound3{} }, opts)
		res, err := r.Run()
		if err == nil {
			t.Fatalf("%s: non-neighbor send not detected", name)
		}
		if res.Rounds != 2 {
			t.Fatalf("%s: aborted run reports Rounds=%d, want 2 completed rounds", name, res.Rounds)
		}
	}
}

// TestAllDriversBitIdentical sweeps every driver shape over the same
// program and seed — with and without fault injection — and requires
// identical Result counters and identical per-node observations.
func TestAllDriversBitIdentical(t *testing.T) {
	g := graph.MustNew(10, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5},
		{U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 8, V: 9}, {U: 9, V: 0},
		{U: 0, V: 5}, {U: 2, V: 7},
	})
	for _, drop := range []float64{0, 0.3} {
		base := Options{Seed: 42}
		if drop > 0 {
			base.Faults = faultsim.BernoulliDrop{P: drop}
		}
		var refName string
		var ref Result
		var refRecv []int
		for name, opts := range allDrivers(base) {
			r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 6} }, opts)
			res, err := r.Run()
			if err != nil {
				t.Fatalf("drop=%v %s: %v", drop, name, err)
			}
			recv := make([]int, g.N())
			for v := range recv {
				recv[v] = r.Node(v).(*pingCounter).received
			}
			if refName == "" {
				refName, ref, refRecv = name, res, recv
				continue
			}
			if res != ref {
				t.Fatalf("drop=%v: %s result %+v != %s result %+v", drop, name, res, refName, ref)
			}
			for v := range recv {
				if recv[v] != refRecv[v] {
					t.Fatalf("drop=%v: node %d received %d under %s, %d under %s",
						drop, v, recv[v], name, refRecv[v], refName)
				}
			}
		}
	}
}

// TestPoolObserverMetrics exercises the pool's per-round driver-efficiency
// metrics, read through DriverStats as the event sink of a timed pool run:
// one aggregated round per engine round (Init included), the shard count
// as Workers, per-shard live counts that sum to the round-end live count,
// and a coherent aggregate.
func TestPoolObserverMetrics(t *testing.T) {
	g := graph.MustNew(8, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4},
		{U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7},
	})
	var agg DriverStats
	var events []trace.Event
	r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 4} }, Options{
		Seed: 1, Driver: DriverPool, Workers: 2, EventTiming: true,
		Events: sinkFunc(func(e trace.Event) {
			agg.Emit(e)
			events = append(events, e)
		}),
	})
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Rounds != res.Rounds+1 || agg.Workers != 2 {
		t.Fatalf("aggregate %+v inconsistent with %d rounds (+Init) / 2 workers", agg, res.Rounds)
	}
	shardLive, lastLive := 0, -1
	for _, e := range events {
		switch e.Type {
		case trace.EvShardBusy:
			shardLive += int(e.Y)
		case trace.EvRoundEnd:
			if shardLive != int(e.V) {
				t.Fatalf("round %d: shard live counts sum to %d, round-end live %d", e.Round, shardLive, e.V)
			}
			lastLive, shardLive = int(e.V), 0
		}
	}
	if lastLive != 0 {
		t.Fatalf("final live count %d, want 0", lastLive)
	}
	if agg.Busy < agg.Critical || agg.Critical <= 0 {
		t.Fatalf("busy %v must cover critical path %v > 0", agg.Busy, agg.Critical)
	}
	if e := agg.Efficiency(); e <= 0 || e > 1 {
		t.Fatalf("efficiency %v outside (0, 1]", e)
	}
	if agg.String() == "" || (&DriverStats{}).String() == "" {
		t.Fatal("DriverStats.String must render")
	}
}

// TestPoolShardingShapes runs the pool across degenerate worker counts.
func TestPoolShardingShapes(t *testing.T) {
	g := graph.MustNew(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	for _, workers := range []int{-1, 0, 1, 2, 5, 100} {
		r := NewRunner(g, func(int) Node { return &pingCounter{rounds: 3} }, Options{
			Seed: 2, Driver: DriverPool, Workers: workers,
		})
		res, err := r.Run()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Rounds != 3 {
			t.Fatalf("workers=%d: rounds = %d", workers, res.Rounds)
		}
	}
	empty := graph.MustNew(0, nil)
	for name, opts := range allDrivers(Options{Seed: 1}) {
		r := NewRunner(empty, haltFactory, opts)
		if res, err := r.Run(); err != nil || res.Rounds != 0 {
			t.Fatalf("%s on empty graph: %+v, %v", name, res, err)
		}
	}
}

func TestDriverKindString(t *testing.T) {
	want := map[DriverKind]string{
		DriverSequential:  "sequential",
		DriverPool:        "pool",
		DriverDistributed: "distributed",
		DriverKind(9):     "DriverKind(9)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestRunnerIsSingleUse(t *testing.T) {
	g := graph.MustNew(2, []graph.Edge{{U: 0, V: 1}})
	r := NewRunner(g, haltFactory, Options{Seed: 1})
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}
