package congest

import (
	"testing"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/rng"
)

// mixedSender mixes every send kind in one round: a Broadcast, SendSlot,
// Send, a second Broadcast, a second Send to the same neighbor, and a
// random-slot SendSlot. Its state is a running digest of every inbox it
// read, so two runs agree on it only if every inbox held the same
// messages in the same order.
type mixedSender struct {
	h    uint64
	halt int // round in which the node halts
}

func newMixedSender(v int) Node { return &mixedSender{h: digestOffset, halt: 3 + v%4} }

// mixedWire tags a payload with its kind, sender, round and call index.
func mixedWire(kind WireKind, v, round, call int) Wire {
	return Wire{Kind: kind, Bits: uint16(16 + call), A: uint64(v)<<20 | uint64(round), B: uint64(call)}
}

func (nd *mixedSender) Init(ctx *Context) { nd.send(ctx) }

func (nd *mixedSender) Round(ctx *Context, inbox []Message) {
	nd.h = digestFold(nd.h, uint64(len(inbox)))
	for _, m := range inbox {
		nd.h = digestFold(nd.h, uint64(m.From))
		nd.h = digestFold(nd.h, uint64(m.Wire.Kind)<<16|uint64(m.Wire.Bits))
		nd.h = digestFold(nd.h, m.Wire.A)
		nd.h = digestFold(nd.h, m.Wire.B)
	}
	if ctx.Round() >= nd.halt {
		ctx.Halt()
		return
	}
	nd.send(ctx)
}

func (nd *mixedSender) send(ctx *Context) {
	v, r, deg := ctx.ID(), ctx.Round(), ctx.Degree()
	ctx.Broadcast(mixedWire(1, v, r, 0)) // a no-op on a zero-degree vertex
	if deg == 0 {
		return
	}
	nbrs := ctx.Neighbors()
	ctx.SendSlot(deg-1, mixedWire(2, v, r, 1))
	ctx.Send(nbrs[0], mixedWire(3, v, r, 2))
	ctx.Broadcast(mixedWire(4, v, r, 3))
	ctx.Send(nbrs[0], mixedWire(3, v, r, 4))
	if ctx.RNG().Intn(2) == 0 {
		ctx.SendSlot(ctx.RNG().Intn(deg), mixedWire(5, v, r, 5))
	}
}

func (nd *mixedSender) ExportState() uint64  { return nd.h }
func (nd *mixedSender) ImportState(x uint64) { nd.h = x }

// mixedGraph is a sparse random graph on n vertices whose vertices 0..4
// are isolated, plus a hub (vertex 10) adjacent to every 7th vertex, so
// the hub's row crosses every shard boundary.
func mixedGraph(n int) *graph.Graph {
	r := rng.New(7)
	var edges []graph.Edge
	for i := 0; i < 3*n; i++ {
		u, w := 5+r.Intn(n-5), 5+r.Intn(n-5)
		if u != w {
			edges = append(edges, graph.Edge{U: u, V: w})
		}
	}
	for w := 12; w < n; w += 7 {
		edges = append(edges, graph.Edge{U: 10, V: w})
	}
	return graph.MustNew(n, edges)
}

// dropDelay drops one message in ten and delays another one in ten by one
// or two rounds, one fault draw per message; vertex 17 is down in round 2.
type dropDelay struct{}

func (dropDelay) Message(_, _, _ int, r *rng.RNG) faultsim.Fate {
	u := r.Uint64()
	switch u % 10 {
	case 0:
		return faultsim.Dropped
	case 1:
		return faultsim.Fate{Delay: 1 + int(u>>8)%2}
	}
	return faultsim.Deliver
}

func (dropDelay) Vertex(round, v int) faultsim.VertexFate {
	if v == 17 && round == 2 {
		return faultsim.VertexDown
	}
	return faultsim.VertexUp
}

// memFleet is an in-memory Fleet: each shard is a ShardWorker in this
// process, swept synchronously inside memConn.Send.
type memFleet struct {
	shards  int
	adj     func(v int) []int // internal-order adjacency
	ext     []int             // internal -> external; nil = identity
	factory func(v int) Node
}

// newMemFleet resolves the layout the way the coordinator does, so the
// workers receive the same internal-order rows.
func newMemFleet(t *testing.T, g *graph.Graph, layoutName string, factory func(int) Node, shards int) *memFleet {
	t.Helper()
	o, err := layout.Parse(layoutName)
	if err != nil {
		t.Fatal(err)
	}
	perm, ext, err := layout.Compute(g, o)
	if err != nil {
		t.Fatal(err)
	}
	ig := g
	if perm != nil {
		if ig, err = graph.Relabel(g, perm); err != nil {
			t.Fatal(err)
		}
	}
	return &memFleet{shards: shards, adj: ig.Neighbors, ext: ext, factory: factory}
}

func (f *memFleet) NumShards() int { return f.shards }

func (f *memFleet) Shard(cfg ShardConfig) (ShardConn, error) {
	w, err := NewShardWorker(cfg, f.adj, f.ext, f.factory)
	if err != nil {
		return nil, err
	}
	return &memConn{w: w}, nil
}

type memConn struct {
	w   *ShardWorker
	out RoundOutput
	err error
}

func (c *memConn) Send(in RoundInput) error   { c.out, c.err = c.w.Sweep(in); return nil }
func (c *memConn) Recv() (RoundOutput, error) { return c.out, c.err }
func (c *memConn) Outputs() ([]uint64, error) { return c.w.Outputs(), nil }
func (c *memConn) Close() error               { return nil }

// mixedDrivers is every driver the mixed-send run must agree across.
var mixedDrivers = []struct {
	name string
	set  func(o *Options, fleet func() Fleet)
}{
	{"sequential", func(o *Options, _ func() Fleet) {}},
	{"pool-1", func(o *Options, _ func() Fleet) { o.Driver, o.Workers = DriverPool, 1 }},
	{"pool-2", func(o *Options, _ func() Fleet) { o.Driver, o.Workers = DriverPool, 2 }},
	{"pool-3", func(o *Options, _ func() Fleet) { o.Driver, o.Workers = DriverPool, 3 }},
	{"distributed-2", func(o *Options, fleet func() Fleet) { o.Driver, o.Fleet = DriverDistributed, fleet() }},
}

// TestMixedSendOrderGolden pins the inboxes of a program that mixes
// Send, SendSlot and Broadcast in one round — including a repeated send
// to one neighbor and zero-degree vertices — under every driver, the
// identity and degsort layouts, and a clean and a drop+delay network.
// The digest folds every node's inbox digest (external ID order) and the
// run counters; each (layout, network) cell has one golden value that
// every driver must reproduce. The values were pinned on an engine that
// queued one outbox entry per message, so broadcast-record expansion is
// held to exactly that per-message order.
func TestMixedSendOrderGolden(t *testing.T) {
	const n = 2000
	g := mixedGraph(n)
	golden := map[string]uint64{
		"identity/clean":      0xd1cd59fda7a3f720,
		"identity/drop+delay": 0x6d899a2e1b6371e1,
		"degsort/clean":       0xbe0a833dd85992af,
		"degsort/drop+delay":  0x03dedd63b79fa8d4,
	}
	for _, lay := range []string{"identity", "degsort"} {
		for _, net := range []string{"clean", "drop+delay"} {
			cell := lay + "/" + net
			for _, d := range mixedDrivers {
				opts := Options{Seed: 11, Layout: lay}
				if net != "clean" {
					opts.Faults = dropDelay{}
				}
				d.set(&opts, func() Fleet { return newMemFleet(t, g, lay, newMixedSender, 2) })
				r := NewRunner(g, newMixedSender, opts)
				res, err := r.Run()
				if err != nil {
					t.Fatalf("%s %s: %v", cell, d.name, err)
				}
				h := uint64(digestOffset)
				for _, x := range []int64{int64(res.Rounds), res.Messages, res.TotalBits, int64(res.MaxMessageBits), res.Dropped, res.Delayed} {
					h = digestFold(h, uint64(x))
				}
				for v := 0; v < n; v++ {
					h = digestFold(h, r.Node(v).(*mixedSender).h)
				}
				if h != golden[cell] {
					t.Errorf("%s %s: digest %#x, want %#x (%+v)", cell, d.name, h, golden[cell], res)
				}
			}
		}
	}
}

// oversizedBroadcaster broadcasts an oversized message in round 1 from
// every vertex v with v%5 == 2 — vertex 2 has no neighbors, so its
// Broadcast sends nothing and must not fail the run.
type oversizedBroadcaster struct{ mixedSender }

func (nd *oversizedBroadcaster) Init(ctx *Context) { ctx.Broadcast(mixedWire(1, ctx.ID(), 0, 0)) }

func (nd *oversizedBroadcaster) Round(ctx *Context, _ []Message) {
	if ctx.ID()%5 == 2 {
		ctx.Broadcast(Wire{Kind: 1, Bits: 200})
	}
	ctx.Halt()
}

// TestOversizedBroadcastLowestVertex checks that an oversized Broadcast
// under MessageBitLimit aborts the run with the lowest erring vertex's
// error (in the layout's sweep order) under every driver, and that a
// zero-degree vertex's Broadcast, which sends nothing, does not err.
func TestOversizedBroadcastLowestVertex(t *testing.T) {
	g := mixedGraph(600)
	factory := func(int) Node { return &oversizedBroadcaster{} }
	for _, lay := range []string{"identity", "degsort"} {
		var want string
		for _, d := range mixedDrivers {
			opts := Options{Seed: 3, Layout: lay, MessageBitLimit: 128}
			d.set(&opts, func() Fleet { return newMemFleet(t, g, lay, factory, 2) })
			_, err := NewRunner(g, factory, opts).Run()
			if err == nil {
				t.Fatalf("%s %s: oversized broadcast accepted", lay, d.name)
			}
			if want == "" {
				want = err.Error()
				if lay == "identity" && want != "congest: node 7 message of 200 bits exceeds limit 128" {
					t.Fatalf("identity: error %q, want vertex 7's", want)
				}
			}
			if err.Error() != want {
				t.Errorf("%s %s: error %q, want %q", lay, d.name, err, want)
			}
		}
	}
}
