// Package congest simulates the synchronous CONGEST model of distributed
// computing: one state machine per graph vertex, lock-step rounds, and
// messages between neighbors whose size the engine meters (the CONGEST
// model allows O(log n) bits per edge per round).
//
// Three interchangeable drivers execute a program, selected by
// Options.Driver:
//
//   - the sequential driver (the zero value) sweeps vertices in ID order
//     each round,
//   - the sharded worker-pool driver partitions vertices into contiguous
//     shards, one long-lived worker goroutine per shard, and
//   - the distributed driver runs each shard in a separate OS process
//     (see internal/distrib).
//
// All drivers produce bit-identical executions for the same seed. Three
// invariants make scheduling order invisible to programs:
//
//  1. each node owns a private RNG stream split from the run seed by
//     vertex ID (splitting is a pure function, so creation order is
//     irrelevant);
//  2. every driver materializes outgoing messages in ascending sender-ID
//     order — within a shard nodes are swept in ID order, and shards
//     cover contiguous ID ranges merged in shard order — so inboxes are
//     sorted by sender without any per-round sort; and
//  3. fault-injection decisions (the faultsim.Plan consults, including any
//     random draws) happen on the coordinator during delivery, in that
//     same global sender order, from a dedicated fault stream.
//
// Fault injection is delegated to internal/faultsim: Options.Faults
// accepts any faultsim.Plan (message drops, link bursts, partitions,
// vertex crashes and restarts, delivery delays).
package congest

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/faultsim"
	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Message is a wire payload annotated with its sender's vertex ID, as a
// program reads it from its inbox. It is a plain value (no pointers):
// delivery writes one Message per recipient into the round's inbox arena,
// expanding each outbox record (one per Broadcast, see record) along its
// sender's neighbor row, with zero heap traffic.
type Message struct {
	//idspace:external
	From int
	Wire Wire
}

// Node is one vertex's state machine. Init runs before round 1 and may
// send messages (delivered in round 1). Round runs once per round with the
// messages delivered this round. A node that calls Context.Halt receives no
// further Round calls.
type Node interface {
	Init(ctx *Context)
	Round(ctx *Context, inbox []Message)
}

// Context is the per-node view of the network that the engine passes to
// Init and Round. It is only valid during the call it is passed to.
//
// Under a non-identity layout (Options.Layout) the engine stores vertices
// in permuted "internal" order but the context exposes only "external"
// (original) IDs: id, neighbors, and every Message.From are external.
// The neighbors' internal IDs, pairwise-aligned with neighbors, sit at
// offset row of the runner's flat target array (nbrRows.tgt), so sends
// address engine storage without a translation lookup and a Broadcast
// names the row instead of copying it; under the identity layout both
// rows are the CSR row.
type Context struct {
	//idspace:external
	id int
	n  int
	//idspace:external
	neighbors []int   // external neighbor IDs, ascending
	row       int     // offset of the internal neighbor row in runner.rows.tgt
	rng       rng.RNG // private stream, held by value: no heap object per vertex
	round     int
	halted    bool
	shard     *shard
	runner    *Runner
}

// record is one outbox entry: a message and its recipients, pointer-free
// and 40 bytes. A broadcast record (span > 0) addresses the internal
// vertices tgt[at : at+span] of the run's flat target array — its
// sender's neighbor row, or in a bucketed run the stretch of it from the
// first to the last neighbor in one destination bucket — and delivery
// expands it along that row, so a Broadcast costs one entry, not one per
// neighbor. A point record (span == 0) addresses the single internal
// vertex at: a Send or SendSlot, a packet the distributed coordinator
// re-addresses, or a message a fault plan delayed. The message is stored
// as its recipients read it, so delivery copies it unchanged; the 32-bit
// addressing caps the flat target array at maxTargets entries.
type record struct {
	msg  Message
	span uint32 // recipients in the row; 0 for a point record
	at   uint32 // row offset (broadcast) or internal recipient (point)
}

// maxTargets bounds the flat target array (twice the edge count) so
// that record offsets fit in 32 bits.
const maxTargets = 1<<32 - 1

// ID returns this vertex's identifier (0..N-1). In CONGEST nodes know their
// own O(log n)-bit ID and those of their neighbors.
func (c *Context) ID() int { return c.id }

// N returns the number of vertices in the network. (Algorithms in this repo
// use it only for parameterization that the model allows — e.g. knowing n
// up to a constant factor.)
func (c *Context) N() int { return c.n }

// Round returns the current round number, starting at 1. During Init it
// returns 0.
func (c *Context) Round() int { return c.round }

// Neighbors returns the sorted neighbor IDs. The slice aliases graph
// storage and must not be modified.
func (c *Context) Neighbors() []int { return c.neighbors }

// Degree returns the vertex degree.
func (c *Context) Degree() int { return len(c.neighbors) }

// RNG returns this node's private random stream. Draws are deterministic
// given the run seed and vertex ID, and no other node shares the stream.
func (c *Context) RNG() *rng.RNG { return &c.rng }

// Send queues a message to neighbor `to` for delivery next round. Sending
// to a non-neighbor is a programming error and poisons the run with an
// error (the model has no routing). Send pays a binary search over the
// neighbor list to validate `to`; hot paths that already know the
// neighbor's position should use SendSlot instead.
func (c *Context) Send(to int, w Wire) {
	i := sort.SearchInts(c.neighbors, to)
	if i >= len(c.neighbors) || c.neighbors[i] != to {
		c.fail(fmt.Errorf("congest: node %d sent to non-neighbor %d", c.id, to))
		return
	}
	c.enqueue(c.runner.rows.tgt[c.row+i], w)
}

// SendSlot queues a message to the i'th neighbor (Neighbors()[i]) for
// delivery next round. It addresses the neighbor by its slot in the
// adjacency list, so no neighbor-membership search is needed — this is the
// zero-overhead send for programs that iterate Neighbors() anyway. A slot
// outside [0, Degree()) poisons the run.
//
//congest:hotpath
func (c *Context) SendSlot(i int, w Wire) {
	if uint(i) >= uint(len(c.neighbors)) {
		//congest:coldpath slot violations poison the run; the error path may allocate
		c.fail(fmt.Errorf("congest: node %d sent to neighbor slot %d of %d", c.id, i, len(c.neighbors)))
		return
	}
	c.enqueue(c.runner.rows.tgt[c.row+i], w)
}

// Broadcast queues a message to every neighbor for delivery next round.
// It appends one broadcast record naming the sender's neighbor row (one
// per destination bucket the row touches in a bucketed run); delivery
// expands it along the row, in row order. A zero-degree vertex sends
// nothing, so its Broadcast is a no-op even when oversized.
//
//congest:hotpath
func (c *Context) Broadcast(w Wire) {
	deg := len(c.neighbors)
	if deg == 0 || !c.fits(w) {
		return
	}
	sh := c.shard
	rc := record{msg: Message{From: c.id, Wire: w}, span: uint32(deg), at: uint32(c.row)}
	if len(sh.buckets) == 1 {
		sh.buckets[0].push(rc, deg)
		return
	}
	sh.split(rc, c.runner.rows.tgt[c.row:c.row+deg])
}

// fail records the first model violation observed in this context's shard.
// Nodes within a shard are swept in ascending ID order and shards cover
// ascending contiguous ID ranges, so the surviving error is the lowest
// erring vertex's under every driver.
func (c *Context) fail(err error) {
	if c.shard.err == nil {
		c.shard.err = err
	}
}

// fits reports whether w is within Options.MessageBitLimit; an oversized
// message poisons the run instead.
//
//congest:hotpath
func (c *Context) fits(w Wire) bool {
	if c.runner.opts.MessageBitLimit > 0 && int(w.Bits) > c.runner.opts.MessageBitLimit {
		//congest:coldpath oversized messages poison the run; the error path may allocate
		c.fail(fmt.Errorf("congest: node %d message of %d bits exceeds limit %d",
			c.id, w.Bits, c.runner.opts.MessageBitLimit))
		return false
	}
	return true
}

// enqueue appends a point record to the owning shard's outbox — the
// destination shard's bucket when the run is bucketed, its one bucket
// otherwise.
// Only the worker that owns the shard runs this node, so the append is
// race-free, and because nodes within a shard are swept in ID order every
// bucket stays sorted by sender with per-sender call order preserved
// across point and broadcast records alike.
//
//idspace:internal to
//congest:hotpath
func (c *Context) enqueue(to int, w Wire) {
	if !c.fits(w) {
		return
	}
	sh := c.shard
	d := 0
	if len(sh.buckets) > 1 {
		d = sh.bucketOf(to)
	}
	sh.buckets[d].push(record{msg: Message{From: c.id, Wire: w}, at: uint32(to)}, 1)
}

// push appends a record to the bucket and tallies the k messages it
// expands to. On a reliable network every message sent is delivered, so
// these tallies are the round's delivery counters.
//
//congest:hotpath
func (b *bucket) push(rc record, k int) {
	b.recs = append(b.recs, rc)
	b.msgs += k
	bits := int(rc.msg.Wire.Bits)
	b.bits += int64(k * bits)
	if bits > b.maxBits {
		b.maxBits = bits
	}
}

// bucketOf returns internal vertex t's destination bucket: the index of
// the shard whose range holds it. Shard ranges partition [0, n) in
// ascending order, so a binary search over the upper bounds the buckets
// keep finds it without a per-vertex routing table.
//
//idspace:internal t
//congest:hotpath
func (sh *shard) bucketOf(t int) int {
	bs := sh.buckets
	lo, hi := 0, len(bs)-1
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if t < bs[m].hi {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// split files a broadcast record in every destination bucket its row
// touches, once each: bucket d's record spans the row from its first to
// its last neighbor in d, and d's msgs counts d's recipients exactly. The
// row is walked in runs of neighbors that share a bucket, one bucket
// lookup per run. Under the identity layout a row is sorted and shards
// are ascending ranges, so each bucket is one run and the spans tile the
// row (at most W-1 splits); under a layout runs may interleave, and
// mergeBucket skips the other buckets' neighbors inside a span.
//
//congest:hotpath
func (sh *shard) split(rc record, row []int) {
	for i := 0; i < len(row); {
		b := &sh.buckets[sh.bucketOf(row[i])]
		j := i + 1
		for j < len(row) && row[j] >= b.lo && row[j] < b.hi {
			j++
		}
		if b.n == 0 {
			b.first = i
		}
		b.end = j
		b.n += j - i
		i = j
	}
	for d := range sh.buckets {
		b := &sh.buckets[d]
		if b.n == 0 {
			continue
		}
		r := rc
		r.at += uint32(b.first)
		r.span = uint32(b.end - b.first)
		b.push(r, b.n)
		b.n = 0
	}
}

// Halt marks this node finished. Messages queued in the same call are still
// delivered, but the node receives no further Round calls.
func (c *Context) Halt() { c.halted = true }

// Emit records a program-defined node-state transition on the run's
// execution trace (a trace.EvNodeState event with this vertex, the given
// code, and the given value — by convention code is a mis/proto
// announcement kind). It is a no-op when no trace sink is attached, so
// programs can instrument transitions unconditionally. Emission order is
// deterministic across drivers: events ride the same shard-ordered merge
// as messages.
func (c *Context) Emit(code int32, value int64) {
	if !c.runner.traced {
		return
	}
	c.shard.events = append(c.shard.events, trace.Event{
		Type:  trace.EvNodeState,
		Round: int32(c.round),
		V:     int32(c.id),
		X:     int64(code),
		Y:     value,
	})
}

// DriverKind selects the execution strategy for a run.
type DriverKind int

const (
	// DriverSequential sweeps vertices in ID order on one goroutine. This
	// is the zero value.
	DriverSequential DriverKind = iota
	// DriverPool is the sharded worker-pool driver: GOMAXPROCS workers
	// (override with Options.Workers) each own a contiguous vertex shard.
	DriverPool
	// DriverDistributed runs every shard in a separate OS process: the
	// coordinator exchanges round-batched frames with a fleet of shard
	// workers over unix sockets or TCP (see internal/distrib), performing
	// all fault/RNG draws itself in global sender order so executions stay
	// bit-identical with the in-process drivers. Requires Options.Fleet.
	DriverDistributed
)

// String names the driver for reports and benchmark output.
func (k DriverKind) String() string {
	switch k {
	case DriverSequential:
		return "sequential"
	case DriverPool:
		return "pool"
	case DriverDistributed:
		return "distributed"
	default:
		return fmt.Sprintf("DriverKind(%d)", int(k))
	}
}

// Options configures a run.
type Options struct {
	// Seed is the root seed; node v's stream is Split(v) of it.
	Seed uint64
	// MaxRounds aborts the run if the program has not halted by then.
	// Zero means the DefaultMaxRounds safety net.
	MaxRounds int
	// Driver selects the execution strategy; the zero value is
	// DriverSequential.
	Driver DriverKind
	// Workers is the worker/shard count for the pool driver. Zero or
	// negative means GOMAXPROCS; the count is clamped to the vertex count.
	Workers int
	// MessageBitLimit, when positive, fails the run if any single message
	// exceeds that many bits (CONGEST compliance enforcement).
	MessageBitLimit int
	// Layout names the cache-conscious vertex ordering the engine applies
	// at ingest (see internal/layout): "" or "identity" keeps the original
	// labeling, "degsort" stores vertices by descending degree. The graph
	// is not relabeled: each internal vertex keeps the ingest graph's row
	// as its external row and gets that row mapped to internal IDs as its
	// send targets. The ordering is invisible to programs — contexts,
	// messages, trace events, results, and errors all carry original
	// (external) IDs — but it changes the engine's sweep and fault-draw
	// order, so layout is part of run identity: trace fingerprints are
	// pinned per layout, and all drivers stay bit-identical to each other
	// within one. An unknown name fails Run with the parse error.
	Layout string
	// Faults, when non-nil, is the fault-injection plan for the run: it
	// decides the fate of every message (drop, delay) and every vertex
	// (crash-stop, crash-restart) per round. Plans are consulted on the
	// coordinator in global sender order with a dedicated RNG stream split
	// from Seed, so faulted runs stay bit-identical across drivers. This
	// deliberately breaks the reliable-delivery assumption of CONGEST; it
	// exists for robustness experiments only.
	Faults faultsim.Plan
	// Events, when non-nil, receives the run's typed execution-event
	// stream (see internal/trace): round boundaries and counters, fault
	// fates, node halts and program-emitted state transitions, and RNG
	// draw totals. Emission happens on the coordinator in an order that is
	// deterministic across drivers; tracing is purely observational and a
	// traced run is bit-identical to an untraced one. Attach a
	// trace.Recorder here to capture, export, or fingerprint a run, or a
	// sink that keys on trace.EvRoundEnd for a per-round hook (round,
	// live count, sends).
	Events trace.Sink
	// EventTiming, when set alongside Events, adds the pool driver's
	// wall-clock shard-sweep and merge timing events (advisory: they are
	// real durations, not deterministic values). DriverStats aggregates
	// them.
	EventTiming bool
	// Fleet, when Driver is DriverDistributed, is the shard-worker fleet
	// the coordinator drives: one connection per contiguous vertex shard,
	// each backed by a separate OS process (see internal/distrib for the
	// socket transports). The fleet also serves as the respawn point for
	// crash recovery — a shard whose connection breaks mid-run is
	// restarted via Fleet.Shard and fast-forwarded from the coordinator's
	// round-input log. Ignored by the in-process drivers.
	Fleet Fleet
}

// DefaultMaxRounds bounds runaway programs. It is generous: every algorithm
// in this repository finishes in O(log² n) rounds with overwhelming
// probability.
const DefaultMaxRounds = 1 << 20

// Result summarizes a completed run.
type Result struct {
	// Rounds is the number of communication rounds that ran to completion
	// (Init is round 0 and not counted; a program that halts every node in
	// Init reports 0). A round aborted mid-flight — by a model violation
	// such as a send to a non-neighbor — is not counted.
	Rounds int
	// Messages is the total number of messages delivered.
	Messages int64
	// TotalBits is the sum of payload sizes over all delivered messages.
	TotalBits int64
	// MaxMessageBits is the largest single payload observed.
	MaxMessageBits int
	// Dropped counts messages discarded by fault injection — random and
	// structured losses plus messages addressed to a crashed vertex.
	Dropped int64
	// Delayed counts messages the fault plan deferred to a later round.
	// A deferred message that is eventually delivered also counts in
	// Messages; one still in flight when the run ends does not.
	Delayed int64
}

// ErrMaxRounds reports that a run was aborted before all nodes halted.
var ErrMaxRounds = errors.New("congest: max rounds exceeded before all nodes halted")

// Runner executes a program over a graph. Construct with NewRunner; a
// Runner is single-use (Run may be called once).
type Runner struct {
	g      *graph.Graph // ingest graph, external labeling
	nodes  []Node       // indexed by internal ID
	opts   Options
	ran    bool
	traced bool // full event stream wanted; set before workers start, read-only after

	// Layout state (see internal/layout). Under the identity layout perm
	// and ext are nil and rows is a view of g's CSR. Otherwise perm/ext
	// translate external↔internal IDs and rows.tgt holds every internal
	// vertex's neighbor row mapped to internal IDs: the flat target array
	// broadcast records index. The external rows are g's own.
	//idspace:index external
	//idspace:internal
	perm []int // external ID -> internal ID; nil = identity
	//idspace:index internal
	//idspace:external
	ext       []int // internal ID -> external ID; nil = identity
	rows      nbrRows
	layoutErr error // deferred to Run: NewRunner cannot return an error
}

// NewRunner builds a runner for the given graph. factory(v) must return the
// state machine for vertex v; it is called once per vertex in ascending
// external (original) ID order regardless of Options.Layout.
func NewRunner(g *graph.Graph, factory func(v int) Node, opts Options) *Runner {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = DefaultMaxRounds
	}
	r := &Runner{g: g, opts: opts}
	r.resolveLayout()
	r.nodes = make([]Node, g.N())
	for v := 0; v < g.N(); v++ {
		p := v
		if r.perm != nil {
			p = r.perm[v]
		}
		r.nodes[p] = factory(v)
	}
	return r
}

// resolveLayout computes the configured ordering and builds the target
// rows from g's own rows. Failures (unknown ordering name) are recorded
// in layoutErr and poison Run; the runner falls back to identity
// internals so accessors stay safe.
func (r *Runner) resolveLayout() {
	off, adj := r.g.CSR()
	r.rows = nbrRows{off: off, src: r.g.Neighbors, tgt: adj}
	o, err := layout.Parse(r.opts.Layout)
	if err != nil {
		r.layoutErr = err
		return
	}
	perm, ext, err := layout.Compute(r.g, o)
	if err != nil {
		r.layoutErr = err
		return
	}
	if perm == nil {
		return // identity: the target rows are the CSR, nothing stored
	}
	r.perm, r.ext = perm, ext
	r.rows = newNbrRows(0, len(ext), func(v int) []int { return r.g.Neighbors(ext[v]) }, perm)
}

// nbrRows holds the neighbor rows of the internal vertices [lo, hi). An
// internal vertex's external row — its neighbors' external IDs,
// ascending, what its context exposes — is its source row src(v),
// aliased, never copied: the ingest graph's row on the coordinator, the
// config frame's row on a shard worker. tgt holds the same rows mapped
// to internal IDs, laid out in internal order: what sends address and
// broadcast records index.
type nbrRows struct {
	//idspace:internal
	lo  int
	off []int // v-lo -> offset of v's row in tgt
	src func(v int) []int
	//idspace:internal
	tgt []int
}

// newNbrRows builds the target rows of [lo, hi) from each vertex's
// external row src(v) and the external→internal ID map (nil =
// identity). Both the coordinator and the shard worker build their rows
// here; a row mapped through perm keeps src's order, so there is
// nothing to sort.
//
//idspace:internal lo hi
func newNbrRows(lo, hi int, src func(v int) []int, perm []int) nbrRows {
	rw := nbrRows{lo: lo, off: make([]int, hi-lo+1), src: src}
	for v := lo; v < hi; v++ {
		rw.off[v-lo+1] = rw.off[v-lo] + len(src(v))
	}
	rw.tgt = make([]int, rw.off[hi-lo])
	for v := lo; v < hi; v++ {
		row := rw.tgt[rw.off[v-lo]:rw.off[v-lo+1]]
		if perm == nil {
			copy(row, src(v))
			continue
		}
		for i, y := range src(v) {
			row[i] = perm[y]
		}
	}
	return rw
}

// initContexts builds the contexts of internal vertices [lo,
// lo+len(ctxs)), all owned by shard sh, from the runner's rows. A context
// carries the external identity (ID, neighbor row, RNG stream), so
// relabeling is invisible to the program. The in-process drivers and the
// shard worker share it.
//
//idspace:internal lo
func (r *Runner) initContexts(ctxs []Context, lo, n int, root *rng.RNG, sh *shard) {
	for i := range ctxs {
		v := lo + i
		var extv int
		if r.ext != nil {
			extv = r.ext[v]
		} else {
			extv = v //idspace:ok identity layout: internal and external IDs coincide
		}
		ctxs[i] = Context{
			id:        extv,
			n:         n,
			neighbors: r.rows.src(v),
			row:       r.rows.off[v-r.rows.lo],
			rng:       *root.Split(uint64(extv)),
			shard:     sh,
			runner:    r,
		}
	}
}

// Node returns vertex v's state machine, for reading outputs after Run.
// v is the external (original) ID under every layout.
func (r *Runner) Node(v int) Node {
	if r.perm != nil {
		return r.nodes[r.perm[v]]
	}
	return r.nodes[v]
}

// Run executes the program to completion and returns run statistics. It
// returns ErrMaxRounds if any node is still live at the round limit, or the
// first model violation (send to non-neighbor, oversized message) detected.
func (r *Runner) Run() (Result, error) {
	if r.ran {
		return Result{}, errors.New("congest: Runner is single-use; construct a new one per run")
	}
	r.ran = true
	if r.layoutErr != nil {
		return Result{}, r.layoutErr
	}
	if len(r.rows.tgt) > maxTargets {
		return Result{}, fmt.Errorf("congest: %d adjacency entries exceed the %d an outbox record can address", len(r.rows.tgt), maxTargets)
	}
	switch r.opts.Driver {
	case DriverPool:
		return r.runPool()
	case DriverDistributed:
		return r.runDistributed()
	default:
		return r.runSequential()
	}
}

// shard is a contiguous vertex range [lo, hi) owned by one worker. Its
// outboxes accumulate the records its nodes send during a sweep, in
// (sender ID, send call) order per destination bucket; its frontier is a
// dense grow-only bitset of the not-yet-halted vertices in the range (see
// frontier.go). Only the owning worker touches a shard during a sweep; the
// coordinator reads and re-partitions it between sweeps (rebalance.go).
type shard struct {
	idx int // shard index; doubles as this shard's merge-bucket index
	//idspace:internal
	lo, hi    int      // owned contiguous vertex range [lo, hi)
	frontier  []uint64 // live bitset over [lo, hi); word 0 starts at (lo>>6)<<6
	liveCount int      // set bits in frontier (O(1) empty-shard skip)
	// buckets is the per-destination-bucket outbox family: buckets[d]
	// holds the records this shard's nodes sent to vertices of destination
	// shard d, in send order. Single-shard runs and fault plans use a
	// single bucket, the classic global-send-order outbox.
	buckets []bucket
	events  []trace.Event // program/halt events buffered during the sweep
	err     error         // first model violation by a node of this shard
	busy    int64         // sweep duration in nanoseconds, when timing is on

	// Vertex fates of the round (faulted runs, see scanFates): down masks
	// this round's VertexDown vertices out of the sweep, word-aligned with
	// frontier, and fates lists the round's non-Up verdicts.
	down  []uint64
	fates []VertexFate

	// Halt log for the shard worker, which ships its halts to the
	// coordinator: when logHalts is set the sweep appends every vertex
	// that halts to halted.
	//
	//idspace:internal
	halted   []int32
	logHalts bool

	// mergeBase is the arena offset where this shard's inbox region starts
	// in a bucketed merge (its destination role).
	mergeBase int

	// Pad to a whole number of cache lines, like bucket: a sweep writes
	// its own shard's liveCount, and its reads of frontier and down must
	// not share a line with the next shard's.
	_ [40]byte
}

// bucket is one destination bucket of a shard's outbox. recs holds one
// point record per Send/SendSlot and one broadcast record per Broadcast
// (per bucket its row touches), in send order; msgs counts the messages
// they expand to and bits and maxBits tally those messages' sizes.
// newExecState presizes recs to one record per vertex of the shard, so
// steady-state sweeps do not grow it.
//
// In a bucketed run a bucket also keeps its destination shard's range
// [lo, hi), which bucketOf and split route by, and split's scratch: the
// stretch [first, end) of the current broadcast row from its first to its
// last neighbor in the bucket, and the n neighbors there. Every write a
// sweep makes to routing and tally state lands in the sweeping shard's own
// buckets, and no sweep reads another shard's: the coordinator copies the
// ranges in (setBounds) between sweeps. A bucket fills two cache lines
// exactly, so the workers' buckets never share a line — with false
// sharing, every message pushed could stall on a line another worker just
// wrote.
type bucket struct {
	recs    []record
	msgs    int
	bits    int64
	maxBits int
	//idspace:internal
	lo, hi        int
	first, end, n int
	_             [40]byte // pad to 128 bytes
}

// execState is the driver-independent bookkeeping for a run.
type execState struct {
	// ctxs and the inbox view below cover the vertices [base, base+len):
	// the whole graph on the coordinator (base 0), the owned range in a
	// shard worker. Index them with v-base.
	ctxs   []Context
	shards []*shard
	//idspace:internal
	base int

	// The flat inbox arena: one contiguous backing store for all of the
	// round's inboxes, sized by a counting pass over the shard outboxes
	// and reused across rounds (it only grows, so steady-state rounds
	// allocate nothing). Vertex v's inbox is arena[inboxOff[v] :
	// inboxOff[v]+inboxLen[v]] — inboxes are laid out in ascending vertex
	// order, so the sweep reads the arena sequentially. A shard worker
	// points the view at the inbox its coordinator shipped.
	arena    []Message
	inboxOff []int // vertex -> arena offset of its inbox
	inboxLen []int // vertex -> messages delivered this round (write cursor)

	// tgt is the run's flat target array (the runner's rows.tgt), along
	// which delivery expands broadcast records.
	//
	//idspace:internal
	tgt []int

	live      int
	res       Result
	plan      faultsim.Plan    // fault plan (nil = reliable network)
	faults    *rng.RNG         // coordinator-owned fault stream
	delayed   map[int][]record // in-flight messages (point records) keyed by consumption round
	delayFree [][]record       // drained delay buckets, kept for reuse
	sent      int64            // messages handed to delivery, any fate
	observed  int64            // sends already reported on the bus

	// Bucketed-merge state. buckets is the destination-bucket count per
	// shard outbox: numShards on a reliable network (delivery decomposes
	// into per-destination-shard merges), 1 under a fault plan (fault
	// draws need the global send order a single outbox preserves).
	// parMerge, set by the pool driver, dispatches one merge task per
	// shard to the worker pool and waits; nil means the coordinator merges
	// the buckets itself.
	buckets    int
	parMerge   func()
	scratch    []uint64 // whole-graph frontier gather space for rebalancing
	rebalances int64    // rebalance count over the run

	// Event-bus state (see events.go). bus is Options.Events: nil when
	// nothing listens.
	bus            trace.Sink
	lastDelivered  int64 // round-delta trackers for EvRoundEnd/EvRNG
	lastDropped    int64
	lastDraws      uint64
	lastFaultDraws uint64

	// Distributed-driver state: when remote is set, node RNG draws happen
	// in the shard worker processes and remoteDraws (the sum of the
	// workers' cumulative draw counts) replaces the coordinator-side
	// context scan in endRound — the coordinator's mirror contexts never
	// draw, so the scan would report zero.
	remote      bool
	remoteDraws uint64

	// Layout translation (mirrors Runner.ext/perm; nil = identity). The
	// engine's storage and sweep order are internal, but fault-plan
	// consults and trace-event vertex fields must speak external IDs.
	//
	//idspace:index internal
	//idspace:external
	ext []int
	//idspace:index external
	//idspace:internal
	perm []int
}

// extID translates an internal vertex ID to its external (original) ID.
// This is the one sanctioned internal→external crossing; misvet's idspace
// analyzer checks every other flow against the declared spaces.
//
//idspace:internal v
//idspace:returns external
//congest:hotpath
func (st *execState) extID(v int) int {
	if st.ext == nil {
		return v //idspace:ok identity layout: internal and external IDs coincide
	}
	return st.ext[v]
}

// newExecState prepares contexts and shards. Shard boundaries split the
// vertex range into numShards near-equal contiguous pieces.
func (r *Runner) newExecState(numShards int) *execState {
	root := rng.New(r.opts.Seed)
	n := r.g.N()
	if numShards > n {
		numShards = n
	}
	if numShards < 1 {
		numShards = 1
	}
	st := &execState{
		ctxs:     make([]Context, n),
		inboxOff: make([]int, n),
		inboxLen: make([]int, n),
		shards:   make([]*shard, numShards),
		tgt:      r.rows.tgt,
		live:     n,
		plan:     r.opts.Faults,
		bus:      r.opts.Events,
	}
	st.ext, st.perm = r.ext, r.perm
	if st.plan != nil {
		st.faults = root.Split(^uint64(0))
	}
	r.traced = st.bus != nil
	// Destination-bucketed outboxes let delivery decompose into disjoint
	// per-shard merges (deliverBuckets); they require a reliable network
	// (fault draws consume the fault stream in global send order, which
	// only a single outbox preserves). One shard needs no routing.
	st.buckets = 1
	if numShards > 1 && st.plan == nil {
		st.buckets = numShards
	}
	for s := range st.shards {
		lo, hi := s*n/numShards, (s+1)*n/numShards
		sh := newShard(s, st.buckets, hi-lo)
		sh.resetFrontier(lo, hi)
		r.initContexts(st.ctxs[lo:hi], lo, n, root, sh)
		st.shards[s] = sh
	}
	st.setBounds()
	return st
}

// newShard allocates shard s's outbox family for a run with the given
// bucket count, each bucket presized to one record per vertex of the
// shard: a broadcast costs one record per bucket its row touches, so a
// round in which every vertex broadcasts once fits without growing.
func newShard(s, buckets, width int) *shard {
	sh := &shard{idx: s, buckets: make([]bucket, buckets)}
	for d := range sh.buckets {
		sh.buckets[d].recs = make([]record, 0, width)
	}
	return sh
}

// setBounds copies every shard's vertex range into the matching bucket of
// every shard of a bucketed run, for routing. The coordinator calls it
// whenever the ranges change, while no worker sweeps.
func (st *execState) setBounds() {
	if st.buckets == 1 {
		return
	}
	for _, src := range st.shards {
		for d, dst := range st.shards {
			src.buckets[d].lo, src.buckets[d].hi = dst.lo, dst.hi
		}
	}
}

// sweepShard runs one round for every live node of a shard, in ascending
// ID order by iterating the frontier bitset word by word (set bits resolve
// low-to-high via TrailingZeros64, so bit order is ID order). Vertices the
// round's fate scan marked down are masked out; a halted node's bit is
// cleared. Every driver sweeps through here: the in-process drivers on
// the coordinator's state, the shard worker on its own.
//
//congest:hotpath
func (r *Runner) sweepShard(st *execState, sh *shard, round int) {
	base := sh.lo >> 6
	for wi, w := range sh.frontier {
		if sh.down != nil {
			w &^= sh.down[wi]
		}
		if w == 0 {
			continue
		}
		vbase := (base + wi) << 6
		for rem := w; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			v := vbase + b
			i := v - st.base
			ctx := &st.ctxs[i]
			ctx.round = round
			if round == 0 {
				r.nodes[i].Init(ctx)
			} else {
				r.nodes[i].Round(ctx, st.inbox(i))
			}
			if ctx.halted {
				sh.frontier[wi] &^= 1 << uint(b)
				sh.liveCount--
				if sh.logHalts {
					sh.halted = append(sh.halted, int32(v))
				}
				if r.traced {
					sh.events = append(sh.events, trace.Event{
						Type: trace.EvHalt, Round: int32(round), V: int32(st.extID(v)),
					})
				}
			}
		}
	}
}

// scanFates evaluates the round's vertex fates for every shard's live
// vertices, once per round on the coordinator and for every driver (after
// the pool's rebalance, before the sweep). A VertexGone vertex is retired
// from the frontier, so a run with permanent crashes can still terminate;
// a VertexDown vertex keeps its bit but is masked out of this round's
// sweep. Both verdicts are listed in sh.fates, which the distributed
// driver ships to the owning worker. Fates are pure functions of (round,
// vertex), so the scan consumes no randomness.
func (st *execState) scanFates(round int) {
	if st.plan == nil || round == 0 {
		return
	}
	for _, sh := range st.shards {
		sh.fates = sh.fates[:0]
		if cap(sh.down) < len(sh.frontier) {
			sh.down = make([]uint64, len(sh.frontier))
		}
		sh.down = sh.down[:len(sh.frontier)]
		clear(sh.down)
		base := sh.lo >> 6
		for wi, w := range sh.frontier {
			vbase := (base + wi) << 6
			for rem := w; rem != 0; {
				b := bits.TrailingZeros64(rem)
				rem &^= 1 << uint(b)
				v := vbase + b
				// v indexes the internal frontier; plans speak external IDs.
				f := st.plan.Vertex(round, st.extID(v))
				switch f {
				case faultsim.VertexGone:
					sh.frontier[wi] &^= 1 << uint(b)
					sh.liveCount--
				case faultsim.VertexDown:
					sh.down[wi] |= 1 << uint(b)
				default:
					continue
				}
				sh.fates = append(sh.fates, VertexFate{V: int32(v), Fate: int32(f)})
			}
		}
	}
}

// inbox returns the i'th vertex's slice of the round's arena (i = v-base).
// The three-index form caps the slice at its own segment, so a program
// that (incorrectly) appends to its inbox forces a copy instead of
// corrupting a neighbor's inbox.
//
//congest:hotpath
func (st *execState) inbox(i int) []Message {
	off := st.inboxOff[i]
	end := off + st.inboxLen[i]
	return st.arena[off:end:end]
}

// draws sums the cumulative draw counts of the state's node streams.
func (st *execState) draws() uint64 {
	var d uint64
	for i := range st.ctxs {
		d += st.ctxs[i].rng.Draws()
	}
	return d
}

// deliver merges every shard's outbox into the next round's inboxes,
// applying the fault plan and accounting. round is the round that was just
// swept (the send round); its messages are consumed in round+1. It returns
// the first model violation recorded by any shard (shards cover ascending
// contiguous ID ranges and sweep in ID order, so the reported error is the
// lowest erring vertex's under every driver). A reliable network takes the
// bucketed scatter (deliverBuckets); the rest of this function is the
// faulted path.
//
// Faulted delivery is a two-pass scatter into the flat inbox arena. The
// counting pass upper-bounds each vertex's inbox (delayed messages due
// this round plus every outbox message addressed to it — drops only
// shorten a segment, never misplace one) and lays the inboxes out
// back-to-back via a prefix sum. The delivery pass then expands each
// record — a broadcast record along its sender's row, in row order — and
// writes each admitted message at its recipient's cursor. Shards cover
// contiguous ascending ID ranges and each shard outbox is already in
// ascending sender order, so visiting shard outboxes in shard order
// delivers every inbox sorted by sender, and fault decisions happen in
// that same global (sender, send call, row position) order, one consult
// per message (the counting pass consults no randomness), so fault stream
// consumption is identical across drivers. Messages a plan has delayed land ahead of the round's fresh
// traffic, in the order they were deferred (which is itself global send
// order, so the whole inbox is deterministic).
//
//congest:hotpath
func (r *Runner) deliver(st *execState, round int) error {
	for _, sh := range st.shards {
		if sh.err != nil {
			return sh.err
		}
	}
	st.drainShardEvents()
	if st.plan == nil {
		st.deliverBuckets()
		return nil
	}
	consume := round + 1
	var delayedNow []record
	if st.delayed != nil {
		delayedNow = st.delayed[consume]
	}

	// Counting pass: inboxLen doubles as the per-vertex counter, then the
	// prefix sum converts counts into offsets and resets the cursors.
	clear(st.inboxLen)
	for i := range delayedNow {
		st.inboxLen[delayedNow[i].at]++
	}
	for _, sh := range st.shards {
		out := sh.buckets[0].recs
		for i := range out {
			rc := &out[i]
			if rc.span == 0 {
				st.inboxLen[rc.at]++
				continue
			}
			for _, t := range st.recipients(rc) {
				st.inboxLen[t]++
			}
		}
	}
	total := 0
	for v, c := range st.inboxLen {
		st.inboxOff[v] = total
		st.inboxLen[v] = 0
		total += c
	}
	st.growArena(total)

	// Delivery pass: delayed messages first, then fresh traffic in shard
	// (= global sender) order.
	for i := range delayedNow {
		st.admit(int(delayedNow[i].at), &delayedNow[i].msg, consume)
	}
	if delayedNow != nil {
		st.delayFree = append(st.delayFree, delayedNow[:0])
		delete(st.delayed, consume)
	}
	for _, sh := range st.shards {
		st.sent += int64(sh.buckets[0].msgs)
		out := sh.buckets[0].recs
		for i := range out {
			rc := &out[i]
			if rc.span == 0 {
				st.route(round, int(rc.at), &rc.msg)
				continue
			}
			for _, t := range st.recipients(rc) {
				st.route(round, t, &rc.msg)
			}
		}
		sh.clearOutbox()
	}
	return nil
}

// recipients returns a broadcast record's span of the flat target array.
//
//congest:hotpath
func (st *execState) recipients(rc *record) []int { return st.tgt[rc.at : rc.at+rc.span] }

// route applies the fault plan to one message of the send round: one
// fault-stream consult, then a drop, a delay, or admission into the next
// round's inbox.
//
//idspace:internal to
//congest:hotpath
func (st *execState) route(round, to int, m *Message) {
	fate := st.plan.Message(round, m.From, st.extID(to), st.faults)
	if fate.Drop {
		st.res.Dropped++
		if st.bus != nil {
			st.bus.Emit(trace.Event{
				Type: trace.EvDrop, Round: int32(round),
				V: int32(m.From), W: int32(st.extID(to)),
			})
		}
		return
	}
	consume := round + 1
	if fate.Delay > 0 {
		if st.delayed == nil {
			//congest:coldpath first delay fault of the run allocates the bucket map once
			st.delayed = make(map[int][]record)
		}
		at := consume + fate.Delay
		st.delayed[at] = st.appendDelayed(st.delayed[at], record{msg: *m, at: uint32(to)})
		st.res.Delayed++
		if st.bus != nil {
			st.bus.Emit(trace.Event{
				Type: trace.EvDelay, Round: int32(round),
				V: int32(m.From), W: int32(st.extID(to)), X: int64(fate.Delay),
			})
		}
		return
	}
	st.admit(to, m, consume)
}

// growArena sizes the inbox arena for total messages. The backing store
// only grows, so steady-state rounds never allocate.
//
//congest:hotpath
func (st *execState) growArena(total int) {
	if cap(st.arena) < total {
		//congest:coldpath arena growth: the backing store only grows, so steady-state rounds never take this branch
		st.arena = make([]Message, total)
	} else {
		st.arena = st.arena[:total]
	}
}

// parallelMergeMin is the outbox volume (messages in the round) below which
// deliverBuckets merges on the coordinator rather than dispatching merge
// tasks to the worker pool: under it, the channel round-trip costs more
// than the scatter it would parallelize.
const parallelMergeMin = 1 << 13

// deliverBuckets is delivery on a reliable network, for every driver:
// every shard swept its nodes into per-destination-shard sub-outboxes, so
// shard d's whole inbox region is exactly the expansion of {buckets[d] of
// every source shard} — a merge over disjoint arena ranges that can run
// per destination shard, in parallel, with no coordination beyond the
// range layout. A single-shard run is the degenerate case: one bucket,
// one region.
//
// Recipient v's inbox concatenates source shards in ascending shard order
// (shards cover ascending contiguous ID ranges), and within a source
// bucket records are in (sender ID, send call) order because the sweep
// visits nodes in ID order; a sender's broadcast record reaches each
// recipient once. Every inbox is therefore sorted by sender, with each
// sender's messages in call order — the same order the faulted
// single-outbox path produces, whatever the shard count.
//
//congest:hotpath
func (st *execState) deliverBuckets() {
	// Region layout: shard d's inbox region starts where shard d-1's ends,
	// sized by the per-bucket message counts (a pass over W² counters, not
	// records).
	total := 0
	for _, dst := range st.shards {
		dst.mergeBase = total
		for _, src := range st.shards {
			total += src.buckets[dst.idx].msgs
		}
	}
	st.growArena(total)
	if st.parMerge != nil && total >= parallelMergeMin {
		st.parMerge()
	} else {
		for d := range st.shards {
			st.mergeBucket(d)
		}
	}
	// Every message sent is delivered: fold the senders' tallies into the
	// run counters and reset the buckets for the next sweep.
	st.sent += int64(total)
	st.res.Messages += int64(total)
	for _, src := range st.shards {
		for d := range src.buckets {
			b := &src.buckets[d]
			st.res.TotalBits += b.bits
			if b.maxBits > st.res.MaxMessageBits {
				st.res.MaxMessageBits = b.maxBits
			}
		}
		src.clearOutbox()
	}
}

// clearOutbox empties every bucket and its tallies for the next sweep.
//
//congest:hotpath
func (sh *shard) clearOutbox() {
	for d := range sh.buckets {
		b := &sh.buckets[d]
		b.recs = b.recs[:0]
		b.msgs, b.bits, b.maxBits = 0, 0, 0
	}
}

// mergeBucket scatters destination shard d's inbox region: counting pass
// over every source shard's bucket for d, prefix sum from the region base,
// then the cursor scatter — the same two-pass layout as faulted deliver,
// restricted to the region. Both passes expand broadcast records along
// the flat target array, skipping neighbors outside the region (a record
// spans from its first to its last neighbor in d, which under a layout
// may straddle other buckets' neighbors). Regions are disjoint in the
// arena and in inboxOff/inboxLen (shard vertex ranges partition [0, n)),
// so mergeBucket calls for distinct d are race-free and run on pool
// workers when volume warrants.
//
//congest:hotpath
func (st *execState) mergeBucket(d int) {
	dst := st.shards[d]
	lo, hi := dst.lo, dst.hi
	for v := lo; v < hi; v++ {
		st.inboxLen[v] = 0
	}
	for _, src := range st.shards {
		out := src.buckets[d].recs
		for i := range out {
			rc := &out[i]
			if rc.span == 0 {
				st.inboxLen[rc.at]++
				continue
			}
			for _, t := range st.recipients(rc) {
				if t >= lo && t < hi {
					st.inboxLen[t]++
				}
			}
		}
	}
	off := dst.mergeBase
	for v := lo; v < hi; v++ {
		st.inboxOff[v] = off
		off += st.inboxLen[v]
		st.inboxLen[v] = 0
	}
	for _, src := range st.shards {
		out := src.buckets[d].recs
		for i := range out {
			rc := &out[i]
			if rc.span == 0 {
				st.place(int(rc.at), &rc.msg)
				continue
			}
			for _, t := range st.recipients(rc) {
				if t >= lo && t < hi {
					st.place(t, &rc.msg)
				}
			}
		}
	}
}

// place writes one message at its recipient's arena cursor.
//
//idspace:internal v
//congest:hotpath
func (st *execState) place(v int, m *Message) {
	st.arena[st.inboxOff[v]+st.inboxLen[v]] = *m
	st.inboxLen[v]++
}

// appendDelayed appends to a delay bucket, seeding empty buckets from the
// free list of previously drained ones so steady-state delay traffic
// reuses buffers instead of allocating.
//
//congest:hotpath
func (st *execState) appendDelayed(bucket []record, rc record) []record {
	if bucket == nil && len(st.delayFree) > 0 {
		bucket = st.delayFree[len(st.delayFree)-1]
		st.delayFree = st.delayFree[:len(st.delayFree)-1]
	}
	return append(bucket, rc)
}

// admit finalizes delivery of one message into its recipient's inbox for
// the given consumption round, unless the recipient is crashed then — a
// dead vertex is not listening, so the message is lost.
//
//idspace:internal to
//congest:hotpath
func (st *execState) admit(to int, m *Message, consume int) {
	if st.plan != nil && st.plan.Vertex(consume, st.extID(to)) != faultsim.VertexUp {
		st.res.Dropped++
		if st.bus != nil {
			// consume-1 is the round being delivered: event rounds stay
			// nondecreasing within the stream, which Bisect relies on.
			st.bus.Emit(trace.Event{
				Type: trace.EvDrop, Round: int32(consume - 1),
				V: int32(m.From), W: int32(st.extID(to)), X: 1,
			})
		}
		return
	}
	st.place(to, m)
	st.res.Messages++
	bits := int(m.Wire.Bits)
	st.res.TotalBits += int64(bits)
	if bits > st.res.MaxMessageBits {
		st.res.MaxMessageBits = bits
	}
}

// refreshLive recomputes the live-node count from the shard frontiers.
func (st *execState) refreshLive() {
	live := 0
	for _, sh := range st.shards {
		live += sh.liveCount
	}
	st.live = live
}

// runLoop is the coordinator shared by every driver: round 0 (Init), then
// rounds 1, 2, ... until every node has halted. Each round the pool
// re-cuts skewed shards, the fate scan runs, sweep(round) runs every live
// node once, and delivery merges the outboxes; afterRound, when non-nil,
// runs after each successfully delivered round, before the round-end event
// (the pool driver publishes its timing events there). Round reporting
// rides the event bus: startRound/endRound bracket each round on it.
//
// Result.Rounds is committed only after a round's delivery succeeds, so a
// run aborted by a mid-round model violation reports the last *completed*
// round, not the one that failed.
func (r *Runner) runLoop(st *execState, sweep func(round int), afterRound func(round int)) (Result, error) {
	for round := 0; round == 0 || st.live > 0; round++ {
		if round > r.opts.MaxRounds {
			return st.res, fmt.Errorf("%w (limit %d, %d nodes live)", ErrMaxRounds, r.opts.MaxRounds, st.live)
		}
		r.startRound(st, round)
		if r.opts.Driver == DriverPool && round > 0 {
			st.maybeRebalance(round)
		}
		st.scanFates(round)
		sweep(round)
		if err := r.deliver(st, round); err != nil {
			return st.res, err
		}
		st.res.Rounds = round
		st.refreshLive()
		if afterRound != nil {
			afterRound(round)
		}
		r.endRound(st, round)
	}
	return st.res, nil
}

// runSequential is one inline shard: the shared round loop with the sweep
// on the calling goroutine.
func (r *Runner) runSequential() (Result, error) {
	st := r.newExecState(1)
	return r.runLoop(st, func(round int) {
		r.sweepShard(st, st.shards[0], round)
	}, nil)
}
