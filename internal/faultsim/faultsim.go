// Package faultsim is the deterministic fault-injection subsystem for the
// CONGEST engine. A Plan decides, per round, the fate of every
// (src, dst, round) message and of every vertex; the engine consults the
// plan on the coordinator during delivery — in global ascending-sender
// order, from a dedicated fault RNG stream split from the run seed — so a
// faulted execution is bit-identical across the sequential, worker-pool,
// and distributed drivers, exactly like a clean one.
//
// The package provides structured, composable fault models:
//
//   - BernoulliDrop: each message lost independently with probability P
//     (uniform message loss);
//   - LinkBurst: a chosen set of directed links goes dark for a round
//     window, modelling a flapping cable or a jammed radio cell;
//   - Partition: the vertex set is bipartitioned and all cross-side
//     traffic is lost for a window, modelling a network split;
//   - CrashStop / CrashRestart: a vertex stops executing at a round,
//     permanently or until a rejoin round (it comes back silent, with
//     whatever state it had — crash-recovery without stable storage);
//   - DelayK: every message is deferred K extra rounds, modelling bounded
//     asynchrony on top of the synchronous schedule.
//
// Compose layers several plans; Check (check.go) verifies safety and
// quantifies liveness degradation of a faulted run's output.
//
// Determinism contract: a Plan must be a pure function of its inputs —
// Message may consume draws from the supplied RNG (the engine hands every
// call the same coordinator-owned fault stream, in the same global order,
// under every driver), and Vertex must use no randomness at all, because
// the engine calls it from shard workers concurrently. Plans therefore
// must not carry mutable state.
package faultsim

import (
	"fmt"
	"sort"

	"repro/internal/rng"
)

// Fate is a plan's verdict on one message. The zero value delivers on
// time.
type Fate struct {
	// Drop discards the message.
	Drop bool
	// Delay defers consumption by this many extra rounds (0 = on time).
	// A message sent in round r is normally consumed in round r+1; Delay d
	// pushes that to round r+1+d. Negative values are treated as 0.
	Delay int
}

// VertexFate is a plan's verdict on one vertex for one round.
type VertexFate int

const (
	// VertexUp means the vertex executes normally.
	VertexUp VertexFate = iota
	// VertexDown means the vertex is crashed this round: it does not
	// execute, and messages that would be consumed by it this round are
	// lost. It may come back up in a later round (crash-restart).
	VertexDown
	// VertexGone means the vertex is crashed forever (crash-stop). The
	// engine retires it so the run can still terminate.
	VertexGone
)

// String names the fate for diagnostics.
func (f VertexFate) String() string {
	switch f {
	case VertexUp:
		return "up"
	case VertexDown:
		return "down"
	case VertexGone:
		return "gone"
	default:
		return fmt.Sprintf("vertexfate(%d)", int(f))
	}
}

// Plan is a fault model. See the package comment for the determinism
// contract; round numbering follows congest.Context.Round (Init is round
// 0, communication rounds are 1, 2, ...).
type Plan interface {
	// Message decides the fate of a message sent in round `round` from
	// vertex `from` to vertex `to`. It runs on the coordinator during
	// delivery, once per message, in global ascending-sender order; r is
	// the run's dedicated fault stream. Vertex IDs are external (original
	// graph) IDs regardless of the engine's storage layout.
	//
	//idspace:external from to
	Message(round, from, to int, r *rng.RNG) Fate
	// Vertex reports v's fate in round `round`. Vertex fates apply to
	// rounds >= 1: the engine always executes Init (round 0) so every
	// node's state exists before the faulty network does. Vertex may be
	// called concurrently and must not consume randomness. v is an
	// external (original graph) ID.
	//
	//idspace:external v
	Vertex(round, v int) VertexFate
}

// Deliver is the zero Fate, for readability in plan implementations.
var Deliver = Fate{}

// Dropped is the drop verdict, for readability in plan implementations.
var Dropped = Fate{Drop: true}

// upOnly provides the trivial Vertex method for message-only plans.
type upOnly struct{}

// Vertex reports every vertex up.
func (upOnly) Vertex(int, int) VertexFate { return VertexUp }

// BernoulliDrop drops each message independently with probability P: one
// Bool(P) draw per message from the fault stream, in global sender order.
type BernoulliDrop struct {
	upOnly
	// P is the per-message loss probability, clamped to [0, 1].
	P float64
}

// Message draws the message's fate.
func (b BernoulliDrop) Message(_, _, _ int, r *rng.RNG) Fate {
	if r.Bool(b.P) {
		return Dropped
	}
	return Deliver
}

// Link is a directed (From, To) edge in a fault plan. Fault plans address
// directions independently: losing u→v does not imply losing v→u.
type Link struct {
	From, To int
}

// LinkBurst drops every message on a chosen link set for the send-round
// window [FromRound, ToRound] (inclusive). Construct with NewLinkBurst.
type LinkBurst struct {
	upOnly
	links              map[Link]bool
	fromRound, toRound int
}

// NewLinkBurst builds a burst plan over the given directed links active
// for send rounds [fromRound, toRound]. Use BothWays to fail a link in
// both directions.
func NewLinkBurst(links []Link, fromRound, toRound int) *LinkBurst {
	set := make(map[Link]bool, len(links))
	for _, l := range links {
		set[l] = true
	}
	return &LinkBurst{links: set, fromRound: fromRound, toRound: toRound}
}

// BothWays expands each undirected pair {u, v} into both directed links.
func BothWays(pairs [][2]int) []Link {
	links := make([]Link, 0, 2*len(pairs))
	for _, p := range pairs {
		links = append(links, Link{From: p[0], To: p[1]}, Link{From: p[1], To: p[0]})
	}
	return links
}

// Message drops traffic on burst links inside the window.
func (b *LinkBurst) Message(round, from, to int, _ *rng.RNG) Fate {
	if round >= b.fromRound && round <= b.toRound && b.links[Link{From: from, To: to}] {
		return Dropped
	}
	return Deliver
}

// Partition bipartitions the vertex set and loses all cross-side traffic
// for the send-round window [FromRound, ToRound]. Construct with
// NewPartition.
type Partition struct {
	upOnly
	side               []bool
	fromRound, toRound int
}

// NewPartition builds a partition plan: side[v] assigns vertex v to one of
// the two sides; messages whose endpoints disagree during the window are
// lost. The slice is not copied and must not be mutated afterwards.
func NewPartition(side []bool, fromRound, toRound int) *Partition {
	return &Partition{side: side, fromRound: fromRound, toRound: toRound}
}

// Message drops cross-partition traffic inside the window.
func (p *Partition) Message(round, from, to int, _ *rng.RNG) Fate {
	if round >= p.fromRound && round <= p.toRound &&
		from < len(p.side) && to < len(p.side) && p.side[from] != p.side[to] {
		return Dropped
	}
	return Deliver
}

// deliverAll provides the trivial Message method for vertex-only plans.
type deliverAll struct{}

// Message delivers every message on time.
func (deliverAll) Message(int, int, int, *rng.RNG) Fate { return Deliver }

// CrashStop fail-stops chosen vertices: from its crash round on, a vertex
// never executes again and all traffic addressed to it is lost. Construct
// with NewCrashStop.
type CrashStop struct {
	deliverAll
	at map[int]int
}

// NewCrashStop builds a crash-stop plan: crashes[v] = r kills vertex v
// from round r on (r < 1 is clamped to 1; Init always runs). The map is
// not copied and must not be mutated afterwards.
func NewCrashStop(crashes map[int]int) *CrashStop {
	return &CrashStop{at: crashes}
}

// Vertex reports crashed vertices gone.
func (c *CrashStop) Vertex(round, v int) VertexFate {
	if r, ok := c.at[v]; ok && round >= r {
		return VertexGone
	}
	return VertexUp
}

// Window is a crash-restart schedule for one vertex: down for rounds
// [Down, Up), rejoining silently (with its pre-crash state) at round Up.
// Up <= 0 means the vertex never rejoins (equivalent to crash-stop).
type Window struct {
	Down, Up int
}

// CrashRestart crashes chosen vertices for a round window each. Construct
// with NewCrashRestart.
type CrashRestart struct {
	deliverAll
	windows map[int]Window
}

// NewCrashRestart builds a crash-restart plan from per-vertex windows. The
// map is not copied and must not be mutated afterwards.
func NewCrashRestart(windows map[int]Window) *CrashRestart {
	return &CrashRestart{windows: windows}
}

// Vertex reports vertices inside their crash window down (or gone when
// the window never closes).
func (c *CrashRestart) Vertex(round, v int) VertexFate {
	w, ok := c.windows[v]
	if !ok || round < w.Down {
		return VertexUp
	}
	if w.Up <= 0 {
		return VertexGone
	}
	if round < w.Up {
		return VertexDown
	}
	return VertexUp
}

// DelayK defers every message by K extra rounds, modelling a network that
// is K rounds slower than the lock-step schedule assumes (bounded
// asynchrony). K <= 0 delivers on time.
type DelayK struct {
	upOnly
	// K is the number of extra rounds every message spends in flight.
	K int
}

// Message defers the message by K rounds.
func (d DelayK) Message(int, int, int, *rng.RNG) Fate {
	if d.K > 0 {
		return Fate{Delay: d.K}
	}
	return Deliver
}

// composite layers several plans; see Compose.
type composite struct {
	plans []Plan
}

// Compose layers plans into one: a message is dropped as soon as any layer
// drops it (layers are consulted in argument order, so RNG consumption is
// deterministic), surviving messages accumulate the maximum delay any
// layer imposes, and a vertex's fate is the worst any layer reports
// (Gone > Down > Up). Composing zero plans yields a no-fault plan.
func Compose(plans ...Plan) Plan {
	if len(plans) == 1 {
		return plans[0]
	}
	return &composite{plans: plans}
}

// Message consults every layer in order until one drops.
func (c *composite) Message(round, from, to int, r *rng.RNG) Fate {
	out := Deliver
	for _, p := range c.plans {
		f := p.Message(round, from, to, r)
		if f.Drop {
			return Dropped
		}
		if f.Delay > out.Delay {
			out.Delay = f.Delay
		}
	}
	return out
}

// Vertex reports the worst fate any layer assigns.
func (c *composite) Vertex(round, v int) VertexFate {
	out := VertexUp
	for _, p := range c.plans {
		if f := p.Vertex(round, v); f > out {
			out = f
		}
	}
	return out
}

// CrashedAt evaluates a plan's vertex fates at one round for an n-vertex
// graph: crashed[v] is true when v is down or gone in `round`. Passing the
// round after a run's last (Result.Rounds + 1) yields the set of vertices
// that were dead at the end — what Check needs to score coverage.
func CrashedAt(p Plan, round, n int) []bool {
	crashed := make([]bool, n)
	if p == nil {
		return crashed
	}
	for v := 0; v < n; v++ {
		crashed[v] = p.Vertex(round, v) != VertexUp
	}
	return crashed
}

// SpreadCrashes builds a deterministic crash-stop schedule that kills
// `count` vertices of an n-vertex graph, evenly spread over vertex IDs,
// with crash rounds cycling over [firstRound, firstRound+stride). It is
// the experiment harness's standard way to parameterize crash intensity
// without consuming the fault stream.
func SpreadCrashes(n, count, firstRound, stride int) map[int]int {
	crashes := make(map[int]int, count)
	if n <= 0 || count <= 0 {
		return crashes
	}
	if count > n {
		count = n
	}
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < count; i++ {
		v := i * n / count
		crashes[v] = firstRound + i%stride
	}
	return crashes
}

// Victims returns the sorted vertex IDs a crash schedule touches — handy
// for reporting which nodes an experiment killed.
func Victims(crashes map[int]int) []int {
	vs := make([]int, 0, len(crashes))
	for v := range crashes {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	return vs
}
