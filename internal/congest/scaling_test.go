package congest

import (
	"math/bits"
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestFrontierWords(t *testing.T) {
	cases := []struct{ lo, hi, want int }{
		{0, 0, 0}, {5, 5, 0}, {7, 3, 0},
		{0, 1, 1}, {0, 64, 1}, {0, 65, 2},
		{63, 64, 1}, {63, 65, 2}, {64, 128, 1},
		{100, 200, 3}, {1, 4096, 64},
	}
	for _, c := range cases {
		if got := frontierWords(c.lo, c.hi); got != c.want {
			t.Errorf("frontierWords(%d, %d) = %d, want %d", c.lo, c.hi, got, c.want)
		}
	}
}

// frontierSet lists the vertex IDs a shard's frontier has set, in order.
func frontierSet(sh *shard) []int {
	var out []int
	base := sh.lo >> 6
	for wi, w := range sh.frontier {
		vbase := (base + wi) << 6
		for rem := w; rem != 0; {
			b := bits.TrailingZeros64(rem)
			rem &^= 1 << uint(b)
			out = append(out, vbase+b)
		}
	}
	return out
}

func TestResetFrontierMasksRangeEdges(t *testing.T) {
	for _, c := range []struct{ lo, hi int }{
		{0, 64}, {0, 100}, {10, 70}, {100, 101}, {65, 191}, {0, 1}, {63, 64}, {7, 7},
	} {
		sh := &shard{}
		sh.resetFrontier(c.lo, c.hi)
		if sh.liveCount != c.hi-c.lo {
			t.Fatalf("[%d,%d): liveCount = %d, want %d", c.lo, c.hi, sh.liveCount, c.hi-c.lo)
		}
		got := frontierSet(sh)
		if len(got) != c.hi-c.lo {
			t.Fatalf("[%d,%d): %d bits set, want %d", c.lo, c.hi, len(got), c.hi-c.lo)
		}
		for i, v := range got {
			if v != c.lo+i {
				t.Fatalf("[%d,%d): bit %d is vertex %d, want %d", c.lo, c.hi, i, v, c.lo+i)
			}
		}
	}
}

func TestWorkerCountEdgeCases(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		name    string
		workers int
		n       int
		want    int
	}{
		{"zero-vertices-default", 0, 0, 1},
		{"zero-vertices-explicit", 8, 0, 1},
		{"negative-workers-small-n", -5, 1, 1},
		{"workers-exceed-n", 100, 3, 3},
		{"workers-within-n", 3, 10, 3},
		{"default-clamped-to-n", 0, 1, 1},
	}
	for _, c := range cases {
		if got := (Options{Workers: c.workers}).WorkerCount(c.n); got != c.want {
			t.Errorf("%s: WorkerCount(%d) with Workers=%d = %d, want %d",
				c.name, c.n, c.workers, got, c.want)
		}
	}
	// The default resolves to GOMAXPROCS before the n clamp.
	if got := (Options{}).WorkerCount(1 << 20); got != maxprocs {
		t.Errorf("default WorkerCount(large n) = %d, want GOMAXPROCS = %d", got, maxprocs)
	}
	// A non-positive Workers still yields a runnable pool.
	r := NewRunner(ringGraph(3), haltFactory, Options{Seed: 1, Driver: DriverPool, Workers: -3})
	if _, err := r.Run(); err != nil {
		t.Fatalf("negative Workers run failed: %v", err)
	}
}

// TestEfficiencyDispatchedShards is the regression test for the
// tail-round efficiency bug: a round where the empty-shard skip
// dispatched a single shard must count one shard's capacity in the
// denominator, not the widest-ever worker count. Here two perfectly
// efficient rounds — four balanced shards, then one straggler shard with
// the other three skipped — must report efficiency 1.0; the old
// Workers × Critical formula reported 50ms/80ms = 0.625.
func TestEfficiencyDispatchedShards(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// round feeds one round of pool timing events, closed by round-end.
	round := func(d *DriverStats, busy []time.Duration, live []int) {
		for s := range busy {
			d.Emit(trace.Event{Type: trace.EvShardBusy, V: int32(s), X: int64(busy[s]), Y: int64(live[s])})
		}
		d.Emit(trace.Event{Type: trace.EvRoundEnd})
	}
	var d DriverStats
	round(&d, []time.Duration{ms(10), ms(10), ms(10), ms(10)}, []int{10, 10, 10, 10})
	round(&d, []time.Duration{ms(10), 0, 0, 0}, []int{5, 0, 0, 0}) // shards 1-3 skipped
	if d.Workers != 4 {
		t.Fatalf("Workers = %d, want 4", d.Workers)
	}
	if want := ms(50); d.DispatchedCritical != want {
		t.Fatalf("DispatchedCritical = %v, want %v", d.DispatchedCritical, want)
	}
	if e := d.Efficiency(); e != 1.0 {
		t.Fatalf("Efficiency = %v, want 1.0 (old formula: 0.625)", e)
	}
	// A genuinely unbalanced round still scores below 1: two dispatched
	// shards, one twice as slow.
	var u DriverStats
	round(&u, []time.Duration{ms(10), ms(20), 0}, []int{4, 4, 0})
	if e := u.Efficiency(); e != 0.75 {
		t.Fatalf("unbalanced Efficiency = %v, want 0.75", e)
	}
	// A dispatched shard that halted everything this round (live 0 after,
	// busy > 0) still counts as dispatched.
	var h DriverStats
	round(&h, []time.Duration{ms(10), ms(10)}, []int{0, 0})
	if e := h.Efficiency(); e != 1.0 {
		t.Fatalf("final-round Efficiency = %v, want 1.0", e)
	}
}

// skewHalter drives a deliberately skewed shattering shape: vertices
// outside [keepLo, keepHi) halt in round haltAt, the rest keep
// broadcasting until round last. With the survivors in the first or the
// last eighth of the ID range, every shard but the first (or the last)
// drains at once.
type skewHalter struct {
	keepLo, keepHi, haltAt, last int
}

func (s *skewHalter) Init(ctx *Context) { ctx.Broadcast(rawWire(8)) }

func (s *skewHalter) Round(ctx *Context, _ []Message) {
	kept := ctx.ID() >= s.keepLo && ctx.ID() < s.keepHi
	if ctx.Round() >= s.haltAt && !kept || ctx.Round() >= s.last {
		ctx.Halt()
		return
	}
	ctx.Broadcast(rawWire(8))
}

// shardLiveSink forwards to a recorder and notes whether some timed round
// had shard 0 drained while a later shard was still live.
type shardLiveSink struct {
	rec       *trace.Recorder
	shard0Dry bool
	round     int32
	zeroEmpty bool
}

func (s *shardLiveSink) Emit(e trace.Event) {
	if e.Type == trace.EvShardBusy {
		if e.V == 0 {
			s.round, s.zeroEmpty = e.Round, e.Y == 0
		} else if e.Round == s.round && s.zeroEmpty && e.Y > 0 {
			s.shard0Dry = true
		}
	}
	s.rec.Emit(e)
}

// TestSkewedHaltDeterminism runs the skewed workload under the sequential
// driver and the pool at 2, 3 and 4 workers, and requires the Result and
// the deterministic event fingerprint to agree. With the survivors at the
// head of the ID range the coordinator's own shard 0 does all the late
// sweeping while the goroutines idle; with them at the tail shard 0
// drains first and the coordinator only dispatches and waits.
func TestSkewedHaltDeterminism(t *testing.T) {
	const n = 4096
	g := ringGraph(n)
	for _, c := range []struct {
		name           string
		keepLo, keepHi int
	}{
		{"survivors-in-first-shard", 0, n / 8},
		{"survivors-in-last-shard", n - n/8, n},
	} {
		factory := func(int) Node { return &skewHalter{keepLo: c.keepLo, keepHi: c.keepHi, haltAt: 2, last: 12} }
		run := func(opts Options) (Result, uint64, bool) {
			sink := &shardLiveSink{rec: trace.NewRecorder(0)}
			opts.Seed, opts.Events, opts.EventTiming = 7, sink, true
			res, err := NewRunner(g, factory, opts).Run()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return res, sink.rec.Fingerprint(), sink.shard0Dry
		}
		seqRes, seqFP, _ := run(Options{Driver: DriverSequential})
		for _, w := range []int{2, 3, 4} {
			res, fp, dry := run(Options{Driver: DriverPool, Workers: w})
			if res != seqRes {
				t.Fatalf("%s, %d workers: Results diverge: seq %+v, pool %+v", c.name, w, seqRes, res)
			}
			if fp != seqFP {
				t.Fatalf("%s, %d workers: fingerprints diverge: seq %#x, pool %#x", c.name, w, seqFP, fp)
			}
			if want := c.keepLo > 0; dry != want {
				t.Fatalf("%s, %d workers: shard 0 drained before a later shard = %v, want %v", c.name, w, dry, want)
			}
		}
	}
}
