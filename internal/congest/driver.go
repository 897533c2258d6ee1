package congest

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/trace"
)

// WorkerCount resolves Options.Workers for an n-vertex pool run: Workers
// when positive, else GOMAXPROCS, then clamped to at most n so no shard
// is empty at the start. The result is always at least 1; a zero-vertex
// run gets one empty shard, which sweeps nothing.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// cmdMerge is the out-of-band command the pool coordinator sends on a
// worker's start channel to run that worker's destination-bucket merge
// instead of a sweep. Rounds are >= 0, so the value cannot collide.
const cmdMerge = -1

// runPool executes the program on workers fixed contiguous vertex shards;
// it is the one in-process driver (DriverSequential is one worker). The
// calling goroutine is shard 0's worker, and shards 1..workers-1 each get
// a long-lived goroutine, with a channel barrier per round (two channel
// operations per goroutine per round): the coordinator dispatches those
// shards, sweeps shard 0 itself, then waits. Delivery happens on the
// coordinator between rounds — except that on a reliable network the
// destination-bucketed merge (deliverBuckets) ships one merge task per
// shard back to the same workers when volume is high. A one-worker run
// starts no goroutine and makes no channel, so it allocates nothing a
// plain inline sweep would not.
func (r *Runner) runPool(workers int) (Result, error) {
	st := r.newExecState(workers)
	timed := r.opts.timingWanted()
	var starts []chan int // starts[s] wakes shard s's goroutine; starts[0] is unused
	var done chan struct{}
	if len(st.shards) > 1 {
		var stop func()
		starts, done, stop = r.startWorkers(st, timed)
		defer stop()
	}

	// The barrier: every shard with live nodes sweeps, the coordinator
	// waits for exactly those. Shards whose frontier has drained get no
	// sweep at all — it would scan empty words, so skipping it (and the
	// channel round-trip) is observationally identical and removes the
	// per-empty-shard coordination cost of the tail rounds, where
	// shattering has halted most of the graph. A skipped shard's worker
	// is idle for the round, so the coordinator may safely clear its
	// timing residue.
	sweep := func(round int) {
		dispatched := 0
		for s := 1; s < len(st.shards); s++ {
			if st.shards[s].liveCount == 0 {
				st.shards[s].busy = 0
				continue
			}
			starts[s] <- round
			dispatched++
		}
		if sh := st.shards[0]; sh.liveCount > 0 {
			r.sweepTimed(st, sh, round, timed)
		} else {
			sh.busy = 0
		}
		for i := 0; i < dispatched; i++ {
			<-done
		}
	}

	if !timed {
		return r.runLoop(st, sweep, nil)
	}

	// Timing plumbing: wrap deliver timing around the coordinator's merge
	// and publish one shard-busy event per shard plus the merge duration
	// on the event bus, ahead of the round-end record. DriverStats
	// aggregates exactly these events.
	var mergeStart time.Time
	timedSweep := func(round int) {
		sweep(round)
		mergeStart = time.Now() //lint:advisory merge timings are advisory-only events, excluded from fingerprints
	}
	afterRound := func(round int) {
		merge := time.Since(mergeStart) //lint:advisory merge timings are advisory-only events, excluded from fingerprints
		for s, sh := range st.shards {
			st.bus.Emit(trace.Event{
				Type:  trace.EvShardBusy,
				Round: int32(round),
				V:     int32(s),
				X:     sh.busy,
				Y:     int64(sh.liveCount),
			})
		}
		st.bus.Emit(trace.Event{Type: trace.EvMerge, Round: int32(round), X: int64(merge)})
	}
	return r.runLoop(st, timedSweep, afterRound)
}

// startWorkers starts one goroutine for each of shards 1..len-1, each
// sweeping or merging its own shard on the commands it receives, and
// installs the parallel merge hook for a bucketed run. stop closes the
// start channels and waits for the goroutines to exit.
func (r *Runner) startWorkers(st *execState, timed bool) (starts []chan int, done chan struct{}, stop func()) {
	starts = make([]chan int, len(st.shards))
	done = make(chan struct{}, len(st.shards)-1) // one completion per goroutine per barrier
	var wg sync.WaitGroup
	for s := 1; s < len(st.shards); s++ {
		starts[s] = make(chan int, 1)
		wg.Add(1)
		//lint:advisory shard workers are deterministic by construction: shard-ordered merge makes scheduling invisible (see package doc)
		go func(sh *shard, start chan int) {
			defer wg.Done()
			for cmd := range start {
				if cmd == cmdMerge {
					st.mergeBucket(sh.idx)
				} else {
					r.sweepTimed(st, sh, cmd, timed)
				}
				done <- struct{}{}
			}
		}(st.shards[s], starts[s])
	}

	// Parallel merge hook for deliverBuckets: one merge task per shard,
	// dispatched to every worker (an empty-frontier shard still owns its
	// destination inbox region), bucket 0 merged on the coordinator, and
	// all awaited before delivery continues. deliver runs strictly between
	// sweep barriers, so the done channel is empty when this fires.
	if st.buckets > 1 {
		st.parMerge = func() {
			for _, start := range starts[1:] {
				start <- cmdMerge
			}
			st.mergeBucket(0)
			for range starts[1:] {
				<-done
			}
		}
	}
	return starts, done, func() {
		for _, start := range starts[1:] {
			close(start)
		}
		wg.Wait()
	}
}

// sweepTimed sweeps one shard and, when timed, records the sweep's wall
// time in sh.busy for the shard-busy event.
func (r *Runner) sweepTimed(st *execState, sh *shard, round int, timed bool) {
	if !timed {
		r.sweepShard(st, sh, round)
		return
	}
	t0 := time.Now() //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
	r.sweepShard(st, sh, round)
	sh.busy = int64(time.Since(t0)) //lint:advisory shard-busy timings are advisory-only events, excluded from fingerprints
}

// DriverStats aggregates the in-process drivers' timing events across a
// run (or several runs) into the driver-efficiency summary cmd/bench
// -parallel reports. It is a trace.Sink: attach it via Options.Events with
// EventTiming set. It folds trace.EvShardBusy and trace.EvMerge events and
// closes a round on trace.EvRoundEnd only when that round produced timing
// events, so a driver that emits none (the distributed driver) leaves it
// empty; a sequential run reports one worker. Not safe for concurrent
// use; the engine emits from the coordinator only.
type DriverStats struct {
	// Rounds is the number of observed rounds (Init included).
	Rounds int
	// Workers is the widest shard count observed.
	Workers int
	// Busy is total worker time spent sweeping nodes, summed over shards.
	Busy time.Duration
	// Critical is the per-round maximum shard sweep time, summed over
	// rounds — the parallel critical path of the sweeps.
	Critical time.Duration
	// DispatchedCritical is the per-round critical path weighted by the
	// number of shards actually dispatched that round: Σ over rounds of
	// dispatched × max busy. In tail rounds the empty-shard skip
	// dispatches only the shards with live or just-halted nodes, so this —
	// not Workers × Critical — is the capacity the sweeps could have used.
	DispatchedCritical time.Duration
	// Merge is total coordinator time spent merging outboxes into
	// inboxes (delivery, fault draws, accounting).
	Merge time.Duration
	// LiveMax and LiveMin sum each round's largest and smallest per-shard
	// live count; their ratio exposes shard imbalance as nodes halt.
	LiveMax, LiveMin int64

	// The open round: whether it produced timing events, and its shard
	// count, critical path, dispatched shards and live-count extremes.
	timed              bool
	shards, dispatched int
	max                time.Duration
	liveLo, liveHi     int
}

// Emit folds one event into the aggregate. A shard counts as dispatched
// for the round when it reported sweep time or still holds live nodes —
// the frontier never regrows, so a shard with neither was skipped by the
// coordinator.
func (d *DriverStats) Emit(e trace.Event) {
	switch e.Type {
	case trace.EvShardBusy:
		busy, live := time.Duration(e.X), int(e.Y)
		d.Busy += busy
		if d.shards == 0 || live < d.liveLo {
			d.liveLo = live
		}
		if d.shards == 0 || live > d.liveHi {
			d.liveHi = live
		}
		if busy > d.max {
			d.max = busy
		}
		if busy > 0 || live > 0 {
			d.dispatched++
		}
		d.shards++
		d.timed = true
	case trace.EvMerge:
		d.Merge += time.Duration(e.X)
		d.timed = true
	case trace.EvRoundEnd:
		if !d.timed {
			return
		}
		d.Rounds++
		if d.shards > d.Workers {
			d.Workers = d.shards
		}
		d.Critical += d.max
		d.DispatchedCritical += time.Duration(d.dispatched) * d.max
		if d.shards > 0 {
			d.LiveMax += int64(d.liveHi)
			d.LiveMin += int64(d.liveLo)
		}
		d.timed, d.shards, d.dispatched, d.max = false, 0, 0, 0
	}
}

// Efficiency returns sweep-parallelism efficiency in (0, 1]: total busy
// time divided by the dispatched-weighted critical path. 1 means the
// dispatched shards were perfectly balanced every round. Weighting by
// dispatched shards (not the widest-ever worker count) keeps tail rounds
// honest: when the empty-shard skip dispatches one straggler shard, that
// round's denominator is one shard's time, not the full pool's — a
// single-shard round is "efficient" by definition, and imbalance across
// the pool shows up in LiveMax/LiveMin instead. It returns NaN-free 0
// when nothing was observed.
func (d *DriverStats) Efficiency() float64 {
	if d.Workers == 0 || d.DispatchedCritical == 0 {
		return 0
	}
	return float64(d.Busy) / float64(d.DispatchedCritical)
}

// String renders the aggregate for cmd/bench.
func (d *DriverStats) String() string {
	if d.Rounds == 0 {
		return "pool driver: no rounds observed"
	}
	return fmt.Sprintf(
		"pool driver: %d rounds, %d workers, busy %v (critical path %v, efficiency %.2f), merge %v",
		d.Rounds, d.Workers, d.Busy.Round(time.Microsecond),
		d.Critical.Round(time.Microsecond), d.Efficiency(),
		d.Merge.Round(time.Microsecond))
}
